"""Scoped (incremental) fair-share reallocation over resource classes.

The full allocator in :class:`~repro.simulator.simulation.Simulation`
re-solves every resource — all executor groups, all disk groups, and
one global water-filling over every network flow — whenever *any* work
item starts or finishes.  The paper's model (Eq. (1)–(3)) needs far
less: a flow's max-min rate depends only on how many flows share its
(src, dst) pair and its two NICs, and a demand's or write's rate only
on which stages share its node.

:class:`ScopedAllocator` therefore keeps *class state* instead of
scanning work items:

* flows grouped by (src, dst) pair;
* demands and writes grouped by node;
* per group, the count of each stage key (for the contention penalty
  on executors, disk and NIC ingress).

The state changes O(1) per item from the engine's ``added``/``removed``
lists.  Each scoped solve then re-solves:

* **Dirty nodes.**  A node whose demands (writes) changed runs
  ``compute_shares`` (``disk_shares``) on that node's group and applies
  the penalty factor of the group's stage count; other nodes keep their
  rates, which depend on nothing that changed.
* **Network.**  When any flow changed, one water-filling runs over the
  pair classes with their multiplicities
  (:func:`~repro.simulator.fairshare.maxmin_class_rates`) and each
  class's rate, times the penalty factor of its destination, is
  scattered to its flows (only to classes whose value moved).  The
  class solve is bit-identical to the full allocator's per-flow one
  because uncapped flows frozen in a round all subtract the same
  bottleneck from their NICs — the result does not depend on flow order
  or grouping.  Pair caps and a finite core fabric break that, so those
  topologies fall back to the per-flow ``maxmin_rates_seq`` over every
  active flow in engine order.

After a full allocation (``engine.mark_dirty()``: degradations, faults)
and in a fresh fork the state is stale; the next scoped solve rebuilds
it from the active items and re-solves everything once.  Bit-identity
with the full allocator is asserted with hypothesis
(`tests/test_perf_equivalence.py`), which keeps ``--no-incremental``
a pure bisection switch rather than a different model.

The allocator is only installed when the simulation config allows it
(``incremental=True`` and no pipelined shuffle: AggShuffle prefetch
rate caps depend on compute rates at the producer, coupling resources
across kinds, so AggShuffle always takes the full path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simulator.fairshare import (
    compute_shares,
    disk_shares,
    maxmin_class_rates,
    maxmin_rates_seq,
)
from repro.simulator.flows import ComputeDemand, NetworkFlow
from repro.verify import sanitizer as _sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Topology
    from repro.simulator.engine import WorkItem
    from repro.simulator.simulation import SimulationConfig


class _Group:
    """One node's active demands (or writes) and their stage counts."""

    __slots__ = ("items", "stages", "dirty")

    def __init__(self) -> None:
        self.items: "dict[WorkItem, None]" = {}
        self.stages: "dict[tuple[str, str], int]" = {}
        #: Queued for this solve (dedupes the dirty list).
        self.dirty = False


class _Pair:
    """The active flows of one (src, dst) pair: one water-filling class."""

    __slots__ = ("flows", "src", "dst", "node", "rate")

    def __init__(self, src: int, dst: int, node: str) -> None:
        self.flows: "dict[NetworkFlow, None]" = {}
        self.src = src
        self.dst = dst
        #: Destination node id (keys the ingress stage counts).
        self.node = node
        #: Rate last scattered to the flows; ``None`` forces a scatter.
        self.rate: "float | None" = None


class ScopedAllocator:
    """Class-state scoped reallocation for one simulation.

    Installed as the engine's ``allocate_incremental`` callback; the
    engine hands it the full active list plus exactly the items added
    and removed since the previous allocation.  External mutations
    (degradation injections, cap changes) go through
    ``engine.mark_dirty()``, which runs the full allocator instead; the
    owner then calls :meth:`invalidate`.  Holds the owner's capacity
    tables, never the owner itself.
    """

    __slots__ = ("_topology", "_executors", "_disk_bw", "_task_granular",
                 "_penalty", "_pairs", "_into", "_cpu", "_disk", "_stale")

    def __init__(
        self,
        topology: "Topology",
        executors: "dict[str, float]",
        disk_bw: "dict[str, float]",
        config: "SimulationConfig",
    ) -> None:
        self._topology = topology
        self._executors = executors
        self._disk_bw = disk_bw
        self._task_granular = config.task_granular
        self._penalty = config.contention_penalty
        self._pairs: "dict[tuple[str, str], _Pair]" = {}
        #: Stage counts of the flows into each node (NIC ingress).
        self._into: "dict[str, dict[tuple[str, str], int]]" = {}
        self._cpu: "dict[str, _Group]" = {}
        self._disk: "dict[str, _Group]" = {}
        self._stale = True

    def invalidate(self) -> None:
        """Rates and membership changed behind this allocator's back
        (a full allocation ran): rebuild at the next solve."""
        self._stale = True

    # ------------------------------------------------------------------ #
    # class state
    # ------------------------------------------------------------------ #

    def _rebuild(self, items: "list[WorkItem]") -> None:
        self._pairs = {}
        self._into = {}
        self._cpu = {}
        self._disk = {}
        for item in items:
            self._add(item)
        self._stale = False

    def _add(self, item: "WorkItem") -> "_Group | None":
        """Enter one item into the class state; returns its node group
        (``None`` for a flow)."""
        kind = type(item)
        group = None
        if kind is NetworkFlow:
            pair = self._pairs.get((item.src, item.dst))
            if pair is None:
                index = self._topology.index
                pair = self._pairs[(item.src, item.dst)] = _Pair(
                    index[item.src], index[item.dst], item.dst)
            pair.flows[item] = None
            pair.rate = None
            stages = self._into.get(item.dst)
            if stages is None:
                stages = self._into[item.dst] = {}
        else:
            groups = self._cpu if kind is ComputeDemand else self._disk
            group = groups.get(item.node)
            if group is None:
                group = groups[item.node] = _Group()
            group.items[item] = None
            stages = group.stages
        key = item.stage_key
        stages[key] = stages.get(key, 0) + 1
        return group

    def _remove(self, item: "WorkItem") -> "_Group | None":
        """Take one item out of the class state (see :meth:`_add`)."""
        kind = type(item)
        group = None
        if kind is NetworkFlow:
            del self._pairs[(item.src, item.dst)].flows[item]
            stages = self._into[item.dst]
        else:
            groups = self._cpu if kind is ComputeDemand else self._disk
            group = groups[item.node]
            del group.items[item]
            stages = group.stages
        key = item.stage_key
        count = stages[key] - 1
        if count:
            stages[key] = count
        else:
            del stages[key]
        return group

    # ------------------------------------------------------------------ #

    def allocate(
        self,
        items: "list[WorkItem]",
        added: "list[WorkItem]",
        removed: "list[WorkItem]",
    ) -> "list[WorkItem]":
        """Re-solve the groups ``added``/``removed`` touched; returns
        exactly the items whose rates were rewritten (a vector engine
        scatters only these rows back into its arrays)."""
        cpu: "list[_Group]"
        disk: "list[_Group]"
        if self._stale:
            # ``items`` already reflects every change: re-solve it all.
            self._rebuild(items)
            cpu = list(self._cpu.values())
            disk = list(self._disk.values())
            net = True
        else:
            cpu = []
            disk = []
            net = False
            for change, apply in ((added, self._add), (removed, self._remove)):
                for item in change:
                    group = apply(item)
                    if group is None:
                        net = True
                    elif not group.dirty:
                        group.dirty = True
                        if type(item) is ComputeDemand:
                            cpu.append(group)
                        else:
                            disk.append(group)
        touched: "list[WorkItem]" = []
        penalty = self._penalty
        for group in cpu:
            group.dirty = False
            if group.items:
                self._solve_cpu(group, touched)
        if cpu and _sanitizer.ENABLED and self._task_granular:
            self._check_slots()
        for group in disk:
            group.dirty = False
            if group.items:
                writes = list(group.items)
                disk_shares(writes, self._disk_bw)
                if penalty > 0.0:
                    _penalize(writes, len(group.stages), penalty)
                touched.extend(writes)
        if net:
            self._solve_network(items, touched)
        return touched

    def _solve_cpu(self, group: _Group, touched: "list[WorkItem]") -> None:
        demands = list(group.items)
        if self._task_granular:
            # Executor slots already serialize tasks; each running task
            # gets one full executor, and no CPU contention penalty.
            for d in demands:
                d.executor_share = 1.0
                d.rate = d.process_rate
        else:
            compute_shares(demands, self._executors)
            if self._penalty > 0.0:
                _penalize(demands, len(group.stages), self._penalty)
        touched.extend(demands)

    def _check_slots(self) -> None:
        """The full allocator's slot-capacity check, over every node:
        the scoped solve only sees dirty ones, but overcommit anywhere
        should still trip the sanitizer."""
        executors = self._executors
        for node, group in self._cpu.items():
            count = len(group.items)
            if count > executors[node]:
                raise _sanitizer.SanitizerError(
                    f"{count} concurrent tasks on {node!r} exceed its "
                    f"{executors[node]} executor slots"
                )

    def _solve_network(
        self, items: "list[WorkItem]", touched: "list[WorkItem]"
    ) -> None:
        topology = self._topology
        if topology._pair_caps or topology.core_capacity is not None:
            # Caps make rates depend on flow order: per-flow solve over
            # every flow, in engine order, as the full allocator does.
            flows = [item for item in items if type(item) is NetworkFlow]
            rates = maxmin_rates_seq(flows, topology)
            for f, r in zip(flows, rates):
                f.rate = self._ingress_factor(f.dst, float(r))
            touched.extend(flows)
            return
        live = []
        srcs = []
        dsts = []
        counts = []
        for pair in self._pairs.values():
            n = len(pair.flows)
            if n:
                live.append(pair)
                srcs.append(pair.src)
                dsts.append(pair.dst)
                counts.append(n)
        if not live:
            return
        rates = maxmin_class_rates(srcs, dsts, counts, topology)
        if _sanitizer.ENABLED:
            _sanitizer.check_network_allocation(
                [f for p in live for f in p.flows], topology,
                [r for p, r in zip(live, rates) for _ in p.flows],
            )
        for pair, rate in zip(live, rates):
            rate = self._ingress_factor(pair.node, rate)
            if rate != pair.rate:
                pair.rate = rate
                flows = pair.flows
                for f in flows:
                    f.rate = rate
                touched.extend(flows)

    def _ingress_factor(self, node: str, rate: float) -> float:
        """``rate`` times the contention factor of ``node``'s ingress
        (unchanged while at most one stage reads there)."""
        penalty = self._penalty
        if penalty > 0.0:
            n = len(self._into[node])
            if n > 1:
                return rate * (1.0 / (1.0 + penalty * (n - 1)))
        return rate


def _penalize(items: list, n_stages: int, penalty: float) -> None:
    """Scale one group's rates by its contention factor (the full
    allocator's expression; a single stage keeps its rate)."""
    if n_stages > 1:
        factor = 1.0 / (1.0 + penalty * (n_stages - 1))
        for item in items:
            item.rate *= factor
