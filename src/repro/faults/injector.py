"""Deterministic fault injection and recovery for the fluid simulator.

The :class:`FaultInjector` owns the partition lifecycle of every stage
when a non-empty :class:`~repro.faults.plan.FaultPlan` is installed:
the simulation delegates :meth:`start_parts` instead of creating the
read/compute/write work items itself, so each item carries its
partition slot and the injector can cancel, re-source, and requeue work
when faults fire.  With an empty plan no injector is constructed and
the simulation runs its unmodified healthy path — which is what makes
empty-plan runs byte-identical to the pre-fault code.

Fault model (see ``docs/faults.md``):

* **Slots vs hosts** — the partition count is fixed at the worker
  count; each *slot* (named after its original worker) maps to a live
  *host* through ``slot_host``.  A crash deterministically reassigns
  the dead node's slots round-robin over the survivors, starting at
  the dead node's position, so requeue placement is a pure function of
  the plan — no tie-breaking nondeterminism.
* **Crash semantics** — in-flight partitions on the dead node lose
  their progress and requeue (capped exponential backoff, per-stage
  retry budget); transfers *sourced* from the dead node resume from a
  surviving replica with their remaining volume intact (shuffle data
  is assumed replicated — explicit data loss is modeled only by
  ``lost_partition`` events).
* **Recompute semantics** — a lost shuffle partition whose data some
  not-yet-submitted child still needs un-completes the producing stage
  for exactly that partition; already-submitted consumers keep their
  in-flight reads (served from replicas).  Children gated again this
  way are re-released only when the stage re-completes.
* **Retry budget** — requeues and recomputes share one per-stage
  budget; exhausting it fails the job at that instant (the job record
  keeps the failure time, so makespans stay finite).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.delayer import ReplanningStageDelayer
from repro.core.replan import replan_delays
from repro.faults.plan import (
    FaultPlan,
    LostShufflePartition,
    NicBrownout,
    NodeCrash,
    Straggler,
)
from repro.simulator.events import EventKind
from repro.simulator.flows import ComputeDemand, DiskWrite, NetworkFlow
from repro.verify import sanitizer as _sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import WorkItem
    from repro.simulator.simulation import Simulation, _StageRun


@dataclass
class FaultStats:
    """Aggregate fault / recovery telemetry for one run."""

    crashes: int = 0
    brownouts: int = 0
    stragglers: int = 0
    partitions_lost: int = 0
    retries: int = 0
    replans: int = 0
    injected: int = 0
    work_lost_bytes: float = 0.0
    work_recomputed_bytes: float = 0.0
    jobs_failed: list = field(default_factory=list)
    dead_nodes: dict = field(default_factory=dict)  # node -> crash time
    stage_retries: dict = field(default_factory=dict)  # "job/stage" -> count
    retry_budget: int = 0

    def to_dict(self) -> dict:
        return {
            "crashes": self.crashes,
            "brownouts": self.brownouts,
            "stragglers": self.stragglers,
            "partitions_lost": self.partitions_lost,
            "retries": self.retries,
            "replans": self.replans,
            "injected": self.injected,
            "work_lost_bytes": self.work_lost_bytes,
            "work_recomputed_bytes": self.work_recomputed_bytes,
            "jobs_failed": list(self.jobs_failed),
            "dead_nodes": dict(self.dead_nodes),
            "stage_retries": dict(self.stage_retries),
            "retry_budget": self.retry_budget,
        }


class FaultInjector:
    """Applies one :class:`FaultPlan` to one :class:`Simulation`."""

    def __init__(self, sim: "Simulation", plan: FaultPlan) -> None:
        #: Weak: ``sim`` owns this injector, so a strong reference
        #: would close a cycle that only the cyclic collector frees.
        self.sim = weakref.proxy(sim)
        self.plan = plan
        self.stats = FaultStats(retry_budget=plan.retry_budget)
        #: Partition slot -> live host currently responsible for it.
        self.slot_host: dict[str, str] = {w: w for w in sim.workers}
        #: Dead node -> crash time.
        self.dead: dict[str, float] = {}
        self.failed_jobs: set[str] = set()
        #: Accumulated degradation factors per node (nic, disk, executors),
        #: consumed by the degraded-cluster builder for re-planning.
        self._node_factors: dict[str, list[float]] = {}
        #: Active work items per (stage key, slot).
        self._active: "dict[tuple, list[WorkItem]]" = {}
        #: Item -> volume it was created with (work-lost accounting).
        self._initial: "dict[WorkItem, float]" = {}
        #: Parts sitting out a retry backoff.
        self._waiting: set = set()
        #: Requeue epoch per part; stale backoff timers no-op.
        self._epoch: dict = {}

    # ------------------------------------------------------------------ #
    # plan installation
    # ------------------------------------------------------------------ #

    def schedule_events(self) -> None:
        """Register one engine timer per fault event (call before run)."""
        for event in self.plan.events:
            self.sim.engine.schedule(event.time, self._make_fire(event))

    def _make_fire(self, event) -> Callable[[], None]:
        def fire() -> None:
            self._fire(event)

        return fire

    def _fire(self, event) -> None:
        self.stats.injected += 1
        self._log(
            EventKind.FAULT_INJECTED,
            getattr(event, "job", ""),
            getattr(event, "stage", ""),
            info={"fault": event.kind, **_event_info(event)},
        )
        self._instant(f"fault:{event.kind}", _event_info(event))
        self._telemetry("injected", fault=event.kind, **_event_info(event))
        if isinstance(event, NodeCrash):
            self._crash(event)
        elif isinstance(event, NicBrownout):
            self._brownout(event)
        elif isinstance(event, Straggler):
            self._straggler(event)
        elif isinstance(event, LostShufflePartition):
            self._lost_partition(event)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise TypeError(f"unknown fault event {event!r}")

    # ------------------------------------------------------------------ #
    # partition lifecycle (replaces the healthy path's item creation)
    # ------------------------------------------------------------------ #

    def on_submit(self, run: "_StageRun") -> bool:
        """Gate for ``_submit_stage``: False suppresses the submission."""
        if run.key[0] in self.failed_jobs:
            return False
        if run.submitted:
            # A regate/re-ready cycle leaves two pending submission
            # timers; whichever fires first (once the gate clears)
            # submits, and the straggler must be a no-op.
            return False
        if run.remaining_parents > 0:
            # A lost partition re-gated this stage after its submission
            # timer was already pending; the re-completed parent will
            # re-ready it (with a fresh delay) when the data exists again.
            return False
        return True

    def start_parts(self, run: "_StageRun") -> None:
        """Launch every partition of a freshly submitted stage."""
        for slot in self.sim.workers:
            self._start_part(run, slot)

    def _start_part(self, run: "_StageRun", slot: str) -> None:
        """(Re)start one partition from its shuffle-read phase."""
        if run.key[0] in self.failed_jobs:
            return
        sim = self.sim
        host = self.slot_host[slot]
        sources = sim._read_sources(run)
        per_source = run.stage.input_bytes / len(sim.workers) / len(sources)
        flows = []
        for src_slot in sources:
            src = self.slot_host.get(src_slot, src_slot)  # storage maps to itself
            if src == host or per_source <= 0.0:
                continue  # co-located (or replicated-onto-host) data is local
            flows.append((src, src_slot))
        run.pending_reads[slot] = len(flows)
        if not flows:
            self._part_read_done(run, slot)
            return
        key = (run.key, slot)
        for src, src_slot in flows:
            item = NetworkFlow(
                src=src,
                dst=host,
                volume=per_source,
                stage_key=run.key,
                on_complete=self._make_read_flow_done(run, slot),
                part=slot,
                src_slot=src_slot if src_slot in self.slot_host else None,
            )
            self._track(key, item, per_source)
            sim.engine.add_item(item)

    def _make_read_flow_done(
        self, run: "_StageRun", slot: str
    ) -> Callable[[float], None]:
        def done(_t: float) -> None:
            self._finish_read_flow(run, slot)

        return done

    def _finish_read_flow(self, run: "_StageRun", slot: str) -> None:
        run.pending_reads[slot] -= 1
        if run.pending_reads[slot] == 0 and slot not in run.parts_read_done:
            self._part_read_done(run, slot)

    def _part_read_done(self, run: "_StageRun", slot: str) -> None:
        sim = self.sim
        run.parts_read_done.add(slot)
        if len(run.parts_read_done) == len(sim.workers):
            run.record.read_done_time = sim.engine.now
            sim._log(EventKind.STAGE_READ_DONE, run.key[0], run.key[1])
        volume = run.compute_volume
        if volume < 0.0:
            volume = run.compute_volume = sim._compute_volume(run)
        run.compute_active.add(slot)
        host = self.slot_host[slot]
        if volume <= 0.0:
            self._part_compute_done(run, slot, host)
            return
        item = ComputeDemand(
            node=host,
            volume=volume,
            stage_key=run.key,
            process_rate=run.stage.process_rate,
            on_complete=lambda _t, h=host: self._part_compute_done(run, slot, h),
            part=slot,
        )
        self._track((run.key, slot), item, volume)
        sim.engine.add_item(item)

    def _part_compute_done(self, run: "_StageRun", slot: str, host: str) -> None:
        sim = self.sim
        self._check_live(host, run, slot, "compute")
        run.compute_active.discard(slot)
        run.parts_compute_done.add(slot)
        if len(run.parts_compute_done) == len(sim.workers):
            run.record.compute_done_time = sim.engine.now
            sim._log(EventKind.STAGE_COMPUTE_DONE, run.key[0], run.key[1])
        write_volume = run.stage.output_bytes / len(sim.workers)
        if write_volume <= 0.0:
            self._part_write_done(run, slot, host)
            return
        item = DiskWrite(
            node=host,
            volume=write_volume,
            stage_key=run.key,
            on_complete=lambda _t, h=host: self._part_write_done(run, slot, h),
            part=slot,
        )
        self._track((run.key, slot), item, write_volume)
        sim.engine.add_item(item)

    def _part_write_done(self, run: "_StageRun", slot: str, host: str) -> None:
        self._check_live(host, run, slot, "write")
        run.parts_write_done.add(slot)
        if len(run.parts_write_done) == len(self.sim.workers):
            self._stage_completed(run)

    def _stage_completed(self, run: "_StageRun") -> None:
        sim = self.sim
        now = sim.engine.now
        run.record.finish_time = now
        job_id, stage_id = run.key
        sim._log(EventKind.STAGE_COMPLETED, job_id, stage_id)

        job = run.job
        # After a lost-partition recompute only the children that were
        # re-gated wait on this re-completion; everyone else already ran.
        targets = run.regated if run.regated is not None else job.children(stage_id)
        run.regated = None
        for child in targets:
            child_run = sim._runs[(job_id, child)]
            child_run.remaining_parents -= 1
            if child_run.remaining_parents == 0:
                sim._stage_ready(child_run)

        sim._remaining_stages[job_id] -= 1
        if sim._remaining_stages[job_id] == 0:
            sim._job_records[job_id].finish_time = now
            sim._log(EventKind.JOB_COMPLETED, job_id)

    # ------------------------------------------------------------------ #
    # fault handlers
    # ------------------------------------------------------------------ #

    def _crash(self, event: NodeCrash) -> None:
        sim = self.sim
        node = event.node
        if node in self.dead:
            return  # idempotent: a node dies once
        now = sim.engine.now
        self.dead[node] = now
        self.stats.crashes += 1
        self.stats.dead_nodes[node] = now
        self._log(EventKind.NODE_CRASHED, "", "", info={"node": node})
        self._telemetry("crash", node=node)

        # Deterministic slot succession: the dead node's slots go
        # round-robin over the survivors, starting at its own index.
        dying = [s for s in sim.workers if self.slot_host[s] == node]
        live = [w for w in sim.workers if w not in self.dead]
        if not live:  # pragma: no cover - plan validation guarantees survivors
            raise RuntimeError("fault plan crashed every worker")
        start = sim.workers.index(node)
        for i, slot in enumerate(dying):
            successor = live[(start + i) % len(live)]
            self.slot_host[slot] = successor
            self._telemetry("slot_succession", slot=slot, node=successor)

        dying_set = set(dying)
        for run in sim._runs.values():
            if run.key[0] in self.failed_jobs or not run.submitted:
                continue
            for slot in sim.workers:
                if run.key[0] in self.failed_jobs:
                    break  # a requeue may have just exhausted the budget
                if slot in dying_set:
                    self._crash_part(run, slot, node)
                else:
                    self._resource_reads(run, slot, node)

        self._maybe_replan(f"node_crashed:{node}")

    def _crash_part(self, run: "_StageRun", slot: str, node: str) -> None:
        """The partition itself ran on the dead node: requeue it."""
        if slot in run.parts_write_done:
            return  # finished partitions survive via replication
        if (run.key, slot) in self._waiting:
            return  # already backing off; the restart maps to a live host
        self._cancel_part_items(run, slot)
        run.pending_reads[slot] = 0
        run.parts_read_done.discard(slot)
        run.parts_compute_done.discard(slot)
        run.compute_active.discard(slot)
        self._requeue(run, slot, reason=f"node_crashed:{node}")

    def _resource_reads(self, run: "_StageRun", slot: str, node: str) -> None:
        """Flows feeding a surviving partition from the dead node resume
        from a replica with their remaining volume intact."""
        key = (run.key, slot)
        for item in list(self._active.get(key, ())):
            if type(item) is not NetworkFlow or item.src != node:
                continue
            remaining = item.remaining
            self.sim.engine.cancel_item(item)
            self._untrack(key, item)
            replica = (
                self.slot_host[item.src_slot] if item.src_slot is not None else item.src
            )
            if replica == item.dst or remaining <= 0.0:
                # The replica is co-located with the reader: the data is
                # local now, the transfer completes immediately.
                self._finish_read_flow(run, slot)
                continue
            moved = NetworkFlow(
                src=replica,
                dst=item.dst,
                volume=remaining,
                stage_key=run.key,
                on_complete=self._make_read_flow_done(run, slot),
                part=slot,
                src_slot=item.src_slot,
            )
            self._track(key, moved, remaining)
            self.sim.engine.add_item(moved)

    def _brownout(self, event: NicBrownout) -> None:
        self.stats.brownouts += 1
        self._telemetry("brownout", node=event.node, factor=event.factor)
        if event.node in self.dead:
            return
        self._degrade(event.node, nic=event.factor)
        self.sim.engine.schedule(event.end, lambda: self._brownout_end(event))
        self._maybe_replan(f"nic_brownout:{event.node}")

    def _brownout_end(self, event: NicBrownout) -> None:
        if event.node in self.dead:
            return
        self._degrade(event.node, nic=1.0 / event.factor)
        self._maybe_replan(f"nic_brownout_end:{event.node}")

    def _straggler(self, event: Straggler) -> None:
        self.stats.stragglers += 1
        self._telemetry("straggler", node=event.node, factor=event.factor)
        if event.node in self.dead:
            return
        self._degrade(event.node, executors=1.0 / event.factor)
        self.sim.engine.schedule(event.until, lambda: self._straggler_end(event))
        self._maybe_replan(f"straggler:{event.node}")

    def _straggler_end(self, event: Straggler) -> None:
        if event.node in self.dead:
            return
        self._degrade(event.node, executors=event.factor)
        self._maybe_replan(f"straggler_end:{event.node}")

    def _degrade(
        self, node: str, nic: float = 1.0, disk: float = 1.0, executors: float = 1.0
    ) -> None:
        self.sim._apply_degradation(node, nic, disk, executors)
        factors = self._node_factors.setdefault(node, [1.0, 1.0, 1.0])
        factors[0] *= nic
        factors[1] *= disk
        factors[2] *= executors

    def _lost_partition(self, event: LostShufflePartition) -> None:
        sim = self.sim
        run = sim._runs.get((event.job, event.stage))
        if (
            run is None
            or event.job in self.failed_jobs
            or event.part not in run.pending_reads
            or event.part not in run.parts_write_done
            or sim._remaining_stages.get(event.job, 0) == 0
        ):
            return  # data not produced yet, job gone, or unknown target: no-op
        job = run.job
        children = job.children(event.stage)
        gated = [
            c for c in children if not sim._runs[(event.job, c)].submitted
        ]
        if not children or not gated:
            return  # every consumer already fetched (or is fetching replicas)

        slot = event.part
        self.stats.partitions_lost += 1
        self._log(
            EventKind.PARTITION_LOST, event.job, event.stage, info={"part": slot}
        )
        self._telemetry(
            "partition_lost", job=event.job, stage=event.stage, part=slot
        )
        was_complete = len(run.parts_write_done) == len(sim.workers)
        run.parts_write_done.discard(slot)
        run.parts_read_done.discard(slot)
        run.parts_compute_done.discard(slot)
        run.pending_reads[slot] = 0
        volume = run.compute_volume if run.compute_volume >= 0.0 else 0.0
        self.stats.work_recomputed_bytes += (
            run.stage.input_bytes / len(sim.workers)
            + volume
            + run.stage.output_bytes / len(sim.workers)
        )
        if was_complete:
            # Un-complete the stage for this partition and gate the
            # children that have not consumed its output yet.
            sim._remaining_stages[event.job] += 1
            run.regated = []
            for child in gated:
                sim._runs[(event.job, child)].remaining_parents += 1
                run.regated.append(child)
        self._requeue(run, slot, reason="partition_lost")

    # ------------------------------------------------------------------ #
    # retry / failure machinery
    # ------------------------------------------------------------------ #

    def _requeue(self, run: "_StageRun", slot: str, reason: str) -> None:
        sim = self.sim
        run.retries += 1
        self.stats.retries += 1
        stage_label = f"{run.key[0]}/{run.key[1]}"
        self.stats.stage_retries[stage_label] = (
            self.stats.stage_retries.get(stage_label, 0) + 1
        )
        # Published before the budget check so the live retry counter
        # matches stats.retries (which also counts the exhausting attempt).
        self._telemetry(
            "retry", stage=stage_label, part=slot, attempt=run.retries,
            reason=reason,
        )
        if run.retries > self.plan.retry_budget:
            self._fail_job(run.key[0], f"retry budget exhausted at {stage_label}")
            return
        attempt = run.retries
        delay = self.plan.backoff(attempt)
        self._log(
            EventKind.TASK_RETRY,
            run.key[0],
            run.key[1],
            info={"part": slot, "attempt": attempt, "backoff": delay,
                  "reason": reason},
        )
        self._instant(
            "task-retry",
            {"stage": stage_label, "part": slot, "attempt": attempt},
        )
        key = (run.key, slot)
        self._waiting.add(key)
        epoch = self._epoch[key] = self._epoch.get(key, 0) + 1
        sim.engine.schedule(
            sim.engine.now + delay, lambda: self._restart_part(run, slot, epoch)
        )

    def _restart_part(self, run: "_StageRun", slot: str, epoch: int) -> None:
        key = (run.key, slot)
        if self._epoch.get(key) != epoch or run.key[0] in self.failed_jobs:
            return  # superseded by a newer requeue or a failed job
        self._waiting.discard(key)
        self._start_part(run, slot)

    def _fail_job(self, job_id: str, reason: str) -> None:
        if job_id in self.failed_jobs:
            return
        sim = self.sim
        now = sim.engine.now
        self.failed_jobs.add(job_id)
        self.stats.jobs_failed.append(job_id)
        jrec = sim._job_records[job_id]
        jrec.finish_time = now  # time of failure keeps makespans finite
        self._log(EventKind.JOB_FAILED, job_id, "", info={"reason": reason})
        self._instant("job-failed", {"job": job_id, "reason": reason})
        self._telemetry("job_failed", job=job_id, reason=reason)
        for key in list(self._active):
            if key[0][0] != job_id:
                continue
            run = sim._runs[key[0]]
            self._cancel_part_items(run, key[1])

    def _cancel_part_items(self, run: "_StageRun", slot: str) -> None:
        key = (run.key, slot)
        for item in list(self._active.get(key, ())):
            self.sim.engine.cancel_item(item)
            started = self._initial.get(item, item.remaining) - item.remaining
            if started > 0.0:
                self.stats.work_lost_bytes += started
            self._untrack(key, item)

    # ------------------------------------------------------------------ #
    # re-planning (DelayStage Alg. 1 against the surviving cluster)
    # ------------------------------------------------------------------ #

    def _maybe_replan(self, reason: str) -> None:
        sim = self.sim
        for job_id, (job, policy, _t) in sim._jobs.items():
            if not isinstance(policy, ReplanningStageDelayer):
                continue
            if job_id in self.failed_jobs or sim._remaining_stages.get(job_id, 0) == 0:
                continue
            frozen = {
                sid for sid in job.stage_ids if sim._runs[(job_id, sid)].submitted
            }
            if len(frozen) == len(job.stage_ids):
                continue  # everything already launched; nothing to re-plan
            cluster = self.degraded_cluster()
            delays = replan_delays(job, cluster, frozen, policy.params)
            policy.update_table(job_id, delays)
            self.stats.replans += 1
            self._log(
                EventKind.STAGE_REPLANNED,
                job_id,
                "",
                info={
                    "reason": reason,
                    "delays": {sid: float(x) for sid, x in sorted(delays.items())},
                    "surviving_workers": cluster.num_workers,
                },
            )
            self._instant(
                "replan", {"job": job_id, "reason": reason, "stages": len(delays)}
            )
            self._telemetry(
                "replan", job=job_id, reason=reason, stages=len(delays)
            )

    def degraded_cluster(self):
        """The surviving cluster with accumulated degradation applied."""
        from dataclasses import replace

        from repro.cluster.spec import ClusterSpec

        nodes = []
        for spec in self.sim.cluster.nodes:
            if spec.node_id in self.dead:
                continue
            nf, df, ef = self._node_factors.get(spec.node_id, (1.0, 1.0, 1.0))
            executors = spec.executors
            if not spec.is_storage:
                executors = max(1, round(spec.executors * ef))
            nodes.append(
                replace(
                    spec,
                    executors=executors,
                    nic_bandwidth=spec.nic_bandwidth * nf,
                    disk_bandwidth=spec.disk_bandwidth * df,
                )
            )
        return ClusterSpec(nodes)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _track(self, key: tuple, item: "WorkItem", volume: float) -> None:
        self._active.setdefault(key, []).append(item)
        self._initial[item] = volume

    def _untrack(self, key: tuple, item: "WorkItem") -> None:
        items = self._active.get(key)
        if items is not None and item in items:
            items.remove(item)
            if not items:
                del self._active[key]
        self._initial.pop(item, None)

    def _check_live(
        self, host: str, run: "_StageRun", slot: str, phase: str
    ) -> None:
        """Sanitizer rule: no partition work may finish on a dead node."""
        if _sanitizer.ENABLED and host in self.dead:
            raise _sanitizer.SanitizerError(
                f"{phase} of partition {slot!r} ({run.key[0]}/{run.key[1]}) "
                f"finished on {host!r}, which crashed at t={self.dead[host]:.3f}"
            )

    def _log(self, kind: EventKind, job_id: str, stage_id: str, info: dict) -> None:
        self.sim._log(kind, job_id, stage_id, info=info)

    def _telemetry(self, kind: str, **fields) -> None:
        """Publish one fault event to the live plane (one branch when off).

        The hook only observes — it reads nothing back — so runs with
        and without a subscriber stay byte-identical.
        """
        hook = self.sim.fault_hook
        if hook is not None:
            hook(kind, fields)

    def _instant(self, name: str, args: dict) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                name,
                self.sim.engine.now,
                track=(self.sim.trace_scope, "faults"),
                cat="fault",
                args=args,
            )

    def counters(self) -> dict:
        """Fault counters merged into the run's telemetry."""
        s = self.stats
        return {
            "faults.injected": float(s.injected),
            "faults.crashes": float(s.crashes),
            "faults.retries": float(s.retries),
            "faults.replans": float(s.replans),
            "faults.partitions_lost": float(s.partitions_lost),
            "faults.jobs_failed": float(len(s.jobs_failed)),
            "faults.work_lost_mb": float(s.work_lost_bytes / 1e6),
            "faults.work_recomputed_mb": float(s.work_recomputed_bytes / 1e6),
        }

    def finalize(self) -> None:
        """Post-run consistency: completion callbacks emptied the books
        for every job that finished (belt-and-braces; cancelled items
        for failed jobs are allowed to linger)."""
        if not _sanitizer.ENABLED:
            return
        for (key, slot), items in self._active.items():
            if key[0] in self.failed_jobs:
                continue
            live = [item for item in items if item._pos >= 0]
            if live:
                raise _sanitizer.SanitizerError(
                    f"partition {slot!r} of {key[0]}/{key[1]} left "
                    f"{len(live)} active item(s) after the run ended"
                )


def _event_info(event) -> dict:
    info: dict = {}
    for name in ("node", "factor", "start", "end", "until", "part"):
        value = getattr(event, name, None)
        if value is not None:
            info[name] = value
    return info
