"""Generic fluid event loop.

The engine advances a set of :class:`WorkItem` objects, each with a
remaining volume and a rate.  Rates are recomputed by a caller-supplied
allocator whenever the active set changes (an item completes or a timer
fires).  Between changes, rates are constant, so the next completion
time is exact: ``now + min(remaining / rate)``.

The engine is deliberately ignorant of *what* the items are; the
resource semantics (network max-min sharing, executor splitting, disk
sharing) live in :mod:`repro.simulator.fairshare` and are wired up by
:mod:`repro.simulator.simulation`.

**Events as data.**  A timer or a work-item completion is either a
plain callable (the generic API: ``schedule(t, callback)``,
``WorkItem(volume, on_complete=fn)``) or an *event tuple*
``(kind, *ids)`` the engine hands to its owner's single ``dispatch``
callback.  Timers sit in the heap as ``(t, seq, event)``.  Because an
event tuple names what happened by ids instead of closing over
simulation objects, the whole pending state of a run is data, which is
what lets :meth:`FluidEngine.fork` copy a run mid-flight: the copy's
owner resolves the same ids against its own state.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from repro.verify import sanitizer as _sanitizer


class WorkItem:
    """A unit of fluid work with a remaining volume and a current rate.

    Subclasses add routing/ownership attributes; the engine only touches
    ``remaining``, ``rate``, and ``on_complete``.  ``on_complete`` is a
    callable ``fn(now)`` or an event tuple for the engine's ``dispatch``
    callback (see the module docs).
    """

    __slots__ = ("remaining", "rate", "on_complete", "_pos")

    #: Every slot along the MRO, in definition order (filled per class
    #: by ``__init_subclass__``); :meth:`clone` copies exactly these.
    _fields: "tuple[str, ...]" = ("remaining", "rate", "on_complete", "_pos")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, volume: float, on_complete: "Callable[[float], None] | tuple | None" = None):
        # Single chained comparison: False for negatives, NaN, and +inf.
        if not 0.0 <= volume < math.inf:
            raise ValueError(f"volume must be finite and >= 0, got {volume!r}")
        self.remaining = float(volume)
        self.rate = 0.0
        self.on_complete = on_complete
        #: Index into the engine's active list (maintained by swap-remove).
        self._pos = -1

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0

    def clone(self) -> "WorkItem":
        """Field-by-field copy (same position, volume, rate, event)."""
        cls = type(self)
        new = cls.__new__(cls)
        for name in cls._fields:
            setattr(new, name, getattr(self, name))
        return new


class EngineStalledError(RuntimeError):
    """Raised when active items exist but every rate is zero and no timer
    is pending — the simulation can never make progress."""


class FluidEngine:
    """Fluid event loop with timers.

    Parameters
    ----------
    allocate:
        Callback invoked with the list of active items; it must set each
        item's ``rate`` (>= 0).  Called whenever the active set may have
        changed.
    observe:
        Optional callback ``observe(t0, t1, items)`` invoked for every
        interval of constant rates, used for exact metric integration.
    max_events:
        Safety valve against livelock bugs; the engine raises after this
        many loop iterations.
    allocate_incremental:
        Optional callback ``(items, added, removed)`` used instead of
        ``allocate`` when only item additions/completions occurred since
        the previous allocation.  ``added``/``removed`` list exactly the
        work items that entered/left the active set, letting the
        allocator re-solve only the affected resource groups while
        untouched items keep their previous rates.  :meth:`mark_dirty`
        (external mutation of capacities or rate caps) always falls back
        to the full ``allocate``.
    progress:
        Optional callback invoked with the engine every
        ``progress_every`` loop iterations (live-monitoring heartbeat).
        It must only *read* engine state; when ``None`` (the default)
        the loop pays a single ``is not None`` check per event.
    progress_every:
        Event interval between ``progress`` callbacks.
    dispatch:
        Owner callback receiving every event tuple (timer or work-item
        completion) that is data rather than a callable.  Callable
        events are invoked directly and need no dispatcher.
    """

    #: Relative tolerance used to snap near-complete items to done.
    EPS = 1e-9

    #: Process-wide count of loop iterations across every engine
    #: instance (subclasses included), accumulated when :meth:`run`
    #: returns.  Whole-pipeline throughput accounting: a scheduler run
    #: drives many engines — Algorithm 1's planning probes simulate the
    #: job dozens of times before the final execution run — and this
    #: counter is the only place that total is visible.  The bench
    #: harness samples it around a timed section; simulations never
    #: read it.
    TOTAL_EVENTS = 0

    def __init__(
        self,
        allocate: Callable[[list[WorkItem]], None],
        observe: "Callable[[float, float, list[WorkItem]], None] | None" = None,
        max_events: int = 5_000_000,
        allocate_incremental: "Callable[[list[WorkItem], list[WorkItem], list[WorkItem]], None] | None" = None,
        progress: "Callable[[FluidEngine], None] | None" = None,
        progress_every: int = 20_000,
        dispatch: "Callable[[tuple], None] | None" = None,
    ) -> None:
        self._allocate = allocate
        self._dispatch = dispatch
        self._allocate_incremental = allocate_incremental
        self._observe = observe
        self._max_events = max_events
        self._progress = progress
        self._progress_every = max(int(progress_every), 1)
        self.now = 0.0
        self._items: list[WorkItem] = []
        self._timers: "list[tuple[float, int, Callable[[], None] | tuple]]" = []
        #: Next timer sequence number; (t, seq) orders the heap, so
        #: same-instant timers fire in scheduling order.
        self._next_seq = 0
        self._dirty = True  # active set changed; rates must be recomputed
        self._full_dirty = True  # external mutation; incremental unsafe
        self._stop_requested = False
        self._interrupted = False
        #: True while a step cut short by interrupt() awaits its rest.
        self._mid_step = False
        self._added: list[WorkItem] = []
        self._removed: list[WorkItem] = []
        #: Loop iterations executed (run telemetry; also drives the
        #: livelock safety valve).
        self.events_processed = 0
        #: Peak concurrent work items (telemetry: queue depth).
        self.max_active_items = 0
        #: Allocation telemetry: full re-solves vs scoped incremental ones.
        self.full_allocations = 0
        self.incremental_allocations = 0

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #

    def add_item(self, item: WorkItem) -> None:
        """Register a new active work item (takes effect immediately)."""
        if item.remaining <= 0.0:
            # Zero-volume work completes instantly without entering the
            # active set (e.g. a fully-local shuffle read).
            self._complete(item.on_complete)
            return
        item._pos = len(self._items)
        self._items.append(item)
        if self._allocate_incremental is not None:
            self._added.append(item)
        self._dirty = True

    def add_items(self, items: Iterable[WorkItem]) -> None:
        for item in items:
            self.add_item(item)

    def schedule(self, time: float, event: "Callable[[], None] | tuple") -> None:
        """Fire ``event`` at absolute simulation time ``time``: call it
        if callable, else hand the event tuple to ``dispatch``."""
        self.push(time, self.reserve_seq(), event)

    def reserve_seq(self) -> int:
        """Take the next timer sequence number without scheduling.

        A caller that will schedule a timer *later* but wants it to
        order among same-instant timers as if scheduled now (a
        withheld stage released in a fork) reserves the number here and
        hands it to :meth:`push`.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def push(self, time: float, seq: int, event: "Callable[[], None] | tuple") -> None:
        """Schedule ``event`` at ``time`` under a sequence number from
        :meth:`reserve_seq`."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        heapq.heappush(self._timers, (max(time, self.now), seq, event))

    def request_stop(self) -> None:
        """Stop the current :meth:`run` before its next loop iteration.

        Called from completion callbacks once the caller has seen
        everything it needs (e.g. a truncated model evaluation watching
        a subset of stages).  All completions of the current instant are
        still delivered first, so the executed trajectory remains an
        exact prefix of the untruncated run.  The request applies to
        the run in progress only: the next :meth:`run` resumes the
        trajectory where it stopped — unless an :meth:`interrupt` ended
        that run too: then the next :meth:`run` finishes the
        interrupted step and stops.
        """
        self._stop_requested = True

    def interrupt(self) -> None:
        """Stop the current :meth:`run` as soon as possible.

        Called from a timer callback, the run returns right after that
        callback, in the middle of its step; the next :meth:`run` (of
        this engine or of a :meth:`fork`) finishes the step — remaining
        same-instant timers, then completions — exactly as an
        uninterrupted run would.  Called from a completion callback it
        acts like :meth:`request_stop`.  A withheld stage becoming
        ready interrupts so its release can still join the current
        step's timers.  A stop requested in the same step is kept for
        the run that resumes it (see :meth:`request_stop`).
        """
        self._interrupted = True

    def cancel_item(self, item: WorkItem) -> bool:
        """Withdraw an active item without firing its completion.

        Fault-injection path: a crashed node's in-flight work leaves
        the active set with its remaining volume intact (the caller
        decides whether and where to requeue it).  Returns ``False``
        if the item was not active (already completed or cancelled).
        """
        if item._pos < 0:
            return False
        self._remove_item(item)
        if self._allocate_incremental is not None:
            # An item added and cancelled within one allocation window
            # must not reach the incremental allocator at all.
            if item in self._added:
                self._added.remove(item)
            else:
                self._removed.append(item)
        self._dirty = True
        return True

    def mark_dirty(self) -> None:
        """Force a rate reallocation before the next advance (call after
        externally mutating item properties such as rate caps)."""
        self._dirty = True
        # External mutations are invisible to the change lists, so the
        # next reallocation must be a full one.
        self._full_dirty = True

    @property
    def active_items(self) -> list[WorkItem]:
        return list(self._items)

    @property
    def idle(self) -> bool:
        return not self._items and not self._timers

    def fork(
        self,
        allocate: Callable[[list[WorkItem]], None],
        dispatch: "Callable[[tuple], None] | None",
        allocate_incremental: "Callable[[list[WorkItem], list[WorkItem], list[WorkItem]], None] | None" = None,
    ) -> "FluidEngine":
        """An independent copy of this engine's run state.

        Active items are cloned (same positions, volumes and rates);
        the timer heap is copied as a list, which keeps the heap
        invariant; the clock, sequence counter, dirty flags and
        telemetry carry over.  The copy reports to the given owner
        callbacks, so its events must be data (event tuples naming ids
        the new owner resolves), never closures over the old owner.
        Cost is proportional to the active set and the pending timers.
        Only the scalar engine forks: subclasses keep extra per-item
        state this copy would not carry.
        """
        if type(self) is not FluidEngine:
            raise TypeError(f"{type(self).__name__} does not support fork()")
        new = FluidEngine(
            allocate,
            max_events=self._max_events,
            allocate_incremental=allocate_incremental,
            dispatch=dispatch,
        )
        clones = [item.clone() for item in self._items]
        new._items = clones
        new._timers = list(self._timers)
        new._next_seq = self._next_seq
        new.now = self.now
        new._mid_step = self._mid_step
        new._dirty = self._dirty
        new._full_dirty = self._full_dirty
        # Pending additions are active items (cloned at their position);
        # removals only contribute their resource groups, read-only.
        new._added = [clones[item._pos] for item in self._added]
        new._removed = list(self._removed)
        new.events_processed = self.events_processed
        new.max_active_items = self.max_active_items
        new.full_allocations = self.full_allocations
        new.incremental_allocations = self.incremental_allocations
        return new

    def run(self, until: "float | None" = None, pause: "float | None" = None) -> float:
        """Advance until no work and no timers remain (or ``until``).

        ``until`` truncates: the clock is advanced to ``until`` when the
        next event lies beyond it.  ``pause`` stops *before* the first
        step that would fire a timer scheduled at ``pause`` (the step
        whose next event ``t`` has ``pause <= t + 1e-12``, the due
        window timers fire in): nothing of that step is advanced or
        fired, so a timer pushed at ``pause`` afterwards — in this
        engine or a :meth:`fork` — fires exactly where it would have
        had it been pending all along, and a later :meth:`run` resumes
        the trajectory bit for bit.

        A run stopped by :meth:`interrupt` while firing timers resumes
        mid-step: first ``pause`` is checked against the interrupted
        step's due window (a timer pushed there now would fire in this
        very step), then the step's remaining timers and completions are
        processed.

        Returns the final simulation time.
        """
        resume = self._mid_step
        self._mid_step = False
        if not self._interrupted:
            self._stop_requested = False
        self._interrupted = False
        events = 0
        # Localize loop-invariant objects: ``_items`` and ``_timers`` are
        # mutated in place (swap-remove / heappush) but never rebound, so
        # the local aliases stay valid across iterations.
        items = self._items
        timers = self._timers
        eps = self.EPS
        inf = math.inf
        heappop = heapq.heappop
        progress = self._progress
        progress_every = self._progress_every
        dispatch = self._dispatch
        try:
            while resume or (
                (items or timers)
                and not self._stop_requested
                and not self._interrupted
            ):
                if resume:
                    # The rest of a step an interrupt cut short.
                    resume = False
                    if pause is not None and pause <= self.now + 1e-12:
                        self._mid_step = True
                        return self.now
                    fired = True
                else:
                    events += 1
                    self.events_processed += 1
                    if progress is not None and events % progress_every == 0:
                        progress(self)
                    if events > self._max_events:
                        raise RuntimeError(
                            f"engine exceeded {self._max_events} events at t={self.now:.3f}; "
                            "likely a livelock (items repeatedly added with zero volume?)"
                        )
                    if len(items) > self.max_active_items:
                        self.max_active_items = len(items)
                    if self._dirty:
                        self._reallocate()

                    # Next completion among items with positive rate.
                    dt_complete = inf
                    for item in items:
                        rate = item.rate
                        if rate > 0.0:
                            dt = item.remaining / rate
                            if dt < dt_complete:
                                dt_complete = dt
                    t_complete = self.now + dt_complete

                    t_timer = timers[0][0] if timers else inf
                    t_next = t_complete if t_complete <= t_timer else t_timer

                    if pause is not None and pause <= t_next + 1e-12:
                        # Not a step of this run: leave it for the resumer.
                        events -= 1
                        self.events_processed -= 1
                        return self.now
                    if t_next == inf:
                        raise EngineStalledError(
                            f"{len(items)} active items but all rates are zero "
                            f"and no timers pending at t={self.now:.3f}"
                        )
                    if until is not None and t_next > until:
                        # ``until`` in the past is an explicit no-op, not a
                        # backwards clock move.
                        if until > self.now:
                            self._advance_to(until)
                        return self.now

                    self._advance_to(t_next)
                    fired = False

                # Fire due timers (they may add items / schedule more timers).
                # A timer firing does not by itself invalidate rates: every
                # state change a callback makes goes through add_item() /
                # mark_dirty() / item completion, each of which sets the
                # dirty flag, so a pure bookkeeping timer costs no re-solve.
                t_due = self.now + 1e-12
                while timers and timers[0][0] <= t_due:
                    event = heappop(timers)[2]
                    if type(event) is tuple:
                        dispatch(event)
                    else:
                        event()
                    fired = True
                    if self._interrupted:
                        self._mid_step = True
                        return self.now
                if fired and _sanitizer.ENABLED:
                    # Timer callbacks that corrupt item state used to be
                    # caught by the (now elided) unconditional re-solve;
                    # keep catching them without paying for one.
                    _sanitizer.check_rates_valid(items)

                # Collect completions (swap-remove keeps this O(completed)
                # instead of rebuilding the whole active list every event).
                # Threshold is EPS * max(1.0, rate), spelled branchy to avoid
                # a builtin call per item on the hottest loop in the tree.
                completed = [
                    it
                    for it in items
                    if it.remaining <= (eps * it.rate if it.rate > 1.0 else eps)
                ]
                if completed:
                    for item in completed:
                        self._remove_item(item)
                    if self._allocate_incremental is not None:
                        self._removed.extend(completed)
                    self._dirty = True
                    now = self.now
                    for item in completed:
                        item.remaining = 0.0
                        event = item.on_complete
                        if type(event) is tuple:
                            dispatch(event)
                        elif event is not None:
                            event(now)
            return self.now
        finally:
            FluidEngine.TOTAL_EVENTS += events

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _complete(self, event: "Callable[[float], None] | tuple | None") -> None:
        """Deliver one completion event outside the run loop."""
        if type(event) is tuple:
            self._dispatch(event)
        elif event is not None:
            event(self.now)

    def _remove_item(self, item: WorkItem) -> None:
        """Swap-remove ``item`` from the active list in O(1)."""
        pos = item._pos
        last = self._items.pop()
        if last is not item:
            self._items[pos] = last
            last._pos = pos
        item._pos = -1

    def _reallocate(self) -> None:
        if self._allocate_incremental is not None and not self._full_dirty:
            self._allocate_incremental(self._items, self._added, self._removed)
            self.incremental_allocations += 1
        else:
            self._allocate(self._items)
            self.full_allocations += 1
        self._added.clear()
        self._removed.clear()
        self._full_dirty = False
        for item in self._items:
            # Single comparison: NaN >= 0 is False, so this catches both
            # negative and NaN rates.
            if not item.rate >= 0.0:
                raise ValueError(f"allocator produced invalid rate {item.rate!r}")
        if _sanitizer.ENABLED:
            _sanitizer.check_rates_valid(self._items)
        self._dirty = False

    def _advance_to(self, t: float) -> None:
        dt = t - self.now
        if dt < 0:
            if _sanitizer.ENABLED:
                _sanitizer.check_clock_monotone(self.now, t)
            return
        if self._observe is not None and dt > 0:
            self._observe(self.now, t, self._items)
        if dt > 0:
            for item in self._items:
                rate = item.rate
                if rate > 0.0:
                    rem = item.remaining - rate * dt
                    item.remaining = rem if rem > 0.0 else 0.0
        self.now = t
