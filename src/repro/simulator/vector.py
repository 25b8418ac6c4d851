"""Vectorized (struct-of-arrays) fluid event core.

:class:`VectorFluidEngine` is a drop-in replacement for
:class:`~repro.simulator.engine.FluidEngine` that keeps the per-item hot
state — volume remaining, current rate, and the completion threshold —
in flat numpy float64 arrays (:class:`VectorCore`) instead of reading
``WorkItem`` attributes one object at a time.  The three per-event scans
of the scalar engine (next-completion search, segment accounting, and
completion collection) become ``np.divide``/``np.min``/boolean-mask
kernels over dense array slices.

**Adaptive threshold.**  Numpy call overhead (~1 µs per kernel) loses
to plain Python loops below a few dozen items; planning probe
simulations and trace replay spend most of their time there, while
wide stages and the reallocation benchmark run hundreds of concurrent
items.  The engine therefore runs the scalar object loop while the
active set is small and flips to array kernels once it grows past
:attr:`~VectorFluidEngine.ENTER_VECTOR_N` items (falling back below
:attr:`~VectorFluidEngine.EXIT_VECTOR_N`; the gap is hysteresis so a
set oscillating around the threshold does not thrash O(n) rebuilds).
Both paths are bit-identical — see below — so the switch is purely a
speed knob and may happen mid-run.

**Bit-equality contract.**  The vector engine is *bit-identical* to the
object engine, not merely close: every float operation is performed in
the same IEEE-754 order on the same values.

* next-event scan: ``remaining / rate`` elementwise then ``min`` — the
  minimum of a set of float64 values does not depend on scan order, and
  rows with ``rate == 0`` divide to ``+inf`` exactly as the scalar
  loop's ``if rate > 0.0`` guard skips them (``remaining > 0`` always
  holds at scan time, so ``0/0`` never occurs).
* segment accounting: ``remaining -= rate * dt`` elementwise is the
  scalar expression per row; rows with ``rate == 0`` subtract ``+0.0``,
  which is exact for the positive remainders the engine maintains.  The
  clamp mirrors the scalar ``rem if rem > 0.0 else 0.0``.
* completion collection: ``remaining <= thresh`` where ``thresh`` is
  maintained per row as ``EPS * rate if rate > 1.0 else EPS`` (updated
  only when a rate row is written), and ``np.flatnonzero`` yields
  positions in ascending order — the exact order the scalar list
  comprehension visits items.

**Array layout.**  Rows are *position-aligned* with the engine's active
list: ``WorkItem._pos`` doubles as the row index.  Removal recycles a
row by swap-remove — the last row moves into the freed slot, mirroring
the list swap-remove the scalar engine already performs — so the tail
of the arrays acts as the free list and live indices stay stable
between events without separate free-list bookkeeping.  Capacity grows
by doubling and never shrinks within a run.

**Object synchronization.**  While in vector mode the arrays are
authoritative for ``remaining``; ``WorkItem.rate`` stays authoritative
on the objects (allocators write it there) and is gathered into the
arrays after each reallocation.  Object ``remaining`` attributes are
re-synchronized at every boundary where external code can observe them:
before timer callbacks fire (fault injectors read and cancel items
there), on ``cancel_item``, on completion (set to exactly ``0.0``, as
the scalar engine does), on every :meth:`run` return, in
:attr:`active_items`, before sanitizer checks when the sanitizer is
enabled, and when dropping back to the scalar path.  In scalar mode the
objects are authoritative and the arrays are not maintained at all
(entering vector mode rebuilds them wholesale from the objects).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.simulator.engine import EngineStalledError, FluidEngine, WorkItem
from repro.verify import sanitizer as _sanitizer


class VectorCore:
    """Struct-of-arrays mirror of an engine's active item list.

    Attributes
    ----------
    active:
        ``True`` while the owning engine is in vector mode and the
        arrays below are authoritative.
    remaining, rate, thresh:
        Dense float64 arrays; row ``i`` mirrors the item at position
        ``i`` of the engine's active list.  ``thresh`` caches the
        completion threshold ``EPS * rate if rate > 1.0 else EPS`` so
        the completion mask is a single comparison per event.
    """

    __slots__ = (
        "active",
        "remaining",
        "rate",
        "thresh",
        "scratch",
        "mask",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.active = False
        self.remaining = np.zeros(capacity)
        self.rate = np.zeros(capacity)
        self.thresh = np.zeros(capacity)
        #: Reusable per-event buffers (per-item dt, boolean masks).
        self.scratch = np.zeros(capacity)
        self.mask = np.zeros(capacity, dtype=bool)

    @property
    def capacity(self) -> int:
        return len(self.remaining)

    def grow(self, need: int) -> None:
        """Double capacity until ``need`` rows fit (amortized O(1))."""
        cap = len(self.remaining)
        while cap < need:
            cap *= 2
        for name in ("remaining", "rate", "thresh", "scratch"):
            old = getattr(self, name)
            new = np.zeros(cap)
            new[: len(old)] = old
            setattr(self, name, new)
        self.mask = np.zeros(cap, dtype=bool)

    def rebuild(self, items: "list[WorkItem]", eps: float) -> None:
        """Re-materialize every row from the objects.

        Called when the engine enters vector mode; the objects are
        authoritative at that point, so a wholesale O(n) rebuild is
        exact.  Values round-trip through Python floats untouched
        (float64 in, float64 out), preserving bit-equality.
        """
        n = len(items)
        if n > len(self.remaining):
            self.grow(n)
        rates = [item.rate for item in items]
        self.remaining[:n] = [item.remaining for item in items]
        self.rate[:n] = rates
        self.thresh[:n] = [eps * r if r > 1.0 else eps for r in rates]


class VectorFluidEngine(FluidEngine):
    """Fluid event loop on struct-of-arrays state (see module docs).

    Accepts the same constructor arguments as :class:`FluidEngine` and
    honors the same public API; ``--no-vector`` selects the scalar
    engine instead, which remains the bit-equality baseline.
    """

    #: Active-set size at which the engine flips onto the array kernels.
    #: Below a few dozen items the numpy fixed call overhead loses to
    #: the scalar loops (measured crossover ~25 items; the margin also
    #: absorbs the O(1)-per-add row maintenance cost).
    ENTER_VECTOR_N = 64
    #: Size at which vector mode drops back to the scalar path.  Kept
    #: well below ``ENTER_VECTOR_N`` so the O(n) mode transitions are
    #: amortized over at least the gap's worth of membership changes.
    EXIT_VECTOR_N = 24
    #: Churn guard.  Array rows cost ~0.5 µs per membership change to
    #: maintain, while the kernels save ~0.1 µs per *item* per event —
    #: so vector mode pays off for long-lived items (trace replay's
    #: steady trickle) and loses when a large fraction of the set turns
    #: over every event (wide probe simulations whose stages complete in
    #: waves).  The engine tracks an exponential moving average of
    #: membership changes per event and exits vector mode when it
    #: exceeds ``n * CHURN_EXIT_RATIO``, re-entering only below
    #: ``n * CHURN_ENTER_RATIO`` (factor-2 hysteresis).  Tests force
    #: vector mode by setting both ratios to ``math.inf``.
    CHURN_EXIT_RATIO = 0.25
    CHURN_ENTER_RATIO = 0.125
    #: Consecutive calm events (size and churn conditions both holding)
    #: required before entering vector mode.  Wave-structured runs — a
    #: burst of adds, one quiet event, then a mass completion — pass the
    #: EMA gate for a single event and would thrash O(n) enter/exit
    #: transitions without this streak requirement; a steady trickle
    #: qualifies within a handful of events.  Tests force immediate
    #: entry by setting it to 0.
    ENTER_CALM_EVENTS = 8

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.core = VectorCore()
        #: ``True`` while the arrays are authoritative (mirrors
        #: ``core.active``; kept as an engine attribute for the hot
        #: per-add checks).
        self._vmode = False
        #: Rows ``[0, _rows_valid)`` are materialized in the arrays;
        #: items at later positions were appended since the last flush
        #: and are still object-authoritative.  Stage submission adds
        #: items in bursts of hundreds, so rows are written in one slice
        #: assignment per burst (:meth:`_flush_adds`) instead of three
        #: numpy scalar stores per item.
        self._rows_valid = 0
        #: Membership changes (adds, completions, cancels) since the
        #: previous event, folded into :attr:`_churn_ema` at the top of
        #: each loop iteration for the churn guard.
        self._mchanges = 0
        self._churn_ema = 0.0
        #: Consecutive events the enter conditions have held (see
        #: :attr:`ENTER_CALM_EVENTS`).
        self._calm = 0

    # ------------------------------------------------------------------ #
    # mode transitions
    # ------------------------------------------------------------------ #

    def _enter_vector(self) -> None:
        """Flip to array kernels (objects → arrays, O(n))."""
        self.core.rebuild(self._items, self.EPS)
        self.core.active = True
        self._vmode = True
        self._rows_valid = len(self._items)

    def _exit_vector(self) -> None:
        """Drop back to the scalar path (arrays → objects, O(n))."""
        self._sync_remaining()
        self._vmode = False
        self._rows_valid = 0
        self.core.active = False

    def _flush_adds(self) -> None:
        """Materialize array rows for items appended since the last
        flush (one slice assignment per array instead of per-item
        scalar stores).

        Every code path that reads the arrays flushes first: the top-of-event reallocation, the post-timer
        completion scan, and :meth:`cancel_item`.  An append always sets
        ``_dirty``, so no advance or scan can run before the
        reallocation flush — unflushed rows never see a segment update.
        """
        items = self._items
        n = len(items)
        start = self._rows_valid
        if start >= n:
            return
        core = self.core
        if n > len(core.remaining):
            core.grow(n)
        fresh = items[start:n]
        rates = [item.rate for item in fresh]
        core.remaining[start:n] = [item.remaining for item in fresh]
        core.rate[start:n] = rates
        eps = self.EPS
        core.thresh[start:n] = [eps * r if r > 1.0 else eps for r in rates]
        self._rows_valid = n

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def add_item(self, item: WorkItem) -> None:
        if item.remaining <= 0.0:
            # Zero-volume work completes instantly without entering the
            # active set — identical to the scalar engine.
            self._complete(item.on_complete)
            return
        items = self._items
        pos = len(items)
        item._pos = pos
        items.append(item)
        if self._allocate_incremental is not None:
            self._added.append(item)
        self._dirty = True
        self._mchanges += 1
        # In vector mode the new row is materialized lazily by the next
        # :meth:`_flush_adds`; mode transitions happen only at the top
        # of the event loop, so the append itself is as cheap as the
        # scalar engine's.

    def _remove_item(self, item: WorkItem) -> None:
        pos = item._pos
        items = self._items
        last = items.pop()
        if not self._vmode:
            if last is not item:
                items[pos] = last
                last._pos = pos
            item._pos = -1
            return
        # Removal sites (completion batch, cancel) flush first, so every
        # row including the tail is materialized here.
        core = self.core
        tail = len(items)  # row the departing last item occupied
        if last is not item:
            items[pos] = last
            last._pos = pos
            core.remaining[pos] = core.remaining[tail]
            core.rate[pos] = core.rate[tail]
            core.thresh[pos] = core.thresh[tail]
        item._pos = -1
        self._rows_valid = tail

    def _remove_batch(self, completed: "list[WorkItem]") -> None:
        """Remove a completion batch, deferring the array row copies.

        Replays the scalar engine's per-item swap-remove on the Python
        list (so every ``_pos`` and the final item order are exactly the
        sequential result), while the array row moves are recorded as
        ``destination row -> source row`` pairs and applied afterwards
        with one fancy-indexed assignment per array — O(batch) numpy
        calls become O(1).

        Correctness of the deferred application: data is only ever read
        from a row where it was *originally* materialized (``row_of``
        remembers the original row of an item that has already been
        moved once), fancy-index reads snapshot the source rows before
        any write lands, and a destination overwritten twice keeps only
        the last move (dict semantics), which is the sequential
        outcome.  Destinations at or beyond the final size are dropped
        — sequentially those rows are popped anyway.
        """
        items = self._items
        core = self.core
        moves: "dict[int, int]" = {}
        row_of: "dict[WorkItem, int]" = {}
        for item in completed:
            pos = item._pos
            last = items.pop()
            if last is not item:
                items[pos] = last
                last._pos = pos
                src = row_of.get(last)
                if src is None:
                    # Never moved in this batch: its data sits at the
                    # tail row it was just popped from.
                    src = row_of[last] = len(items)
                moves[pos] = src
            item._pos = -1
        n = len(items)
        self._rows_valid = n
        dsts = [d for d in moves if d < n]
        if not dsts:
            return
        srcs = [moves[d] for d in dsts]
        core.remaining[dsts] = core.remaining[srcs]
        core.rate[dsts] = core.rate[srcs]
        core.thresh[dsts] = core.thresh[srcs]

    def cancel_item(self, item: WorkItem) -> bool:
        if item._pos < 0:
            return False
        self._mchanges += 1
        if self._vmode:
            # The caller keeps the item object (fault requeue path reads
            # its remaining volume): pull the authoritative array value.
            # Flushing first keeps the swap-remove below position-safe
            # (an unflushed tail row must not be copied into a live one).
            self._flush_adds()
            item.remaining = float(self.core.remaining[item._pos])
        return super().cancel_item(item)

    @property
    def active_items(self) -> "list[WorkItem]":
        self._sync_remaining()
        return list(self._items)

    def _sync_remaining(self) -> None:
        """Write array remainders back onto the item objects.

        No-op in scalar mode, where the objects are already
        authoritative.  Unflushed tail rows are skipped: those objects
        were appended after the last segment advance and still hold
        their own current values.
        """
        if not self._vmode:
            return
        n = self._rows_valid
        if not n:
            return
        values = self.core.remaining[:n].tolist()
        for item, value in zip(self._items, values):
            item.remaining = value

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def _reallocate(self) -> None:
        if not self._vmode:
            super()._reallocate()
            return
        self._flush_adds()
        items = self._items
        if _sanitizer.ENABLED:
            # Allocator-internal sanitizer checks read item.remaining.
            self._sync_remaining()
        touched: "list[WorkItem] | None"
        if self._allocate_incremental is not None and not self._full_dirty:
            result = self._allocate_incremental(items, self._added, self._removed)
            # A scoped allocator that reports which items it re-solved
            # lets us scatter only those rows; ``None`` (e.g. a plain
            # callback) falls back to a full gather.
            touched = result if isinstance(result, list) else None
            self.incremental_allocations += 1
        else:
            self._allocate(items)
            touched = None
            self.full_allocations += 1
        self._added.clear()
        self._removed.clear()
        self._full_dirty = False
        core = self.core
        eps = self.EPS
        if touched is None:
            n = len(items)
            rates = [item.rate for item in items]
            for r in rates:
                # Single comparison: NaN >= 0 is False, so this catches
                # both negative and NaN rates (as the scalar engine does).
                if not r >= 0.0:
                    raise ValueError(f"allocator produced invalid rate {r!r}")
            core.rate[:n] = rates
            core.thresh[:n] = [eps * r if r > 1.0 else eps for r in rates]
        elif touched:
            # Bulk fancy-indexed scatter: one numpy call per array
            # instead of two scalar stores per touched item.
            rates = [item.rate for item in touched]
            for r in rates:
                if not r >= 0.0:
                    raise ValueError(f"allocator produced invalid rate {r!r}")
            positions = [item._pos for item in touched]
            core.rate[positions] = rates
            core.thresh[positions] = [eps * r if r > 1.0 else eps for r in rates]
        if _sanitizer.ENABLED:
            _sanitizer.check_rates_valid(items)
        self._dirty = False

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #

    def run(self, until: "float | None" = None) -> float:
        """:meth:`FluidEngine.run` on the struct-of-arrays state, without
        ``pause`` or mid-step resumption: withheld stages and forks
        require the scalar engine."""
        self._stop_requested = False
        events = 0
        items = self._items
        timers = self._timers
        eps = self.EPS
        inf = math.inf
        heappop = heapq.heappop
        progress = self._progress
        progress_every = self._progress_every
        dispatch = self._dispatch
        enter_n = self.ENTER_VECTOR_N
        exit_n = self.EXIT_VECTOR_N
        churn_exit = self.CHURN_EXIT_RATIO
        churn_enter = self.CHURN_ENTER_RATIO
        calm_events = self.ENTER_CALM_EVENTS
        np_divide = np.divide
        np_less_equal = np.less_equal
        np_flatnonzero = np.flatnonzero
        # Rows with rate == 0 divide to +inf in the next-event scan
        # (remaining > 0 always holds there, so 0/0 cannot occur); rate
        # rows are validated non-NaN/non-negative at reallocation.
        old_err = np.seterr(divide="ignore", invalid="ignore")
        try:
            while (items or timers) and not self._stop_requested:
                events += 1
                self.events_processed += 1
                if progress is not None and events % progress_every == 0:
                    progress(self)
                if events > self._max_events:
                    raise RuntimeError(
                        f"engine exceeded {self._max_events} events at t={self.now:.3f}; "
                        "likely a livelock (items repeatedly added with zero volume?)"
                    )
                n = len(items)
                if n > self.max_active_items:
                    self.max_active_items = n
                # Fold membership changes into the churn EMA, then pick
                # the execution mode for this event (see the churn-guard
                # class attributes for the cost model).
                ema = self._churn_ema * 0.875
                if self._mchanges:
                    ema += self._mchanges * 0.125
                    self._mchanges = 0
                self._churn_ema = ema
                vmode = self._vmode
                if vmode:
                    if n < exit_n or ema > n * churn_exit:
                        self._exit_vector()
                        vmode = False
                        self._calm = 0
                elif n >= enter_n and not ema > n * churn_enter:
                    calm = self._calm + 1
                    if calm > calm_events:
                        self._enter_vector()
                        vmode = True
                        self._calm = 0
                    else:
                        self._calm = calm
                else:
                    self._calm = 0
                if self._dirty:
                    self._reallocate()

                # Next completion among items with positive rate.
                if not n:
                    dt_complete = inf
                elif vmode:
                    core = self.core
                    buf = core.scratch[:n]
                    np_divide(core.remaining[:n], core.rate[:n], out=buf)
                    dt_complete = float(buf.min())
                else:
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

                if t_next == inf:
                    self._sync_remaining()
                    raise EngineStalledError(
                        f"{len(items)} active items but all rates are zero "
                        f"and no timers pending at t={self.now:.3f}"
                    )
                if until is not None and t_next > until:
                    # ``until`` in the past is an explicit no-op, not a
                    # backwards clock move.
                    if until > self.now:
                        self._advance_to(until)
                    self._sync_remaining()
                    return self.now

                self._advance_to(t_next)

                # Fire due timers.  External code (fault injectors) reads
                # and cancels items inside these callbacks, so object
                # remainders are synchronized first.
                t_due = self.now + 1e-12
                if timers and timers[0][0] <= t_due:
                    self._sync_remaining()
                    while timers and timers[0][0] <= t_due:
                        event = heappop(timers)[2]
                        if type(event) is tuple:
                            dispatch(event)
                        else:
                            event()
                    if _sanitizer.ENABLED:
                        _sanitizer.check_rates_valid(items)
                    # Callbacks may have added items (and flipped the
                    # engine into vector mode); materialize their rows
                    # before the completion scan below reads the arrays.
                    vmode = self._vmode
                    if vmode:
                        self._flush_adds()

                # Collect completions: positions ascending, the order the
                # scalar engine's list comprehension visits items.
                n = len(items)
                if not n:
                    completed = None
                elif vmode:
                    core = self.core  # timer adds may have regrown arrays
                    mask = core.mask[:n]
                    np_less_equal(core.remaining[:n], core.thresh[:n], out=mask)
                    idx = np_flatnonzero(mask)
                    completed = [items[i] for i in idx.tolist()] if idx.size else None
                else:
                    completed = [
                        it
                        for it in items
                        if it.remaining <= (eps * it.rate if it.rate > 1.0 else eps)
                    ] or None
                if completed:
                    self._mchanges += len(completed)
                    if vmode and len(completed) > 1:
                        self._remove_batch(completed)
                    else:
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
            self._sync_remaining()
            return self.now
        finally:
            np.seterr(**old_err)
            FluidEngine.TOTAL_EVENTS += events

    def _advance_to(self, t: float) -> None:
        if not self._vmode:
            super()._advance_to(t)
            return
        dt = t - self.now
        if dt < 0:
            if _sanitizer.ENABLED:
                _sanitizer.check_clock_monotone(self.now, t)
            return
        items = self._items
        if self._observe is not None and dt > 0:
            self._observe(self.now, t, items)
        n = len(items)
        if dt > 0 and n:
            core = self.core
            rem = core.remaining[:n]
            buf = core.scratch[:n]
            mask = core.mask[:n]
            np.multiply(core.rate[:n], dt, out=buf)
            np.subtract(rem, buf, out=rem)
            # Clamp mirrors the scalar ``rem if rem > 0.0 else 0.0``;
            # rate-0 rows subtract +0.0 and keep remaining > 0, so the
            # clamp is a no-op for them exactly as the scalar guard is.
            np.less_equal(rem, 0.0, out=mask)
            np.copyto(rem, 0.0, where=mask)
        self.now = t
