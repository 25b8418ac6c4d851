"""Run-lifecycle event bus and the publisher facade the runners drive.

The bus is the single telemetry source: engine ticks, job completions,
shard merges, scheduler decisions, and fault-injection events all pass
through :meth:`TelemetryBus.publish` as small dicts.  Subscribers —
the stderr progress renderer, the :class:`~repro.obs.live.hub.LiveHub`
metrics aggregator, ``/events`` HTTP streams, the structured logger —
see the same ordered stream.

Events never influence the simulation: publishers only *read* engine
state, so results are bit-identical with telemetry on or off.  Event
payloads carry cumulative values (``events_total``, ``t_sim``) rather
than object identities, keeping them JSON-safe and replayable.

:class:`TelemetryPublisher` implements the progress protocol the
runners already speak (``engine_tick`` / ``job_done`` / ``shard_done``
/ ``close``) and is the superclass of the refactored
:class:`~repro.obs.progress.ProgressReporter`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping, Optional

#: Event types published by :class:`TelemetryPublisher`.
EVENT_TYPES = (
    "run_started",
    "schedule",
    "tick",
    "job",
    "shard",
    "jcts",
    "fault",
    "blame",
    "submitted",
    "rejected",
    "cancelled",
    "failed",
    "draining",
    "drained",
    "run_finished",
)

#: Event types after which a stream has nothing more to say: the run
#: (or service) is over and clients may hang up instead of reconnecting.
TERMINAL_EVENT_TYPES = frozenset({"run_finished", "drained"})


class TelemetryBus:
    """Ordered, bounded-history pub/sub channel for run events.

    Publishing assigns a monotone ``seq`` and a wall-elapsed stamp
    (``perf_counter`` relative to bus creation — flow-sanctioned,
    diagnostics only), appends to a bounded history ring, and delivers
    to subscribers under the lock so late subscribers can atomically
    replay history and then receive everything newer (:meth:`tap`).

    Subscriber callbacks run on the publishing thread and must be
    cheap and non-blocking; the HTTP layer bridges to per-client
    queues for exactly this reason.
    """

    def __init__(self, history: int = 4096) -> None:
        if history <= 0:
            raise ValueError(f"history must be positive, got {history}")
        self._lock = threading.RLock()
        self._subscribers: "list[Callable[[dict], None]]" = []
        self._history: deque = deque(maxlen=history)
        self._seq = 0
        self._t0 = time.perf_counter()

    def publish(self, type_: str, **fields: Any) -> dict:
        """Stamp, record, and fan out one event; returns the event dict."""
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "elapsed_s": round(time.perf_counter() - self._t0, 6),
                "type": type_,
            }
            event.update(fields)
            self._history.append(event)
            subscribers = list(self._subscribers)
            for callback in subscribers:
                callback(event)
        return event

    def subscribe(self, callback: Callable[[dict], None]) -> None:
        with self._lock:
            if callback not in self._subscribers:
                self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], None]) -> None:
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def tap(
        self, callback: Callable[[dict], None], since: int = 0
    ) -> "list[dict]":
        """Atomically subscribe and return history newer than ``since``.

        The returned backlog plus subsequent callback deliveries form
        a gapless, duplicate-free sequence — the property ``/events``
        clients rely on.
        """
        with self._lock:
            backlog = [ev for ev in self._history if ev["seq"] > since]
            self.subscribe(callback)
            return backlog

    def events_since(self, since: int = 0, limit: Optional[int] = None) -> "list[dict]":
        with self._lock:
            events = [ev for ev in self._history if ev["seq"] > since]
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return events

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq


class TelemetryPublisher:
    """Progress-protocol implementation that publishes onto a bus.

    Runners call the same four methods they always have; each becomes
    one bus event.  When no one subscribes, a publish is a lock plus a
    dict build — the "one branch per event when disabled" budget is
    enforced upstream (runners pass ``progress=None`` when telemetry
    is off, so these methods are never even called).

    ``engine_tick`` folds engine identity exactly like the historical
    ProgressReporter: the fluid engine is recreated per job, so
    completed-engine totals accumulate into ``_events_base`` and the
    live engine contributes on top.  The fold happens here, at the
    publish site, so events carry only cumulative numbers.
    """

    def __init__(
        self,
        bus: Optional[TelemetryBus] = None,
        label: str = "run",
        total_jobs: Optional[int] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self.bus = bus if bus is not None else TelemetryBus()
        self.label = label
        self.total_jobs = total_jobs
        self.run_id = run_id if run_id is not None else label
        self.jobs_done = 0
        self.t_sim = 0.0
        self._events_base = 0
        self._live_events = 0
        self._live_engine: Any = None
        self._closed = False

    # -- progress protocol -------------------------------------------- #

    def engine_tick(self, engine: Any) -> None:
        """Fluid-engine progress hook (every ~20k events)."""
        if engine is not self._live_engine:
            self._events_base += self._live_events
            self._live_engine = engine
            self._live_events = 0
        self._live_events = engine.events_processed
        self.t_sim = float(engine.now)
        self.bus.publish(
            "tick",
            run=self.run_id,
            events_total=self.events_total,
            t_sim=self.t_sim,
        )

    def job_done(self, jct: Optional[float] = None) -> None:
        self.jobs_done += 1
        fields: "dict[str, Any]" = {
            "run": self.run_id,
            "jobs_done": self.jobs_done,
            "total_jobs": self.total_jobs,
        }
        if jct is not None:
            fields["jct"] = float(jct)
        self.bus.publish("job", **fields)

    def shard_done(self, num_jobs: int) -> None:
        self.jobs_done += int(num_jobs)
        self.bus.publish(
            "shard",
            run=self.run_id,
            num_jobs=int(num_jobs),
            jobs_done=self.jobs_done,
            total_jobs=self.total_jobs,
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.bus.publish(
            "run_finished",
            run=self.run_id,
            jobs_done=self.jobs_done,
            events_total=self.events_total,
            t_sim=self.t_sim,
        )

    # -- richer publishers -------------------------------------------- #

    def run_started(self, **fields: Any) -> None:
        self.bus.publish(
            "run_started",
            run=self.run_id,
            label=self.label,
            total_jobs=self.total_jobs,
            **fields,
        )

    def schedule_computed(self, scheduler: str, info: Mapping[str, Any]) -> None:
        """Publish an Algorithm-1 (or baseline) scheduling decision."""
        self.publish_schedule(scheduler, schedule_summary(info))

    def publish_schedule(
        self, scheduler: str, summary: Mapping[str, Any]
    ) -> None:
        """Publish a decision already reduced by :func:`schedule_summary`."""
        self.bus.publish("schedule", run=self.run_id, scheduler=scheduler,
                         **summary)

    def observe_jcts(self, jcts: Iterable[float]) -> None:
        """Bulk JCT publication for the parallel-replay merge path."""
        values = [float(j) for j in jcts]
        if not values:
            return
        self.bus.publish(
            "jcts",
            run=self.run_id,
            count=len(values),
            jcts=values,
        )

    def fault_event(self, kind: str, fields: Mapping[str, Any]) -> None:
        """Fault-injection hook (crash/brownout/retry/...)."""
        self.bus.publish("fault", run=self.run_id, kind=kind, **fields)

    # -- service lifecycle --------------------------------------------- #

    def job_submitted(
        self, service_id: str, *, stages: int, queue_depth: int, running: int
    ) -> None:
        """One job admitted into the service's pending queue."""
        self.bus.publish(
            "submitted",
            run=self.run_id,
            service_id=service_id,
            stages=int(stages),
            queue_depth=int(queue_depth),
            running=int(running),
        )

    def job_rejected(
        self, service_id: str, reason: str, *, queue_depth: int, running: int
    ) -> None:
        """One submission shed by admission control (typed reason)."""
        self.bus.publish(
            "rejected",
            run=self.run_id,
            service_id=service_id,
            reason=reason,
            queue_depth=int(queue_depth),
            running=int(running),
        )

    def job_cancelled(
        self, service_id: str, *, was: str, queue_depth: int, running: int
    ) -> None:
        """A queued or running job cancelled by the caller."""
        self.bus.publish(
            "cancelled",
            run=self.run_id,
            service_id=service_id,
            was=was,
            queue_depth=int(queue_depth),
            running=int(running),
        )

    def job_failed(
        self,
        service_id: str,
        *,
        failure_time: float,
        retries: int,
        queue_depth: int,
        running: int,
    ) -> None:
        """A dispatched job exhausted its retry budget under faults."""
        self.bus.publish(
            "failed",
            run=self.run_id,
            service_id=service_id,
            failure_time=float(failure_time),
            retries=int(retries),
            queue_depth=int(queue_depth),
            running=int(running),
        )

    def drain_started(self, *, queue_depth: int, running: int) -> None:
        """The service stopped admitting; in-flight work continues."""
        self.bus.publish(
            "draining",
            run=self.run_id,
            queue_depth=int(queue_depth),
            running=int(running),
        )

    def drain_finished(
        self, *, completed: int, failed: int, cancelled: int, rejected: int
    ) -> None:
        """Terminal service event: the queue is empty and nothing runs."""
        self.bus.publish(
            "drained",
            run=self.run_id,
            completed=int(completed),
            failed=int(failed),
            cancelled=int(cancelled),
            rejected=int(rejected),
        )

    def blame_computed(
        self,
        label: str,
        categories: Mapping[str, float],
        makespan: float,
        top_jobs: "Iterable[tuple[str, float]]" = (),
    ) -> None:
        """Publish one run's critical-path blame decomposition.

        ``label`` is the per-scheduler blame label (e.g. ``fuxi``),
        distinct from the command-level ``run`` id; the LiveHub folds
        the categories into the ``repro_live_critical_*`` families.
        """
        self.bus.publish(
            "blame",
            run=self.run_id,
            label=label,
            makespan=float(makespan),
            categories={k: float(v) for k, v in categories.items()},
            top_jobs=[[jid, float(jct)] for jid, jct in top_jobs],
        )

    # -- accounting ---------------------------------------------------- #

    @property
    def events_total(self) -> int:
        return self._events_base + self._live_events


def schedule_summary(info: "Mapping[str, Any] | None") -> "dict[str, Any]":
    """The plain-number summary of a ``Prepared.info`` scheduling decision.

    Delayed-stage count and total delay (when any stage is delayed),
    predicted and baseline makespans (when the strategy plans).
    """
    fields: "dict[str, Any]" = {}
    schedule = info.get("schedule") if info else None
    if schedule is not None:
        delays = getattr(schedule, "delays", None)
        if delays:
            fields["stages_delayed"] = sum(1 for d in delays.values() if d > 0)
            fields["total_delay_s"] = float(sum(delays.values()))
        predicted = getattr(schedule, "predicted_makespan", None)
        baseline = getattr(schedule, "baseline_makespan", None)
        if predicted is not None:
            fields["predicted_makespan"] = float(predicted)
        if baseline is not None:
            fields["baseline_makespan"] = float(baseline)
    return fields


class FaultBuffer:
    """A fault hook that records events instead of publishing them.

    A simulation running where the bus is out of reach (a planning
    worker process) collects its fault events here; the owner of the
    bus later replays them, in firing order, through
    :meth:`TelemetryPublisher.fault_event`.
    """

    def __init__(self) -> None:
        self.events: "list[tuple[str, dict]]" = []

    def __call__(self, kind: str, fields: Mapping[str, Any]) -> None:
        self.events.append((kind, dict(fields)))


def fault_hook(
    publisher: "TelemetryPublisher | None",
) -> "Callable[[str, Mapping[str, Any]], None] | None":
    """Adapter: a publisher's fault callback, or None when telemetry is off.

    Mirrors :func:`repro.obs.progress.engine_hook` so call sites stay
    one expression.
    """
    if publisher is None:
        return None
    return publisher.fault_event
