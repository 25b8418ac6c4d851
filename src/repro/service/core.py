"""ServiceCore: the deterministic heart of the scheduler daemon.

The core is a discrete-event state machine over *service time*: it
accepts submissions, holds admitted jobs in a bounded FIFO queue,
dispatches them onto a fixed number of concurrent slots, and schedules
each job's completion event at ``dispatch_t + JCT``.  Crucially it is
**time-passive** — it never reads a clock; callers hand it instants
(``submit(..., )`` uses the time of the last ``advance_to``), so the
same submission sequence against the same core yields the same event
trajectory whether the instants came from a wall clock, a virtual
clock, or a plain test loop.

Dispatch is where the paper's machinery runs online: the configured
:class:`~repro.schedulers.base.Scheduler` prepares the job — for
DelayStage that is Algorithm 1 computing the stage-delay table for the
newly arrived DAG — and the prepared job runs through its own fluid
:class:`~repro.simulator.simulation.Simulation`, exactly as the offline
``replay_batch`` path does.  The per-job simulated JCT is therefore
bit-identical to an offline replay of the same job (the acceptance
contract); service-level queueing delay lives in the lifecycle record
(``dispatch_t - submit_t``), never inside the JCT.

Concurrency model: the books sit behind one plain lock, and nothing
holds it while a job plans.  A dispatch has three steps:

1. :meth:`ServiceCore.claim` (under the lock) pops the queue head,
   marks it running, and reserves its slot and completion-heap seq;
2. :meth:`ServiceCore.compute` (no lock) runs
   :func:`plan_and_simulate` — ``prepare()`` plus the job's simulation
   — inline on the calling thread, or in the core's ``executor``.
   ``repro serve`` passes :func:`plan_pool`, one worker process started
   with ``spawn``, so planning does not even share the GIL with the
   HTTP threads;
3. :meth:`ServiceCore.commit` (under the lock) fills in the record,
   publishes the job's ``schedule`` event and its buffered fault
   events in the order an inline run fires them, and pushes the
   completion.  A job cancelled while it planned has its outcome
   dropped; a plan that raises fails only its own job.

Status reads, stats and submissions therefore never wait for planning.
A claimed but uncommitted job counts as running: it holds its slot and
keeps the core from reporting idle or drained.  In-process callers run
the same three steps with the compute step inline; a run's records and
events do not depend on where the compute step runs.
"""

from __future__ import annotations

import heapq
import os
import threading
import traceback
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.live.bus import FaultBuffer, TelemetryPublisher, schedule_summary
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.state import (
    JobState,
    RejectedSubmission,
    Rejection,
    ServiceJob,
)
from repro.simulator.simulation import Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor, ProcessPoolExecutor

    from repro.cluster.spec import ClusterSpec
    from repro.dag.job import Job
    from repro.schedulers.base import Scheduler

#: Bounded ring of recent rejections kept for inspection.
REJECTION_HISTORY = 256


@dataclass(frozen=True)
class Claim:
    """A job taken off the queue onto a slot, waiting for its plan."""

    job: "Job"
    record: ServiceJob
    #: Dispatch instant: the completion lands at ``t + JCT``.
    t: float
    #: Completion-heap tie-breaker, taken at claim time.
    seq: int


@dataclass(frozen=True)
class DispatchOutcome:
    """What the compute step hands back: small, plain, and picklable."""

    jct: float
    failed: bool
    retries: int
    #: :func:`~repro.obs.live.bus.schedule_summary` of the decision.
    schedule: dict
    #: Per-job fault counters, ``None`` when no fault plan ran.
    faults: "Optional[dict]"
    #: ``(kind, fields)`` fault events in the order they fired.
    fault_events: tuple


def plan_and_simulate(
    cluster: "ClusterSpec",
    scheduler: "Scheduler",
    job: "Job",
    collect_faults: bool,
) -> DispatchOutcome:
    """Plan ``job`` and simulate it: the compute step of a dispatch.

    Module-level and free of shared state, so it runs unchanged in a
    worker process; fault events are buffered (when ``collect_faults``)
    and returned for the committing thread to publish.  The scheduler
    is pickled per call, so ``prepare`` must not rely on state carried
    over from earlier jobs.
    """
    prepared = scheduler.prepare(job, cluster)
    buffer = FaultBuffer() if collect_faults else None
    sim = Simulation(cluster, prepared.config, fault_hook=buffer)
    sim.add_job(job, prepared.policy)
    result = sim.run()
    stats = result.faults
    faults = None
    if stats is not None:
        faults = {
            "injected": stats.injected,
            "crashes": stats.crashes,
            "brownouts": stats.brownouts,
            "stragglers": stats.stragglers,
            "partitions_lost": stats.partitions_lost,
            "retries": stats.retries,
        }
    return DispatchOutcome(
        jct=float(result.job_completion_time(job.job_id)),
        failed=stats is not None and job.job_id in stats.jobs_failed,
        retries=stats.retries if stats is not None else 0,
        schedule=schedule_summary(prepared.info),
        faults=faults,
        fault_events=tuple(buffer.events) if buffer is not None else (),
    )


def plan_pool() -> "ProcessPoolExecutor":
    """The executor ``repro serve`` plans in: one ``spawn`` worker.

    The worker process starts on the first submitted plan, not here,
    so building the pool costs the daemon's boot nothing.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn"),
        initializer=_plan_worker_init,
    )


def _plan_worker_init() -> None:
    """Set up the planning worker: Ctrl-C is the daemon's (it drains,
    and the plan in flight must finish), and the worker exits when the
    daemon dies, however it dies."""
    import multiprocessing
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,),
                         name="plan-worker-parent-watch", daemon=True).start()


def _exit_with_parent(sentinel: int) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


class ServiceCore:
    """Deterministic submit/dispatch/complete state machine."""

    def __init__(
        self,
        cluster: "ClusterSpec",
        scheduler: "Scheduler",
        *,
        slots: int = 2,
        admission: "AdmissionConfig | None" = None,
        publisher: "TelemetryPublisher | None" = None,
        start_time: float = 0.0,
        executor: "Executor | None" = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.cluster = cluster
        self.scheduler = scheduler
        self.slots = slots
        self.admission = AdmissionController(admission)
        self.publisher = publisher
        #: Where the compute step runs; ``None`` runs it inline.
        self.executor = executor
        self._lock = threading.Lock()
        self._now = float(start_time)
        self._seq = 0
        #: All known job records (bounded: terminal ones are evicted
        #: beyond ``retain_results``); insertion ordered.
        self.jobs: "dict[str, ServiceJob]" = {}
        #: Admitted job payloads, dropped once the job is terminal.
        self._payloads: "dict[str, Job]" = {}
        self._queue: "deque[str]" = deque()
        #: (finish_t, seq, service_id) completion events.
        self._running: "list[tuple[float, int, str]]" = []
        #: Jobs holding a slot: claimed (planning) or awaiting completion.
        self._in_flight = 0
        #: Claimed jobs whose plan has not been committed yet.
        self._planning = 0
        #: Simulated outcome parked until the completion event fires.
        self._outcomes: "dict[str, tuple[float, bool, int]]" = {}
        self._terminal_order: "deque[str]" = deque()
        self._rejections: "deque[Rejection]" = deque(maxlen=REJECTION_HISTORY)
        self.draining = False
        self._drained_published = False
        self.counters = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "evicted": 0,
        }
        self.rejected_by_reason: "dict[str, int]" = {}
        self.peak_queue_depth = 0

    # -- time ----------------------------------------------------------- #

    @property
    def now(self) -> float:
        with self._lock:
            return self._now

    def next_deadline(self) -> "Optional[float]":
        """Earliest pending completion, or ``None`` when nothing runs."""
        with self._lock:
            return self._running[0][0] if self._running else None

    @property
    def idle(self) -> bool:
        """True when nothing is queued, planning, or running."""
        with self._lock:
            return self._quiet()

    # -- submission ----------------------------------------------------- #

    def submit(
        self, job: "Job", *, service_id: "str | None" = None
    ) -> ServiceJob:
        """Admit ``job`` (or shed it with a typed rejection).

        Returns the queued :class:`ServiceJob`; raises
        :class:`RejectedSubmission` when admission control says no.
        The job is *not* dispatched here — dispatch happens on the next
        ``advance_to``, which is what keeps HTTP submit latency flat
        even when simulations are expensive.
        """
        sid = service_id if service_id is not None else job.job_id
        with self._lock:
            self.counters["submitted"] += 1
            verdict = self.admission.decide(
                service_id=sid,
                stages=job.num_stages,
                queue_depth=len(self._queue),
                draining=self.draining,
                known=sid in self.jobs,
            )
            if verdict is not None:
                reason, detail = verdict
                rejection = Rejection(
                    job_id=sid, reason=reason, detail=detail,
                    at=self._now, queue_depth=len(self._queue),
                )
                self.counters["rejected"] += 1
                self.rejected_by_reason[reason] = (
                    self.rejected_by_reason.get(reason, 0) + 1
                )
                self._rejections.append(rejection)
                if self.publisher is not None:
                    self.publisher.job_rejected(
                        sid, reason, queue_depth=len(self._queue),
                        running=self._in_flight,
                    )
                raise RejectedSubmission(rejection)
            self._seq += 1
            record = ServiceJob(
                service_id=sid,
                dag_job_id=job.job_id,
                stages=job.num_stages,
                submit_t=self._now,
                seq=self._seq,
                scheduler=self.scheduler.name,
            )
            self.jobs[sid] = record
            self._payloads[sid] = job
            self._queue.append(sid)
            self.counters["admitted"] += 1
            self.peak_queue_depth = max(self.peak_queue_depth,
                                        len(self._queue))
            if self.publisher is not None:
                self.publisher.job_submitted(
                    sid, stages=job.num_stages,
                    queue_depth=len(self._queue), running=self._in_flight,
                )
            return record

    # -- control -------------------------------------------------------- #

    def cancel(self, service_id: str) -> "Optional[ServiceJob]":
        """Cancel a queued or running job.

        Returns the (possibly unchanged) record, or ``None`` for an
        unknown id.  Cancelling a terminal job is a no-op; cancelling a
        running job frees its slot immediately — its outcome, simulated
        or still planning, is discarded, so it never reports a JCT.
        """
        with self._lock:
            record = self.jobs.get(service_id)
            if record is None or record.terminal:
                return record
            was = record.state
            record.mark_cancelled(self._now)
            if was is JobState.QUEUED:
                self._queue.remove(service_id)
            else:  # RUNNING: stale heap entries and late commits are skipped
                self._outcomes.pop(service_id, None)
                self._in_flight -= 1
            self.counters["cancelled"] += 1
            self._retire(service_id)
            if self.publisher is not None:
                self.publisher.job_cancelled(
                    service_id, was=was.value,
                    queue_depth=len(self._queue), running=self._in_flight,
                )
            now = self._now
        self._dispatch(now)
        with self._lock:
            self._maybe_drained()
        return record

    def drain(self) -> dict:
        """Stop admitting; queued and running jobs still finish."""
        with self._lock:
            if not self.draining:
                self.draining = True
                if self.publisher is not None:
                    self.publisher.drain_started(
                        queue_depth=len(self._queue), running=self._in_flight,
                    )
            self._maybe_drained()
        return self.stats()

    @property
    def drained(self) -> bool:
        with self._lock:
            return self.draining and self._quiet()

    def close(self) -> None:
        """Shut the executor down (after any plan in flight).

        Later dispatches, if any, compute inline.
        """
        with self._lock:
            executor, self.executor = self.executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- the event loop body -------------------------------------------- #

    def advance_to(self, t: float) -> int:
        """Move service time to ``t``, firing everything due on the way.

        Completions are processed in ``(finish_t, seq)`` order; each
        freed slot immediately redispatches from the queue *at the
        completion instant*, so a burst of completions at the same time
        drains the queue deterministically.  Returns the number of
        lifecycle events (dispatches + completions) processed.
        """
        t = float(t)
        with self._lock:
            if t < self._now:
                raise ValueError(
                    f"cannot rewind service time from {self._now} to {t}"
                )
            now = self._now
        processed = self._dispatch(now)
        while True:
            with self._lock:
                if not self._running or self._running[0][0] > t:
                    self._now = t
                    self._maybe_drained()
                    return processed
                finish_t, _, sid = heapq.heappop(self._running)
                self._now = max(self._now, finish_t)
                now = self._now
                if not self._complete(sid):
                    continue  # cancelled (slot already freed) or evicted
            processed += 1
            processed += self._dispatch(now)

    def run_until_idle(self, limit: "float | None" = None) -> float:
        """Advance through completions until nothing is running.

        Dispatches the backlog first, then repeatedly jumps to the next
        completion.  ``limit`` bounds how far time may advance (the
        soak tests' deadlock guard).  Returns the final service time.
        """
        self.advance_to(self.now)
        while True:
            deadline = self.next_deadline()
            if deadline is None:
                break
            if limit is not None and deadline > limit:
                break
            self.advance_to(deadline)
        return self.now

    # -- dispatch: claim → compute → commit ------------------------------ #

    def claim(self, t: float) -> "Optional[Claim]":
        """Step 1: move the queue head onto a free slot at instant ``t``.

        Returns ``None`` when no slot is free or the head is not due.
        """
        with self._lock:
            if not self._queue or self._in_flight >= self.slots:
                return None
            sid = self._queue[0]
            record = self.jobs[sid]
            if record.submit_t > t:
                return None  # future arrival (pump catching up); not due yet
            self._queue.popleft()
            record.mark_running(t)
            self._in_flight += 1
            self._planning += 1
            self._seq += 1
            return Claim(self._payloads[sid], record, t, self._seq)

    def compute(self, claim: Claim) -> DispatchOutcome:
        """Step 2, lock-free: plan and simulate the claimed job.

        Runs in :attr:`executor` when set, else inline.  A broken
        executor is replaced by a fresh :func:`plan_pool` before the
        error propagates, so only the job in flight fails.
        """
        args = (self.cluster, self.scheduler, claim.job,
                self.publisher is not None)
        executor = self.executor
        if executor is None:
            return plan_and_simulate(*args)
        try:
            return executor.submit(plan_and_simulate, *args).result()
        except BrokenExecutor:
            with self._lock:
                if self.executor is executor:
                    self.executor = plan_pool()
            executor.shutdown(wait=False)
            raise

    def commit(self, claim: Claim,
               outcome: "DispatchOutcome | Exception") -> None:
        """Step 3: record a claimed job's outcome (or planning error).

        A job cancelled since its claim keeps its cancelled state and
        the outcome is dropped.  An exception fails the job at its
        dispatch instant and frees its slot.
        """
        with self._lock:
            self._planning -= 1
            record = claim.record
            sid = record.service_id
            if record.state is not JobState.RUNNING:
                self._maybe_drained()  # cancelled while planning
                return
            if isinstance(outcome, Exception):
                record.mark_failed(claim.t, failure_time=0.0)
                record.extra["error"] = f"{type(outcome).__name__}: {outcome}"
                # A worker's exception chains the worker-side traceback.
                record.extra["traceback"] = "".join(
                    traceback.format_exception(outcome))
                self.counters["failed"] += 1
                self._in_flight -= 1
                if self.publisher is not None:
                    self.publisher.job_failed(
                        sid, failure_time=0.0, retries=0,
                        queue_depth=len(self._queue),
                        running=self._in_flight,
                    )
                self._retire(sid)
                self._maybe_drained()
                return
            summary = outcome.schedule
            if "stages_delayed" in summary:
                record.stages_delayed = summary["stages_delayed"]
                record.total_delay_s = summary["total_delay_s"]
            if "predicted_makespan" in summary:
                record.predicted_makespan = summary["predicted_makespan"]
            if outcome.faults is not None:
                record.extra["faults"] = dict(outcome.faults)
            if self.publisher is not None:
                self.publisher.publish_schedule(self.scheduler.name, summary)
                for kind, fields in outcome.fault_events:
                    self.publisher.fault_event(kind, fields)
            self._outcomes[sid] = (outcome.jct, outcome.failed,
                                   outcome.retries)
            heapq.heappush(self._running,
                           (claim.t + outcome.jct, claim.seq, sid))

    # -- internals ------------------------------------------------------ #

    def _dispatch(self, t: float) -> int:
        """Fill free slots from the queue; returns the dispatched count.

        Each job is planned and simulated at dispatch time (its wall
        cost is the service's processing cost) but its *service-time*
        completion is scheduled at ``t + JCT`` — the fluid simulator
        plays the role of the cluster, and the core plays the role of
        its clock.  Called without the lock held.
        """
        dispatched = 0
        while True:
            claim = self.claim(t)
            if claim is None:
                return dispatched
            try:
                outcome: "DispatchOutcome | Exception" = self.compute(claim)
            except Exception as exc:  # one bad job must not stop the service
                outcome = exc
            self.commit(claim, outcome)
            dispatched += 1

    def _complete(self, sid: str) -> bool:
        """Fire one popped completion; False for a stale heap entry."""
        record = self.jobs.get(sid)
        if record is None or record.state is not JobState.RUNNING:
            return False
        jct, failed, retries = self._outcomes.pop(sid)
        record.retries = retries
        if failed:
            record.mark_failed(self._now, failure_time=jct)
            self.counters["failed"] += 1
            if self.publisher is not None:
                self.publisher.job_failed(
                    sid, failure_time=jct, retries=retries,
                    queue_depth=len(self._queue),
                    running=self._in_flight - 1,
                )
        else:
            record.mark_completed(self._now, jct=jct)
            self.counters["completed"] += 1
            if self.publisher is not None:
                self.publisher.job_done(jct=jct)
        self._in_flight -= 1
        self._retire(sid)
        return True

    def _retire(self, service_id: str) -> None:
        """Drop the payload and enforce the terminal-record bound."""
        self._payloads.pop(service_id, None)
        self._terminal_order.append(service_id)
        retain = self.admission.config.retain_results
        while len(self._terminal_order) > retain:
            victim = self._terminal_order.popleft()
            if self.jobs.pop(victim, None) is not None:
                self.counters["evicted"] += 1

    def _quiet(self) -> bool:
        """Nothing queued, planning, or awaiting completion (lock held)."""
        return not self._queue and not self._running and not self._planning

    def _maybe_drained(self) -> None:
        if (self.draining and self._quiet()
                and not self._drained_published):
            self._drained_published = True
            if self.publisher is not None:
                self.publisher.drain_finished(
                    completed=self.counters["completed"],
                    failed=self.counters["failed"],
                    cancelled=self.counters["cancelled"],
                    rejected=self.counters["rejected"],
                )

    # -- views ----------------------------------------------------------- #

    def status(self, service_id: str) -> "Optional[ServiceJob]":
        with self._lock:
            return self.jobs.get(service_id)

    def jobs_snapshot(self) -> "list[ServiceJob]":
        """Retained lifecycle records in admission order."""
        with self._lock:
            return sorted(self.jobs.values(), key=lambda r: r.seq)

    def job_states(self) -> "dict[str, int]":
        """Count of retained records per lifecycle state."""
        with self._lock:
            return self._job_states()

    def _job_states(self) -> "dict[str, int]":
        counts: "dict[str, int]" = {}
        for record in self.jobs.values():
            counts[record.state.value] = counts.get(record.state.value, 0) + 1
        return counts

    def rejections(self) -> "list[Rejection]":
        with self._lock:
            return list(self._rejections)

    def stats(self) -> dict:
        """Counters + occupancy snapshot (the ``/service`` payload)."""
        with self._lock:
            return {
                "now": self._now,
                "slots": self.slots,
                "queue_depth": len(self._queue),
                "running": self._in_flight,
                "peak_queue_depth": self.peak_queue_depth,
                "max_pending": self.admission.config.max_pending,
                "draining": self.draining,
                "drained": self.draining and self._quiet(),
                "scheduler": self.scheduler.name,
                "counters": dict(self.counters),
                "rejected_by_reason": dict(self.rejected_by_reason),
                "states": self._job_states(),
            }
