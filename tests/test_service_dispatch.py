"""Two-phase dispatch: claim → compute → commit.

The core plans and simulates a claimed job with no lock held, inline or
in a worker process, and commits the outcome afterwards.  These tests
pin what that buys and what it must not change:

* status, stats and submit return while a plan is in progress;
* a spawn worker process produces the same JCTs, records and bus events
  (fault events included) as the inline path;
* a job whose planning raises, or whose worker dies, fails alone — the
  service keeps dispatching and its books balance.
"""

from __future__ import annotations

import os
import sys
import threading

from repro.cluster import uniform_cluster
from repro.faults import generate_plan
from repro.obs.live.bus import TelemetryBus, TelemetryPublisher
from repro.schedulers import FuxiScheduler
from repro.service import (
    AdmissionConfig,
    JobState,
    RejectedSubmission,
    ServiceCore,
)
from repro.service.core import plan_pool
from repro.workloads.synthetic import random_job

#: Deadlock guard for the lock test; never reached when the lock is free.
GUARD_S = 60.0


def _cluster():
    return uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                           disk_mb_per_sec=150, storage_nodes=0)


def _jobs(n, prefix="j", seed=0):
    return [random_job(4, job_id=f"{prefix}{i}", rng=seed * 100 + i)
            for i in range(n)]


def _books_balance(core):
    s = core.stats()
    c = s["counters"]
    assert c["submitted"] == c["admitted"] + c["rejected"]
    assert c["admitted"] == (s["queue_depth"] + s["running"] + c["completed"]
                             + c["failed"] + c["cancelled"])


def _events(bus):
    return [{k: v for k, v in e.items() if k != "elapsed_s"}
            for e in bus.events_since()]


class BlockingScheduler(FuxiScheduler):
    """Fuxi whose planning waits until the test releases it."""

    def __init__(self):
        super().__init__(track_metrics=False)
        self.entered = threading.Event()
        self.release = threading.Event()

    def prepare(self, job, cluster, tracer=None):
        self.entered.set()
        self.release.wait()
        return super().prepare(job, cluster, tracer)


class FailingScheduler(FuxiScheduler):
    """Fuxi whose planning raises for one job id."""

    def prepare(self, job, cluster, tracer=None):
        if job.job_id == "bad":
            raise RuntimeError("planner gave up")
        return super().prepare(job, cluster, tracer)


class ExitingScheduler(FuxiScheduler):
    """Fuxi whose planning kills the worker process for one job id."""

    def prepare(self, job, cluster, tracer=None):
        if job.job_id == "crash":
            os._exit(3)
        return super().prepare(job, cluster, tracer)


def test_reads_and_submits_return_while_a_job_plans():
    scheduler = BlockingScheduler()
    core = ServiceCore(_cluster(), scheduler, slots=1)
    first, second = _jobs(2)
    core.submit(first)
    pump = threading.Thread(target=core.advance_to, args=(0.0,))
    pump.start()
    replies = {}
    answered = threading.Event()

    def probe():
        replies["status"] = core.status(first.job_id)
        replies["stats"] = core.stats()
        replies["submit"] = core.submit(second)
        answered.set()

    try:
        assert scheduler.entered.wait(GUARD_S)
        prober = threading.Thread(target=probe)
        prober.start()
        assert answered.wait(GUARD_S), "a read blocked behind planning"
        prober.join(GUARD_S)
        assert not prober.is_alive()
    finally:
        scheduler.release.set()
        pump.join(GUARD_S)
    assert not pump.is_alive()
    # what the readers saw mid-plan: the job holds its slot, no JCT yet
    assert replies["status"].state is JobState.RUNNING
    assert replies["status"].jct is None
    assert replies["stats"]["running"] == 1
    assert replies["stats"]["queue_depth"] == 0
    assert replies["submit"].state is JobState.QUEUED
    core.drain()
    core.run_until_idle()
    assert core.drained
    assert core.stats()["counters"]["completed"] == 2


def test_books_balance_under_concurrent_submit_cancel_and_advance():
    """Submitters, a canceller and a pump race on one core, switching
    threads every microsecond; a lost update would unbalance the books
    or complete a job twice."""
    bus = TelemetryBus()
    core = ServiceCore(
        _cluster(), FuxiScheduler(track_metrics=False), slots=2,
        admission=AdmissionConfig(max_pending=100),
        publisher=TelemetryPublisher(bus, label="svc", run_id="svc"),
    )
    per_submitter = 40

    def submitter(prefix):
        for job in _jobs(per_submitter, prefix=prefix):
            try:
                core.submit(job)
            except RejectedSubmission:
                pass

    def canceller():
        # every third live job, queued or running, until the pump is done
        while pumping.is_alive():
            assert core.stats()["running"] <= core.slots
            for record in core.jobs_snapshot():
                if not record.terminal and record.seq % 3 == 0:
                    core.cancel(record.service_id)

    def pump():
        t = 0.0
        while any(s.is_alive() for s in submitters) or not core.idle:
            t += 2.5
            core.advance_to(t)

    submitters = [threading.Thread(target=submitter, args=(p,)) for p in "ab"]
    pumping = threading.Thread(target=pump)
    threads = submitters + [pumping, threading.Thread(target=canceller)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(GUARD_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    _books_balance(core)
    core.drain()
    core.run_until_idle()
    assert core.drained
    _books_balance(core)
    c = core.stats()["counters"]
    assert c["submitted"] == 2 * per_submitter
    assert c["admitted"] == c["completed"] + c["failed"] + c["cancelled"]
    events = bus.events_since()
    assert sum(e["type"] == "job" for e in events) == c["completed"]
    assert sum(e["type"] == "cancelled" for e in events) == c["cancelled"]
    assert sum(e["type"] == "drained" for e in events) == 1


def _chaos_run(executor, seed=2):
    """A seeded chaos service run (faults fire in dispatched jobs)."""
    cluster = _cluster()
    jobs = _jobs(4, prefix=f"c{seed}-", seed=seed)
    plan = generate_plan(cluster, seed, jobs=jobs, num_events=4,
                         retry_budget=1, backoff_base=0.25, backoff_cap=1.0)
    bus = TelemetryBus()
    core = ServiceCore(
        cluster, FuxiScheduler(track_metrics=False, fault_plan=plan),
        slots=2, admission=AdmissionConfig(max_pending=8),
        publisher=TelemetryPublisher(bus, label="serve", run_id="serve"),
        executor=executor,
    )
    try:
        for i, job in enumerate(jobs):
            core.advance_to(10.0 * i)
            core.submit(job)
        core.drain()
        core.run_until_idle()
    finally:
        core.close()
    records = [r.to_dict() for r in core.jobs_snapshot()]
    return records, _events(bus)


def test_spawn_worker_matches_inline_dispatch():
    inline_records, inline_events = _chaos_run(None)
    pool_records, pool_events = _chaos_run(plan_pool())
    assert pool_records == inline_records
    assert [r["jct"] for r in pool_records] == [r["jct"]
                                               for r in inline_records]
    assert pool_events == inline_events
    assert any(e["type"] == "fault" for e in inline_events)


def test_planning_error_fails_only_its_job():
    bus = TelemetryBus()
    core = ServiceCore(
        _cluster(), FailingScheduler(track_metrics=False), slots=1,
        publisher=TelemetryPublisher(bus, label="svc", run_id="svc"),
    )
    jobs = (_jobs(2, prefix="a") + [random_job(4, job_id="bad", rng=7)]
            + _jobs(2, prefix="z"))
    for job in jobs:
        core.submit(job)
    core.drain()
    core.run_until_idle()
    assert core.drained
    _books_balance(core)
    counters = core.stats()["counters"]
    assert counters["failed"] == 1 and counters["completed"] == 4
    bad = core.status("bad")
    assert bad.state is JobState.FAILED and bad.jct is None
    assert "planner gave up" in bad.extra["error"]
    failed = [e for e in bus.events_since() if e["type"] == "failed"]
    assert [e["service_id"] for e in failed] == ["bad"]
    assert [e["type"] for e in bus.events_since()][-1] == "drained"


def test_dead_worker_fails_its_job_and_the_pool_is_replaced():
    pool = plan_pool()
    core = ServiceCore(_cluster(), ExitingScheduler(track_metrics=False),
                       slots=1, executor=pool)
    try:
        core.submit(random_job(4, job_id="crash", rng=1))
        for job in _jobs(2):
            core.submit(job)
        core.drain()
        core.run_until_idle()
        assert core.executor is not pool
    finally:
        core.close()
    assert core.drained
    _books_balance(core)
    assert core.status("crash").state is JobState.FAILED
    assert "BrokenProcessPool" in core.status("crash").extra["error"]
    assert core.stats()["counters"]["completed"] == 2
