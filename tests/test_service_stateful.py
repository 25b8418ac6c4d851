"""Stateful service testing: random interleavings never break invariants.

A :class:`hypothesis.stateful.RuleBasedStateMachine` fires arbitrary
interleavings of the service's whole control surface — submit, status,
cancel (queued, running, planning, terminal, unknown), time advance,
and drain — against a :class:`~repro.service.core.ServiceCore` whose
scheduler carries a seeded chaos fault plan, so dispatched jobs can
also *fail* mid-interleaving.  Dispatch's two locked steps are rules of
their own: ``claim`` takes a job onto a slot and ``commit`` records its
plan later, so cancels, drains, and advances land while a job plans.
After every rule and at teardown the machine checks these global
invariants:

* **no lost job** — every admitted submission is accounted for:
  ``admitted == queued + running + completed + failed + cancelled``;
* **no double completion** — a service id reaches at most one terminal
  state, and the ``job`` (completion) event count equals the completed
  counter;
* **cancelled jobs never report JCTs** — ``jct is None`` whenever a
  record says cancelled, even if its simulation already ran;
* occupancy bounds hold (queue ≤ max_pending, running ≤ slots) and
  time is monotone along each lifecycle;
* a claimed but uncommitted job keeps the service busy: never idle,
  never drained, no ``drained`` event.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

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
from repro.workloads.synthetic import random_job

MAX_PENDING = 3
SLOTS = 2

advances = st.integers(1, 2400).map(lambda n: n / 4.0)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = uniform_cluster(
            3, executors_per_worker=2, nic_mbps=450,
            disk_mb_per_sec=150, storage_nodes=0,
        )
        self.bus = TelemetryBus()
        self.publisher = TelemetryPublisher(self.bus, label="svc",
                                            run_id="svc")
        self.core = None
        self.submitted_ids: "list[str]" = []
        #: Claims taken by the ``claim`` rule and not yet committed.
        self.planning: list = []
        self.terminal_seen: "dict[str, str]" = {}
        self.next_id = 0

    @initialize(chaos_seed=st.integers(0, 6))
    def boot(self, chaos_seed):
        # chaos_seed 0: healthy service; otherwise a seeded fault plan
        # rides on every dispatched job's simulation.
        plan = None
        if chaos_seed:
            plan = generate_plan(self.cluster, chaos_seed, num_events=3,
                                 retry_budget=1, backoff_base=0.25,
                                 backoff_cap=1.0)
        scheduler = FuxiScheduler(track_metrics=False, fault_plan=plan)
        self.core = ServiceCore(
            self.cluster, scheduler, slots=SLOTS,
            admission=AdmissionConfig(max_pending=MAX_PENDING),
            publisher=self.publisher,
        )

    # -- rules ---------------------------------------------------------- #

    @rule(seed=st.integers(0, 10_000), num_stages=st.integers(2, 4))
    def submit(self, seed, num_stages):
        sid = f"job{self.next_id}"
        self.next_id += 1
        job = random_job(num_stages, job_id=sid, rng=seed)
        try:
            record = self.core.submit(job)
        except RejectedSubmission as exc:
            assert exc.rejection.reason in (
                "queue_full", "draining", "duplicate", "too_large"
            )
            return
        assert record.state is JobState.QUEUED
        self.submitted_ids.append(sid)

    @rule(seed=st.integers(0, 10_000))
    def submit_duplicate(self, seed):
        if not self.submitted_ids:
            return
        sid = self.submitted_ids[seed % len(self.submitted_ids)]
        if self.core.status(sid) is None:
            return  # evicted: the id is genuinely forgotten
        job = random_job(3, job_id=sid, rng=seed)
        try:
            self.core.submit(job)
        except RejectedSubmission as exc:
            assert exc.rejection.reason == "duplicate"
        else:  # pragma: no cover - would be the bug itself
            raise AssertionError("duplicate submission was admitted")

    @rule(dt=advances)
    def advance(self, dt):
        self.core.advance_to(self.core.now + dt)

    @rule(pick=st.integers(0, 10_000))
    def cancel(self, pick):
        if not self.submitted_ids:
            return
        sid = self.submitted_ids[pick % len(self.submitted_ids)]
        before = self.core.status(sid)
        record = self.core.cancel(sid)
        if before is None:
            assert record is None
            return
        if before.terminal:
            # cancelling a finished job is a no-op, not a transition
            assert record.state is before.state
        else:
            assert record.state is JobState.CANCELLED
            assert record.jct is None

    @precondition(lambda self: self.core is not None
                  and self.core.stats()["queue_depth"] > 0)
    @rule()
    def claim(self):
        claim = self.core.claim(self.core.now)
        if claim is not None:
            assert claim.record.state is JobState.RUNNING
            self.planning.append(claim)

    @precondition(lambda self: self.planning)
    @rule(pick=st.integers(0, 10_000))
    def commit(self, pick):
        claim = self.planning.pop(pick % len(self.planning))
        cancelled = claim.record.state is JobState.CANCELLED
        before, last_seq = claim.record.to_dict(), self.bus.last_seq
        self.core.commit(claim, self.core.compute(claim))
        if cancelled:  # cancelled while planning: the outcome is dropped
            assert claim.record.to_dict() == before
            assert all(e["type"] == "drained"
                       for e in self.bus.events_since(last_seq))

    @rule()
    def settle(self):
        """Finish every committed job; uncommitted claims keep planning."""
        self.core.run_until_idle()

    @precondition(lambda self: self.planning)
    @rule(pick=st.integers(0, 10_000))
    def cancel_planning(self, pick):
        claim = self.planning[pick % len(self.planning)]
        record = self.core.cancel(claim.record.service_id)
        if record is not None:
            assert record.state is JobState.CANCELLED

    @rule()
    def cancel_unknown(self):
        assert self.core.cancel("never-submitted") is None

    @rule(pick=st.integers(0, 10_000))
    def status(self, pick):
        if not self.submitted_ids:
            return
        sid = self.submitted_ids[pick % len(self.submitted_ids)]
        record = self.core.status(sid)
        if record is None:
            return
        if record.state is JobState.CANCELLED:
            assert record.jct is None
        if record.state is JobState.COMPLETED:
            assert record.jct is not None and record.jct >= 0

    @rule()
    def drain(self):
        self.core.drain()
        assert self.core.draining

    # -- invariants ----------------------------------------------------- #

    @invariant()
    def planning_keeps_the_service_busy(self):
        if self.core is None or not self.planning:
            return
        assert not self.core.idle
        assert not self.core.drained
        assert not self.core.stats()["drained"]
        assert all(e["type"] != "drained" for e in self.bus.events_since())

    @invariant()
    def books_balance(self):
        if self.core is None:
            return
        s = self.core.stats()
        live = s["queue_depth"] + s["running"]
        terminal = (s["counters"]["completed"] + s["counters"]["failed"]
                    + s["counters"]["cancelled"])
        # no lost job, no double completion
        assert s["counters"]["admitted"] == live + terminal
        assert s["counters"]["submitted"] == (
            s["counters"]["admitted"] + s["counters"]["rejected"]
        )
        assert 0 <= s["queue_depth"] <= MAX_PENDING
        assert 0 <= s["running"] <= SLOTS

    @invariant()
    def terminal_states_are_sticky(self):
        if self.core is None:
            return
        for record in self.core.jobs_snapshot():
            if record.terminal:
                seen = self.terminal_seen.setdefault(
                    record.service_id, record.state.value
                )
                assert seen == record.state.value, (
                    f"{record.service_id} changed terminal state "
                    f"{seen} -> {record.state.value}"
                )
                if record.state is not JobState.COMPLETED:
                    assert record.jct is None
            if record.dispatch_t is not None:
                assert record.dispatch_t >= record.submit_t
            if record.finish_t is not None and record.dispatch_t is not None:
                assert record.finish_t >= record.dispatch_t

    def teardown(self):
        if self.core is None:
            return
        for claim in self.planning:
            self.core.commit(claim, self.core.compute(claim))
        self.core.drain()
        self.core.run_until_idle()
        s = self.core.stats()
        assert s["drained"], "drain + run_until_idle must quiesce"
        terminal = (s["counters"]["completed"] + s["counters"]["failed"]
                    + s["counters"]["cancelled"])
        assert s["counters"]["admitted"] == terminal
        # completion events on the bus match the completed counter
        events = self.bus.events_since()
        job_events = [e for e in events if e["type"] == "job"]
        assert len(job_events) == s["counters"]["completed"]
        # exactly one terminal drained event; anything after it can only
        # be load-shedding (the service admits nothing once drained)
        drained = [e for e in events if e["type"] == "drained"]
        assert len(drained) == 1
        after = [e for e in events if e["seq"] > drained[0]["seq"]]
        assert all(e["type"] == "rejected" for e in after)
        # cancelled jobs never contributed a JCT
        cancelled_ids = {
            r.service_id for r in self.core.jobs_snapshot()
            if r.state is JobState.CANCELLED
        }
        for event in job_events:
            assert event.get("jct") is None or event["jct"] >= 0
        for record in self.core.jobs_snapshot():
            if record.service_id in cancelled_ids:
                assert record.jct is None


ServiceMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)

TestServiceMachine = ServiceMachine.TestCase
