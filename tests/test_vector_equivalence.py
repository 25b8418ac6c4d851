"""The vector engine is bit-exact: array kernels and object loop agree.

The PR that introduced :class:`~repro.simulator.vector.VectorFluidEngine`
claims the struct-of-arrays hot path is *bit-identical* to the scalar
object engine — same records, same event-log bytes, same metric
segments — under every configuration: healthy runs, fault injection
with replanning, contention penalties, parallel replay shards, and the
committed chaos goldens.  Every comparison below is ``==`` on floats,
never ``pytest.approx``.

The adaptive threshold means a plain run may never actually enter
vector mode (small active sets stay on the scalar path by design), so
``_force_vector`` drops the entry thresholds to zero and disables the
churn guard, making every event from the second onward run on the
array kernels.  Both the natural and the forced policies are tested.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import uniform_cluster
from repro.core.delaystage import DelayStageParams
from repro.faults import generate_plan
from repro.schedulers import DelayStageScheduler, run_with_scheduler
from repro.simulator.engine import FluidEngine, WorkItem
from repro.simulator.eventlog import write_eventlog
from repro.simulator.simulation import (
    ImmediatePolicy,
    Simulation,
    SimulationConfig,
)
from repro.simulator.vector import VectorCore, VectorFluidEngine
from repro.workloads.synthetic import random_job


def _records_equal(a, b) -> bool:
    """Dataclass equality where NaN == NaN (unset lifecycle fields)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


def _cluster():
    return uniform_cluster(
        3, executors_per_worker=2, nic_mbps=450, disk_mb_per_sec=150,
        storage_nodes=0,
    )


def _run(jobs, *, vector: bool, penalty: float = 0.0, incremental: bool = True,
         track_metrics: bool = False):
    cfg = SimulationConfig(
        track_metrics=track_metrics, contention_penalty=penalty,
        incremental=incremental, vector=vector,
    )
    sim = Simulation(_cluster(), cfg)
    for job in jobs:
        sim.add_job(job, ImmediatePolicy())
    return sim.run()


def _assert_results_identical(a, b) -> None:
    assert a.stage_records.keys() == b.stage_records.keys()
    for key in a.stage_records:
        assert _records_equal(a.stage_records[key], b.stage_records[key]), key
    for jid in a.job_records:
        assert _records_equal(a.job_records[jid], b.job_records[jid]), jid
    assert a.events == b.events


_FORCED = {
    "ENTER_VECTOR_N": 1,
    "EXIT_VECTOR_N": 0,
    "CHURN_EXIT_RATIO": math.inf,
    "CHURN_ENTER_RATIO": math.inf,
    "ENTER_CALM_EVENTS": 0,
}


@contextlib.contextmanager
def _forced_vector():
    """Make the adaptive engine enter vector mode immediately and never
    leave: entry floor 1, no exit floor, churn guard off, no calm-streak
    wait.  A context manager rather than a pytest fixture so hypothesis
    tests can use it per-example without the function-scoped-fixture
    health check."""
    saved = {name: getattr(VectorFluidEngine, name) for name in _FORCED}
    for name, value in _FORCED.items():
        setattr(VectorFluidEngine, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(VectorFluidEngine, name, value)


@pytest.fixture
def _force_vector():
    with _forced_vector():
        yield


# --------------------------------------------------------------------- #
# simulation-level bit-identity


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(2, 9),
    num_jobs=st.integers(1, 3),
    penalty=st.sampled_from([0.0, 0.5]),
)
def test_vector_engine_bit_identical(seed, num_stages, num_jobs, penalty):
    jobs = [
        random_job(num_stages, job_id=f"J{i}", parallelism=0.6,
                   rng=seed * 7 + i)
        for i in range(num_jobs)
    ]
    scalar = _run(jobs, vector=False, penalty=penalty)
    vector = _run(jobs, vector=True, penalty=penalty)
    _assert_results_identical(vector, scalar)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), num_stages=st.integers(2, 8))
def test_forced_vector_mode_bit_identical(seed, num_stages):
    """Array kernels active from the first event still match the scalar
    engine exactly — the adaptive policy is purely a speed knob."""
    jobs = [random_job(num_stages, job_id="J", parallelism=0.7, rng=seed)]
    scalar = _run(jobs, vector=False)
    with _forced_vector():
        vector = _run(jobs, vector=True)
    _assert_results_identical(vector, scalar)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_vector_under_faults_bit_identical(seed):
    """Fault injection cancels items and reads their remaining volumes
    mid-run — the array→object sync points must be exact."""
    cluster = _cluster()
    job = random_job(5, job_id="F", rng=seed)
    plan = generate_plan(cluster, seed, jobs=[job], num_events=3,
                         retry_budget=3, backoff_base=0.25, backoff_cap=2.0)

    def run(vector):
        scheduler = DelayStageScheduler(
            profiled=False, track_metrics=False,
            params=DelayStageParams(max_slots=8),
            fault_plan=plan, replan=True, vector=vector,
        )
        return run_with_scheduler(job, cluster, scheduler).result

    scalar = run(False)
    with _forced_vector():
        vector = run(True)
    _assert_results_identical(vector, scalar)


def test_vector_eventlog_bytes_identical():
    """The serialized eventlog — not just the records — is byte-equal."""
    jobs = [random_job(7, job_id=f"J{i}", parallelism=0.7, rng=11 + i)
            for i in range(2)]
    logs = []
    for vector in (True, False):
        buf = io.StringIO()
        write_eventlog(_run(jobs, vector=vector).events, buf)
        logs.append(buf.getvalue())
    assert logs[0] == logs[1]


def test_vector_chaos_goldens_unchanged():
    """``vector=True`` (the default) keeps reproducing the committed
    chaos fixtures byte-for-byte — the goldens were recorded before the
    vector engine existed, so this pins the whole fault trajectory."""
    from tests.test_faults_golden import SEEDS, _chaos_eventlog, _golden_path

    for seed in SEEDS:
        expected = _golden_path(seed).read_text(encoding="utf-8")
        assert _chaos_eventlog(seed) == expected


def test_vector_metrics_segments_identical(_force_vector):
    """The observe callback sees identical constant-rate segments."""
    jobs = [random_job(6, job_id="M", parallelism=0.7, rng=3)]
    scalar = _run(jobs, vector=False, track_metrics=True)
    vector = _run(jobs, vector=True, track_metrics=True)
    _assert_results_identical(vector, scalar)
    ms, mv = scalar.metrics, vector.metrics
    assert ms._t0 == mv._t0 and ms._t1 == mv._t1
    for name in ("_net_in", "_net_out", "_cpu", "_disk"):
        for a, b in zip(getattr(ms, name), getattr(mv, name)):
            assert np.array_equal(a, b)
    assert scalar.counters == vector.counters


def test_vector_parallel_shards_identical():
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.simulator.parallel import replay_jcts

    jobs = [random_job(5, job_id=f"J{i}", parallelism=0.5, rng=i)
            for i in range(5)]
    cluster = _cluster()
    scalar = replay_jcts(jobs, cluster, FuxiScheduler(track_metrics=False,
                                                      vector=False),
                         processes=1)
    for vector, processes in ((True, 1), (True, 2), (False, 2)):
        sched = FuxiScheduler(track_metrics=False, vector=vector)
        assert replay_jcts(jobs, cluster, sched, processes=processes) == scalar


def test_no_vector_selects_scalar_engine_class():
    sim = Simulation(_cluster(), SimulationConfig(vector=False))
    assert type(sim.engine) is FluidEngine
    sim = Simulation(_cluster(), SimulationConfig())
    assert type(sim.engine) is VectorFluidEngine


# --------------------------------------------------------------------- #
# engine-level behaviour


def _flat_alloc(items):
    for item in items:
        item.rate = 1.0


def _engine(cls=VectorFluidEngine):
    return cls(_flat_alloc)


def test_forced_vector_engine_matches_scalar_trace(_force_vector):
    """Same completion order and times from both engines on a raw
    item soup with distinct volumes."""

    def run(cls):
        eng = cls(_flat_alloc)
        done = []
        for i in range(40):
            volume = 1.0 + i * 0.37
            eng.add_item(WorkItem(volume, lambda t, i=i: done.append((i, t))))
        eng.run()
        return done, eng.now

    assert run(FluidEngine) == run(VectorFluidEngine)


def test_vector_cancel_syncs_remaining(_force_vector):
    """cancel_item must hand back the array-authoritative remaining."""

    def run(cls):
        eng = cls(_flat_alloc)
        victim = WorkItem(100.0)
        eng.add_item(victim)
        for i in range(5):
            eng.add_item(WorkItem(10.0 + i))
        grabbed = []

        def grab():
            assert eng.cancel_item(victim)
            grabbed.append(victim.remaining)

        eng.schedule(3.5, grab)
        eng.run()
        return grabbed

    assert run(VectorFluidEngine) == run(FluidEngine) == [100.0 - 3.5]


def test_vector_active_items_syncs_remaining(_force_vector):
    eng = _engine()
    items = [WorkItem(10.0 + i) for i in range(4)]
    for item in items:
        eng.add_item(item)
    eng.run(until=2.0)
    # While in vector mode the arrays are authoritative; active_items
    # must surface the advanced values on the objects.
    assert eng._vmode
    for item in eng.active_items:
        assert item.remaining == (10.0 + item._pos) - 2.0


def test_vector_batch_remove_matches_sequential(_force_vector):
    """A mass completion (many items with the same volume) exercises
    the deferred batch row moves; survivors keep exact state."""

    def run(cls):
        eng = cls(_flat_alloc)
        order = []
        # 10 items completing together, interleaved with 10 survivors.
        for i in range(20):
            volume = 5.0 if i % 2 == 0 else 50.0 + i
            eng.add_item(WorkItem(volume, lambda t, i=i: order.append((i, t))))
        eng.run(until=30.0)
        survivors = sorted((it._pos, it.remaining) for it in eng.active_items)
        return order, survivors, eng.now

    assert run(VectorFluidEngine) == run(FluidEngine)


def test_vector_zero_volume_item_completes_instantly():
    eng = _engine()
    fired = []
    eng.add_item(WorkItem(0.0, fired.append))
    assert fired == [0.0]
    assert eng.idle


def test_vector_stall_raises_with_synced_state(_force_vector):
    from repro.simulator.engine import EngineStalledError

    def alloc(items):
        for item in items:
            item.rate = 0.0

    eng = VectorFluidEngine(alloc)
    item = WorkItem(5.0)
    eng.add_item(item)
    with pytest.raises(EngineStalledError):
        eng.run()
    assert item.remaining == 5.0


def test_adaptive_engine_stays_scalar_when_small():
    """Below ENTER_VECTOR_N the engine never pays for the arrays."""
    eng = _engine()
    for i in range(5):
        eng.add_item(WorkItem(1.0 + i))
    eng.run()
    assert not eng._vmode
    assert not eng.core.active


def test_total_events_counter_accumulates():
    before = FluidEngine.TOTAL_EVENTS
    for cls in (FluidEngine, VectorFluidEngine):
        eng = cls(_flat_alloc)
        eng.add_item(WorkItem(1.0))
        eng.run()
    assert FluidEngine.TOTAL_EVENTS >= before + 2


# --------------------------------------------------------------------- #
# VectorCore unit behaviour


def test_core_grow_preserves_rows():
    core = VectorCore(capacity=4)
    core.remaining[:4] = [1.0, 2.0, 3.0, 4.0]
    core.rate[:4] = [0.1, 0.2, 0.3, 0.4]
    core.grow(9)
    assert core.capacity == 16
    assert core.remaining[:4].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert core.rate[:4].tolist() == [0.1, 0.2, 0.3, 0.4]


def test_core_rebuild_materializes_rows():
    """Entering vector mode copies every item's volume and rate into its
    row, growing the arrays to fit."""
    items = [WorkItem(5.0), WorkItem(3.0)]
    for pos, (item, rate) in enumerate(zip(items, (2.0, 0.5))):
        item.rate = rate
        item._pos = pos
    core = VectorCore(capacity=1)
    core.rebuild(items, eps=1e-9)
    assert core.capacity == 2
    assert core.remaining[:2].tolist() == [5.0, 3.0]
    assert core.rate[:2].tolist() == [2.0, 0.5]


def test_core_thresh_follows_rate_rule():
    """thresh rows cache EPS * rate if rate > 1.0 else EPS exactly."""
    eps = FluidEngine.EPS
    items = [WorkItem(10.0) for _ in range(3)]
    for pos, (item, rate) in enumerate(zip(items, (0.5, 1.0, 250.0))):
        item.rate = rate
        item._pos = pos
    core = VectorCore()
    core.rebuild(items, eps)
    assert core.thresh[:3].tolist() == [eps, eps, eps * 250.0]


def test_vector_live_metrics_scrape_identical():
    """The post-run /metrics scrape (bus events folded into the live
    hub) is text-identical vector vs scalar — telemetry only reads
    simulation state, so the hatch cannot leak into the scrape."""
    from repro.obs.live.bus import TelemetryPublisher
    from repro.obs.live.hub import LiveHub
    from repro.schedulers.fuxi import FuxiScheduler

    def scrape(vector):
        pub = TelemetryPublisher(run_id="eq", total_jobs=1)
        hub = LiveHub(bus=pub.bus)
        job = random_job(7, job_id="T", parallelism=0.7, rng=9)
        run_with_scheduler(job, _cluster(),
                           FuxiScheduler(track_metrics=False, vector=vector),
                           progress=pub)
        pub.close()
        return hub.render_metrics()

    with _forced_vector():
        vec = scrape(True)
    assert vec == scrape(False)
