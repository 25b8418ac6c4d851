"""The perf layer is bit-exact: optimized and escape-hatch paths agree.

The scoped allocator, Algorithm 1's bound pruning, forked probes and
cross-scan prefix reuse, and parallel replay claim *identical* results — not
merely close ones.  These property tests are that claim's enforcement:
every comparison below is ``==`` on floats, never ``pytest.approx``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import alibaba_sim_cluster, uniform_cluster
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.model.interference import (
    WithheldTrajectory,
    evaluate_schedule,
    probe_schedule,
)
from repro.simulator import incremental as scoped_module
from repro.simulator.simulation import (
    FixedDelayPolicy,
    ImmediatePolicy,
    Simulation,
    SimulationConfig,
)
from repro.simulator.vector import VectorFluidEngine
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


def _hetero_cluster(seed: int):
    """The benchmark's cluster shape: heterogeneous NICs, one storage
    node."""
    return alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=seed,
    )


def _run(jobs, *, incremental: bool, penalty: float = 0.0, cluster=None,
         degradations=(), granular: bool = False):
    cfg = SimulationConfig(
        track_metrics=False, contention_penalty=penalty,
        incremental=incremental, task_granular=granular,
    )
    sim = Simulation(cluster or _cluster(), cfg)
    for job in jobs:
        sim.add_job(job, ImmediatePolicy())
    for node, time, factors in degradations:
        sim.inject_degradation(node, time, **factors)
    result = sim.run()
    result.engine = sim.engine
    return result


@contextlib.contextmanager
def _vector_mode_and_peak_flows():
    """Force the vector engine into vector mode from its first event and
    record the most flows one class water-filling saw (``peak[0]``)."""
    forced = {"ENTER_VECTOR_N": 1, "EXIT_VECTOR_N": 0,
              "CHURN_EXIT_RATIO": math.inf, "CHURN_ENTER_RATIO": math.inf,
              "ENTER_CALM_EVENTS": 0}
    saved = {name: getattr(VectorFluidEngine, name) for name in forced}
    solve = scoped_module.maxmin_class_rates
    peak = [0]

    def spy(srcs, dsts, counts, topology):
        peak[0] = max(peak[0], sum(counts))
        return solve(srcs, dsts, counts, topology)

    for name, value in forced.items():
        setattr(VectorFluidEngine, name, value)
    scoped_module.maxmin_class_rates = spy
    try:
        yield peak
    finally:
        scoped_module.maxmin_class_rates = solve
        for name, value in saved.items():
            setattr(VectorFluidEngine, name, value)


def _assert_results_identical(a, b) -> None:
    assert a.stage_records.keys() == b.stage_records.keys()
    for key in a.stage_records:
        assert _records_equal(a.stage_records[key], b.stage_records[key]), key
    for jid in a.job_records:
        assert _records_equal(a.job_records[jid], b.job_records[jid]), jid
    assert a.events == b.events


# --------------------------------------------------------------------- #
# tentpole 1: scoped (incremental) fair-share == full re-solve


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(2, 9),
    num_jobs=st.integers(1, 3),
    penalty=st.sampled_from([0.0, 0.5]),
    hetero=st.booleans(),
)
def test_incremental_allocator_bit_identical(seed, num_stages, num_jobs, penalty,
                                             hetero):
    jobs = [
        random_job(num_stages, job_id=f"J{i}", parallelism=0.6,
                   rng=seed * 7 + i)
        for i in range(num_jobs)
    ]
    cluster = _hetero_cluster(seed) if hetero else _cluster()
    full = _run(jobs, incremental=False, penalty=penalty, cluster=cluster)
    scoped = _run(jobs, incremental=True, penalty=penalty, cluster=cluster)
    _assert_results_identical(scoped, full)


@pytest.mark.parametrize("seed,penalty", [(0, 0.0), (1, 0.5), (2, 0.5)])
def test_incremental_allocator_bit_identical_wide(seed, penalty):
    """Many concurrent jobs on heterogeneous NICs: the class
    water-filling sees more than 32 flows (where the full allocator's
    solver switches to numpy) and the vector engine scatters only the
    rows the scoped solve touched."""
    jobs = [random_job(6, job_id=f"J{i}", parallelism=0.7, rng=seed * 31 + i)
            for i in range(8)]
    cluster = _hetero_cluster(seed)
    full = _run(jobs, incremental=False, penalty=penalty, cluster=cluster)
    with _vector_mode_and_peak_flows() as peak:
        scoped = _run(jobs, incremental=True, penalty=penalty, cluster=cluster)
    assert peak[0] > 32
    assert scoped.engine.incremental_allocations > 0
    _assert_results_identical(scoped, full)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    penalty=st.sampled_from([0.0, 0.5]),
    granular=st.booleans(),
    data=st.data(),
)
def test_incremental_allocator_resyncs_after_degradation(seed, penalty,
                                                         granular, data):
    """A degradation forces a full allocation behind the scoped
    allocator's back; its next solve rebuilds the class state.  At a
    stage boundary the full solve also absorbs that instant's item
    changes, which the class state must not miss."""
    jobs = [random_job(5, job_id=f"J{i}", parallelism=0.6, rng=seed * 5 + i)
            for i in range(3)]
    cluster = _hetero_cluster(seed)
    nodes = [n.node_id for n in cluster.nodes]
    healthy = _run(jobs, incremental=False, penalty=penalty, cluster=cluster,
                   granular=granular)
    boundaries = sorted({r.finish_time for r in healthy.stage_records.values()})
    when = st.one_of(st.floats(0.0, 30.0), st.sampled_from(boundaries))
    degradations = [
        (data.draw(st.sampled_from(nodes)), data.draw(when),
         {"nic_factor": data.draw(st.sampled_from([0.3, 1.0, 2.0])),
          "disk_factor": data.draw(st.sampled_from([0.5, 1.0])),
          "executor_factor": 1.0 if granular else data.draw(
              st.sampled_from([0.5, 1.0]))})
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    full = _run(jobs, incremental=False, penalty=penalty, cluster=cluster,
                degradations=degradations, granular=granular)
    scoped = _run(jobs, incremental=True, penalty=penalty, cluster=cluster,
                  degradations=degradations, granular=granular)
    # The start, plus one per degradation that fired before the end.
    assert scoped.engine.full_allocations >= 2 or all(
        t > scoped.makespan for _, t, _ in degradations)
    _assert_results_identical(scoped, full)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 7),
    penalty=st.sampled_from([0.0, 0.5]),
    granular=st.booleans(),
    data=st.data(),
)
def test_forked_scoped_runs_match_full_allocator(seed, num_stages, penalty,
                                                 granular, data):
    """Every fork builds its class state from its cloned items; a
    forked scoped run matches an unforked run of the full allocator."""
    job = random_job(num_stages, parallelism=0.7, rng=seed)
    cluster = _hetero_cluster(seed)
    cfg = SimulationConfig(track_metrics=False, contention_penalty=penalty,
                           task_granular=granular, vector=False)
    held = data.draw(st.sampled_from(list(job.stage_ids)))
    xs = sorted(data.draw(st.lists(st.floats(0.0, 30.0), min_size=1,
                                   max_size=3)))
    base = Simulation(cluster, cfg)
    base.add_job(job, FixedDelayPolicy({}))
    base.withhold(job.job_id, held)
    for x in xs:
        base.advance_withheld(x)
        fork = base.fork()
        fork.release(x)
        reference = Simulation(
            cluster, dataclasses.replace(cfg, incremental=False))
        reference.add_job(job, FixedDelayPolicy({held: x}))
        _assert_results_identical(fork.run(), reference.run())


def test_incremental_eventlog_seed_identical():
    """The serialized eventlog — not just the records — is byte-equal."""
    from repro.simulator.eventlog import write_eventlog

    jobs = [random_job(7, job_id=f"J{i}", parallelism=0.7, rng=11 + i)
            for i in range(2)]
    logs = []
    for incremental in (True, False):
        buf = io.StringIO()
        write_eventlog(_run(jobs, incremental=incremental).events, buf)
        logs.append(buf.getvalue())
    assert logs[0] == logs[1]


# --------------------------------------------------------------------- #
# tentpole 2: bound-pruned, truncated Algorithm 1 == plain Algorithm 1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 8),
    parallelism=st.floats(0.3, 0.9),
)
def test_pruned_alg1_matches_plain(seed, num_stages, parallelism):
    job = random_job(num_stages, parallelism=parallelism, rng=seed)
    cluster = _cluster()
    fast = delay_stage_schedule(job, cluster, DelayStageParams(max_slots=8))
    plain = delay_stage_schedule(
        job, cluster, DelayStageParams(max_slots=8, bound_prune=False),
    )
    # Semantic fields only: evaluations/compute_seconds are telemetry
    # and legitimately differ (that's the point of the optimization).
    assert fast.delays == plain.delays
    assert fast.predicted_makespan == plain.predicted_makespan
    assert fast.baseline_makespan == plain.baseline_makespan
    assert fast.paths == plain.paths
    assert fast.standalone_times == plain.standalone_times
    assert fast.evaluations <= plain.evaluations


def test_pruned_alg1_with_refinement_matches_plain():
    job = random_job(7, parallelism=0.7, rng=42)
    cluster = _cluster()
    fast = delay_stage_schedule(
        job, cluster, DelayStageParams(max_slots=8, refine_passes=1)
    )
    plain = delay_stage_schedule(
        job, cluster,
        DelayStageParams(max_slots=8, refine_passes=1, bound_prune=False),
    )
    assert fast.delays == plain.delays
    assert fast.predicted_makespan == plain.predicted_makespan


# --------------------------------------------------------------------- #
# tentpole 3: parallel replay == serial replay


def test_parallel_replay_matches_serial():
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.simulator.parallel import replay_jcts

    jobs = [random_job(5, job_id=f"J{i}", parallelism=0.5, rng=i)
            for i in range(5)]
    cluster = _cluster()
    sched = FuxiScheduler(track_metrics=False)
    serial = replay_jcts(jobs, cluster, sched, processes=1)
    for processes in (2, 3):
        assert replay_jcts(jobs, cluster, sched, processes=processes) == serial


def test_shard_split_and_seeds_deterministic():
    from repro.simulator.parallel import shard_seeds, split_shards

    shards = split_shards(list("abcdefg"), 3)
    assert [[i for i, _ in s] for s in shards] == [[0, 3, 6], [1, 4], [2, 5]]
    # All items present exactly once, index-tagged.
    assert sorted(i for s in shards for i, _ in s) == list(range(7))
    assert split_shards([1, 2], 5) == [[(0, 1)], [(1, 2)]]
    assert shard_seeds(3, 4) == shard_seeds(3, 4)
    assert shard_seeds(3, 4) != shard_seeds(4, 4)


def test_replay_batch_serial_path_with_tracer():
    from repro.obs.tracer import Tracer
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.schedulers.runner import replay_batch

    jobs = [random_job(4, job_id=f"J{i}", rng=i) for i in range(2)]
    cluster = _cluster()
    sched = FuxiScheduler(track_metrics=False)
    # A tracer forces the serial path; results still match.
    traced = replay_batch(jobs, cluster, sched, processes=4, tracer=Tracer())
    assert traced == replay_batch(jobs, cluster, sched, processes=1)


# --------------------------------------------------------------------- #
# tentpole 4: forked probes == full evaluations


def _fork_config(penalty, pipelined, granular, fanin, *, events=False):
    return SimulationConfig(
        track_metrics=False, track_events=events, contention_penalty=penalty,
        pipelined_shuffle=pipelined, task_granular=granular, fanin=fanin,
    )


_PAIR_CAPS = {("w0", "w1"): 20e6, ("w2", "w0"): 35e6}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 8),
    parallelism=st.floats(0.3, 0.9),
    penalty=st.sampled_from([0.0, 0.5]),
    pipelined=st.booleans(),
    granular=st.booleans(),
    fanin=st.sampled_from([None, 1, 2]),
    caps=st.booleans(),
    data=st.data(),
)
def test_forked_probes_match_full_evaluation(
    seed, num_stages, parallelism, penalty, pipelined, granular, fanin, caps,
    data,
):
    """Every finish time a forked probe reports is the full run's, and
    every watched stage it omits finishes after the horizon."""
    job = random_job(num_stages, parallelism=parallelism, rng=seed)
    cluster = _cluster()
    cfg = _fork_config(penalty, pipelined, granular, fanin)
    pair_caps = _PAIR_CAPS if caps else None
    sids = list(job.stage_ids)
    held = data.draw(st.sampled_from(sids))
    others = {
        sid: data.draw(st.sampled_from([0.0, 1.5, 7.0]))
        for sid in sids if sid != held
    }
    prefix = WithheldTrajectory(job, cluster, others, held, config=cfg,
                                pair_capacities=pair_caps)
    candidates = sorted(data.draw(
        st.lists(st.floats(0.0, 60.0), min_size=1, max_size=5)
    ))
    for x in candidates:
        trial = {**others, held: x}
        full = evaluate_schedule(job, cluster, trial, config=cfg,
                                 pair_capacities=pair_caps).stage_finish
        horizon = data.draw(st.sampled_from(
            [math.inf, max(full.values()), 0.5 * max(full.values())]
        ))
        watch = data.draw(st.sets(st.sampled_from(sids)) | st.none())
        finish = probe_schedule(job, cluster, trial, horizon=horizon,
                                watch=watch, config=cfg,
                                pair_capacities=pair_caps, prefix=prefix)
        for sid, t in finish.items():
            assert t == full[sid], (sid, x)
        for sid in watch or sids:
            if sid not in finish:
                assert full[sid] > horizon, (sid, x)
        if math.isinf(horizon) and not watch:
            assert finish == full


def _eventlog(result) -> str:
    from repro.simulator.eventlog import write_eventlog

    buf = io.StringIO()
    write_eventlog(result.events, buf)
    return buf.getvalue()


def _unforked(job, delays, cfg):
    sim = Simulation(_cluster(), cfg)
    sim.add_job(job, FixedDelayPolicy(delays))
    return sim.run()


def _forked(job, others, held, x, cfg):
    sim = Simulation(_cluster(), dataclasses.replace(cfg, vector=False))
    sim.add_job(job, FixedDelayPolicy(others))
    sim.withhold(job.job_id, held)
    sim.advance_withheld(x)
    fork = sim.fork()
    fork.release(x)
    return fork.run()


def _assert_same_run(a, b) -> None:
    _assert_results_identical(a, b)
    assert _eventlog(a) == _eventlog(b)


def _two_root_job():
    from repro.dag import JobBuilder

    return (
        JobBuilder("tie")
        .stage("a", input_mb=300, output_mb=100, process_rate_mb=40)
        .stage("b", input_mb=500, output_mb=200, process_rate_mb=40)
        .stage("c", input_mb=200, output_mb=50, process_rate_mb=40)
        .stage("d", input_mb=100, output_mb=10, process_rate_mb=40)
        .edge("a", "c").edge("b", "d").edge("c", "d")
        .build()
    )


def test_fork_release_at_another_stages_completion():
    """The release instant is exactly another stage's completion."""
    job = _two_root_job()
    cfg = _fork_config(0.5, False, False, None, events=True)
    # "b" (a root, ready at 0) is held; releasing it at a's finish time
    # coincides with a's last write completing in the same step.
    a_done = _unforked(job, {"b": 1e4}, cfg).stage("tie", "a").finish_time
    forked = _forked(job, {}, "b", a_done, cfg)
    unforked = _unforked(job, {"b": a_done}, cfg)
    assert unforked.stage("tie", "b").submit_time == a_done
    _assert_same_run(forked, unforked)


def test_fork_release_at_another_timer():
    """The release instant equals another stage's submission timer: the
    reserved sequence number keeps their order, whichever is first."""
    job = _two_root_job()
    cfg = _fork_config(0.0, False, False, None, events=True)
    for held, other in (("a", "b"), ("b", "a")):
        forked = _forked(job, {other: 3.0}, held, 3.0, cfg)
        unforked = _unforked(job, {other: 3.0, held: 3.0}, cfg)
        _assert_same_run(forked, unforked)
        submitted = [e.stage_id for e in unforked.events
                     if e.kind.value == "stage_submitted"][:2]
        assert sorted(submitted) == ["a", "b"]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 8),
    granular=st.booleans(),
    pipelined=st.booleans(),
    data=st.data(),
)
def test_forks_never_disturb_their_base(seed, num_stages, granular, pipelined, data):
    """A base forked N times (each fork run to completion) still runs
    to the byte-identical event log of a never-forked run."""
    job = random_job(num_stages, parallelism=0.7, rng=seed)
    cfg = _fork_config(0.5, pipelined, granular, None, events=True)
    held = data.draw(st.sampled_from(list(job.stage_ids)))
    xs = sorted(data.draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4)))
    base = Simulation(_cluster(), dataclasses.replace(cfg, vector=False))
    base.add_job(job, FixedDelayPolicy({}))
    base.withhold(job.job_id, held)
    for x in xs:
        base.advance_withheld(x)
        fork = base.fork()
        fork.release(x)
        _assert_same_run(fork.run(), _unforked(job, {held: x}, cfg))
    base.release(xs[-1])
    _assert_same_run(base.run(), _unforked(job, {held: xs[-1]}, cfg))


def test_withheld_probes_must_ascend():
    job = _two_root_job()
    prefix = WithheldTrajectory(job, _cluster(), {}, "b")
    prefix.probe(5.0)
    with pytest.raises(ValueError, match="ascending"):
        prefix.probe(1.0)


def test_fork_requires_scalar_engine_and_healthy_run():
    job = _two_root_job()
    sim = Simulation(_cluster(), SimulationConfig(track_metrics=False))
    sim.add_job(job)
    with pytest.raises(ValueError, match="scalar"):
        sim.withhold("tie", "a")
    tracked = Simulation(_cluster(), SimulationConfig(vector=False))
    tracked.add_job(job)
    tracked.withhold("tie", "a")
    tracked.advance_withheld(0.0)
    with pytest.raises(ValueError, match="metric"):
        tracked.fork()


# --------------------------------------------------------------------- #
# tentpole 5: a scan started from the previous scan's snapshot == a scan
# started from t = 0


def _records_match(got, want) -> None:
    assert got.keys() == want.keys()
    for key in got:
        assert _records_equal(got[key], want[key]), key


def _scan_pair(job, cfg, held, nxt, delays, phantoms, xs, ys, caps=None):
    """Scan ``held`` with ``nxt`` a phantom; for every candidate ``x``,
    start scan ``nxt`` from that probe's snapshot and check it against
    a fresh prefix: same ready time, same records for every ``y``.
    Returns the reused prefixes' sources."""
    cluster = _cluster()
    scan = WithheldTrajectory(job, cluster, delays, held, phantoms=phantoms,
                              then=nxt, config=cfg, pair_capacities=caps)
    sources = []
    for x in xs:
        scan.probe(x)
        if cfg.pipelined_shuffle:
            assert scan.snapshot is None  # prefetches read the phantom early
            continue
        table = {**delays, held: x}
        rest = phantoms - {nxt}
        # A withheld-prefix snapshot serves every later candidate too:
        # consume a fork of it.
        reused = WithheldTrajectory(job, cluster, table, nxt, phantoms=rest,
                                    start=scan.snapshot.fork())
        fresh = WithheldTrajectory(job, cluster, table, nxt, phantoms=rest,
                                   config=cfg, pair_capacities=caps)
        for y in ys:
            _records_match(reused.probe(y), fresh.probe(y))
        assert reused.ready_time == fresh.ready_time
        assert not math.isnan(fresh.ready_time)
        sources.append(reused.source)
    return sources


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 8),
    penalty=st.sampled_from([0.0, 0.5]),
    pipelined=st.booleans(),
    granular=st.booleans(),
    fanin=st.sampled_from([None, 1, 2]),
    caps=st.booleans(),
    data=st.data(),
)
def test_reused_prefix_matches_fresh(
    seed, num_stages, penalty, pipelined, granular, fanin, caps, data,
):
    job = random_job(num_stages, parallelism=0.7, rng=seed)
    cfg = _fork_config(penalty, pipelined, granular, fanin, events=True)
    sids = list(job.stage_ids)
    held, nxt = data.draw(st.permutations(sids))[:2]
    others = [sid for sid in sids if sid not in (held, nxt)]
    phantoms = {nxt} | data.draw(st.sets(st.sampled_from(others)) if others
                                 else st.just(set()))
    delays = {sid: data.draw(st.sampled_from([0.0, 1.5, 7.0]))
              for sid in others if sid not in phantoms}
    xs = sorted(data.draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4)))
    ys = sorted(data.draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=3)))
    _scan_pair(job, cfg, held, nxt, delays, phantoms, xs, ys,
               _PAIR_CAPS if caps else None)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 9),
    granular=st.booleans(),
    data=st.data(),
)
def test_taking_a_snapshot_leaves_the_run_unchanged(seed, num_stages, granular, data):
    """The run that snapshots goes on exactly as if it had not: the
    stage is submitted under the sequence number it reserved."""
    job = random_job(num_stages, parallelism=0.8, rng=seed)
    cfg = _fork_config(0.5, False, granular, None, events=True)
    sids = list(job.stage_ids)
    nxt = data.draw(st.sampled_from(sids))
    phantoms = data.draw(st.sets(st.sampled_from(sids)))
    runs = []
    for snapshot in (False, True):
        sim = Simulation(_cluster(), dataclasses.replace(cfg, vector=False))
        sim.add_job(job, FixedDelayPolicy({}), phantoms=phantoms)
        if snapshot:
            sim.snapshot_on_ready(job.job_id, nxt)
        runs.append(sim.run())
        if snapshot:
            assert sim.snapshot is not None
    _assert_same_run(runs[1], runs[0])


def test_reuse_from_withheld_prefix_and_from_probe():
    """``c`` (``a``'s child) becomes ready while ``b`` is still held for
    a long delay, but only after ``b``'s release for a short one."""
    cfg = _fork_config(0.5, False, False, None, events=True)
    sources = _scan_pair(_two_root_job(), cfg, "b", "c", {}, {"c"},
                         [0.0, 1e3], [0.0, 2.0])
    assert sources == ["probe", "withheld"]


def test_reuse_when_next_ready_at_the_release_instant():
    """``ready(c) == ready(b) + x``: ``b``'s release timer and ``a``'s
    completion share one step."""
    job = _two_root_job()
    cfg = _fork_config(0.5, False, False, None, events=True)
    ready_c = _unforked(job, {"b": 1e4}, cfg).stage("tie", "a").finish_time
    assert _unforked(job, {"b": ready_c}, cfg).stage("tie", "c").ready_time == ready_c
    assert _scan_pair(job, cfg, "b", "c", {}, {"c"}, [ready_c], [0.0]) == ["probe"]


def _timer_ready_job():
    """``q``'s parent ``p`` is a phantom in the scans below: ``p``'s
    submission timer completes it at once and readies ``q`` mid-step."""
    from repro.dag import JobBuilder

    return (
        JobBuilder("timer")
        .stage("s", input_mb=400, output_mb=100, process_rate_mb=40)
        .stage("r", input_mb=200, output_mb=100, process_rate_mb=40)
        .stage("p", input_mb=100, output_mb=50, process_rate_mb=40)
        .stage("q", input_mb=150, output_mb=50, process_rate_mb=40)
        .edge("r", "p").edge("p", "q")
        .build()
    )


@pytest.mark.parametrize("job, held, nxt, phantoms, mid_step", [
    # q's phantom parent p: p's submission timer completes it at once.
    (_timer_ready_job(), "s", "q", {"p", "q"}, True),
    # The root r, with s, at the job-start timer.
    (_timer_ready_job(), "s", "r", {"p", "r"}, True),
    # a's last write completing.
    (_two_root_job(), "b", "c", {"c"}, False),
])
def test_reuse_whether_a_timer_or_a_completion_readies_the_next_stage(
    job, held, nxt, phantoms, mid_step,
):
    """A timer readies the next stage mid-step, so its snapshot resumes
    that step; a completion readies it at the end of a step."""
    cfg = _fork_config(0.5, False, False, None, events=True)
    scan = WithheldTrajectory(job, _cluster(), {}, held, phantoms=phantoms,
                              then=nxt, config=cfg)
    scan.probe(1e3)
    assert scan.snapshot.engine._mid_step is mid_step
    sources = _scan_pair(job, cfg, held, nxt, {}, phantoms,
                         [0.0, 3.0, 1e3], [0.0, 4.0])
    assert sources[-1] == "withheld"


def _shadowed_probes(stats):
    """``probe_schedule`` that checks every probe of a reused prefix
    against a fresh prefix of the same scan."""
    from repro.dag.graph import parallel_stage_set
    from repro.model import interference

    real = interference.probe_schedule
    shadows = {}

    def probe(job, cluster, delays, *, prefix, **kw):
        got = real(job, cluster, delays, prefix=prefix, **kw)
        stats[prefix.source] += 1
        if prefix.source != "fresh":
            shadow = shadows.get(prefix)
            if shadow is None:
                # The scan watches its visible stages; the other
                # parallel stages are its phantoms.
                shadow = shadows[prefix] = WithheldTrajectory(
                    job, cluster, prefix.delays, prefix.stage_id,
                    phantoms=parallel_stage_set(job) - set(kw["watch"]),
                    config=kw["config"], pair_capacities=kw["pair_capacities"],
                )
            assert got == real(job, cluster, delays, prefix=shadow, **kw)
            assert shadow.ready_time == prefix.ready_time
        return got

    return probe


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(4, 9),
    parallelism=st.floats(0.4, 0.9),
    penalty=st.sampled_from([0.0, 0.5]),
    pipelined=st.booleans(),
    granular=st.booleans(),
    fanin=st.sampled_from([None, 2]),
    caps=st.booleans(),
)
def test_alg1_reused_prefixes_match_fresh(
    seed, num_stages, parallelism, penalty, pipelined, granular, fanin, caps,
):
    """Algorithm 1 end to end: every probe of every reused prefix, with
    its real horizon and watch set, equals the fresh prefix's probe."""
    import collections
    from unittest import mock

    job = random_job(num_stages, parallelism=parallelism, rng=seed)
    params = DelayStageParams(
        max_slots=6,
        sim_config=_fork_config(penalty, pipelined, granular, fanin),
    )
    caps = _PAIR_CAPS if caps else None
    stats = collections.Counter()
    with mock.patch("repro.core.delaystage.probe_schedule",
                    _shadowed_probes(stats)):
        reused = delay_stage_schedule(job, _cluster(), params,
                                      pair_capacities=caps)
    if pipelined:
        assert set(stats) <= {"fresh"}
    fresh = delay_stage_schedule(job, _cluster(),
                                 dataclasses.replace(params, bound_prune=False),
                                 pair_capacities=caps)
    assert reused.delays == fresh.delays
    assert reused.predicted_makespan == fresh.predicted_makespan


# --------------------------------------------------------------------- #
# supporting machinery


def test_track_events_off_only_drops_events():
    job = random_job(6, parallelism=0.6, rng=5)
    quiet_cfg = SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(_cluster(), quiet_cfg)
    sim.add_job(job, ImmediatePolicy())
    quiet = sim.run()
    loud = _run([job], incremental=True)
    assert quiet.events == []
    assert loud.events
    for key in loud.stage_records:
        assert _records_equal(quiet.stage_records[key], loud.stage_records[key])


def test_bench_quick_smoke():
    from repro.bench import run_benchmarks

    (result,) = run_benchmarks(["alg1"], quick=True)
    assert result.name == "alg1"
    assert result.equivalent
    assert result.wall_s > 0 and result.baseline_wall_s > 0
    payload = result.to_dict()
    for key in ("name", "wall_s", "jobs_per_s", "events_per_s",
                "manifest_hash", "baseline", "speedup"):
        assert key in payload
