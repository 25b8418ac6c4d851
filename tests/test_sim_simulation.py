"""Simulation semantics: Eq. (1) phase structure, dependencies,
policies, event-log ordering, and conservation invariants."""

import math

import pytest

from repro.dag import JobBuilder, parallel_stage_set
from repro.cluster import uniform_cluster
from repro.simulator import (
    EventKind,
    FixedDelayPolicy,
    ImmediatePolicy,
    Simulation,
    SimulationConfig,
    simulate_job,
)
from repro.util.units import MB, mbps_to_bytes_per_sec


def single_stage_job(input_mb=512, output_mb=256, rate_mb=20):
    return (
        JobBuilder("one")
        .stage("S", input_mb=input_mb, output_mb=output_mb, process_rate_mb=rate_mb)
        .build()
    )


def test_single_stage_phase_times_match_closed_form(small_cluster):
    """Eq. (1) by hand for one stage on the 4-worker fixture."""
    job = single_stage_job()
    res = simulate_job(job, small_cluster)
    rec = res.stage("one", "S")

    workers = 4
    nic = mbps_to_bytes_per_sec(480)
    # Read: 512/4 MB per worker from 2 storage nodes; each storage node
    # fans out to 4 workers -> egress share nic/4; ingress share nic/2.
    per_flow = (512 / workers / 2) * MB
    bandwidth = min(nic / 4, nic / 2)
    assert rec.read_time == pytest.approx(per_flow / bandwidth, rel=1e-6)
    # Compute: per-worker 128 MB at 2 executors * 20 MB/s.
    assert rec.compute_time == pytest.approx(128 / 40, rel=1e-6)
    # Write: per-worker 64 MB at 150 MB/s.
    assert rec.write_time == pytest.approx(64 / 150, rel=1e-6)


def test_dependencies_respected(diamond_job, small_cluster):
    res = simulate_job(diamond_job, small_cluster)
    s1 = res.stage("diamond", "S1")
    s2 = res.stage("diamond", "S2")
    s4 = res.stage("diamond", "S4")
    assert s2.ready_time == pytest.approx(s1.finish_time)
    assert s4.submit_time >= max(s2.finish_time, res.stage("diamond", "S3").finish_time) - 1e-9


def test_parallel_roots_start_together(fork_join_job, small_cluster):
    res = simulate_job(fork_join_job, small_cluster)
    subs = [res.stage("forkjoin", s).submit_time for s in ("A", "B", "C")]
    assert subs == [0.0, 0.0, 0.0]


def test_fixed_delay_policy_applies(fork_join_job, small_cluster):
    res = simulate_job(
        fork_join_job, small_cluster, FixedDelayPolicy({"B": 7.5})
    )
    assert res.stage("forkjoin", "B").submit_time == pytest.approx(7.5)
    assert res.stage("forkjoin", "B").delay == pytest.approx(7.5)
    assert res.stage("forkjoin", "A").delay == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        FixedDelayPolicy({"A": -1.0})


def test_policy_returning_negative_rejected(fork_join_job, small_cluster):
    class Bad:
        def delay(self, job, sid, ready):
            return -5.0

    with pytest.raises(ValueError, match="invalid delay"):
        simulate_job(fork_join_job, small_cluster, Bad())


def test_contention_stretches_stage(fork_join_job, small_cluster):
    """A stage sharing the cluster must not run faster than alone."""
    together = simulate_job(fork_join_job, small_cluster)
    alone = simulate_job(
        JobBuilder("solo")
        .stage("A", input_mb=512, output_mb=256, process_rate_mb=10)
        .build(),
        small_cluster,
    )
    assert together.stage("forkjoin", "A").duration >= alone.stage("solo", "A").duration - 1e-6


def test_event_log_ordering(diamond_job, small_cluster):
    res = simulate_job(diamond_job, small_cluster)
    times = [e.time for e in res.events]
    assert times == sorted(times)
    kinds = [e.kind for e in res.events]
    assert kinds[0] == EventKind.JOB_SUBMITTED
    assert kinds[-1] == EventKind.JOB_COMPLETED
    # Each stage: ready <= submitted <= read_done <= compute_done <= completed
    for sid in diamond_job.stage_ids:
        seq = [e.kind for e in res.events if e.stage_id == sid]
        order = [
            EventKind.STAGE_READY,
            EventKind.STAGE_SUBMITTED,
            EventKind.STAGE_READ_DONE,
            EventKind.STAGE_COMPUTE_DONE,
            EventKind.STAGE_COMPLETED,
        ]
        assert [k for k in seq if k in order] == order


def test_job_completion_is_last_stage(diamond_job, small_cluster):
    res = simulate_job(diamond_job, small_cluster)
    assert res.job_completion_time("diamond") == pytest.approx(
        max(r.finish_time for r in res.stage_records.values())
    )


def test_zero_input_stage_skips_read(small_cluster):
    job = (
        JobBuilder("z")
        .stage("S", input_mb=0, output_mb=64, process_rate_mb=10)
        .build()
    )
    res = simulate_job(job, small_cluster)
    rec = res.stage("z", "S")
    assert rec.read_time == pytest.approx(0.0)
    assert rec.compute_time == pytest.approx(0.0)  # nothing to process
    assert rec.write_time > 0


def test_zero_output_stage_skips_write(small_cluster):
    job = (
        JobBuilder("z")
        .stage("S", input_mb=64, output_mb=0, process_rate_mb=10)
        .build()
    )
    res = simulate_job(job, small_cluster)
    assert res.stage("z", "S").write_time == pytest.approx(0.0)


def test_no_storage_cluster_roots_read_from_peers():
    cluster = uniform_cluster(3, storage_nodes=0)
    job = single_stage_job()
    res = simulate_job(job, cluster)
    # 1/3 of the per-worker volume is co-located (free); the rest moves.
    assert res.stage("one", "S").read_time > 0


def test_single_worker_no_storage_all_local():
    cluster = uniform_cluster(1, storage_nodes=0)
    res = simulate_job(single_stage_job(), cluster)
    assert res.stage("one", "S").read_time == pytest.approx(0.0)


def test_multi_job_fair_sharing(small_cluster):
    """Two identical jobs submitted together finish together, later
    than one job alone."""
    job_a = single_stage_job()
    solo = simulate_job(job_a, small_cluster).job_completion_time("one")

    sim = Simulation(small_cluster)
    j1 = (
        JobBuilder("j1").stage("S", input_mb=512, output_mb=256, process_rate_mb=20).build()
    )
    j2 = (
        JobBuilder("j2").stage("S", input_mb=512, output_mb=256, process_rate_mb=20).build()
    )
    sim.add_job(j1)
    sim.add_job(j2)
    res = sim.run()
    t1 = res.job_completion_time("j1")
    t2 = res.job_completion_time("j2")
    assert t1 == pytest.approx(t2, rel=1e-6)
    assert t1 > solo


def test_staggered_job_arrival(small_cluster):
    sim = Simulation(small_cluster)
    j1 = JobBuilder("j1").stage("S", input_mb=256, output_mb=64, process_rate_mb=20).build()
    j2 = JobBuilder("j2").stage("S", input_mb=256, output_mb=64, process_rate_mb=20).build()
    sim.add_job(j1, submit_time=0.0)
    sim.add_job(j2, submit_time=100.0)
    res = sim.run()
    assert res.job_records["j2"].submit_time == 100.0
    assert res.stage("j2", "S").submit_time >= 100.0


def test_duplicate_job_rejected(small_cluster, diamond_job):
    sim = Simulation(small_cluster)
    sim.add_job(diamond_job)
    with pytest.raises(ValueError, match="duplicate"):
        sim.add_job(diamond_job)


def test_run_twice_rejected(small_cluster, diamond_job):
    sim = Simulation(small_cluster)
    sim.add_job(diamond_job)
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_run_without_jobs_rejected(small_cluster):
    with pytest.raises(RuntimeError, match="no jobs"):
        Simulation(small_cluster).run()


def test_add_job_after_run_rejected(small_cluster, diamond_job, chain_job):
    sim = Simulation(small_cluster)
    sim.add_job(diamond_job)
    sim.run()
    with pytest.raises(RuntimeError):
        sim.add_job(chain_job)


def test_parallel_stage_makespan_helper(fork_join_job, small_cluster):
    res = simulate_job(fork_join_job, small_cluster)
    members = parallel_stage_set(fork_join_job)
    span = res.parallel_stage_makespan("forkjoin", members)
    assert 0 < span <= res.job_completion_time("forkjoin")


def test_delays_never_speed_up_chain(chain_job, small_cluster):
    """Delaying stages of a pure chain only shifts it later."""
    base = simulate_job(chain_job, small_cluster).job_completion_time("chain")
    delayed = simulate_job(
        chain_job, small_cluster, FixedDelayPolicy({"S2": 10.0})
    ).job_completion_time("chain")
    assert delayed == pytest.approx(base + 10.0, rel=1e-6)


def test_contention_penalty_slows_contended_run(fork_join_job, small_cluster):
    ideal = simulate_job(fork_join_job, small_cluster).job_completion_time("forkjoin")
    penalized = simulate_job(
        fork_join_job,
        small_cluster,
        config=SimulationConfig(contention_penalty=0.5, track_metrics=False),
    ).job_completion_time("forkjoin")
    assert penalized > ideal


def test_contention_penalty_no_effect_when_alone(small_cluster):
    job = single_stage_job()
    a = simulate_job(job, small_cluster).job_completion_time("one")
    b = simulate_job(
        job,
        small_cluster,
        config=SimulationConfig(contention_penalty=0.5, track_metrics=False),
    ).job_completion_time("one")
    assert a == pytest.approx(b, rel=1e-9)


def test_volume_conservation(diamond_job, small_cluster):
    """Bytes received over the network equal the remote read volumes."""
    res = simulate_job(diamond_job, small_cluster)
    m = res.metrics
    total_in = 0.0
    for node in small_cluster.node_ids:
        s = m.node_series(node)
        total_in += float(((s.t1 - s.t0) * s.net_in).sum())

    expected = 0.0
    workers = len(small_cluster.worker_ids)
    for sid in diamond_job.stage_ids:
        stage = diamond_job.stage(sid)
        if diamond_job.parents(sid):
            sources = workers
            remote = (sources - 1) / sources
        else:
            remote = 1.0  # storage nodes are disjoint from workers
        expected += stage.input_bytes * remote
    assert total_in == pytest.approx(expected, rel=1e-6)


def test_fanin_limits_sources(small_cluster):
    job = single_stage_job()
    res = simulate_job(
        job, small_cluster, config=SimulationConfig(fanin=1, track_metrics=True)
    )
    # With fanin=1 each worker reads its whole remote share from one
    # storage node; the job still completes and reads everything.
    assert res.stage("one", "S").read_time > 0


@pytest.mark.parametrize("case", ["vector", "scalar", "fork", "forked-run",
                                  "faults"])
def test_simulations_free_without_the_cycle_collector(case, small_cluster,
                                                      diamond_job):
    """No reference cycle keeps a simulation alive: its engine, scoped
    allocator, forks and fault injector reach it weakly, so the last
    ``del`` frees it even with the cyclic collector off."""
    import gc
    import weakref

    from repro.faults import generate_plan

    plan = None
    if case == "faults":
        plan = generate_plan(small_cluster, 3, jobs=[diamond_job],
                             num_events=3)
    forks = case in ("fork", "forked-run")
    cfg = SimulationConfig(vector=case == "vector", fault_plan=plan,
                           track_metrics=not forks)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(small_cluster, cfg)
        sim.add_job(diamond_job, ImmediatePolicy())
        if forks:
            # The fork must die while its base lives on.
            base = sim
            base.withhold(diamond_job.job_id, "S2")
            base.advance_withheld(1.0)
            sim = base.fork()
            sim.release(1.0)
            if case == "forked-run":
                sim.run()
        else:
            sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
