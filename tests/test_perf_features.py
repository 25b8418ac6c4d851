"""Unit tests for the perf-layer machinery itself.

`tests/test_perf_equivalence.py` proves the optimized paths produce
identical results; this file tests the supporting pieces directly —
truncated probes, the bound prune and its audit fields,
allocator telemetry, and the metrics fast paths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.model.interference import evaluate_schedule, probe_schedule
from repro.obs import Tracer, decision_audits, to_chrome_trace
from repro.workloads.synthetic import random_job


# --------------------------------------------------------------------- #
# truncated probes


def test_probe_matches_full_evaluation(fork_join_job, small_cluster):
    delays = {"S2": 5.0}
    full = evaluate_schedule(fork_join_job, small_cluster, delays)
    probed = probe_schedule(fork_join_job, small_cluster, delays)
    assert probed == full.stage_finish


def test_probe_horizon_truncates_exactly(fork_join_job, small_cluster):
    full = evaluate_schedule(fork_join_job, small_cluster, {})
    finishes = sorted(full.stage_finish.values())
    horizon = (finishes[0] + finishes[-1]) / 2
    probed = probe_schedule(fork_join_job, small_cluster, {}, horizon=horizon)
    expected = {s: t for s, t in full.stage_finish.items() if t <= horizon}
    assert probed == expected
    assert len(probed) < len(full.stage_finish)


def test_probe_watch_stops_early(fork_join_job, small_cluster):
    full = evaluate_schedule(fork_join_job, small_cluster, {})
    first = min(full.stage_finish, key=full.stage_finish.get)
    probed = probe_schedule(fork_join_job, small_cluster, {}, watch=[first])
    assert probed[first] == full.stage_finish[first]


# --------------------------------------------------------------------- #
# bound prune


def test_bound_prune_saves_evaluations(small_cluster):
    job = random_job(8, parallelism=0.7, rng=5)
    fast = delay_stage_schedule(job, small_cluster)
    plain = delay_stage_schedule(
        job, small_cluster, DelayStageParams(bound_prune=False),
    )
    assert fast.evaluations < plain.evaluations
    assert fast.delays == plain.delays


# --------------------------------------------------------------------- #
# bound-prune audit


def test_scan_audit_reports_pruned_by_bound(fork_join_job, small_cluster):
    tracer = Tracer()
    delay_stage_schedule(fork_join_job, small_cluster, tracer=tracer)
    audits = decision_audits(to_chrome_trace(tracer))
    assert audits
    total = 0
    for audit in audits:
        assert audit["pruned_by_bound"] >= 0
        assert audit["ready_lower_bound"] >= 0.0
        total += audit["pruned_by_bound"]
    assert tracer.counters.get("alg1.pruned_by_bound", 0) == total


def test_scan_audit_no_bound_prune_reports_zero(fork_join_job, small_cluster):
    tracer = Tracer()
    delay_stage_schedule(
        fork_join_job, small_cluster, DelayStageParams(bound_prune=False),
        tracer=tracer,
    )
    for audit in decision_audits(to_chrome_trace(tracer)):
        assert audit["pruned_by_bound"] == 0


# --------------------------------------------------------------------- #
# allocator telemetry


def test_incremental_runs_use_scoped_allocations(small_cluster):
    from repro.simulator.simulation import (
        ImmediatePolicy,
        Simulation,
        SimulationConfig,
    )

    job = random_job(6, parallelism=0.6, rng=9)
    sim = Simulation(small_cluster, SimulationConfig(track_metrics=False))
    sim.add_job(job, ImmediatePolicy())
    sim.run()
    assert sim.engine.incremental_allocations > 0

    full = Simulation(
        small_cluster,
        SimulationConfig(track_metrics=False, incremental=False),
    )
    full.add_job(job, ImmediatePolicy())
    full.run()
    assert full.engine.incremental_allocations == 0
    assert full.engine.full_allocations > 0


# --------------------------------------------------------------------- #
# parallel replay edge cases


def test_replay_jcts_empty_batch():
    from repro.cluster.spec import uniform_cluster
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.simulator.parallel import replay_jcts

    cluster = uniform_cluster(2, executors_per_worker=2)
    assert replay_jcts([], cluster, FuxiScheduler(track_metrics=False)) == []


def test_split_shards_rejects_nonpositive():
    from repro.simulator.parallel import split_shards

    with pytest.raises(ValueError, match="num_shards"):
        split_shards([1], 0)


# --------------------------------------------------------------------- #
# metrics fast paths


def test_metrics_observe_ignores_zero_width(small_cluster):
    from repro.simulator.metrics import MetricsCollector

    coll = MetricsCollector(small_cluster)
    coll.observe(1.0, 1.0, [])
    node = small_cluster.node_ids[0]
    assert len(coll.node_series(node).t0) == 0
    coll.observe(1.0, 2.0, [])
    assert len(coll.node_series(node).t0) == 1


def test_metrics_node_series_consistent_after_growth(small_cluster):
    from repro.simulator.metrics import MetricsCollector

    coll = MetricsCollector(small_cluster)
    node = small_cluster.node_ids[0]
    coll.observe(0.0, 1.0, [])
    first = coll.node_series(node)
    assert first.t1[-1] == 1.0
    coll.observe(1.0, 3.0, [])
    second = coll.node_series(node)
    assert len(second.t0) == 2 and second.t1[-1] == 3.0


# --------------------------------------------------------------------- #
# fairshare sequence dispatcher


def test_maxmin_rates_seq_matches_ndarray_solver(small_cluster):
    from repro.simulator.fairshare import (
        maxmin_network_rates,
        maxmin_rates_seq,
    )
    from repro.simulator.flows import NetworkFlow

    from repro.cluster.topology import Topology

    topology = Topology(small_cluster)
    nodes = small_cluster.node_ids
    flows = [
        NetworkFlow(src=nodes[i % len(nodes)],
                    dst=nodes[(i + 1) % len(nodes)],
                    volume=100.0, stage_key=("J", f"S{i}"))
        for i in range(6)
    ]
    seq = maxmin_rates_seq(flows, topology)
    arr = maxmin_network_rates(flows, topology)
    assert list(seq) == list(arr)
    assert maxmin_rates_seq([], topology) == ()
