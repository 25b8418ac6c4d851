"""The two in-process workloads: ``replay`` and ``shared_cluster``.

``replay`` is the ``repro replay`` path (Fig. 14): every job runs in its
own simulation, first under Fuxi and then under DelayStage, one after
the other (a closed loop).  ``shared_cluster`` runs all jobs at once on
one shared cluster under Fuxi (``run_jobs_with_scheduler``, every job
submitted at t = 0), where Algorithm 1 never runs and the allocator
sees large active sets.

A *round* is one pass over the seed's jobs.  Rounds repeat until the
measuring time is used up; every round must reproduce the first one's
JCTs exactly.
"""

from __future__ import annotations

import math
import time

import inputs
from results import Result, percentile, peak_rss_mb

REPLAY_JOBS = 150
SHARED_JOBS = 100


def _replay_round(jobs, cluster, schedulers) -> "tuple[list, list]":
    """Fuxi then DelayStage over every job; returns (JCTs, DelayStage
    per-job walls)."""
    from repro.schedulers import runner

    fuxi, ds = schedulers
    jcts = [runner.run_with_scheduler(job, cluster, fuxi).jct for job in jobs]
    walls = []
    for job in jobs:
        t0 = time.perf_counter()
        run = runner.run_with_scheduler(job, cluster, ds)
        walls.append(time.perf_counter() - t0)
        jcts.append(run.jct)
    return jcts, walls


def _shared_round(jobs, cluster, schedulers) -> "tuple[list, list]":
    """All jobs on one cluster; every job's result arrives when the
    shared run returns, so each job's wall is the round's wall."""
    from repro.schedulers import runner

    fuxi, _ = schedulers
    t0 = time.perf_counter()
    result = runner.run_jobs_with_scheduler(jobs, cluster, fuxi)
    wall = time.perf_counter() - t0
    return [result.job_completion_time(j.job_id) for j in jobs], [wall] * len(jobs)


WORKLOADS = {
    "replay": (REPLAY_JOBS, _replay_round),
    "shared_cluster": (SHARED_JOBS, _shared_round),
}


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir) -> Result:
    num_jobs, round_fn = WORKLOADS[workload]
    res = Result()
    inputs.size_mix(num_jobs)  # benchmark design data, not program set-up
    build_walls = []
    for _ in range(1 if trace else 3):
        t0 = time.perf_counter()
        jobs, cluster = inputs.build(seed, num_jobs)
        build_walls.append(time.perf_counter() - t0)
    schedulers = inputs.replay_schedulers()
    expected = inputs.recorded_digest(workload, seed, num_jobs)

    def check(jcts: list) -> str:
        nonlocal expected
        digest = inputs.jct_digest(jcts)
        res.attempted += len(jcts)
        res.failed += sum(1 for x in jcts if not math.isfinite(x))
        if expected is None:
            expected = digest  # later rounds must reproduce the first
        elif digest != expected:
            res.failed += 1
            res.note(f"JCT digest {digest} != expected {expected}")
        return digest

    if trace:
        from tracing import SpanRecorder

        t0 = time.perf_counter()
        check(round_fn(jobs, cluster, schedulers)[0])
        untraced = build_walls[0] + time.perf_counter() - t0
        rec = SpanRecorder().install()
        try:
            jobs, cluster = inputs.build(seed, num_jobs)
            check(round_fn(jobs, cluster, schedulers)[0])
        finally:
            rec.uninstall()
        rec.write(out_dir / f"spans-{workload}.npz")
        layers = rec.layer_metrics()
        layers["tracing.overhead_pct"] = 100.0 * (
            layers["tracing.wall_s"] / untraced - 1.0)
        res.layers = layers
        return res

    round_walls, job_walls = [], [[] for _ in jobs]
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jcts, walls = round_fn(jobs, cluster, schedulers)
        round_walls.append(time.perf_counter() - t0)
        digest = check(jcts)
        for i, w in enumerate(walls):
            job_walls[i].append(w)
        if time.perf_counter() - started >= seconds:
            break
    per_job = [percentile(w, 50) for w in job_walls]
    res.metric("setup_s", import_s + percentile(build_walls, 50), "s")
    res.metric("wall_s", percentile(round_walls, 50), "s")
    res.metric("peak_rss_mb", peak_rss_mb(), "MB")
    res.metric("tail_ms", 1e3 * percentile(per_job, 90), "ms")
    res.note(f"rounds {len(round_walls)}  jobs/round {len(jobs)}  "
             f"jct_digest {digest}")
    if workload == "replay":
        res.note(f"job_p50_ms {1e3 * percentile(per_job, 50):.3f} ms  "
                 f"job_p90_ms {1e3 * percentile(per_job, 90):.3f} ms "
                 f"(DelayStage prepare + execute, {len(per_job)} jobs)")
    return res
