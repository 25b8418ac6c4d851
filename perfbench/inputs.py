"""Seeded benchmark inputs: a size-stratified sample of the trace twin.

Planning cost per job grows roughly with the square of the DAG's stage
count, and the twin's sizes are heavy-tailed (1.4 % of jobs are 50-60
stage giants).  A plain ``generate_trace(seed)[:N]`` therefore makes the
work itself swing by 2-3x from seed to seed.  Instead, every seed gets
the same *size mix* -- the (branch count, stage count) quantiles of a
fixed reference trace -- and the seed decides which DAGs fill each slot
(their durations, volumes, rates and shapes) and their order.

Giant slots are the exception: they take the reference trace's own
giants.  A giant plans for about a second, so the one a seed happens to
draw would otherwise set the whole tail of the run.  The program under
test only ever sees the resulting jobs.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

#: The generator settings ``repro replay`` and ``repro serve`` use.
TRACE_KW = dict(replay_workers=3, max_stages=60, replay_read_mb_per_sec=85.0)
#: Fixed seed and size of the trace the size mix is read from.
REFERENCE_SEED = 12345
REFERENCE_JOBS = 4000
#: Jobs generated per seed to fill the mix from.
POOL_JOBS = 1500
#: Shapes with at least this many stages are giants (the generator's
#: 50-to-max_stages tail).
GIANT_STAGES = 50
#: ``repro replay``'s contention penalty and Algorithm 1 slot cap.
PENALTY = 0.5
MAX_SLOTS = 12

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def shape_key(trace_job) -> "tuple[int, int]":
    """(branch count, stage count); branch count 0 marks a chain job."""
    degree: "collections.Counter" = collections.Counter()
    for parent, child in trace_job.edges:
        degree[("out", parent)] += 1
        degree[("in", child)] += 1
    fan = max(degree.values(), default=0)
    return (fan if fan >= 2 else 0, trace_job.num_stages)


@functools.lru_cache(maxsize=None)
def _reference() -> list:
    from repro.trace.generator import TraceGeneratorConfig, generate_trace

    return generate_trace(
        TraceGeneratorConfig(num_jobs=REFERENCE_JOBS, **TRACE_KW),
        rng=REFERENCE_SEED,
    )


def size_mix(num_jobs: int) -> "tuple[tuple[int, int], ...]":
    """The ``num_jobs`` evenly spaced quantiles of the reference shapes."""
    keys = sorted(shape_key(tj) for tj in _reference())
    return tuple(keys[int((i + 0.5) * len(keys) / num_jobs)]
                 for i in range(num_jobs))


def _by_shape(trace) -> dict:
    pool: "dict[tuple[int, int], collections.deque]" = collections.defaultdict(
        collections.deque
    )
    for tj in trace:
        pool[shape_key(tj)].append(tj)
    return pool


def _take(pool: dict, key: "tuple[int, int]"):
    """Pop the first pool job of shape ``key``, else of the nearest
    stage count (and, for DAGs, of a neighbouring branch count)."""
    fan, stages = key
    fans = (0,) if fan == 0 else (fan, fan - 1, fan + 1)
    for dist in range(TRACE_KW["max_stages"]):
        for n in (stages - dist, stages + dist):
            for b in fans:
                bucket = pool.get((b, n))
                if bucket:
                    return bucket.popleft()
    raise ValueError(f"pool holds no job near shape {key}")


def trace_jobs(seed: int, num_jobs: int) -> list:
    """``num_jobs`` twin-trace jobs with the fixed size mix, in an order
    shuffled by ``seed``; job ids are ``b0 .. b<N-1>`` in that order.
    Call :func:`size_mix` first to keep the reference trace out of any
    timing."""
    import numpy as np
    from repro.trace.generator import TraceGeneratorConfig, generate_trace

    pool = _by_shape(generate_trace(
        TraceGeneratorConfig(num_jobs=POOL_JOBS, **TRACE_KW), rng=seed
    ))
    giants = _by_shape(_reference())
    chosen = [_take(giants if key[1] >= GIANT_STAGES else pool, key)
              for key in size_mix(num_jobs)]
    order = np.random.default_rng(seed).permutation(num_jobs)
    return [dataclasses.replace(chosen[j], job_id=f"b{i}")
            for i, j in enumerate(order)]


def build(seed: int, num_jobs: int):
    """Generate, convert and build everything a workload needs.

    Returns ``(jobs, cluster)`` -- ``repro replay``'s cluster.
    """
    from repro.cluster.spec import alibaba_sim_cluster
    from repro.trace.replay import to_job

    cluster = alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )
    jobs = [to_job(tj) for tj in trace_jobs(seed, num_jobs)]
    return jobs, cluster


def reference_giant():
    """The reference trace's median-size giant as a job (a fixed DAG)."""
    from repro.trace.replay import to_job

    giants = sorted((tj for tj in _reference()
                     if tj.num_stages >= GIANT_STAGES),
                    key=lambda tj: (tj.num_stages, tj.job_id))
    return to_job(dataclasses.replace(giants[len(giants) // 2],
                                      job_id="giant"))


def replay_schedulers():
    """Fuxi and DelayStage exactly as ``repro replay`` builds them."""
    from repro.core.delaystage import DelayStageParams
    from repro.schedulers.delaystage import DelayStageScheduler
    from repro.schedulers.fuxi import FuxiScheduler

    fuxi = FuxiScheduler(track_metrics=False, contention_penalty=PENALTY)
    ds = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=PENALTY,
        params=DelayStageParams(max_slots=MAX_SLOTS),
    )
    return fuxi, ds


def jct_digest(jcts: "list[float]") -> str:
    """Order-sensitive digest of exact JCT floats."""
    text = ",".join(float(x).hex() for x in jcts)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def all_finite(jcts: "list[float]") -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in jcts)


def recorded_digest(workload: str, seed: int, num_jobs: int) -> "str | None":
    """The digest recorded for ``workload`` on ``num_jobs`` jobs of
    ``seed`` (key ``"<seed>/<num_jobs>"``), if any."""
    table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(f"{seed}/{num_jobs}")
