"""Golden Algorithm 1 scans: every candidate's prediction, pinned.

The committed fixture records, for ~30 twin-trace jobs (one of them a
50+-stage giant) planned with ``max_slots=12`` under contention penalty
0.5 — the ``repro replay`` planning setup — the delay table, the
predicted and baseline makespans and the evaluation count of each job,
plus the per-scan decision audit: the candidates simulated with their
predicted makespans, the candidates rejected at the horizon, and the
bound-pruned count.  Every probe optimization (bound prune,
truncation, forked prefixes, cross-scan prefix reuse) must reproduce it
with ``==`` on floats.

Regenerate (only after an *intentional* change to Algorithm 1 or the
fluid model) with:

    PYTHONPATH=src python -m tests.test_alg1_golden
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster.spec import alibaba_sim_cluster
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.obs.tracer import Tracer
from repro.simulator.simulation import SimulationConfig
from repro.trace.generator import TraceGeneratorConfig, generate_trace
from repro.trace.replay import to_job

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "alg1_scans.json"

#: Trace jobs planned: the first ``SMALL_JOBS`` jobs with parallel
#: stages, plus the first giant of the trace.
SMALL_JOBS = 29
GIANT_STAGES = 50
TRACE_SEED = 7
TRACE_JOBS = 400


def _inputs():
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=TRACE_JOBS, replay_workers=3,
                             max_stages=60, replay_read_mb_per_sec=85.0),
        rng=TRACE_SEED,
    )
    jobs = [to_job(tj) for tj in trace]
    small = [j for j in jobs if 4 <= j.num_stages < GIANT_STAGES][:SMALL_JOBS]
    giant = next(j for j in jobs if j.num_stages >= GIANT_STAGES)
    cluster = alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )
    return small + [giant], cluster


def _plan(job, cluster) -> "tuple[dict, list]":
    """The job's golden record, and where each scan's prefix started
    (the audit's ``prefix``, which the golden does not pin)."""
    params = DelayStageParams(
        max_slots=12,
        sim_config=SimulationConfig(track_metrics=False, contention_penalty=0.5),
    )
    tracer = Tracer()
    schedule = delay_stage_schedule(job, cluster, params, tracer=tracer)
    scans, sources = [], []
    for span in tracer.spans:
        audit = span.args.get("audit") if span.args else None
        if audit is None:
            continue
        sources.append(audit["prefix"])
        scans.append({
            "stage_id": audit["stage_id"],
            "candidates": audit["candidates"],
            "predicted_makespans": audit["predicted_makespans"],
            "rejected_candidates": audit["rejected_candidates"],
            "pruned_by_bound": audit["pruned_by_bound"],
        })
    return {
        "job_id": job.job_id,
        "num_stages": job.num_stages,
        "delays": dict(sorted(schedule.delays.items())),
        "predicted_makespan": schedule.predicted_makespan,
        "baseline_makespan": schedule.baseline_makespan,
        "evaluations": schedule.evaluations,
        "scans": scans,
    }, sources


def _plans() -> list:
    jobs, cluster = _inputs()
    return [_plan(job, cluster) for job in jobs]


def _golden_records() -> list:
    return [record for record, _sources in _plans()]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def plans():
    return _plans()


@pytest.fixture(scope="module")
def planned(plans):
    # Round-trip through JSON so tuples/lists compare like the fixture.
    return json.loads(json.dumps([record for record, _sources in plans]))


def test_alg1_scans_match_golden(recorded, planned):
    assert len(planned) == len(recorded)
    for got, want in zip(planned, recorded):
        assert got == want, got["job_id"]


def test_golden_covers_giant_and_pruning(recorded):
    """The fixture must exercise what it is meant to pin: a giant, the
    bound prune, and horizon rejections."""
    assert max(r["num_stages"] for r in recorded) >= GIANT_STAGES
    scans = [s for r in recorded for s in r["scans"]]
    assert any(s["pruned_by_bound"] for s in scans)
    assert any(s["rejected_candidates"] for s in scans)


#: Scans after a job's first that still build their prefix from t = 0:
#: the stage became ready before the previous scanned stage (a new
#: path's first stage), so the previous scan's run started past it.
FRESH_AFTER_FIRST = 44


def test_prefixes_reused_after_each_jobs_first_scan(plans):
    """Cross-scan prefix reuse: a job's first scan simulates from t = 0,
    later scans start from the previous scan's snapshot — except the
    pinned few whose stage was ready before the previous scan began."""
    firsts = fresh_later = reused = 0
    for _record, sources in plans:
        if not sources:
            continue
        assert sources[0] == "fresh"
        firsts += 1
        fresh_later += sources[1:].count("fresh")
        reused += sum(1 for s in sources[1:] if s in ("withheld", "probe"))
    assert (firsts, fresh_later, reused) == (29, FRESH_AFTER_FIRST, 167)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(_golden_records(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
