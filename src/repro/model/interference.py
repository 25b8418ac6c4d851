"""Candidate-schedule evaluation under stage interference.

Sec. 3.2 of the paper shows the number of concurrently executing
stages ``f_w_tau(X)`` — and with it the per-stage resource shares —
has no tractable closed form, so the prototype's delay-time calculator
*predicts* stage times numerically from profiled parameters.  This
module is that predictor: it runs the deterministic fluid model
(metrics off, single job) for a candidate delay vector ``X`` and
reports the quantities Algorithm 1 needs — per-stage times, path
completion times, and the parallel-stage makespan.

The model job is typically built from *profiled* (noisy) parameters,
so predictions differ from the ground-truth simulation the way the
paper's model differs from the real cluster (Appendix A.2 quantifies
the resulting 1.6 %–9.1 % error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.cluster.spec import ClusterSpec
from repro.dag.graph import parallel_stage_set
from repro.dag.job import Job
from repro.simulator.simulation import (
    FixedDelayPolicy,
    Simulation,
    SimulationConfig,
    SimulationResult,
    StageRecord,
)
from repro.verify import sanitizer as _sanitizer


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Model prediction for one candidate delay schedule."""

    delays: dict[str, float]
    stage_times: dict[str, float]
    stage_finish: dict[str, float]
    job_completion_time: float
    parallel_makespan: float

    def stage_time(self, stage_id: str) -> float:
        return self.stage_times[stage_id]


class EvaluationCache:
    """Memo for candidate-schedule fluid evaluations.

    Algorithm 1 re-evaluates the same (phantom set, delay table) pair
    more than once — most prominently the final full-schedule
    evaluation, which the last stage's scan already computed as its
    winning candidate, and every trial of the refinement passes that
    re-visits the incumbent's neighborhood.  The evaluation is a pure
    function of the phantom set and the delay table (job, cluster, and
    config are fixed for one planning run), so a dict keyed on
    :meth:`key` is exact — a hit returns the *identical*
    :class:`ScheduleEvaluation` object, not an approximation.

    One cache per planning run; do not share across jobs or configs.
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self) -> None:
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        hidden: "Iterable[str]", delays: "Mapping[str, float]"
    ) -> tuple:
        """Cache key: the phantom (hidden) stage set plus the delay
        table in canonical (sorted) order — the schedule-prefix hash."""
        return (frozenset(hidden), tuple(sorted(delays.items())))

    def get(self, key: tuple) -> "ScheduleEvaluation | None":
        ev = self._store.get(key)
        if ev is not None:
            self.hits += 1
        return ev

    def put(self, key: tuple, ev: ScheduleEvaluation) -> None:
        self.misses += 1
        self._store[key] = ev

    def __len__(self) -> int:
        return len(self._store)


def evaluate_schedule(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float] | None" = None,
    *,
    members: "frozenset[str] | None" = None,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
) -> ScheduleEvaluation:
    """Predict stage timings for the given per-stage submission delays.

    Parameters
    ----------
    job:
        The (model) job; use profiled parameters for realism.
    cluster:
        The (measured) cluster spec.
    delays:
        Extra delay per stage after it becomes ready.  Missing stages
        submit immediately.
    members:
        The parallel-stage set ``K``; computed if omitted (pass it when
        calling in a loop — Algorithm 1 evaluates hundreds of
        candidates).
    config:
        Simulation behaviour override; defaults to metrics-off for
        speed.
    pair_capacities:
        Optional per-pair link caps (the geo/WAN extension), applied to
        the model's topology exactly as the executor applies them.
    """
    delays = dict(delays or {})
    cfg = config or SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
    sim.add_job(job, FixedDelayPolicy(delays))
    result: SimulationResult = sim.run()

    stage_times = {}
    stage_finish = {}
    for (jid, sid), rec in result.stage_records.items():
        stage_times[sid] = rec.duration
        stage_finish[sid] = rec.finish_time

    k = members if members is not None else parallel_stage_set(job)
    parallel_makespan = max((stage_finish[sid] for sid in k), default=0.0)

    return ScheduleEvaluation(
        delays=delays,
        stage_times=stage_times,
        stage_finish=stage_finish,
        job_completion_time=result.job_completion_time(job.job_id),
        parallel_makespan=parallel_makespan,
    )


class WithheldTrajectory:
    """One Algorithm 1 scan's shared prefix.

    Every candidate delay ``x`` of the scanned stage ``k`` produces the
    same trajectory up to ``k``'s release instant ``ready(k) + x``; only
    the suffix differs.  This object runs the model once with ``k``
    *withheld* (never submitted) and, per candidate, advances that run
    to the release instant, forks it, releases ``k`` in the fork, and
    simulates only the suffix (see :meth:`Simulation.advance_withheld`
    and :meth:`Simulation.fork`).  Candidates must come in ascending
    delay order — the shared run cannot move backwards.

    ``delays`` is the table of every *other* stage; ``k``'s own entry,
    if present, is ignored.  Probes always run the scalar engine, the
    only one that forks (probe models are small, below the vector
    engine's threshold anyway), without metric tracking, which forks
    do not copy and probes never read.
    """

    __slots__ = ("job", "stage_id", "delays", "_sim")

    def __init__(
        self,
        job: Job,
        cluster: ClusterSpec,
        delays: "Mapping[str, float]",
        stage_id: str,
        *,
        config: "SimulationConfig | None" = None,
        pair_capacities: "dict[tuple[str, str], float] | None" = None,
    ) -> None:
        cfg = config or SimulationConfig(track_metrics=False, track_events=False)
        if cfg.vector or cfg.track_metrics:
            cfg = replace(cfg, vector=False, track_metrics=False)
        self.job = job
        self.stage_id = stage_id
        self.delays = {sid: d for sid, d in delays.items() if sid != stage_id}
        self._sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
        self._sim.add_job(job, FixedDelayPolicy(self.delays))
        self._sim.withhold(job.job_id, stage_id)

    def probe(
        self, delay: float, horizon: float = math.inf,
        watch: "Iterable[str] | None" = None,
    ) -> "dict[tuple[str, str], StageRecord]":
        """Stage records of the run releasing the stage ``delay`` after
        it became ready, truncated at ``horizon`` or once every stage
        in ``watch`` finished (:meth:`Simulation.run_truncated`)."""
        self._sim.advance_withheld(delay, horizon)
        fork = self._sim.fork()
        fork.release(delay)
        return fork.run_truncated(horizon, watch=set(watch) if watch else None)


def probe_schedule(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float]",
    *,
    horizon: float = math.inf,
    watch: "Iterable[str] | None" = None,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
    prefix: "WithheldTrajectory | None" = None,
) -> dict[str, float]:
    """Truncated candidate evaluation: finish times up to a stop point.

    Runs the same fluid model as :func:`evaluate_schedule` but stops the
    clock at ``horizon`` or as soon as every stage in ``watch`` has
    finished, returning finish times only for stages that completed by
    then — exact values, since the trajectory up to the stop point is
    identical to the full run's prefix.  A *watched* stage missing from
    the returned map finishes strictly after the horizon.  After a
    watch stop, a missing unwatched stage need not finish after the
    horizon: the run simply stopped before it did.

    Algorithm 1 uses this with ``watch = the visible stages`` and
    ``horizon = incumbent makespan``: if any watched stage is missing,
    the candidate provably cannot beat the incumbent; either way the
    (often long) model tail is never simulated.

    Every probe is a forked :class:`WithheldTrajectory`: ``prefix`` is
    the scan's shared one, whose withheld stage takes its delay from
    ``delays`` (the other entries must match the prefix's table);
    without it the probe builds a throwaway prefix withholding the
    table's last stage of the job (or the job's first stage).
    """
    if prefix is None:
        stage_ids = job.stage_ids
        held = next((sid for sid in reversed(delays) if sid in stage_ids),
                    stage_ids[0])
        prefix = WithheldTrajectory(
            job, cluster, delays, held, config=config,
            pair_capacities=pair_capacities,
        )
    elif _sanitizer.ENABLED:
        rest = {sid: d for sid, d in delays.items() if sid != prefix.stage_id}
        if rest != prefix.delays:
            raise _sanitizer.SanitizerError(
                "probe delays disagree with the prefix's table outside "
                f"stage {prefix.stage_id!r}"
            )
    records = prefix.probe(delays.get(prefix.stage_id, 0.0), horizon, watch)
    # The shared prefix may already run past this probe's horizon (an
    # earlier probe had a later one): drop what finished after it, as a
    # run truncated at the horizon never gets there.
    return {
        sid: rec.finish_time
        for (_jid, sid), rec in records.items()
        if rec.finish_time <= horizon
    }
