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


def evaluate_schedule(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float] | None" = None,
    *,
    members: "frozenset[str] | None" = None,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
    phantoms: "Iterable[str]" = (),
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
    phantoms:
        Stages modelled as zero-volume phantoms (Algorithm 1's
        unscheduled parallel stages; see :func:`phantom_stage`).
    """
    delays = dict(delays or {})
    cfg = config or SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
    sim.add_job(job, FixedDelayPolicy(delays), phantoms=phantoms)
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
    if present, is ignored.  ``phantoms`` are the model's zero-volume
    stages.  Probes always run the scalar engine, the only one that
    forks (probe models are small, below the vector engine's threshold
    anyway), without metric tracking, which forks do not copy and
    probes never read.

    **Cross-scan reuse.**  With ``then`` naming the next scanned stage
    (a phantom here), each probe snapshots its run at the instant that
    stage becomes ready (:meth:`Simulation.snapshot_on_ready`); the
    probe's :attr:`snapshot` holds it — taken by the shared prefix if
    it got there before the fork, else by the probe's own fork.  Scan
    ``k + 1`` passes its incumbent's snapshot as ``start``: the prefix
    then continues that run, releasing ``k`` at its chosen delay (from
    ``delays``) if the snapshot still holds it, instead of simulating
    again from t = 0.  Without ``start`` (a job's first scan, or no
    snapshot) the prefix is built from t = 0.  :attr:`source` records
    which: ``"fresh"``, ``"withheld"`` (a snapshot of the previous
    scan's shared prefix) or ``"probe"`` (of its incumbent's fork).
    """

    __slots__ = ("job", "stage_id", "delays", "source", "snapshot", "_sim")

    def __init__(
        self,
        job: Job,
        cluster: ClusterSpec,
        delays: "Mapping[str, float]",
        stage_id: str,
        *,
        phantoms: "Iterable[str]" = (),
        then: "str | None" = None,
        start: "Simulation | None" = None,
        config: "SimulationConfig | None" = None,
        pair_capacities: "dict[tuple[str, str], float] | None" = None,
    ) -> None:
        self.job = job
        self.stage_id = stage_id
        self.delays = {sid: d for sid, d in delays.items() if sid != stage_id}
        #: Snapshot of the last probe's run (see the class docs).
        self.snapshot: "Simulation | None" = None
        if start is None:
            cfg = config or SimulationConfig(track_metrics=False, track_events=False)
            if cfg.vector or cfg.track_metrics:
                cfg = replace(cfg, vector=False, track_metrics=False)
            sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
            sim.add_job(job, FixedDelayPolicy(self.delays), phantoms=phantoms)
            sim.withhold(job.job_id, stage_id)
            self.source = "fresh"
        else:
            sim = start
            if stage_id not in sim.withheld:
                raise ValueError(f"the snapshot does not withhold {stage_id!r}")
            held = [sid for sid in sim.withheld if sid != stage_id]
            for sid in held:
                sim.release(self.delays[sid], sid)
            self.source = "withheld" if held else "probe"
        if then is not None:
            sim.snapshot_on_ready(job.job_id, then)
        self._sim = sim

    @property
    def ready_time(self) -> float:
        """When the withheld stage became ready (NaN until known)."""
        return self._sim.stage_record(self.job.job_id, self.stage_id).ready_time

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
        records = fork.run_truncated(horizon, watch=set(watch) if watch else None)
        self.snapshot = fork.snapshot
        return records


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
