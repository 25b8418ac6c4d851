"""Outside-in span tracing of repro's layers.

The benchmark traces the program without touching its source: it
replaces the public entry points of each layer -- module-level names
(looked up at call time by their callers) and class methods -- with
wrappers that record one span per call.  A span is (name, start, end,
parent span, job).  Spans live in per-thread arrays while the run goes
and are written out once at the end.

Self time of a span is its duration minus the durations of its child
spans (children nest on the caller's thread).  On one thread the self
times of all spans add up to the time covered by its top-level spans;
the rest of that thread's wall is reported as ``unattributed``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import threading
import time
from array import array
from pathlib import Path


def _job_of_first(args, kwargs):
    return getattr(args[0], "job_id", None) if args else None


def _job_of_second(args, kwargs):
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _count_evaluations(rec, args, result):
    rec.add("core.alg1.evaluations", result.evaluations)


def _peak_items(rec, args, result):
    rec.peak("simulator.engine.peak_active_items", args[0].max_active_items)


def _count_dispatched(rec, args, result):
    rec.add("service.dispatch.jobs", result)


#: (module, attribute or Class.method, span name, job extractor, after-hook)
#: for the entry points the workloads reach.  A function is patched in
#: each module that calls it by name.
ENTRY_POINTS = [
    ("repro.trace.generator", "generate_trace", "trace.generate", None, None),
    ("repro.trace.replay", "to_job", "trace.to_job", None, None),
    ("repro.schedulers.runner", "run_with_scheduler", "schedulers.run",
     _job_of_first, None),
    ("repro.schedulers.runner", "run_jobs_with_scheduler", "schedulers.run",
     None, None),
    ("repro.schedulers.fuxi", "FuxiScheduler.prepare", "schedulers.prepare",
     _job_of_second, None),
    ("repro.schedulers.delaystage", "DelayStageScheduler.prepare",
     "schedulers.prepare", _job_of_second, None),
    ("repro.schedulers.delaystage", "delay_stage_schedule", "core.alg1",
     _job_of_first, _count_evaluations),
    ("repro.core.delaystage", "probe_schedule", "model.probe", None, None),
    ("repro.core.delaystage", "evaluate_schedule", "model.evaluate",
     None, None),
    ("repro.simulator.simulation", "Simulation.run", "simulator.run",
     None, None),
    ("repro.simulator.simulation", "Simulation.run_truncated",
     "simulator.run", None, None),
    ("repro.simulator.engine", "FluidEngine.run", "simulator.engine",
     None, _peak_items),
    ("repro.simulator.vector", "VectorFluidEngine.run", "simulator.engine",
     None, _peak_items),
    ("repro.simulator.incremental", "ScopedAllocator.allocate",
     "simulator.alloc.scoped", None, None),
    ("repro.simulator.simulation", "Simulation._allocate",
     "simulator.alloc.full", None, None),
    ("repro.simulator.simulation", "maxmin_rates_seq",
     "simulator.fairshare.maxmin", None, None),
    ("repro.simulator.incremental", "maxmin_rates_seq",
     "simulator.fairshare.maxmin", None, None),
    ("repro.simulator.simulation", "compute_shares",
     "simulator.fairshare.compute", None, None),
    ("repro.simulator.incremental", "compute_shares",
     "simulator.fairshare.compute", None, None),
    ("repro.simulator.simulation", "disk_shares", "simulator.fairshare.disk",
     None, None),
    ("repro.simulator.incremental", "disk_shares", "simulator.fairshare.disk",
     None, None),
    ("repro.service.core", "ServiceCore.submit", "service.submit",
     _job_of_second, None),
    ("repro.service.core", "ServiceCore.status", "service.status",
     None, None),
    ("repro.service.core", "ServiceCore.advance_to", "service.advance",
     None, None),
    ("repro.service.core", "ServiceCore._dispatch", "service.dispatch",
     None, _count_dispatched),
    ("repro.obs.live.bus", "TelemetryBus.publish", "obs.publish", None, None),
    ("repro.obs.live.server", "_Handler.do_GET", "obs.http", None, None),
    ("repro.obs.live.server", "_Handler.do_POST", "obs.http", None, None),
]

#: Parents whose ``simulator.run`` children are final executions (not
#: Algorithm 1's model evaluations).
EXECUTE_PARENTS = ("schedulers.run", "service.dispatch")


class _ThreadLog:
    """One thread's spans as parallel arrays (24 bytes per span)."""

    __slots__ = ("thread", "names", "parents", "jobs", "starts", "ends",
                 "stack", "job")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.names = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: "list[int]" = []
        self.job = -1


class SpanRecorder:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: "list[_ThreadLog]" = []
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.job_ids: "list[str]" = []
        self._job_index: "dict[str, int]" = {}
        self.counts: "collections.Counter" = collections.Counter()
        self.peaks: "dict[str, float]" = {}
        self._patches: list = []
        self.started = self.finished = 0.0
        self.main_thread = threading.current_thread().name

    # -- recording ------------------------------------------------------ #

    def _new_log(self) -> _ThreadLog:
        log = _ThreadLog(threading.current_thread().name)
        with self._lock:
            self._logs.append(log)
        self._local.log = log
        return log

    def _job(self, job_id: str) -> int:
        with self._lock:
            idx = self._job_index.get(job_id)
            if idx is None:
                idx = self._job_index[job_id] = len(self.job_ids)
                self.job_ids.append(job_id)
            return idx

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value) -> None:
        with self._lock:
            if value > self.peaks.get(name, 0):
                self.peaks[name] = value

    def wrap(self, fn, name: str, job_of=None, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        local = self._local
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = rec._new_log()
            stack = log.stack
            idx = len(log.names)
            log.names.append(nid)
            log.parents.append(stack[-1] if stack else -1)
            outer_job = log.job
            if job_of is not None:
                job_id = job_of(args, kwargs)
                if job_id is not None:
                    log.job = rec._job(job_id)
            log.jobs.append(log.job)
            log.ends.append(0.0)
            stack.append(idx)
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[idx] = clock()
                stack.pop()
                log.job = outer_job
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def install(self) -> "SpanRecorder":
        """Patch every entry point; starts the traced wall clock."""
        for module_name, attr, name, job_of, after in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, job_of, after))
        from repro.simulator.engine import FluidEngine

        self._events0 = FluidEngine.TOTAL_EVENTS
        self.started = time.perf_counter()
        return self

    def uninstall(self) -> None:
        """Restore the originals; stops the traced wall clock."""
        from repro.simulator.engine import FluidEngine

        self.finished = time.perf_counter()
        self.counts["simulator.engine.events"] += (
            FluidEngine.TOTAL_EVENTS - self._events0
        )
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- results -------------------------------------------------------- #

    def arrays(self) -> dict:
        """All spans as flat numpy arrays (parents index the flat order)."""
        import numpy as np

        names, parents, jobs, starts, ends, threads = [], [], [], [], [], []
        offset = 0
        with self._lock:
            logs = list(self._logs)
        for t, log in enumerate(logs):
            n = len(log.ends)
            par = np.frombuffer(log.parents, dtype=np.int32)[:n].astype(np.int64)
            names.append(np.frombuffer(log.names, dtype=np.int32)[:n])
            parents.append(np.where(par >= 0, par + offset, -1))
            jobs.append(np.frombuffer(log.jobs, dtype=np.int32)[:n])
            starts.append(np.frombuffer(log.starts, dtype=np.float64)[:n])
            ends.append(np.frombuffer(log.ends, dtype=np.float64)[:n])
            threads.append(np.full(n, t, dtype=np.int32))
            offset += n

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "name": cat(names, np.int32),
            "parent": cat(parents, np.int64),
            "job": cat(jobs, np.int32),
            "start": cat(starts, np.float64),
            "end": cat(ends, np.float64),
            "thread": cat(threads, np.int32),
            "thread_names": [log.thread for log in logs],
        }

    def write(self, path: Path) -> None:
        """Write the spans out (one ``.npz``; names/jobs as string arrays)."""
        import numpy as np

        spans = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names), jobs=np.array(self.job_ids or [""]),
            threads=np.array(spans.pop("thread_names") or [""]),
            window=np.array([self.started, self.finished]),
            **spans,
        )

    def layer_metrics(self) -> "dict[str, float]":
        """Per-layer totals: ``<span>.calls``, ``.s``, ``.self_s``, plus
        the extra counts and the self-time ledger of the main thread."""
        import numpy as np

        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out: "dict[str, float]" = {}
        for nid, span in enumerate(self.names):
            mask = name == nid
            out[f"{span}.calls"] = float(mask.sum())
            out[f"{span}.s"] = float(dur[mask].sum())
            out[f"{span}.self_s"] = float(self_time[mask].sum())
        run = [self._name_ids[p] for p in EXECUTE_PARENTS]
        execute = ((name == self._name_ids["simulator.run"]) & has_parent
                   & np.isin(name[np.where(has_parent, parent, 0)], run))
        out["schedulers.execute.s"] = float(dur[execute].sum())
        out.update({k: float(v) for k, v in self.counts.items()})
        out.update({k: float(v) for k, v in self.peaks.items()})

        main = [t for t, n in enumerate(spans["thread_names"])
                if n == self.main_thread]
        on_main = np.isin(spans["thread"], main)
        wall = self.finished - self.started
        attributed = float(self_time[on_main].sum())
        out["tracing.wall_s"] = wall
        out["tracing.attributed_s"] = attributed
        out["tracing.unattributed_s"] = wall - float(
            dur[on_main & ~has_parent].sum())
        out["tracing.spans"] = float(len(dur))
        return out
