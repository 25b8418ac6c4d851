"""The ``serve`` workload: ``repro serve`` over HTTP from outside.

The daemon runs in its own process (``serve_daemon.py``) on a wall
clock scaled so far (``--time-scale 1e6``) that simulated slot
occupancy is negligible: capacity is set by planning compute alone.
It starts with ``--jobs 0`` and a pending queue large enough that
nothing is shed at the offered rate.

This process is the only load generator, with two threads (sized for a
2-core machine), each sending one request at a time:

* the submitter POSTs jobs to ``/service/submit`` on a fixed schedule
  (open loop, see ``_schedule``): each of ``EPISODES`` episodes opens
  with a recurring giant alone on an idle service, then a share of the
  seed's jobs at ``SUBMIT_RATE``.  The giant's planning stalls make the
  run's tail.  Submitted among other jobs, a giant chained with
  whatever the seed queued behind it (the core lock does not queue
  fairly), which moved the status p99 by +-30% between seeds;
* the poller GETs ``/service/jobs/<id>`` at a fixed rate, round-robin
  over the ids submitted so far (``/service`` until the first is known;
  open loop).

Every request is timed from the instant it was *due*, so a stall also
counts against the requests queued behind it; how late the generator
itself ran is reported on the side.  When both schedules are done, the
generator POSTs ``/service/drain`` and waits for the drained snapshot,
whose books must balance.
"""

from __future__ import annotations

import http.client
import json
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
from results import Result, peak_rss_mb, percentile

HERE = Path(__file__).resolve().parent
#: Jobs submitted per second and status GETs per second.
SUBMIT_RATE = 5.0
POLL_RATE = 100.0
#: Giant episodes per run, and the quiet time after each giant's
#: submission (its planning stall is ~0.5 s).  The status p99 averages
#: over the episodes' stalls; one stall alone swings +-20% with the
#: CPU speed of a shared host.
EPISODES = 8
GIANT_LEAD_S = 1.5
TIME_SCALE = "1e6"
#: Daemon boots per run; the median is the boot part of ``setup_s``.
BOOTS = 3
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0

_URL_LINE = re.compile(rb"service control: http://([0-9.]+):(\d+)/service")


def _http(host: str, port: int, method: str, path: str,
          body: "bytes | None" = None):
    """One request on its own connection; returns ``(status, body)``,
    status ``None`` on a transport error or timeout.

    A connection per request, as urllib-style clients do: on a
    keep-alive connection every response from the server takes ~44 ms,
    because it is written in two segments without TCP_NODELAY and the
    client delays its ACK (Nagle), which caps one connection at ~22
    requests/s -- far below the offered poll rate.
    """
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    headers = {"Connection": "close"}
    if body:
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


class _Daemon:
    """A ``repro serve`` process and its address."""

    def __init__(self, work_dir: Path, tag: str,
                 trace_dir: "Path | None" = None) -> None:
        self.snapshot = work_dir / f"snapshot-{tag}.json"
        self.log_path = work_dir / f"daemon-{tag}.log"
        cmd = [sys.executable, str(HERE / "serve_daemon.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve", "--bind", "127.0.0.1:0", "--jobs", "0",
                "--max-pending", "100000", "--strategy", "delaystage",
                "--time-scale", TIME_SCALE, "--snapshot", str(self.snapshot)]
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._address(t0)
            self._await_health(t0)
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - t0

    def _address(self, t0: float) -> "tuple[str, int]":
        while time.perf_counter() - t0 < BOOT_TIMEOUT_S:
            match = _URL_LINE.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def _await_health(self, t0: float) -> None:
        while time.perf_counter() - t0 < BOOT_TIMEOUT_S:
            if self.request("GET", "/healthz")[0] == 200:
                return
            time.sleep(0.002)
        raise RuntimeError(f"daemon never answered /healthz; see {self.log_path}")

    def request(self, method: str, path: str, body: "bytes | None" = None):
        return _http(self.host, self.port, method, path, body)

    def wait(self) -> "dict | None":
        """Wait for exit; returns the drain snapshot (``None`` if the
        daemon had to be killed or wrote none)."""
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        if code != 0 or not self.snapshot.is_file():
            return None
        return json.loads(self.snapshot.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _drive(daemon: _Daemon, plan: list, span: float, res: Result) -> dict:
    """Run both open-loop schedules, then drain.  Returns the timings."""
    from repro.service.wire import job_to_wire

    bodies = []
    for _, sid, job in plan:
        wire = job_to_wire(job)
        wire["job_id"] = sid
        bodies.append(json.dumps(wire).encode())
    submitted: "list[str]" = []
    submit_lat, submit_late, status_lat, status_late = [], [], [], []
    errors: "list[str]" = []
    t0 = time.perf_counter() + 0.05
    t_end = t0 + span

    def submitter() -> None:
        for (offset, sid, _), body in zip(plan, bodies):
            due = t0 + offset
            _sleep_until(due)
            sent = time.perf_counter()
            status, _ = daemon.request("POST", "/service/submit", body)
            submit_lat.append(time.perf_counter() - due)
            submit_late.append(sent - due)
            if status == 202:
                submitted.append(sid)
            else:
                errors.append(f"submit {sid}: HTTP {status}")

    def poller() -> None:
        k = 0
        while True:
            due = t0 + (k + 0.5) / POLL_RATE
            if due >= t_end:
                break
            _sleep_until(due)
            known = len(submitted)
            # Before the first id is known, read the service stats: they
            # take the same core lock, so the opening stall is sampled.
            path = f"/service/jobs/{submitted[k % known]}" if known else "/service"
            sent = time.perf_counter()
            status, _ = daemon.request("GET", path)
            status_lat.append(time.perf_counter() - due)
            status_late.append(sent - due)
            if status != 200:
                errors.append(f"GET {path}: HTTP {status}")
            k += 1

    threads = [threading.Thread(target=submitter, name="submitter"),
               threading.Thread(target=poller, name="poller")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    last_due = t0 + plan[-1][0]

    status, _ = daemon.request("POST", "/service/drain")
    if status != 200:
        errors.append(f"drain: HTTP {status}")
    drained_at = None
    while drained_at is None and daemon.proc.poll() is None:
        status, body = daemon.request("GET", "/service")
        if status == 200 and json.loads(body)["service"]["drained"]:
            drained_at = time.perf_counter()
        else:
            time.sleep(0.005)
    if drained_at is None:  # exited between two polls
        drained_at = time.perf_counter()

    res.attempted += len(submit_lat) + len(status_lat) + 1
    res.failed += len(errors)
    for line in errors[:5]:
        res.note(line)
    return {
        "submit": submit_lat, "status": status_lat,
        "late": submit_late + status_late,
        "wall": drained_at - t0, "drain": drained_at - last_due,
    }


def _check_snapshot(snapshot: "dict | None", ids: "list[str]", seed: int,
                    res: Result) -> "str | None":
    """Books must balance, nothing shed, every JCT finite and, for a
    recorded seed, equal to the recorded digest.  Returns the digest."""
    res.attempted += 1
    if snapshot is None:
        res.failed += 1
        res.note("daemon exited without a drain snapshot")
        return None
    c = snapshot["service"]["counters"]
    books = (c["submitted"] == c["admitted"] + c["rejected"]
             and c["admitted"] == c["completed"] + c["failed"] + c["cancelled"]
             and c["rejected"] == 0 and c["completed"] == len(ids))
    by_id = {j["service_id"]: j.get("jct") for j in snapshot["jobs"]}
    jcts = [by_id.get(sid) for sid in ids]
    digest = inputs.jct_digest([x if x is not None else float("nan")
                                for x in jcts])
    expected = inputs.recorded_digest("serve", seed, len(ids))
    res.note(f"counters {c}  peak queue "
             f"{snapshot['service']['peak_queue_depth']}  jct_digest {digest}")
    if not books or not inputs.all_finite(jcts):
        res.failed += 1
        res.note("drain snapshot books do not balance")
    elif expected is not None and digest != expected:
        res.failed += 1
        res.note(f"JCT digest {digest} != expected {expected}")
    return digest


def _schedule(jobs: list) -> "tuple[list, float]":
    """Submission plan ``[(offset, service id, job)]`` and its length.

    The run has ``EPISODES`` episodes.  Each opens with the reference
    giant (a recurring job, ``giant.<episode>``) alone on an idle service
    for ``GIANT_LEAD_S``, followed by the next share of the seed's jobs
    at ``SUBMIT_RATE``.
    """
    giant = inputs.reference_giant()
    plan, t = [], 0.0
    for e in range(EPISODES):
        plan.append((t, f"giant.{e}", giant))
        t += GIANT_LEAD_S
        for job in jobs[e * len(jobs) // EPISODES:
                        (e + 1) * len(jobs) // EPISODES]:
            plan.append((t, job.job_id, job))
            t += 1.0 / SUBMIT_RATE
    return plan, t


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _serve_once(work_dir: Path, tag: str, jobs, seed: int, res: Result,
                trace_dir: "Path | None" = None):
    """Boot a daemon, drive it, drain it; returns (daemon, timings, JCT
    digest, daemon CPU seconds)."""
    plan, span = _schedule(jobs)
    cpu0 = _children_cpu_s()
    daemon = _Daemon(work_dir, tag, trace_dir)
    try:
        timings = _drive(daemon, plan, span, res)
        digest = _check_snapshot(daemon.wait(), [sid for _, sid, _ in plan],
                                 seed, res)
    finally:
        daemon.kill()
    return daemon, timings, digest, _children_cpu_s() - cpu0


def run(seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path) -> Result:
    res = Result()
    num_jobs = max(int(round(
        SUBMIT_RATE * (seconds - EPISODES * GIANT_LEAD_S))), 1)
    inputs.size_mix(num_jobs)  # benchmark design data, not program set-up
    work_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    build_walls = []
    for _ in range(1 if trace else 3):
        t0 = time.perf_counter()
        jobs, _cluster = inputs.build(seed, num_jobs)
        build_walls.append(time.perf_counter() - t0)

    if trace:
        from tracing import SpanRecorder

        _, _, plain, cpu_untraced = _serve_once(work_dir, "untraced", jobs,
                                                seed, res)
        rec = SpanRecorder().install()
        try:
            jobs = inputs.build(seed, num_jobs)[0]
        finally:
            rec.uninstall()
        _, _, traced, cpu_traced = _serve_once(work_dir, "traced", jobs,
                                               seed, res, trace_dir=work_dir)
        if traced != plain:
            res.failed += 1
            res.note(f"traced JCT digest {traced} != untraced {plain}")
        layers = json.loads((work_dir / "layers-serve.json").read_text())
        for key, value in rec.layer_metrics().items():
            if key.startswith("trace."):
                layers[key] = value
        layers["tracing.overhead_pct"] = 100.0 * (cpu_traced / cpu_untraced - 1.0)
        shutil.move(str(work_dir / "spans-serve.npz"),
                    str(out_dir / "spans-serve.npz"))
        res.layers = layers
        res.note("tracing.overhead_pct compares the daemon's CPU time")
    else:
        boots = []
        for i in range(BOOTS - 1):
            daemon = _Daemon(work_dir, f"boot{i}")
            boots.append(daemon.boot_s)
            status, _ = daemon.request("POST", "/service/drain")
            res.attempted += 1
            if status != 200 or daemon.wait() is None:
                res.failed += 1
                res.note(f"boot-only daemon {i} did not drain cleanly")
            daemon.kill()
        daemon, timings, _, _ = _serve_once(work_dir, "run", jobs, seed, res)
        boots.append(daemon.boot_s)
        status_ms = [1e3 * x for x in timings["status"]]
        res.metric("setup_s", import_s + percentile(build_walls, 50)
                   + percentile(boots, 50), "s")
        res.metric("wall_s", timings["wall"], "s")
        res.metric("peak_rss_mb", peak_rss_mb(children=True), "MB")
        res.metric("tail_ms", percentile(status_ms, 99), "ms")
        res.note(
            f"status_p50_ms {percentile(status_ms, 50):.3f} ms  "
            f"status_p99_ms {percentile(status_ms, 99):.3f} ms "
            f"({len(status_ms)} calls)  submit_p90_ms "
            f"{1e3 * percentile(timings['submit'], 90):.3f} ms "
            f"({len(timings['submit'])} calls)")
        res.note(f"drain_s {timings['drain']:.4f} s  gen_late_p99_ms "
                 f"{1e3 * percentile(timings['late'], 99):.3f} ms  "
                 f"boot_s {percentile(boots, 50):.3f} s")
    if res.failed == 0:
        shutil.rmtree(work_dir, ignore_errors=True)
    return res
