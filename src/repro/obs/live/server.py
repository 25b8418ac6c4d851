"""Stdlib-only threaded HTTP server for the live telemetry plane.

Endpoints:

* ``GET /metrics`` — OpenMetrics text (live registry + final report
  families once attached), ``application/openmetrics-text``.
* ``GET /healthz`` — liveness JSON (run counts, last event seq).
* ``GET /runs`` — JSON list of run ids.
* ``GET /runs/<id>`` — JSON snapshot of one run (status, jobs, events,
  faults, throughput window, final result payload when finished).
* ``GET /events`` — JSON-lines event stream.  Query params:
  ``replay=N`` (emit up to N most recent history events first,
  default all), ``follow=0|1`` (keep streaming live events, default
  1), ``max=N`` (close after N events total), ``since=SEQ`` (skip
  events with ``seq <= SEQ`` — what ``repro tail`` sends when it
  reconnects after a dropped stream, so no event is re-printed).

When a ``control`` object (the ``repro serve`` daemon) is attached,
the service control surface is layered on the same server:

* ``GET /service`` — occupancy + counters snapshot.
* ``GET /service/jobs`` / ``GET /service/jobs/<id>`` — lifecycle
  records for retained jobs.
* ``POST /service/submit`` — wire-format DAG in the JSON body;
  ``202`` on admit, or a typed rejection (``429`` queue_full,
  ``503`` draining, ``409`` duplicate, ``413`` too_large).
* ``POST /service/cancel/<id>`` — cancel a queued or running job.
* ``POST /service/drain`` — stop admitting; in-flight work finishes.

The server owns no telemetry state: it reads a
:class:`~repro.obs.live.hub.LiveHub` and the hub's bus.  Handler
threads are daemonic and never touch the simulation, so serving is
observation-only — results stay bit-identical with the server on.

Threading here is sanctioned: handlers are I/O-bound readers over
lock-protected registry/bus state.  The flow analyzer records the
serve-thread spawn as a ``via="thread"`` submit site and verifies its
target mutates no module state; the one wall-clock read (the
``/healthz`` timestamp scrapers use for staleness checks) is sanctioned
with a reason in the committed baseline (tools/flow_baseline.json).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.live.hub import LiveHub

#: Content type mandated by the OpenMetrics spec for text exposition.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: How often streaming handlers wake up to check for shutdown.
_STREAM_POLL_S = 0.25

#: HTTP status per typed rejection reason (see service admission).
REJECTION_STATUS = {
    "queue_full": 429,
    "draining": 503,
    "duplicate": 409,
    "too_large": 413,
}

#: Cap on accepted POST bodies; a DAG submission is a few KB.
_MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against the owning :class:`LiveServer`."""

    # Set by LiveServer when constructing the server class.
    server_version = "repro-live/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms per keep-alive reply).
    disable_nagle_algorithm = True

    @property
    def live(self) -> "LiveServer":
        return self.server.live_server  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr noise (stderr belongs to --progress)."""

    # -- plumbing ------------------------------------------------------ #

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True, default=str)
                + "\n").encode("utf-8")
        self._send_body(status, body, "application/json; charset=utf-8")

    # -- routes -------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        params = parse_qs(parts.query)
        try:
            if path == "/metrics":
                self.live.hub.count_scrape("metrics")
                body = self.live.hub.render_metrics().encode("utf-8")
                self._send_body(200, body, OPENMETRICS_CONTENT_TYPE)
            elif path == "/healthz":
                self.live.hub.count_scrape("healthz")
                payload = self.live.hub.healthz()
                # Wall-clock stamp so scrapers can detect a stale plane;
                # observation-only (baseline-sanctioned F001).
                payload["time"] = time.time()  # noqa: L001 - stale-plane detection, baseline-sanctioned F001
                self._send_json(payload)
            elif path == "/runs":
                self.live.hub.count_scrape("runs")
                self._send_json({"runs": self.live.hub.run_ids()})
            elif path.startswith("/runs/"):
                self.live.hub.count_scrape("runs")
                run_id = path[len("/runs/"):]
                snapshot = self.live.hub.run_snapshot(run_id)
                if snapshot is None:
                    self._send_json(
                        {"error": f"unknown run {run_id!r}",
                         "runs": self.live.hub.run_ids()},
                        status=404,
                    )
                else:
                    self._send_json(snapshot)
            elif path == "/events":
                self.live.hub.count_scrape("events")
                self._stream_events(params)
            elif path == "/service" or path.startswith("/service/"):
                self._service_get(path)
            else:
                self._send_json({"error": f"no route for {path!r}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; nothing to clean up beyond
            # the handler thread itself.
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # Lazy import: repro.service sits above obs in the package
        # graph (service.core simulates; simulator imports obs).
        from repro.service.state import RejectedSubmission

        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            control = self.live.control
            if control is None:
                self._send_json(
                    {"error": "no service attached (start with repro serve)"},
                    status=404,
                )
                return
            if path == "/service/submit":
                self.live.hub.count_scrape("service")
                payload = self._read_json_body()
                if payload is None:
                    return
                try:
                    record = control.submit_wire(payload)
                except ValueError as exc:
                    self._send_json({"error": str(exc)}, status=400)
                    return
                except RejectedSubmission as exc:
                    rejection = exc.rejection
                    self._send_json(
                        {"rejected": rejection.to_dict()},
                        status=REJECTION_STATUS.get(rejection.reason, 429),
                    )
                    return
                self._send_json({"job": record}, status=202)
            elif path.startswith("/service/cancel/"):
                self.live.hub.count_scrape("service")
                service_id = path[len("/service/cancel/"):]
                record = control.cancel(service_id)
                if record is None:
                    self._send_json(
                        {"error": f"unknown job {service_id!r}"}, status=404
                    )
                else:
                    self._send_json({"job": record})
            elif path == "/service/drain":
                self.live.hub.count_scrape("service")
                self._send_json({"service": control.drain()})
            else:
                self._send_json({"error": f"no route for {path!r}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _service_get(self, path: str) -> None:
        control = self.live.control
        if control is None:
            self._send_json(
                {"error": "no service attached (start with repro serve)"},
                status=404,
            )
            return
        self.live.hub.count_scrape("service")
        if path == "/service":
            self._send_json({"service": control.stats()})
        elif path == "/service/jobs":
            self._send_json({"jobs": control.jobs_list()})
        elif path.startswith("/service/jobs/"):
            service_id = path[len("/service/jobs/"):]
            record = control.job(service_id)
            if record is None:
                self._send_json(
                    {"error": f"unknown job {service_id!r}"}, status=404
                )
            else:
                self._send_json({"job": record})
        else:
            self._send_json({"error": f"no route for {path!r}"}, status=404)

    def _read_json_body(self) -> "Optional[dict]":
        """Parse the request's JSON body; sends the error response itself."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0:
            self._send_json({"error": "a JSON request body is required"},
                            status=400)
            return None
        if length > _MAX_BODY_BYTES:
            self._send_json(
                {"error": f"request body exceeds {_MAX_BODY_BYTES} bytes"},
                status=413,
            )
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json({"error": f"malformed JSON body: {exc}"},
                            status=400)
            return None
        if not isinstance(payload, dict):
            self._send_json({"error": "JSON body must be an object"},
                            status=400)
            return None
        return payload

    def _stream_events(self, params: "dict[str, list[str]]") -> None:
        def _int_param(name: str, default: "Optional[int]") -> "Optional[int]":
            values = params.get(name)
            if not values:
                return default
            try:
                return int(values[0])
            except ValueError:
                return default

        replay = _int_param("replay", None)
        max_events = _int_param("max", None)
        follow = _int_param("follow", 1) != 0
        since = _int_param("since", 0) or 0

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        # Stream until done; length is unknown up front.
        self.send_header("Connection", "close")
        self.end_headers()

        bus = self.live.hub.bus
        stopping = self.live.stopping
        sent = 0

        def _write(event: dict) -> bool:
            nonlocal sent
            line = json.dumps(event, sort_keys=True) + "\n"
            self.wfile.write(line.encode("utf-8"))
            self.wfile.flush()
            sent += 1
            return max_events is None or sent < max_events

        if follow:
            q: "queue.Queue[dict]" = queue.Queue()
            enqueue = q.put  # hold the bound method so unsubscribe matches
            backlog = bus.tap(enqueue, since=since)
            try:
                if replay is not None:
                    backlog = backlog[-replay:] if replay > 0 else []
                for event in backlog:
                    if not _write(event):
                        return
                while not stopping.is_set():
                    try:
                        event = q.get(timeout=_STREAM_POLL_S)
                    except queue.Empty:
                        continue
                    if not _write(event):
                        return
            finally:
                bus.unsubscribe(enqueue)
                self.close_connection = True
        else:
            backlog = bus.events_since(since=since, limit=replay)
            for event in backlog:
                if not _write(event):
                    break
            self.close_connection = True


class LiveServer:
    """Owns the ThreadingHTTPServer and its serve thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` / :attr:`url`
    after construction.  :meth:`start` spawns the daemonized serve
    thread, :meth:`wait` parks for a grace period (used by ``--serve``
    so scrapers can collect the final state), and :meth:`close` shuts
    down idempotently, unblocking any streaming handlers via the
    :attr:`stopping` event.
    """

    def __init__(
        self,
        hub: LiveHub,
        host: str = "127.0.0.1",
        port: int = 0,
        control=None,
    ) -> None:
        self.hub = hub
        #: Optional service-control facade (the ``repro serve`` daemon);
        #: when absent, ``/service*`` routes answer 404.
        self.control = control
        self.stopping = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.live_server = self  # type: ignore[attr-defined]
        self._thread: "Optional[threading.Thread]" = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-live-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def wait(self, seconds: float) -> None:
        """Park the caller for up to ``seconds`` (early-out on close)."""
        if seconds > 0:
            self.stopping.wait(seconds)

    def close(self) -> None:
        if self.stopping.is_set():
            return
        self.stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LiveServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
