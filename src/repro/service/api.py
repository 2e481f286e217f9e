"""The service HTTP API: stdlib ``http.server`` over the orchestrator.

Same no-dependency pattern as the telemetry
:class:`~repro.telemetry.exporters.MetricsServer`: a
``ThreadingHTTPServer`` bound to ``127.0.0.1`` (``port=0`` for an
ephemeral port in tests), handler threads calling into the
(lock-protected) orchestrator.  Routes:

==============================  =========================================
``POST /jobs``                  submit; 202 accepted, 200 cached,
                                429 backpressure, 400 bad config,
                                503 shutting down
``POST /sweep``                 expand a mach x kn x seed grid into
                                one submission per grid point through
                                the same path (202; 200 all cached)
``GET /jobs``                   list all jobs
``GET /jobs/<id>``              one job's status (404 unknown)
``POST /jobs/<id>/cancel``      cancel (409 already terminal)
``GET /jobs/<id>/result``       the DONE artifact (409 not done)
``GET /jobs/<id>/events``       long-poll the job's merged event tail
                                (``?cursor=`` resumes, ``?timeout=``
                                bounds the wait)
``GET /jobs/<id>/stream``       Server-Sent Events live stream
                                (``Last-Event-ID``/``?cursor=``
                                resumes; final ``state`` event at
                                terminal)
``GET /fleet``                  live fleet summary (per-job rows)
``GET /metrics``                Prometheus text exposition (includes
                                per-job labeled gauges while running)
``GET /healthz``                liveness + queue depth
==============================  =========================================

Every error response is JSON ``{"error": <type>, "detail": ...,
"context": {...}}`` so clients get the same typed taxonomy the Python
API raises (:class:`~repro.errors.BackpressureError` -> 429, etc.).

The two tail routes share one engine: a
:class:`~repro.telemetry.stream.JobEventTail` over the job directory's
``worker.jsonl`` + ``events.jsonl``.  The cursor is the tail's opaque
byte-offset pair, so a client that disconnects mid-stream resumes
exactly where it stopped -- no replay, no loss -- whether it long-polls
or reconnects the SSE stream with ``Last-Event-ID``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    JobNotFoundError,
    JobStateError,
    ReproError,
    ServiceError,
)
from repro.service.orchestrator import Orchestrator
from repro.telemetry.stream import JobEventTail

#: Long-poll wait bounds, seconds (``?timeout=`` is clamped into them).
LONGPOLL_DEFAULT = 10.0
LONGPOLL_MAX = 30.0
#: Longest a watcher waits between tail polls, seconds.  Job-state
#: transitions wake watchers at once (pushed by the orchestrator); this
#: bound is only the cadence at which worker-written records
#: (heartbeats, telemetry events) are tailed.
TAIL_INTERVAL = 0.1
#: Seconds of SSE silence before a ``: heartbeat`` comment is sent so
#: proxies and clients can tell an idle stream from a dead one.
SSE_HEARTBEAT = 5.0

#: Typed error -> HTTP status.  Order matters: subclasses first.
_STATUS = (
    (BackpressureError, 429),
    (JobNotFoundError, 404),
    (JobStateError, 409),
    (ConfigurationError, 400),
    (ServiceError, 503),
)


def _status_for(exc: ReproError) -> int:
    for cls, status in _STATUS:
        if isinstance(exc, cls):
            return status
    return 500


class ServiceAPI:
    """Background HTTP front end for an :class:`Orchestrator`."""

    def __init__(self, orchestrator: Orchestrator, port: int = 0) -> None:
        self.orchestrator = orchestrator
        api = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                api._dispatch(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 (stdlib API)
                api._dispatch(self, "POST")

            def log_message(self, *args) -> None:
                """Silence per-request stderr logging."""

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-api",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    # -- request handling ------------------------------------------------

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str):
        try:
            out = self._route(handler, method)
            if out is None:
                return  # the route streamed its own response (SSE)
            status, body = out
        except ReproError as exc:
            status = _status_for(exc)
            body = {
                "error": type(exc).__name__,
                "detail": str(exc),
                "context": getattr(exc, "context", {}),
            }
        except Exception as exc:  # noqa: BLE001 - fail as a response
            status = 500
            body = {"error": type(exc).__name__, "detail": str(exc)}
        handler.send_response(status)
        if isinstance(body, dict) and "_raw" in body:
            ctype = body.get("_content_type", "text/plain; charset=utf-8")
            blob = body["_raw"].encode()
        else:
            ctype = "application/json"
            blob = json.dumps(body).encode()
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(blob)))
        handler.end_headers()
        handler.wfile.write(blob)

    def _route(self, handler, method: str):
        parts = urlsplit(handler.path)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        orch = self.orchestrator
        if method == "GET":
            if path == "/healthz":
                health = orch.health()
                return (200 if health["ok"] else 503), health
            if path == "/metrics":
                return 200, {
                    "_content_type": (
                        "text/plain; version=0.0.4; charset=utf-8"
                    ),
                    "_raw": orch.registry.to_prometheus(),
                }
            if path == "/fleet":
                return 200, orch.fleet()
            if path == "/jobs":
                return 200, {"jobs": orch.list_jobs()}
            if path.startswith("/jobs/") and path.endswith("/result"):
                job_id = path[len("/jobs/"):-len("/result")]
                return 200, orch.result(job_id)
            if path.startswith("/jobs/") and path.endswith("/events"):
                job_id = path[len("/jobs/"):-len("/events")]
                return 200, self._longpoll(job_id, query)
            if path.startswith("/jobs/") and path.endswith("/stream"):
                job_id = path[len("/jobs/"):-len("/stream")]
                self._sse(handler, job_id, query)
                return None
            if path.startswith("/jobs/"):
                return 200, orch.status(path[len("/jobs/"):])
        elif method == "POST":
            if path == "/jobs":
                req = self._read_json(handler)
                out = orch.submit(
                    scenario=req.get("scenario"),
                    spec=req.get("spec"),
                    seed=req.get("seed"),
                    overrides=req.get("overrides"),
                    deadline=req.get("deadline"),
                    max_retries=req.get("max_retries"),
                    faults=req.get("faults"),
                )
                return (200 if out["cached"] else 202), out
            if path == "/sweep":
                return self._sweep(self._read_json(handler))
            if path.startswith("/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/jobs/"):-len("/cancel")]
                return 200, orch.cancel(job_id)
        raise JobNotFoundError("no such route", path=path, method=method)

    # -- parameter sweeps ------------------------------------------------

    #: Ceiling on one sweep's grid size -- a typo'd axis should fail
    #: fast, not enqueue thousands of jobs past the dedup cache.
    SWEEP_LIMIT = 64

    def _sweep(self, req: dict):
        """``POST /sweep``: expand a mach x kn x seed grid into jobs.

        Each grid point goes through the orchestrator's normal
        ``submit`` path -- dedup cache, queue backpressure and journal
        all apply per job; the sweep adds no orchestrator state.  An
        omitted axis contributes no override (the scenario default);
        ``kn`` values are freestream mean free paths in cell widths
        (the ``lambda_mfp`` override).  Jobs are submitted in grid
        order (mach outermost, seed innermost).  On backpressure
        mid-sweep the 429 response's context reports how many grid
        points had already been accepted (they stay queued).
        """
        scenario = req.get("scenario")
        spec = req.get("spec")
        if scenario is None and spec is None:
            raise ConfigurationError("sweep needs a scenario or spec")

        def _axis(name):
            values = req.get(name)
            if values is None:
                return [None]
            if not isinstance(values, list) or not values:
                raise ConfigurationError(
                    f"sweep axis {name!r} must be a non-empty list"
                )
            return values

        machs = _axis("mach")
        kns = _axis("kn")
        seeds = _axis("seeds")
        grid = [
            (m, kn, seed)
            for m in machs
            for kn in kns
            for seed in seeds
        ]
        if len(grid) > self.SWEEP_LIMIT:
            raise ConfigurationError(
                f"sweep grid has {len(grid)} points; limit is "
                f"{self.SWEEP_LIMIT} per request"
            )
        base = dict(req.get("overrides") or {})
        jobs = []
        for m, kn, seed in grid:
            overrides = dict(base)
            if m is not None:
                overrides["mach"] = m
            if kn is not None:
                overrides["lambda_mfp"] = kn
            try:
                out = self.orchestrator.submit(
                    scenario=scenario,
                    spec=spec,
                    seed=seed,
                    overrides=overrides,
                    deadline=req.get("deadline"),
                    max_retries=req.get("max_retries"),
                )
            except BackpressureError as exc:
                raise BackpressureError(
                    "sweep stopped by backpressure",
                    submitted=len(jobs),
                    total=len(grid),
                    **{str(k): v for k, v in exc.context.items()},
                ) from None
            jobs.append(
                {
                    "mach": m,
                    "kn": kn,
                    "seed": seed,
                    "job_id": out["job_id"],
                    "state": out["state"],
                    "cached": out["cached"],
                }
            )
        status = 200 if all(j["cached"] for j in jobs) else 202
        return status, {"jobs": jobs, "count": len(jobs)}

    # -- live tails ------------------------------------------------------

    def _tail(self, job_id: str, cursor) -> JobEventTail:
        """A merged event tail for a *known* job (404 otherwise)."""
        job = self.orchestrator.store.get(job_id)  # raises JobNotFound
        return JobEventTail(job.job_dir, cursor=cursor)

    def _longpoll(self, job_id: str, query: dict) -> dict:
        """``GET /jobs/<id>/events``: new records since ``?cursor=``.

        Blocks up to ``?timeout=`` seconds (clamped to
        ``LONGPOLL_MAX``) waiting for fresh records; returns
        immediately once any arrive or the job is terminal.  The
        response carries the next cursor, so a client loops
        ``cursor = resp["cursor"]`` for a complete, gapless feed.
        """
        try:
            timeout = float(query.get("timeout", LONGPOLL_DEFAULT))
        except ValueError:
            raise ConfigurationError(
                f"timeout must be a number, got {query.get('timeout')!r}"
            ) from None
        timeout = min(max(0.0, timeout), LONGPOLL_MAX)
        tail = self._tail(job_id, query.get("cursor"))
        orch = self.orchestrator
        deadline = time.monotonic() + timeout
        while True:
            # The generation is read before the status, so a transition
            # landing between the two cuts the wait below short.
            generation = orch.generation
            status = orch.status(job_id)
            events = tail.poll()
            left = deadline - time.monotonic()
            if events or status["terminal"] or left <= 0:
                return {
                    "job_id": job_id,
                    "events": events,
                    "cursor": tail.cursor,
                    "state": status["state"],
                    "terminal": status["terminal"],
                }
            orch.wait_for_change(generation, min(TAIL_INTERVAL, left))

    def _sse(self, handler, job_id: str, query: dict) -> None:
        """``GET /jobs/<id>/stream``: Server-Sent Events until terminal.

        Every record becomes one SSE message whose ``id:`` is the tail
        cursor *after* that record, so a reconnecting client's
        ``Last-Event-ID`` header (or ``?cursor=``) resumes without a
        gap.  Idle periods carry ``: heartbeat`` comments; the stream
        ends with a final ``state`` event once the job is terminal and
        its tail is drained.
        """
        cursor = query.get("cursor") or handler.headers.get(
            "Last-Event-ID"
        )
        tail = self._tail(job_id, cursor)  # 404 before headers go out
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-cache")
        handler.send_header("X-Accel-Buffering", "no")
        handler.end_headers()
        wfile = handler.wfile
        orch = self.orchestrator
        try:
            last_write = time.monotonic()
            while True:
                generation = orch.generation  # before the status read
                status = orch.status(job_id)
                for rec in tail.poll():
                    blob = json.dumps(rec, separators=(",", ":"))
                    wfile.write(
                        (
                            f"id: {rec.get('cursor', tail.cursor)}\n"
                            f"event: {rec.get('kind', 'event')}\n"
                            f"data: {blob}\n\n"
                        ).encode("utf-8")
                    )
                    last_write = time.monotonic()
                if status["terminal"]:
                    # One more drain already happened above; close with
                    # the terminal state so clients know not to retry.
                    final = json.dumps(
                        {
                            "job_id": job_id,
                            "state": status["state"],
                            "terminal": True,
                        },
                        separators=(",", ":"),
                    )
                    wfile.write(
                        (
                            f"id: {tail.cursor}\n"
                            "event: state\n"
                            f"data: {final}\n\n"
                        ).encode("utf-8")
                    )
                    wfile.flush()
                    return
                if time.monotonic() - last_write > SSE_HEARTBEAT:
                    wfile.write(b": heartbeat\n\n")
                    last_write = time.monotonic()
                wfile.flush()
                orch.wait_for_change(generation, TAIL_INTERVAL)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The watcher went away; its cursor lets it resume.
            return

    @staticmethod
    def _read_json(handler) -> dict:
        length = int(handler.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = handler.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise ConfigurationError("request body must be a JSON object")
        return body

    def close(self) -> None:
        """Shut the HTTP server down and join its thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
