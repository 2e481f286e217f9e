"""A tiny urllib client for the service API (used by CLI and tests).

Maps HTTP error statuses back onto the same typed exceptions the
Python :class:`~repro.service.orchestrator.Orchestrator` raises, so
``repro submit`` over the wire and ``orchestrator.submit`` in-process
fail identically.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Iterator, Optional, Tuple

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    JobNotFoundError,
    JobStateError,
    ServiceError,
)

_ERRORS = {
    429: BackpressureError,
    404: JobNotFoundError,
    409: JobStateError,
    400: ConfigurationError,
    503: ServiceError,
}


class ServiceClient:
    """HTTP client for one service endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                payload = {"detail": raw.decode(errors="replace")}
            cls = _ERRORS.get(exc.code, ServiceError)
            raise cls(
                payload.get("detail", f"HTTP {exc.code}"),
                **{
                    str(k): v
                    for k, v in (payload.get("context") or {}).items()
                },
            ) from None

    # -- endpoints -------------------------------------------------------

    def submit(self, **kwargs) -> dict:
        """POST /jobs; kwargs mirror :meth:`Orchestrator.submit`."""
        return self._request("POST", "/jobs", body=kwargs)

    def sweep(
        self,
        scenario: Optional[str] = None,
        spec: Optional[dict] = None,
        mach: Optional[list] = None,
        kn: Optional[list] = None,
        seeds: Optional[list] = None,
        overrides: Optional[dict] = None,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> dict:
        """POST /sweep: one submission per mach x kn x seed grid point.

        Returns ``{"jobs": [...], "count": N}`` with one entry per
        grid point carrying its axis values plus the usual
        ``job_id`` / ``state`` / ``cached`` submit fields.
        """
        body = {
            k: v
            for k, v in (
                ("scenario", scenario),
                ("spec", spec),
                ("mach", mach),
                ("kn", kn),
                ("seeds", seeds),
                ("overrides", overrides),
                ("deadline", deadline),
                ("max_retries", max_retries),
            )
            if v is not None
        }
        return self._request("POST", "/sweep", body=body)

    def status(self, job_id: str) -> dict:
        """GET /jobs/<id>: the job's current status dict."""
        return self._request("GET", f"/jobs/{job_id}")

    def list_jobs(self) -> list:
        """GET /jobs: status dicts for every known job."""
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        """POST /jobs/<id>/cancel: stop a queued or running job."""
        return self._request("POST", f"/jobs/{job_id}/cancel", body={})

    def result(self, job_id: str) -> dict:
        """GET /jobs/<id>/result: the DONE job's result artifact."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def health(self) -> dict:
        """GET /healthz: liveness plus queue/worker gauges."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """GET /metrics: the Prometheus text exposition, verbatim."""
        req = urllib.request.Request(self.base_url + "/metrics")
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode()

    # -- live streaming --------------------------------------------------

    def fleet(self) -> dict:
        """GET /fleet: health plus one live row per job."""
        return self._request("GET", "/fleet")

    def events(
        self,
        job_id: str,
        cursor: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """GET /jobs/<id>/events: one long-poll round.

        Returns ``{"events", "cursor", "state", "terminal"}``; pass
        the returned cursor back in for a gapless feed.
        """
        params = {}
        if cursor:
            params["cursor"] = cursor
        if timeout is not None:
            params["timeout"] = f"{timeout:g}"
        query = "?" + urllib.parse.urlencode(params) if params else ""
        return self._request("GET", f"/jobs/{job_id}/events{query}")

    def iter_events(
        self,
        job_id: str,
        cursor: Optional[str] = None,
        poll_timeout: float = 10.0,
    ) -> Iterator[dict]:
        """Yield every event of a job until it goes terminal.

        A long-poll loop over :meth:`events` -- survives service
        restarts between rounds (the cursor is a plain byte-offset
        pair into the job's artifacts, not server state).
        """
        while True:
            out = self.events(job_id, cursor=cursor, timeout=poll_timeout)
            cursor = out["cursor"]
            for rec in out["events"]:
                yield rec
            if out["terminal"]:
                return

    def stream(
        self,
        job_id: str,
        cursor: Optional[str] = None,
    ) -> Iterator[Tuple[str, dict]]:
        """GET /jobs/<id>/stream: yield ``(event, data)`` SSE messages.

        Terminates after the final ``("state", {...})`` message.  On a
        dropped connection the last message's ``data["cursor"]`` (or
        the ``id:`` this generator tracked) resumes without a gap.
        """
        path = f"/jobs/{job_id}/stream"
        headers = {"Accept": "text/event-stream"}
        if cursor:
            headers["Last-Event-ID"] = cursor
        req = urllib.request.Request(
            self.base_url + path, headers=headers
        )
        try:
            resp = urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                payload = {"detail": raw.decode(errors="replace")}
            cls = _ERRORS.get(exc.code, ServiceError)
            raise cls(
                payload.get("detail", f"HTTP {exc.code}"),
                **{
                    str(k): v
                    for k, v in (payload.get("context") or {}).items()
                },
            ) from None
        with resp:
            event, data_lines = "message", []
            for raw_line in resp:
                line = raw_line.decode("utf-8").rstrip("\n").rstrip("\r")
                if not line:
                    # Blank line = message boundary.
                    if data_lines:
                        data = json.loads("\n".join(data_lines))
                        yield event, data
                        if event == "state" and data.get("terminal"):
                            return
                    event, data_lines = "message", []
                    continue
                if line.startswith(":"):
                    continue  # heartbeat comment
                field, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if field == "event":
                    event = value
                elif field == "data":
                    data_lines.append(value)

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job reaches a terminal state (or timeout).

        A loop over the long-poll route: the server answers each round
        as soon as the job goes terminal, so the return follows the
        terminal transition without a client-side poll interval.
        Returns the job's final status dict.
        """
        deadline = time.monotonic() + timeout
        cursor = None
        while True:
            left = deadline - time.monotonic()
            # Each round ends well inside the socket timeout.
            out = self.events(
                job_id,
                cursor=cursor,
                timeout=min(max(0.0, left), 0.5 * self.timeout),
            )
            if out["terminal"]:
                return self.status(job_id)
            if left <= 0:
                raise ServiceError(
                    "timed out waiting for job",
                    job_id=job_id,
                    state=out["state"],
                    timeout=timeout,
                )
            cursor = out["cursor"]
