"""Live streaming routes: long-poll, SSE, fleet metrics, watch CLI.

The acceptance surface of the observability layer: a submitted job is
followable end to end over HTTP, a disconnected client resumes via its
cursor without gap or duplicate, /metrics carries per-job labeled
gauges while jobs run (pruned once terminal), and a SIGKILLed worker's
stream still ends cleanly at the job's terminal state.
"""

from __future__ import annotations

import io
import sys
import threading
import time

import pytest

from repro.errors import JobNotFoundError
from repro.service import Orchestrator, ServiceAPI, ServiceClient
from repro.service import store as st
from repro.service.watch import watch_fleet, watch_job
from tests.service.conftest import TINY, fast_config

pytestmark = pytest.mark.service

#: Long enough to observe RUNNING over HTTP, short enough for CI.
STREAM_OVERRIDES = {
    "nx": 32, "ny": 16, "density": 6.0, "transient": 0, "average": 120,
}


@pytest.fixture
def service(tmp_path):
    """(orchestrator, api, client) on an ephemeral localhost port."""
    orch = Orchestrator(
        tmp_path / "svc", fast_config(fleet_every=0.1, prom_every=0.2)
    )
    api = ServiceAPI(orch, port=0)
    client = ServiceClient(f"http://127.0.0.1:{api.port}")
    yield orch, api, client
    api.close()
    if not orch._dead:
        orch.shutdown()


def _submit(client, seed=71, overrides=STREAM_OVERRIDES, **kw):
    return client.submit(
        scenario="wedge", seed=seed, overrides=dict(overrides), **kw
    )["job_id"]


class TestLongPoll:
    def test_followable_end_to_end(self, service):
        _, _, client = service
        job_id = _submit(client)
        events = list(client.iter_events(job_id))
        kinds = [e["kind"] for e in events]
        assert "started" in kinds
        assert kinds.count("heartbeat") >= 3
        assert "done" in kinds
        # Every record is annotated with its source and resume cursor.
        assert all("src" in e and "cursor" in e for e in events)

    def test_cursor_resume_after_disconnect(self, service):
        _, _, client = service
        job_id = _submit(client, seed=72)
        # First client consumes a few events, then "disconnects".
        first, cursor = [], None
        for rec in client.iter_events(job_id):
            first.append(rec)
            cursor = rec["cursor"]
            if len(first) >= 4:
                break
        # A second client resumes from the cursor: the concatenation
        # is exactly the full feed -- no gap, no duplicate.
        rest = list(client.iter_events(job_id, cursor=cursor))
        full = list(client.iter_events(job_id))
        seen = [(e["kind"], e.get("step")) for e in first + rest]
        expect = [(e["kind"], e.get("step")) for e in full]
        assert seen == expect

    def test_poll_timeout_returns_empty_batch(self, service):
        orch, _, client = service
        job_id = _submit(client, seed=73)
        final = client.wait(job_id, timeout=120)
        assert final["state"] == st.DONE
        done = client.events(job_id)  # drain everything
        out = client.events(job_id, cursor=done["cursor"], timeout=0.2)
        assert out["events"] == []
        assert out["terminal"] is True
        assert out["cursor"] == done["cursor"]

    def test_unknown_job_404(self, service):
        _, _, client = service
        with pytest.raises(JobNotFoundError):
            client.events("no-such-job")


class TestSSE:
    def test_stream_ends_with_state_event(self, service):
        _, _, client = service
        job_id = _submit(client, seed=74)
        messages = list(client.stream(job_id))
        assert len(messages) > 3
        final_event, final_data = messages[-1]
        assert final_event == "state"
        assert final_data["terminal"] is True
        assert final_data["state"] == st.DONE
        kinds = [ev for ev, _ in messages]
        assert "heartbeat" in kinds

    def test_reconnect_with_last_event_id(self, service):
        _, _, client = service
        job_id = _submit(client, seed=75)
        got, cursor = [], None
        for ev, data in client.stream(job_id):
            got.append((data.get("kind"), data.get("step")))
            cursor = data.get("cursor", cursor)
            if len(got) >= 3:
                break  # closes the connection mid-stream
        resumed = [
            (data.get("kind"), data.get("step"))
            for ev, data in client.stream(job_id, cursor=cursor)
            if ev != "state"
        ]
        full = [
            (data.get("kind"), data.get("step"))
            for ev, data in client.stream(job_id)
            if ev != "state"
        ]
        assert got + resumed == full

    def test_unknown_job_404(self, service):
        _, _, client = service
        with pytest.raises(JobNotFoundError):
            list(client.stream("no-such-job"))

    def test_sigkilled_worker_stream_ends_cleanly(self, service):
        """Chaos: the worker dies by SIGKILL mid-run; the watcher's
        stream still terminates with the job's terminal state."""
        _, _, client = service
        job_id = _submit(
            client,
            seed=76,
            max_retries=0,
            faults=[{"kind": "worker_kill", "step": 16}],
        )
        messages = list(client.stream(job_id))
        final_event, final_data = messages[-1]
        assert final_event == "state"
        assert final_data["state"] == st.FAILED
        assert final_data["terminal"] is True


class TestFleet:
    def test_fleet_rows_and_metrics_labels(self, service):
        orch, _, client = service
        job_id = _submit(client, seed=77)
        # While RUNNING: /fleet has a live row and /metrics carries the
        # per-job labeled gauges.
        saw_row = saw_gauge = saw_age = False
        deadline = time.time() + 120
        while time.time() < deadline:
            status = client.status(job_id)
            fleet = client.fleet()
            row = next(
                (j for j in fleet["jobs"] if j["job_id"] == job_id), None
            )
            if row is not None and row.get("step") is not None:
                saw_row = True
            prom = client.metrics()
            if f'repro_job_step{{job_id="{job_id}"' in prom:
                saw_gauge = True
                assert 'scenario="wedge"' in prom
            if "repro_job_heartbeat_age_seconds{" in prom:
                saw_age = True
            if status["terminal"] or (saw_row and saw_gauge and saw_age):
                break
            time.sleep(0.05)
        assert saw_row, "no live fleet row with step progress"
        assert saw_gauge, "no per-job labeled gauge on /metrics"
        assert saw_age, "no heartbeat-age gauge while running"

    def test_labeled_series_pruned_when_terminal(self, service):
        orch, _, client = service
        job_id = _submit(client, seed=78)
        client.wait(job_id, timeout=120)
        deadline = time.time() + 10
        while time.time() < deadline:
            client.fleet()  # forces a scrape (prunes terminal series)
            if f'job_id="{job_id}"' not in client.metrics():
                break
            time.sleep(0.05)
        assert f'job_id="{job_id}"' not in client.metrics()
        # The fleet row survives with its final numbers.
        row = next(
            j for j in client.fleet()["jobs"] if j["job_id"] == job_id
        )
        assert row["state"] == st.DONE
        assert row.get("step") == STREAM_OVERRIDES["average"]


class TestWatch:
    def test_watch_job_runs_to_done(self, service):
        _, _, client = service
        job_id = _submit(client, seed=79)
        buf = io.StringIO()
        rc = watch_job(client, job_id, out=buf, poll_timeout=2.0)
        assert rc == 0
        text = buf.getvalue()
        assert "100%" in text
        assert "us/particle" in text
        assert "[DONE]" in text

    def test_watch_fleet_exits_when_all_terminal(self, service):
        _, _, client = service
        _submit(client, seed=80)
        _submit(client, seed=81, overrides=dict(STREAM_OVERRIDES, average=96))
        buf = io.StringIO()
        rc = watch_fleet(client, out=buf, interval=0.2)
        assert rc == 0
        assert "DONE" in buf.getvalue()

    def test_cli_watch_command(self, service):
        from repro.cli import main

        _, api, client = service
        job_id = _submit(client, seed=82)
        rc = main(
            ["watch", job_id, "--url", f"http://127.0.0.1:{api.port}"]
        )
        assert rc == 0


class TestPushDelivery:
    """Job-state changes reach every watcher by push, not by a timer.

    ``TAIL_INTERVAL`` is raised to 30 s: a watcher that polled on it
    would block ~30 s, while one woken by the orchestrator's
    transition notification answers within seconds of the job's end.
    """

    BOUND = 10.0

    @pytest.fixture
    def slow_tail(self, monkeypatch):
        import repro.service.api as api_mod

        monkeypatch.setattr(api_mod, "TAIL_INTERVAL", 30.0)

    def test_stream_ends_on_the_terminal_transition(self, service, slow_tail):
        _, _, client = service
        t0 = time.monotonic()
        job_id = _submit(client, seed=83, overrides=TINY)
        messages = list(client.stream(job_id))
        assert time.monotonic() - t0 < self.BOUND
        kinds = [ev for ev, _ in messages]
        assert kinds[-1] == "state"
        assert messages[-1][1]["terminal"] is True
        assert messages[-1][1]["state"] == st.DONE
        assert "done" in kinds[:-1]

    def test_longpoll_returns_once_terminal(self, service, slow_tail):
        _, _, client = service
        t0 = time.monotonic()
        job_id = _submit(client, seed=84, overrides=TINY)
        cursor, kinds = None, []
        while True:
            out = client.events(job_id, cursor=cursor, timeout=30)
            cursor = out["cursor"]
            kinds += [e["kind"] for e in out["events"]]
            if out["terminal"]:
                break
        assert time.monotonic() - t0 < self.BOUND
        assert out["state"] == st.DONE
        assert "done" in kinds

    def test_client_wait_returns_once_terminal(self, service, slow_tail):
        _, _, client = service
        t0 = time.monotonic()
        job_id = _submit(client, seed=85, overrides=TINY)
        final = client.wait(job_id, timeout=60)
        assert time.monotonic() - t0 < self.BOUND
        assert final["state"] == st.DONE
        assert final["terminal"] is True

    def test_waiter_with_an_older_generation_never_misses(self, tmp_path):
        orch = Orchestrator(tmp_path / "svc", fast_config(), start=False)
        try:
            # Read before the transition, wait after it: no lost wakeup.
            before = orch.generation
            orch.submit(scenario="wedge", seed=86, overrides=TINY)
            assert orch.generation > before
            t0 = time.monotonic()
            assert orch.wait_for_change(before, timeout=30.0)
            assert time.monotonic() - t0 < 1.0
            # With nothing new, the wait runs out its timeout.
            assert not orch.wait_for_change(orch.generation, timeout=0.05)
            # A waiter already blocked is woken by the transition.
            seen = orch.generation
            woke = []
            waiter = threading.Thread(
                target=lambda: woke.append(
                    orch.wait_for_change(seen, timeout=30.0)
                )
            )
            waiter.start()
            time.sleep(0.1)
            t0 = time.monotonic()
            orch.submit(scenario="wedge", seed=87, overrides=TINY)
            waiter.join(timeout=30.0)
            assert woke == [True]
            assert time.monotonic() - t0 < 1.0
        finally:
            orch.shutdown()

    def test_many_waiters_see_every_bump(self, tmp_path):
        """Stress: more waiter threads than cores against a bumping
        thread with a tiny switch interval; every waiter sees the final
        generation and no increment is lost."""
        orch = Orchestrator(tmp_path / "svc", fast_config(), start=False)
        bumps, start = 200, orch.generation
        target = start + bumps
        stuck = []

        def waiter():
            while True:
                seen = orch.generation
                if seen >= target:
                    return
                if not orch.wait_for_change(seen, timeout=10.0):
                    stuck.append(seen)
                    return

        def bumper():
            for _ in range(bumps):
                orch.store.on_change()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=waiter) for _ in range(8)]
            threads.append(threading.Thread(target=bumper))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            orch.shutdown()
        assert stuck == []
        assert orch.generation == target

    def test_scheduler_ticks_do_not_bump_the_generation(self, tmp_path):
        orch = Orchestrator(
            tmp_path / "svc", fast_config(poll_interval=0.01)
        )
        try:
            before = orch.generation
            time.sleep(0.2)  # ~20 idle scheduler ticks
            assert orch.generation == before
        finally:
            orch.shutdown()
