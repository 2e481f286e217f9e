"""The four benchmark workloads, run against the public API of ``repro``.

Every workload is a closed loop driven by one process (the sharded
service workload adds its server and the server's one job worker).  A run repeats the workload's unit of
work -- one solved schedule, or one service job -- as many times as the
time budget buys at the unit's nominal cost, at least once.  Every unit
is checked; a failed check counts as a failed operation instead of
aborting the run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import pathlib
import select
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import ledger
from perfbench.calibrate import HostClock

#: Constructions (server starts on ``service_jobs``) timed per run, on
#: top of each unit's own and after one untimed warm-up construction;
#: the median is ``setup_s``.
SETUPS = 9
SERVER_SETUPS = 3
#: Reloads of the stored answer (the cached read path) timed per run,
#: shared out over its units, and per unit of a traced run.
RELOADS = 40
TRACED_RELOADS = 10
#: Times each finished service job is resubmitted as a cache hit.
CACHE_ROUNDS = 2
#: In-process reference jobs per arm of the service tracing-overhead probe.
REFERENCE_JOBS = 3
#: Longest wait for the service to bind or to stop, seconds.
SERVER_TIMEOUT = 60.0
#: ``wedge_paper``: what ``repro run wedge --supervised --telemetry`` does.
CHECKPOINT_EVERY = AUDIT_EVERY = 50
TELEMETRY_EVERY = 10
#: ``wedge_sharded``: two shards, run inline (one after the other in this
#: process), rebalanced.  In process mode the run-to-run spread of the
#: two busy shard processes reached 0.42 over ten seeds on the 2-vCPU
#: host: barrier and wake-up delays under host contention, which no
#: calibration of this process corrects and no bound admits.
SHARD_WORKERS = 2
REBALANCE_EVERY = 10


@dataclasses.dataclass(frozen=True)
class EngineParams:
    """One engine workload: the scenario overrides and how it is driven."""

    kind: str  # "supervised", "ensemble" or "sharded"
    nx: int = 98
    ny: int = 64
    density: float = 12.0
    lambda_mfp: float = 0.0
    transient: int = 350
    average: int = 350
    replicas: int = 16
    #: Nominal seconds of one unit (build + schedule + answer) on the
    #: reference host: a run of ``--seconds S`` does ``S / unit_seconds``
    #: units, at least one.
    unit_seconds: float = 16.0


@dataclasses.dataclass(frozen=True)
class ServiceParams:
    """The service workload: the short job's shape and nominal cost."""

    nx: int = 49
    ny: int = 32
    density: float = 4.0
    transient: int = 20
    average: int = 20
    #: Nominal seconds of one job plus its two cache hits on the
    #: reference host; 20 s buys 100 jobs, so ten lie beyond the p90.
    unit_seconds: float = 0.2


PARAMS: Dict[str, object] = {
    "wedge_paper": EngineParams(kind="supervised"),
    "ensemble_sweep": EngineParams(
        kind="ensemble",
        nx=49,
        ny=32,
        density=3.5,
        lambda_mfp=0.5,
        transient=150,
        average=200,
        unit_seconds=10.0,
    ),
    "wedge_sharded": EngineParams(kind="sharded", unit_seconds=11.0),
    "service_jobs": ServiceParams(),
}

#: Names of the workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = tuple(PARAMS)


def _unit_count(seconds: float, unit_seconds: float) -> int:
    """Units of work a ``seconds`` budget buys at the nominal unit cost.

    Fixed by the budget, not by the clock, so that a faster commit runs
    the same work as its parent and the two are compared like for like.
    """
    return max(1, round(seconds / unit_seconds))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def _theory(config):
    from repro.physics import theory

    mach, angle = config.freestream.mach, config.wedge.angle_deg
    return (
        theory.shock_angle_deg(mach, angle),
        theory.oblique_shock_density_ratio(mach, math.radians(angle)),
    )


def _tolerances() -> Dict[str, float]:
    """``rel_tol`` of the wedge scenario's validation checks by name."""
    from repro.scenarios import get

    checks = get("wedge").validation["checks"]
    return {c["name"]: c["rel_tol"] for c in checks if "rel_tol" in c}


def _within(name: str, got: float, want: float, rel_tol: float) -> dict:
    ok = abs(got - want) <= rel_tol * abs(want)
    return {"check": name, "ok": bool(ok), "got": got, "want": want,
            "rel_tol": rel_tol}


def _config(p: EngineParams, seed: int):
    from repro.scenarios import get

    return get("wedge").build_config(
        nx=p.nx, ny=p.ny, density=p.density, lambda_mfp=p.lambda_mfp,
        seed=int(seed),
    )


# -- engine workloads ------------------------------------------------------


def _build(p: EngineParams, config, run_dir: pathlib.Path):
    """Construction to first step ready; returns ``(stepper, closer)``."""
    from repro.core.simulation import Simulation

    if p.kind == "supervised":
        from repro.resilience import SupervisedRun
        from repro.telemetry import Telemetry

        tel = Telemetry(run_dir=run_dir, sample_every=TELEMETRY_EVERY)
        sim = Simulation(config, telemetry=tel)
        run = SupervisedRun(
            sim, run_dir,
            checkpoint_every=CHECKPOINT_EVERY,
            audit_every=AUDIT_EVERY,
        )

        def close() -> None:
            tel.close()
            run.close()

        return run, close
    if p.kind == "ensemble":
        from repro.ensemble import EnsembleEngine

        engine = EnsembleEngine(config, n_replicas=p.replicas)
        return engine, lambda: None
    from repro.parallel.backend import ShardedBackend
    from repro.parallel.rebalance import RebalanceConfig

    backend = ShardedBackend(
        SHARD_WORKERS, processes=False,
        rebalance=RebalanceConfig(every=REBALANCE_EVERY),
    )
    sim = Simulation(config, backend=backend)
    return sim, sim.close


def _diag_counts(diags: List, ensemble: bool) -> Dict[str, float]:
    """Per-step counts from the step diagnostics (repeat exactly)."""
    steps = len(diags)
    if ensemble:
        cand = sum(d.n_candidates for d in diags)
        coll = sum(d.n_collisions_total for d in diags)
        half = sum(d.n_flow_total // 2 for d in diags)
        moved, rebuilds = 0.0, 0
    else:
        cand = sum(d.n_candidates for d in diags)
        coll = sum(d.n_collisions for d in diags)
        half = sum(d.n_flow // 2 for d in diags)
        moved = sum(d.sort_moved_fraction or 0.0 for d in diags) / steps
        rebuilds = sum(d.sort_rebuilds or 0 for d in diags)
    return {
        "core.selection.candidates_per_step": cand / steps,
        "core.selection.accept_ratio": coll / cand if cand else 0.0,
        "core.pairing.efficiency": cand / half if half else 0.0,
        "core.sortstep.moved_fraction": moved,
        "core.sortstep.rebuilds": float(rebuilds),
        "core.boundary.inflow_per_step": sum(
            d.boundary.n_injected_upstream for d in diags
        ) / steps,
    }


def _reload(p: EngineParams, run_dir: pathlib.Path) -> Callable[[], None]:
    """The read path: serve the finished result from its stored state."""
    if p.kind == "supervised":
        from repro.resilience import SupervisedRun

        def reload() -> None:
            run = SupervisedRun.resume(run_dir)
            run.sim.density_ratio_field()
            run.close()

        return reload
    if p.kind == "ensemble":
        from repro.io.snapshots import load_ensemble

        return lambda: load_ensemble(run_dir / "final.npz").density_ratio_fields()
    from repro.io.snapshots import load_simulation

    def reload_sim() -> None:
        sim = load_simulation(run_dir / "final.npz", workers=1)
        sim.density_ratio_field()
        sim.close()

    return reload_sim


def engine_unit(
    p: EngineParams,
    seed: int,
    run_dir: pathlib.Path,
    rec: Optional[ledger.Recorder] = None,
    check_replicas: bool = False,
    clock: Optional[HostClock] = None,
    reloads: int = TRACED_RELOADS,
) -> dict:
    """Build, solve, check and reload one schedule; all timings inside.

    With a ``clock`` the unit ticks it between steps and around every
    timed interval, and reports calibrated times (see
    ``perfbench/calibrate.py``) next to the wall times; without one
    (the traced run) the calibrated times are the wall times.
    """
    import repro.analysis.shock as shock
    from repro.errors import ReproError

    config = _config(p, seed)
    tol = _tolerances()
    run_dir.mkdir(parents=True, exist_ok=True)
    tick = clock.tick if clock is not None else lambda: None
    maybe_tick = clock.maybe_tick if clock is not None else lambda: None

    tick()
    t0 = time.perf_counter()
    stepper, close = _build(p, config, run_dir)
    t1 = time.perf_counter()
    auditor = None
    if p.kind == "sharded":
        from repro.resilience.audit import InvariantAuditor

        auditor = InvariantAuditor()
        auditor.rebase(stepper)
    stamps, diags = [], []
    checks = []
    with ledger.span(rec, "bench.schedule"):
        for i in range(p.transient + p.average):
            s0 = time.perf_counter()
            diag = stepper.step(sample=i >= p.transient)
            s1 = time.perf_counter()
            n = diag.n_flow_total if p.kind == "ensemble" else diag.n_flow
            stamps.append((s0, s1, n))
            diags.append(diag)
            if auditor is not None:
                auditor.observe(diag)
            maybe_tick()
    wedge = config.wedge
    beta, ratio = _theory(config)
    if p.kind != "ensemble":
        sim = stepper.sim if p.kind == "supervised" else stepper
        sim.gather()
        if p.kind == "sharded":
            checks.append(_audit_check(auditor, sim))
            if rec is not None:
                rec.add("parallel.rebalances", sim.backend.rebalance_count)
        else:
            close()  # telemetry's final flush belongs to the solution
    try:
        if p.kind == "ensemble":
            angles = [
                shock.fit_shock_angle(rho, wedge).angle_deg
                for rho in stepper.density_ratio_fields()
            ]
            checks.append(_within(
                "ensemble_mean_shock_angle_deg", float(np.mean(angles)),
                beta, tol["shock_angle_deg"],
            ))
        else:
            rho = sim.density_ratio_field()
            fit = shock.fit_shock_angle(rho, wedge)
            plateau = shock.post_shock_plateau(rho, wedge, fit)
            if p.kind == "supervised":
                checks.append(_within("shock_angle_deg", fit.angle_deg,
                                      beta, tol["shock_angle_deg"]))
                checks.append(_within("plateau_density_ratio", plateau,
                                      ratio, tol["plateau_density_ratio"]))
    except ReproError as exc:
        checks.append({"check": "shock_fit", "ok": False, "error": str(exc)})
    t2 = time.perf_counter()
    tick()

    # Untimed: store the result for the read path, then the audit-grade
    # cross-check of the ensemble (replica 0 == its solo run, bitwise).
    if p.kind == "ensemble":
        from repro.io.snapshots import save_ensemble

        save_ensemble(stepper, run_dir / "final.npz", compress=False)
        if check_replicas:
            checks.append(_replica_zero_check(p, config, stepper))
    elif p.kind == "sharded":
        from repro.io.snapshots import save_simulation

        save_simulation(sim, run_dir / "final.npz", compress=False)
        close()
    reload = _reload(p, run_dir)
    reload_stamps = []
    for _ in range(reloads):
        maybe_tick()
        r0 = time.perf_counter()
        reload()
        reload_stamps.append((r0, time.perf_counter()))
    tick()
    span = clock.elapsed if clock is not None else lambda a, b: b - a
    return {
        "setup_s": span(t0, t1),
        "solution_s": span(t1, t2),
        "job_s": span(t0, t2),
        "step_us_pp": [span(a, b) / n * 1e6 for a, b, n in stamps],
        "step_s": sum(span(a, b) for a, b, _n in stamps),
        "reload_ms": [span(a, b) * 1e3 for a, b in reload_stamps],
        "wall": {
            "setup_s": t1 - t0,
            "solution_s": t2 - t1,
            "step_us_pp": [(b - a) / n * 1e6 for a, b, n in stamps],
            "reload_ms": [(b - a) * 1e3 for a, b in reload_stamps],
        },
        "particle_steps": int(sum(
            d.n_flow_total if p.kind == "ensemble" else d.n_flow
            for d in diags
        )),
        "steps": len(diags),
        "counts": _diag_counts(diags, p.kind == "ensemble"),
        "checks": checks,
    }


def _audit_check(auditor, sim) -> dict:
    """The invariant auditor's verdict on the final sharded state."""
    from repro.errors import InvariantViolationError

    try:
        report = auditor.audit(sim)
    except InvariantViolationError as exc:
        return {"check": "invariant_audit", "ok": False, "error": str(exc)}
    return {"check": "invariant_audit", "ok": report is not None,
            "report": report}


def _replica_zero_check(p: EngineParams, config, engine) -> dict:
    """``verify_replica_equality``'s comparison, on the measured run."""
    from repro.ensemble import EnsembleEngine
    from repro.ensemble.engine import replica_state

    solo = EnsembleEngine(config, replica_ids=[engine.replica_ids[0]])
    solo.run_schedule(p.transient, p.average)
    got, want = replica_state(engine, 0), replica_state(solo, 0)
    bad = [k for k in sorted(want) if not np.array_equal(got[k], want[k])]
    return {"check": "replica0_equals_solo", "ok": not bad, "differs": bad}


def _setup_sample(
    p: EngineParams, seed: int, run_dir: pathlib.Path, clock: HostClock,
) -> tuple:
    """One construction to first step ready: ``(calibrated s, wall s)``."""
    config = _config(p, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    clock.maybe_tick()
    t0 = time.perf_counter()
    _stepper, close = _build(p, config, run_dir)
    t1 = time.perf_counter()
    close()
    del _stepper, close
    gc.collect()  # see run_engine: cycles would keep the build alive
    return clock.elapsed(t0, t1), t1 - t0


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_engine(
    p: EngineParams, seed: int, seconds: float, workdir: pathlib.Path,
    trace: bool,
) -> dict:
    """A whole engine-workload run; returns metrics, checks and samples."""
    if trace:
        # One unit with the shims off, then the same unit traced: the
        # per-layer numbers come from the second, and the difference of
        # the two is the tracing overhead.
        plain = engine_unit(p, seed, workdir / "plain")
        rec = ledger.Recorder()
        with ledger.installed(rec):
            traced = engine_unit(p, seed, workdir / "traced", rec=rec)
        per_layer = layer_metrics(rec, traced)
        per_layer["bench.tracing_overhead_pct"] = 100.0 * (
            _median(traced["step_us_pp"]) / _median(plain["step_us_pp"]) - 1.0
        )
        per_layer.update(step_percentiles(plain["step_us_pp"]))
        units = [plain, traced]
        return {
            "metrics": per_layer,
            "units": units,
            "spans": rec.to_json(),
            "setup_samples_s": [],
        }

    clock = HostClock()
    clock.tick()
    # Warm-up: the first construction also pays for lazy imports.
    _setup_sample(p, seed, workdir / "warmup", clock)
    setup = [
        _setup_sample(p, seed, workdir / f"setup{k}", clock)[0]
        for k in range(SETUPS)
    ]
    units = []
    n_units = _unit_count(seconds, p.unit_seconds)
    for k in range(n_units):
        u = engine_unit(p, seed, workdir / f"unit{k}",
                        check_replicas=k == 0, clock=clock,
                        reloads=math.ceil(RELOADS / n_units))
        units.append(u)
        setup.append(u["setup_s"])
        # Reference cycles (simulation <-> backend <-> telemetry) would
        # otherwise keep a finished unit alive into the next one.
        gc.collect()
    particle_steps = sum(u["particle_steps"] for u in units)
    jobs = [u["job_s"] for u in units]
    return {
        "metrics": {
            "setup_s": _median(setup),
            "us_per_particle_step": sum(u["step_s"] for u in units)
            / particle_steps * 1e6,
            "solution_s": _median([u["solution_s"] for u in units]),
            "job_latency_s_p50": _median(jobs),
            "job_latency_s_p90": _quantile(jobs, 0.90),
            "cached_latency_ms_p50": _median(
                [ms for u in units for ms in u["reload_ms"]]
            ),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "units": units,
        "setup_samples_s": setup,
        "host_clock": clock.summary(),
    }


def step_percentiles(samples) -> Dict[str, float]:
    """Median and 95th percentile of per-step µs/particle samples."""
    return {
        "bench.step_us_pp_p50": _median(samples),
        "bench.step_us_pp_p95": _quantile(samples, 0.95),
    }


# -- the per-layer ledger ----------------------------------------------------

KERNELS = (
    "core.motion", "core.boundary", "core.cells", "core.sortstep",
    "core.pairing", "core.selection", "core.collision", "core.reservoir",
    "core.sampling",
)


def layer_metrics(rec: ledger.Recorder, unit: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced unit.

    Per-step figures count only spans inside the stepping loop
    (``bench.schedule``); construction and reloads call the same
    kernels.  Per-call figures (checkpoints, audits, fits) count all.
    """
    led, led_steps = rec.ledger(), rec.ledger(within="bench.schedule")
    zero = {"calls": 0, "wall_s": 0.0, "self_s": 0.0}

    def row(name, steps=False):
        return (led_steps if steps else led).get(name, zero)

    def mean_ms(name):
        r = row(name)
        return r["wall_s"] / r["calls"] * 1e3 if r["calls"] else 0.0

    pp = unit["particle_steps"]
    out = {f"{k}.us_pp": row(k, True)["self_s"] / pp * 1e6 for k in KERNELS}
    out.update(unit["counts"])
    out["core.simulation.unaccounted_us_pp"] = (
        row("core.simulation", True)["self_s"] / pp * 1e6
    )
    out["ensemble.engine.unaccounted_us_pp"] = (
        row("ensemble.engine", True)["self_s"] / pp * 1e6
    )
    on_step = row("telemetry.hub.on_step", True)
    out["telemetry.hub.on_step_us"] = (
        on_step["self_s"] / on_step["calls"] * 1e6 if on_step["calls"] else 0.0
    )
    out["telemetry.hub.flush_ms"] = mean_ms("telemetry.hub.flush")
    out["io.snapshots.save_ms"] = mean_ms("io.snapshots.save")
    saves = row("io.snapshots.save")["calls"]
    out["io.snapshots.bytes"] = (
        rec.counts["io.snapshots.bytes"] / saves if saves else 0.0
    )
    out["resilience.audit.ms"] = mean_ms("resilience.audit")
    # The run level's leftover: schedule time its steps, checkpoints,
    # audits and telemetry do not cover (zero outside supervised runs).
    out["resilience.supervisor.unaccounted_ms"] = (
        (row("resilience.supervisor")["self_s"]
         + row("bench.schedule")["self_s"]) * 1e3
        if row("resilience.supervisor")["calls"] else 0.0
    )
    n_steps = rec.counts["parallel.steps"]
    step_ms = mean_ms("parallel.backend.step")
    busy_ms = rec.counts["parallel.busy_max_s"] / n_steps * 1e3 if n_steps else 0.0
    out["parallel.backend.step_ms"] = step_ms
    out["parallel.backend.shard_busy_ms"] = busy_ms
    out["parallel.backend.wait_ms"] = step_ms - busy_ms if n_steps else 0.0
    out["parallel.exchange.rows_per_step"] = (
        rec.counts["parallel.rows"] / n_steps if n_steps else 0.0
    )
    out["parallel.exchange.bytes_computed_per_step"] = (
        rec.counts["parallel.bytes"] / n_steps if n_steps else 0.0
    )
    out["parallel.backend.imbalance"] = (
        rec.counts["parallel.imbalance"] / n_steps if n_steps else 0.0
    )
    out["parallel.backend.rebalances"] = rec.counts["parallel.rebalances"]
    out["parallel.backend.gather_ms"] = mean_ms("parallel.backend.gather")
    out["analysis.shock.fit_ms"] = mean_ms("analysis.shock.fit")
    return out


# -- the service workload ----------------------------------------------------


class Server:
    """A ``repro serve`` subprocess with one worker and default knobs."""

    def __init__(self, root: pathlib.Path, data_dir: pathlib.Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [x for x in [env.get("PYTHONPATH")] if x]
        )
        self.data_dir = data_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(data_dir), "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=root,
            env=env,
            # Its own process group, so that stop() can find and end
            # job workers the server might leave behind.
            start_new_session=True,
        )
        try:
            self.url = self._await_url()
        except BaseException:
            self.stop()
            raise

    def _await_url(self) -> str:
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], SERVER_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=SERVER_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            end_process_group(self.proc.pid)


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry.name))
    return pids


def end_process_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + SERVER_TIMEOUT
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def _read_jsonl(path: pathlib.Path) -> List[dict]:
    if not path.exists():
        return []
    return [json.loads(x) for x in path.read_text().splitlines() if x.strip()]


def _job_overrides(s: ServiceParams) -> dict:
    return {"nx": s.nx, "ny": s.ny, "density": s.density,
            "transient": s.transient, "average": s.average}


def service_job(client, s: ServiceParams, seed: int) -> dict:
    """Submit, follow the SSE stream to the terminal state, fetch."""
    t0 = time.perf_counter()
    sub = client.submit(scenario="wedge", seed=seed,
                        overrides=_job_overrides(s))
    t_sub = time.perf_counter()
    state = None
    for event, data in client.stream(sub["job_id"]):
        if event == "state" and data.get("terminal"):
            state = data["state"]
    wall_seen = time.time()
    result = client.result(sub["job_id"]) if state == "DONE" else {}
    t1 = time.perf_counter()
    sha = result.get("density_sha256")
    return {
        "job_id": sub["job_id"],
        "seed": seed,
        "state": state,
        "stamps": [t0, t1],
        "latency_s": t1 - t0,
        "request_ms": (t_sub - t0) * 1e3,
        "seen_wall": wall_seen,
        "ok": state == "DONE" and sha is not None,
        "density_sha256": sha,
        "cache_hits": [],
    }


def cache_hit(client, s: ServiceParams, job: dict) -> None:
    """Resubmit a finished job; it must be served from the result cache
    with the same digest.  Appends ``(start, lookup end, end, ok)``."""
    c0 = time.perf_counter()
    hit = client.submit(scenario="wedge", seed=job["seed"],
                        overrides=_job_overrides(s))
    c_sub = time.perf_counter()
    again = client.result(hit["job_id"]) if hit.get("cached") else {}
    c1 = time.perf_counter()
    ok = bool(hit.get("cached")) and job["density_sha256"] is not None \
        and again.get("density_sha256") == job["density_sha256"]
    job["cache_hits"].append((c0, c_sub, c1, ok))


def _job_ledger(data_dir: pathlib.Path, jobs: List[dict]) -> dict:
    """Per-job layer timings from the service/worker/event artifacts."""
    journal = _read_jsonl(data_dir / "service.jsonl")
    t_state: Dict[str, Dict[str, float]] = {}
    n_records: Dict[str, int] = {}
    for r in journal:
        jid = r.get("job_id") or (r.get("job") or {}).get("job_id")
        if jid is None:
            continue
        n_records[jid] = n_records.get(jid, 0) + 1
        if r.get("kind") == "submitted":
            t_state.setdefault(jid, {})["SUBMITTED"] = r["time"]
        elif r.get("kind") == "state":
            t_state.setdefault(jid, {}).setdefault(r["state"], r["time"])
    rows = []
    uspp: Dict[str, List[float]] = {}
    for j in jobs:
        jid = j["job_id"]
        job_dir = data_dir / jid
        worker = {r["kind"]: r["time"] for r in _read_jsonl(job_dir / "worker.jsonl")}
        events = _read_jsonl(job_dir / "events.jsonl")
        uspp[jid] = [
            e["us_per_particle"] for e in events
            if e.get("kind") == "metrics" and e.get("us_per_particle")
        ]
        ts = t_state.get(jid, {})
        try:
            seg = {
                "queue_wait_ms": ts["RUNNING"] - ts["SUBMITTED"],
                "dispatch_ms": worker["started"] - ts["RUNNING"],
                "run_ms": worker["done"] - worker["started"],
                "reap_ms": ts["DONE"] - worker["done"],
                "delivery_ms": j["seen_wall"] - ts["DONE"],
            }
        except KeyError:
            continue
        seg = {k: v * 1e3 for k, v in seg.items()}
        seg["unaccounted_ms"] = j["latency_s"] * 1e3 - (
            seg["run_ms"] + seg["dispatch_ms"] + seg["reap_ms"]
            + seg["delivery_ms"]
        )
        seg["checkpoints"] = sum(1 for e in events if e.get("kind") == "checkpoint")
        seg["journal_records"] = n_records.get(jid, 0)
        rows.append(seg)
    return {"rows": rows, "step_us_pp": uspp}


def reference_job(
    s: ServiceParams, seed: int, run_dir: pathlib.Path,
    rec: Optional[ledger.Recorder] = None,
) -> dict:
    """The service job's run, in process: same spec, seed and knobs."""
    from repro.core.simulation import Simulation
    from repro.resilience import SupervisedRun
    from repro.scenarios import get
    from repro.service.orchestrator import OrchestratorConfig
    from repro.telemetry import Telemetry

    knobs = OrchestratorConfig()
    cadence = knobs.checkpoint_every or knobs.heartbeat_every
    config = get("wedge").build_config(
        nx=s.nx, ny=s.ny, density=s.density, seed=int(seed)
    )
    t0 = time.perf_counter()
    tel = Telemetry(run_dir=run_dir, sample_every=knobs.heartbeat_every)
    sim = Simulation(config, telemetry=tel)
    run = SupervisedRun(sim, run_dir / "run", checkpoint_every=cadence,
                        audit_every=knobs.audit_every)
    with ledger.span(rec, "bench.schedule"):
        diags = [
            run.step(sample=i >= s.transient)
            for i in range(s.transient + s.average)
        ]
    run.sim.gather()
    tel.close()
    run.close()
    rho = np.ascontiguousarray(run.sim.density_ratio_field())
    return {
        "wall_s": time.perf_counter() - t0,
        "density_sha256": hashlib.sha256(rho.tobytes()).hexdigest(),
        "diags": diags,
    }


def run_service(
    s: ServiceParams, seed: int, seconds: float, workdir: pathlib.Path,
    root: pathlib.Path, trace: bool,
) -> dict:
    from repro.service.client import ServiceClient

    # Untraced runs calibrate their times against the host's speed
    # (``perfbench/calibrate.py``); the clock ticks only in the client,
    # between server starts and between jobs, while the server is idle.
    clock = HostClock() if not trace else None
    tick = clock.tick if clock is not None else lambda: None
    maybe_tick = clock.maybe_tick if clock is not None else lambda: None
    setup, setup_stamps = [], []
    server = None
    try:
        for k in range(SERVER_SETUPS if not trace else 1):
            if server is not None:
                server.stop()
            tick()
            t0 = time.perf_counter()
            server = Server(root, workdir / f"service{k}")
            client = ServiceClient(server.url)
            client.health()
            t1 = time.perf_counter()
            tick()
            setup.append(t1 - t0)
            setup_stamps.append((t0, t1))
        loop0 = time.perf_counter()
        jobs = []
        for k in range(_unit_count(seconds, s.unit_seconds)):
            maybe_tick()
            jobs.append(service_job(client, s, seed * 10_000 + k))
        loop1 = time.perf_counter()
        tick()
        loop_s = loop1 - loop0
        # The read path, once the write path is idle: every finished job
        # resubmitted CACHE_ROUNDS times.
        for _ in range(CACHE_ROUNDS):
            for job in jobs:
                maybe_tick()
                cache_hit(client, s, job)
        tick()
    finally:
        if server is not None:
            server.stop()
    data_dir = server.data_dir
    led = _job_ledger(data_dir, jobs)

    ref = reference_job(s, jobs[0]["seed"], workdir / "reference")
    checks = [{"check": "reference_sha_matches_job0",
               "ok": ref["density_sha256"] == jobs[0]["density_sha256"]}]
    out = {"jobs": jobs, "ledger_rows": led["rows"], "checks": checks,
           "setup_samples_wall_s": setup, "loop_wall_s": loop_s}
    if not trace:
        setup = [clock.elapsed(a, b) for a, b in setup_stamps]
        lat = [clock.elapsed(*j["stamps"]) for j in jobs]
        cached_ms = [clock.elapsed(c0, c1) * 1e3
                     for j in jobs for c0, _, c1, _ok in j["cache_hits"]]
        # The worker's own step samples, scaled by the host's slowness
        # while their job ran.
        uspp = [
            x / clock.slowness(*j["stamps"])
            for j in jobs for x in led["step_us_pp"].get(j["job_id"], [])
        ]
        out["metrics"] = {
            "setup_s": _median(setup),
            "us_per_particle_step": float(np.mean(uspp)),
            "solution_s": clock.elapsed(loop0, loop1) / len(jobs),
            "job_latency_s_p50": _median(lat),
            "job_latency_s_p90": _quantile(lat, 0.90),
            "cached_latency_ms_p50": _median(cached_ms),
            "peak_rss_mb": _peak_rss_mb(),
        }
        out.update(setup_samples_s=setup, latency_s=lat, cached_ms=cached_ms,
                   step_us_pp=uspp, host_clock=clock.summary())
        return out

    # Traced: the in-process reference job gives the engine-side layers
    # of the job's shape; the artifacts give the service layers.
    plain = [reference_job(s, jobs[0]["seed"], workdir / f"plain{k}")
             for k in range(REFERENCE_JOBS)]
    rec = ledger.Recorder()
    traced = []
    with ledger.installed(rec):
        for k in range(REFERENCE_JOBS):
            traced.append(reference_job(
                s, jobs[0]["seed"], workdir / f"traced{k}", rec=rec
            ))
    diags = [d for r in traced for d in r["diags"]]
    unit = {
        "particle_steps": sum(d.n_flow for d in diags),
        "counts": _diag_counts(diags, ensemble=False),
    }
    metrics = layer_metrics(rec, unit)
    metrics["bench.tracing_overhead_pct"] = 100.0 * (
        _median([r["wall_s"] for r in traced])
        / _median([r["wall_s"] for r in plain]) - 1.0
    )
    metrics.update(step_percentiles(
        [x for per_job in led["step_us_pp"].values() for x in per_job]
    ))
    rows = led["rows"]

    def med(key):
        return _median([r[key] for r in rows]) if rows else 0.0

    metrics.update({
        "service.api.request_ms": _median([j["request_ms"] for j in jobs]),
        "service.orchestrator.queue_wait_ms": med("queue_wait_ms"),
        "service.orchestrator.dispatch_ms": med("dispatch_ms"),
        "service.worker.run_ms": med("run_ms"),
        "service.orchestrator.reap_ms": med("reap_ms"),
        "service.api.delivery_ms": med("delivery_ms"),
        "service.worker.checkpoints_per_job": med("checkpoints"),
        "service.store.journal_records_per_job": med("journal_records"),
        "service.job_unaccounted_ms": med("unaccounted_ms"),
        "service.orchestrator.cache_lookup_ms": _median(
            [(c_sub - c0) * 1e3 for j in jobs
             for c0, c_sub, _, _ok in j["cache_hits"]]
        ),
    })
    out["metrics"] = metrics
    out["spans"] = rec.to_json()
    return out
