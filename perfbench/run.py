"""Run one benchmark workload and print every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload wedge_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed;
``--trace 1`` runs the workload again with the per-layer timing shims
and prints the per-layer metrics instead.  The full record -- host
fingerprint, parallelism probe, parameters, every raw sample, every
check, and in traced runs the spans -- is written under
``.perfbench/results/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import shutil
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent



def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: bool) -> list:
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _tally(workload: str, out: dict) -> tuple:
    """``(attempted, failed)`` over the run's checked operations."""
    if workload == "service_jobs":
        ops = [j["ok"] for j in out["jobs"]]
        ops += [hit[3] for j in out["jobs"] for hit in j["cache_hits"]]
        ops += [c["ok"] for c in out["checks"]]
    else:
        ops = [all(c["ok"] for c in u["checks"]) for u in out["units"]]
    return len(ops), sum(1 for ok in ops if not ok)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full record (metrics included)."""
    from perfbench import host, workloads

    params = workloads.PARAMS[workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if workload == "service_jobs":
            out = workloads.run_service(
                params, seed, seconds, workdir, ROOT, trace
            )
        else:
            out = workloads.run_engine(params, seed, seconds, workdir, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [m["name"] for m in declared_metrics(trace)]
    # A layer a workload does not run reports 0 (see the README map).
    values = {name: float(out["metrics"].get(name, 0.0)) for name in names}
    attempted, failed = _tally(workload, out)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": dataclasses.asdict(params),
        "host": host.host_record(ROOT),
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "not_produced": sorted(set(names) - set(out["metrics"])),
        "raw": {k: v for k, v in out.items() if k != "metrics"},
    }


def _children() -> list:
    """Pids of this process's child processes, zombies included."""
    me, kids = os.getpid(), []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            kids.append(int(entry.name))
    return kids


def end_children(grace: float = 10.0) -> None:
    """Stop every child process still running and reap it.

    The workloads close what they start; this is the last line on every
    way out of :func:`main`, so that no process outlives the benchmark.
    """
    kids = _children()
    for pid in kids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    for pid in kids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break  # already reaped elsewhere
            if done:
                break
            if time.monotonic() >= deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                break
            time.sleep(0.05)


def _terminate(signum, _frame) -> None:
    """SIGTERM: unwind (so cleanup runs) in the benchmark process; end at
    once, as by default, in a forked child that inherited the handler."""
    if os.getpid() == MAIN_PID:
        raise SystemExit(128 + signum)
    os._exit(128 + signum)


MAIN_PID = os.getpid()


def main(argv=None) -> int:
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        end_children()
        signal.signal(signal.SIGTERM, previous)


def _main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str), encoding="utf-8")
    units = {m["name"]: m["unit"] for m in declared_metrics(bool(args.trace))}
    for name, value in record["metrics"].items():
        print(f"{name:<42s} {value:14.6g} {units[name]}")
    print(f"record: {path}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
