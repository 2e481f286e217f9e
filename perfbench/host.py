"""Host record: what a result was measured on.

Absolute numbers are comparable only between records whose
``fingerprint`` matches.  The parallelism probe times a fixed NumPy
kernel in one process and in two concurrent processes, so the sharded
workload is read against the parallelism this host really delivers
(two vCPUs that share a core give well under 2x).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

#: Seconds each probe process spends on the kernel.
PROBE_SECONDS = 0.3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over ``src/`` (names and bytes): the code under test."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    """The fields two records must share for absolute comparisons."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _kernel_rounds(seconds: float) -> float:
    """Rounds per second of a fixed sort + gather kernel."""
    rng = np.random.default_rng(0)
    a = rng.random(200_000)
    rounds = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.take(a, np.argsort(a, kind="stable"))
        rounds += 1
    return rounds / (time.perf_counter() - t0)


def probe_child() -> None:
    """One probe process: report ready, wait for the go line, time the
    kernel and print its rate.  Run as ``python -c`` by the probe."""
    print("ready", flush=True)
    sys.stdin.readline()  # start together, after the imports
    print(_kernel_rounds(PROBE_SECONDS), flush=True)


def parallelism_probe() -> dict:
    """One-process vs two-process throughput of the fixed kernel.

    The two processes are plain subprocesses, waited for on every path,
    so the probe leaves nothing running (``multiprocessing`` would start
    a resource tracker that outlives this process).
    """
    solo = _kernel_rounds(PROBE_SECONDS)
    root = pathlib.Path(__file__).resolve().parent.parent
    cmd = [sys.executable, "-c",
           "from perfbench.host import probe_child; probe_child()"]
    procs = []
    try:
        for _ in range(2):
            procs.append(subprocess.Popen(
                cmd, cwd=root, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            ))
        for p in procs:
            if p.stdout.readline().strip() != "ready":
                raise RuntimeError("parallelism probe child did not start")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        rates = [float(p.communicate(timeout=60)[0]) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    pair = sum(rates)
    return {
        "kernel": "argsort+take of 200k float64",
        "one_process_per_s": solo,
        "two_process_per_s": pair,
        "speedup_2p": pair / solo if solo else None,
    }


def host_record(root: pathlib.Path) -> dict:
    return {
        "fingerprint": fingerprint(),
        "git_rev": _git_rev(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
        "blas_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "argv": sys.argv,
        "parallelism_probe": parallelism_probe(),
    }
