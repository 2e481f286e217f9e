"""In-memory span recorder and the timing shims of the traced run.

The traced run wraps the public entry points of each ``repro`` layer
in a shim that records one span (layer name, start, end, parent span)
per call.  Functions a module imports by name are patched at the
import site (``repro.core.simulation.fused_select_collide``), methods
on their class.  Nothing under ``src/`` changes: :func:`installed`
swaps the attributes in for the duration of a ``with`` block and puts
the originals back on exit, exception or not.

A layer's *self time* is the duration of its spans minus the part
their child spans cover; summing self times per layer gives a ledger
whose columns add up to the wall time of the root span exactly, so the
leftover of each level (the step minus its kernels, the run minus its
steps, checkpoints, audits and telemetry) is reported as a number of
its own.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Recorder:
    """Spans and counts, kept in memory until the run writes them out.

    ``spans`` holds ``[name, start, end, parent]`` rows (``parent`` is
    the index of the enclosing span, ``-1`` at the root); ``counts``
    accumulates named totals reported by the shims' post hooks.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        # Pop through idx: a span left open by an exception in a child
        # must not become the parent of later siblings.
        while self._stack and self._stack.pop() != idx:
            pass

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def ledger(self, within: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, total ``wall_s`` and ``self_s``.

        ``within`` keeps only spans inside a span of that name (itself
        included), e.g. the stepping loop without construction and
        reload calls into the same layers.
        """
        child_s = [0.0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            # Parents are opened, hence listed, before their children.
            inside[i] = inside[i] or name == within or (
                parent >= 0 and inside[parent]
            )
            if parent >= 0 and t1 is not None:
                child_s[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
        )
        for (name, t0, t1, _parent), kids, keep in zip(
            self.spans, child_s, inside
        ):
            if t1 is None or not keep:
                continue
            row = out[name]
            row["calls"] += 1
            row["wall_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - kids
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p}
                for n, t0, t1, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def span(rec: Optional[Recorder], name: str):
    """``rec.span(name)``, or a no-op context when the run is untraced."""
    return rec.span(name) if rec is not None else contextlib.nullcontext()


Hook = Callable[[Recorder, tuple, object], None]


def _wrap(rec: Recorder, name: str, fn: Callable, after: Optional[Hook]):
    pid = os.getpid()

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if os.getpid() != pid:
            # A forked shard worker inherited the shim: its spans could
            # never reach this recorder, so run the original untraced.
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, out)
        return out

    return shim


# -- post hooks: counts taken where the work happens ----------------------


def _after_save(rec: Recorder, args: tuple, _out) -> None:
    rec.add("io.snapshots.bytes", os.path.getsize(args[1]))


def _after_shard_step(rec: Recorder, args: tuple, _out) -> None:
    from repro.core.particles import migration_float_width
    from repro.parallel.backend import PHASE_COLUMNS
    from repro.telemetry.observables import load_imbalance

    backend, sim = args[0], args[1]
    # Per-shard busy seconds of this step: the row sums of the phase
    # columns the workers publish in the shared diagnostics matrix.
    diag = backend._shared["diag"]
    busy = sum(diag[:, col] for _name, col in PHASE_COLUMNS)
    rec.add("parallel.busy_max_s", float(busy.max()))
    counts, _capacity = backend.migration_state()
    rows = int(counts.sum())
    dof = sim.config.model.rotational_dof
    rec.add("parallel.rows", rows)
    rec.add("parallel.bytes", rows * (8 * migration_float_width(dof) + 3 + dof))
    rec.add("parallel.imbalance", load_imbalance(backend.shard_loads()))
    rec.add("parallel.steps", 1)


def shim_table() -> List[Tuple[object, str, str, Optional[Hook]]]:
    """``(owner, attribute, layer, post hook)`` for every traced entry."""
    import repro.analysis.shock as shock
    import repro.core.motion as motion
    import repro.core.simulation as simulation
    import repro.ensemble.engine as ensemble
    import repro.resilience.supervisor as supervisor
    from repro.core.boundary import WindTunnelBoundaries
    from repro.core.reservoir import Reservoir
    from repro.core.sampling import CellSampler, EnsembleSampler
    from repro.core.sortstep import IncrementalSorter
    from repro.parallel.backend import ShardedBackend
    from repro.resilience.audit import InvariantAuditor
    from repro.telemetry.hub import Telemetry

    return [
        # Kernels (the paper's phases).
        (motion, "advance", "core.motion", None),
        (WindTunnelBoundaries, "apply_rebuilding", "core.boundary", None),
        (ensemble.EnsembleEngine, "_apply_boundaries", "core.boundary", None),
        (simulation, "assign_cells", "core.cells", None),
        (ensemble, "assign_cells", "core.cells", None),
        (IncrementalSorter, "detect", "core.sortstep", None),
        (IncrementalSorter, "update", "core.sortstep", None),
        (ensemble, "counting_sort_order", "core.sortstep", None),
        (simulation, "reflection_pairs", "core.pairing", None),
        (ensemble, "reflection_pairs", "core.pairing", None),
        (simulation, "fused_select_collide", "core.selection", None),
        (ensemble, "collide_rows_with_velocities", "core.collision", None),
        (Reservoir, "mix", "core.reservoir", None),
        (CellSampler, "accumulate", "core.sampling", None),
        (EnsembleSampler, "accumulate", "core.sampling", None),
        # Step level.
        (simulation.Simulation, "step", "core.simulation", None),
        (ensemble.EnsembleEngine, "step", "ensemble.engine", None),
        # Telemetry: the per-step feed and its periodic write-out.
        (Telemetry, "on_step", "telemetry.hub.on_step", None),
        (Telemetry, "_emit_sample", "telemetry.hub.flush", None),
        (Telemetry, "flush", "telemetry.hub.flush", None),
        # Supervision: checkpoints, audits, the supervised step.
        (supervisor, "save_simulation", "io.snapshots.save", _after_save),
        (InvariantAuditor, "audit", "resilience.audit", None),
        (supervisor.SupervisedRun, "step", "resilience.supervisor", None),
        # Domain decomposition.
        (ShardedBackend, "step", "parallel.backend.step", _after_shard_step),
        (ShardedBackend, "gather", "parallel.backend.gather", None),
        # Analysis.
        (shock, "fit_shock_angle", "analysis.shock.fit", None),
    ]


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Install every shim for the ``with`` block, then restore."""
    saved = []
    try:
        for owner, attr, layer, after in shim_table():
            # Read through __dict__ so a restored class attribute is the
            # very object that was there (no bound/unbound rewrapping).
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, layer, original, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
