"""Performance regression guards (generous bounds, CI-safe).

The hpc-parallel guides' core demand is that the hot paths stay
vectorized: a Python-level per-particle loop sneaking into motion,
selection or collision shows up as a 10-100x throughput cliff.  These
guards use deliberately loose thresholds (5-10x headroom over measured)
so they only fire on structural regressions, not on machine noise.

The hot-path engine adds two sharper guarantees worth guarding:

* the fused counting-sort kernel keeps the whole step O(N), so the
  per-particle time bound tightens from the old 3 us to 1.5 us;
* steady-state stepping performs **zero retained O(N) allocations**
  (every per-step temporary lives in the preallocated scratch pool),
  checked directly with tracemalloc;
* the fused selection/collision pass keeps its *transient* footprint
  to the few per-call arrays NumPy cannot write into a pool.
"""

import dataclasses
import gc
import time
import tracemalloc

import pytest

import repro.core.simulation as simulation_mod
from repro.core.simulation import Simulation, SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.perf


def _wedge_config(density, seed, lambda_mfp=0.5):
    return SimulationConfig(
        domain=Domain(98, 64),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=lambda_mfp, density=density
        ),
        wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
        seed=seed,
    )


class TestThroughput:
    def test_reference_engine_stays_vectorized(self):
        # Hot path measured ~0.25 us/particle/step on one laptop core;
        # 1.5 us is a 5x+ cushion that neither a per-particle Python
        # loop (30+ us) nor losing the O(N) counting sort back to the
        # wide-key argsort (~2x) can hide under.
        sim = Simulation(_wedge_config(density=10.0, seed=1))
        sim.run(5)  # warm up
        n = sim.particles.n
        steps = 20
        t0 = time.perf_counter()
        sim.run(steps)
        per_particle_us = (time.perf_counter() - t0) / steps / n * 1e6
        assert per_particle_us < 1.5, (
            f"{per_particle_us:.2f} us/particle/step: a hot path has "
            "likely devectorized or fallen off the O(N) sort"
        )

    @pytest.mark.parametrize("kernel", ["counting", "incremental"])
    def test_stepping_retains_no_per_particle_memory(self, kernel):
        # The scratch-buffer contract: after the pool is warm, stepping
        # must not RETAIN any O(N) allocation (transient RNG draws are
        # fine; they are freed within the step).  One float64 column
        # here is ~8 * n bytes; the threshold is a small fraction of
        # one column, far below any leaked per-particle array.  Both
        # sort kernels must honor it: the incremental path's cached
        # order and the fused selection/collision scratch are sized
        # once and reused, never regrown per step.
        cfg = dataclasses.replace(
            _wedge_config(density=10.0, seed=1), sort_kernel=kernel
        )
        sim = Simulation(cfg)
        sim.run(10)  # past the start-up transient; pool fully grown
        gc.collect()
        tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            sim.run(6)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        n = sim.particles.n
        assert n > 50_000  # the guard must be exercising real scale
        assert grown < n, (
            f"stepping retained {grown} bytes over 6 steps "
            f"(n={n}): an O(N) per-step allocation is being kept alive"
        )

    @pytest.mark.parametrize("lambda_mfp", [0.0, 0.5])
    def test_fused_pass_transients_stay_small(self, monkeypatch, lambda_mfp):
        """Peak transient memory of one warm fused select+collide call.

        Every pair-sized temporary of the pass (gathers, half-relatives,
        means, the eq. (18) permutation index, scatter values,
        transposition offsets) lives in the scratch pool.  What stays
        transient: the random signs (int8, k per pair) and the
        transpositions (int64, two per pair), because
        ``Generator.integers`` has no ``out=``; above lambda = 0 also
        the ``flatnonzero`` of the acceptance mask (int64 per accepted
        pair) and the per-cell density table.  That is ~24-41 bytes per
        accepted pair on this wedge; the pool-less kernel needed ~260.
        """
        cfg = _wedge_config(density=10.0, seed=1, lambda_mfp=lambda_mfp)
        sim = Simulation(cfg)
        sim.run(10)  # past the start-up transient; pool fully grown
        fused = simulation_mod.fused_select_collide
        measured = {}

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fused(*args, **kwargs)
                measured["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            measured["accepted"] = result.n_collisions
            return result

        monkeypatch.setattr(simulation_mod, "fused_select_collide", traced)
        sim.step()
        accepted = measured["accepted"]
        assert accepted > 5_000  # the guard must see a real pair set
        per_pair = measured["peak"] / accepted
        assert per_pair <= 80, (
            f"fused pass peaked at {per_pair:.0f} transient bytes per "
            f"accepted pair ({accepted} pairs): a pair-sized temporary "
            "is being allocated instead of pooled"
        )

    def test_seeding_is_fast(self):
        # Rejection seeding must not loop per particle either.
        cfg = SimulationConfig(
            domain=Domain(98, 64),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=20.0
            ),
            wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
            seed=2,
        )
        t0 = time.perf_counter()
        sim = Simulation(cfg)
        assert time.perf_counter() - t0 < 5.0
        assert sim.particles.n > 100_000
