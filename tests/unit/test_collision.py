"""Unit tests for the collision algorithm (eqs. (9)-(18))."""

import numpy as np
import pytest

import repro.core.collision as collision_mod
from repro.core.collision import (
    CollisionStats,
    collide_adjacent_pairs,
    collide_pairs,
)
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream


@pytest.fixture
def pop(rng):
    fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
    return ParticleArrays.from_freestream(rng, 400, fs, (0, 10), (0, 10))


def random_pairs(rng, n, n_pairs):
    order = rng.permutation(n)
    return order[: 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]


class TestConservation:
    def test_energy_conserved_exactly(self, pop, rng):
        e0 = pop.total_energy()
        a, b = random_pairs(rng, pop.n, 150)
        collide_pairs(pop, a, b, rng=rng)
        assert pop.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_momentum_conserved_exactly(self, pop, rng):
        p0 = pop.momentum()
        a, b = random_pairs(rng, pop.n, 150)
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pop.momentum(), p0, atol=1e-9)

    def test_pairwise_energy_conserved(self, pop, rng):
        # Conservation must hold per pair, not just globally.
        a, b = random_pairs(rng, pop.n, 50)
        def pair_energy():
            return (
                0.5 * (pop.u[a]**2 + pop.v[a]**2 + pop.w[a]**2
                       + pop.u[b]**2 + pop.v[b]**2 + pop.w[b]**2)
                + 0.5 * ((pop.rot[a]**2).sum(axis=1) + (pop.rot[b]**2).sum(axis=1))
            )
        e0 = pair_energy()
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pair_energy(), e0, rtol=1e-12)

    def test_pairwise_momentum_conserved(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 50)
        pu0 = pop.u[a] + pop.u[b]
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pop.u[a] + pop.u[b], pu0, atol=1e-12)

    def test_untouched_particles_unchanged(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 20)
        touched = np.zeros(pop.n, dtype=bool)
        touched[a] = touched[b] = True
        u0 = pop.u.copy()
        collide_pairs(pop, a, b, rng=rng)
        assert np.array_equal(pop.u[~touched], u0[~touched])


class TestMechanics:
    def test_deterministic_with_explicit_inputs(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 10)
        signs = np.ones((10, 5), dtype=np.int8)
        trans = np.zeros(20, dtype=np.int64)
        pop2 = pop.copy()
        collide_pairs(pop, a, b, signs=signs, transpositions=trans)
        collide_pairs(pop2, a, b, signs=signs, transpositions=trans)
        assert np.array_equal(pop.u, pop2.u)
        assert np.array_equal(pop.rot, pop2.rot)

    def test_identity_permutation_plus_signs_is_identity(self, rng, pop):
        # With identity permutation vectors and all-plus signs the
        # collision reconstructs the original velocities exactly.
        a, b = random_pairs(rng, pop.n, 30)
        pop.perm[:] = np.arange(5, dtype=np.int8)
        u0, r0 = pop.u.copy(), pop.rot.copy()
        collide_pairs(
            pop, a, b,
            signs=np.ones((30, 5), dtype=np.int8),
            transpositions=np.zeros(60, dtype=np.int64),
        )
        assert np.allclose(pop.u, u0)
        assert np.allclose(pop.rot, r0)

    def test_sign_flip_reverses_relative_velocity(self, rng, pop):
        a = np.array([0]); b = np.array([1])
        pop.perm[0] = np.arange(5, dtype=np.int8)
        u1, u2 = pop.u[0], pop.u[1]
        collide_pairs(
            pop, a, b,
            signs=-np.ones((1, 5), dtype=np.int8),
            transpositions=np.zeros(2, dtype=np.int64),
        )
        # Swapped: each particle now carries the other's velocity.
        assert pop.u[0] == pytest.approx(u2)
        assert pop.u[1] == pytest.approx(u1)

    def test_translational_rotational_exchange(self, rng):
        # A permutation moving a rotational component into slot 0 must
        # transfer energy between modes.
        fs = Freestream(mach=1.1, c_mp=0.2, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(np.random.default_rng(1), 2, fs, (0, 1), (0, 1))
        pop.u[:] = [1.0, -1.0]
        pop.v[:] = 0.0
        pop.w[:] = 0.0
        pop.rot[:] = 0.0
        e_rot0 = pop.rotational_energy()
        # Permutation sending index 3 (rot) into the u-slot.
        pop.perm[0] = np.array([3, 1, 2, 0, 4], dtype=np.int8)
        collide_pairs(
            pop, np.array([0]), np.array([1]),
            signs=np.ones((1, 5), dtype=np.int8),
            transpositions=np.zeros(2, dtype=np.int64),
        )
        assert pop.rotational_energy() > e_rot0
        assert pop.total_energy() == pytest.approx(1.0)

    def test_permutations_refreshed(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 100)
        before = pop.perm.copy()
        collide_pairs(pop, a, b, rng=rng)
        touched = np.concatenate((a, b))
        # Most touched rows should differ (identity transposition has
        # probability 1/5 per row).
        changed = (pop.perm[touched] != before[touched]).any(axis=1)
        assert changed.mean() > 0.6
        pop.validate()

    def test_stats(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 25)
        stats = collide_pairs(pop, a, b, rng=rng)
        assert isinstance(stats, CollisionStats)
        assert stats.n_collisions == 25
        assert stats.energy_exchanged >= 0.0

    def test_empty_pairs(self, pop, rng):
        stats = collide_pairs(
            pop, np.array([], dtype=int), np.array([], dtype=int), rng=rng
        )
        assert stats.n_collisions == 0

    def test_shape_validation(self, pop, rng):
        with pytest.raises(ConfigurationError):
            collide_pairs(pop, np.array([0, 1]), np.array([2]), rng=rng)
        with pytest.raises(ConfigurationError):
            collide_pairs(
                pop, np.array([0]), np.array([1]),
                signs=np.ones((2, 5), dtype=np.int8), rng=rng,
            )

    def test_needs_rng_or_inputs(self, pop):
        with pytest.raises(ConfigurationError):
            collide_pairs(pop, np.array([0]), np.array([1]))


class TestBlocking:
    """The core runs in blocks of ``BLOCK`` pairs; that must not show."""

    @staticmethod
    def _run(pop, monkeypatch, block, kernel, iep):
        monkeypatch.setattr(collision_mod, "BLOCK", block)
        parts = pop.copy()
        if kernel == "scratch":
            parts.enable_scratch()
        rng = np.random.default_rng(17)
        if kernel == "adjacent":
            # All pairs, in place on strided views.
            stats = collide_adjacent_pairs(
                parts, rng=rng, internal_exchange_probability=iep
            )
        else:
            a, b = random_pairs(np.random.default_rng(3), parts.n, 150)
            stats = collide_pairs(
                parts, a, b, rng=rng, internal_exchange_probability=iep
            )
        return parts, stats, rng.bit_generator.state

    @pytest.mark.parametrize("kernel", ["heap", "scratch", "adjacent"])
    @pytest.mark.parametrize("iep", [1.0, 0.5])
    def test_blocks_are_bitwise_invisible(self, pop, monkeypatch, kernel, iep):
        # 7 splits 150 and 200 pairs into ragged blocks, and the frozen
        # (translational-only) pairs of iep < 1 straddle block edges.
        ref, ref_stats, ref_state = self._run(pop, monkeypatch, 10**6,
                                              kernel, iep)
        got, got_stats, got_state = self._run(pop, monkeypatch, 7,
                                              kernel, iep)
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got_stats == ref_stats
        assert got_state == ref_state
