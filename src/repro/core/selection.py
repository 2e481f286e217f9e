"""The McDonald-Baganoff collision selection rule (sub-step 3, part 4).

Unlike Bird's per-cell time counter, "a probability of collision is
computed for each pair of collision candidates and collisions are
carried out in accordance with this probability.  The decision to
perform a collision is applied on the individual candidate pairs and not
on the cell as a whole.  Consequently ... the selection rule can be
parallelized at a particle level" while conserving energy and momentum
per collision.

Equations (3)-(8) of the paper:

    t_c      = 1 / (n sigma c_bar)                       (3)
    P_c      = dt / t_c          (valid for dt << t_c)    (4)
    P_c      = n sigma g dt                               (5)
    P_c ~    n g^(1 - 4/alpha)                            (6)
    P_c/P_co = (n/n_oo) (g/g_oo)^(1-4/alpha)              (7)
    P_c/P_co = n/n_oo            (Maxwell, alpha = 4)     (8)

The freestream anchor ``P_co`` comes from
:attr:`repro.physics.freestream.Freestream.collision_probability`.
Near-continuum runs (lambda = 0) saturate every candidate at P = 1:
"all collision candidates must collide and the number of collisions in a
cell is just equal to half the number of particles in the cell."

Cut cells: the local number density divides by the cell's **fractional
open volume** ("where cells are divided by the wedge special allowance
must be made for the fractional cell volume when employing the selection
rule").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.collision import collide_pairs, collide_rows_with_velocities
from repro.core.pairing import CandidatePairs, ReflectionPairs
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel

#: Cells whose open fraction falls below this are treated as fully
#: blocked for density purposes (they should hold no particles; the
#: floor avoids division blow-ups on stray reflections mid-resolution).
MIN_VOLUME_FRACTION = 1.0 / 64.0


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the selection rule for one step.

    Attributes
    ----------
    accept:
        Boolean per *pair* (aligned with the pairing arrays): True for
        pairs that will actually collide.
    probability:
        The computed per-pair probability (0 for non-candidates), before
        the random draw -- kept for diagnostics and tests.
    relative_speed:
        Per-pair translational relative speed g (0 for non-candidates).
    """

    accept: np.ndarray
    probability: np.ndarray
    relative_speed: np.ndarray

    @property
    def n_collisions(self) -> int:
        return int(np.count_nonzero(self.accept))


def pair_relative_speed(
    particles: ParticleArrays, pairs: CandidatePairs
) -> np.ndarray:
    """Translational relative speed |c1 - c2| of every formed pair.

    With scratch enabled the differences land in pooled buffers
    (``sel_du``/``sel_dv``/``sel_dw``) -- on the adjacent hot path that
    makes the whole computation allocation-free (strided reads, pooled
    writes).  The arithmetic is identical either way.
    """
    n_pairs = pairs.n_pairs
    scratch = particles.scratch
    if scratch is not None:
        du = scratch.array("sel_du", n_pairs)
        dv = scratch.array("sel_dv", n_pairs)
        dw = scratch.array("sel_dw", n_pairs)
    else:
        du = np.empty(n_pairs)
        dv = np.empty(n_pairs)
        dw = np.empty(n_pairs)
    if pairs.adjacent:
        # Pair i occupies rows (2i, 2i+1): strided views replace the
        # six scattered gathers of the generic path.
        m = 2 * n_pairs
        np.subtract(particles.u[0:m:2], particles.u[1:m:2], out=du)
        np.subtract(particles.v[0:m:2], particles.v[1:m:2], out=dv)
        np.subtract(particles.w[0:m:2], particles.w[1:m:2], out=dw)
    else:
        a, b = pairs.first, pairs.second
        np.subtract(particles.u[a], particles.u[b], out=du)
        np.subtract(particles.v[a], particles.v[b], out=dv)
        np.subtract(particles.w[a], particles.w[b], out=dw)
    du *= du
    dv *= dv
    dw *= dw
    du += dv
    du += dw
    return np.sqrt(du, out=du)


def density_lookup_table(
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-cell density table for the selection rule's pair gather.

    Divides the cell populations by the (floored) open volume fraction
    -- the cut-cell allowance of eq. (7)/(8).  Shared by the solo fused
    kernel and the ensemble engine, whose table spans ``R * n_cells``
    composite cells (counts and fractions tiled per replica block).
    """
    counts = np.asarray(cell_counts, dtype=np.float64)
    if volume_fractions is not None:
        vf = np.maximum(
            np.asarray(volume_fractions, dtype=np.float64),
            MIN_VOLUME_FRACTION,
        )
        return counts / vf
    return counts


def collision_probabilities(
    particles: ParticleArrays,
    pairs: CandidatePairs,
    freestream: Freestream,
    model: MolecularModel,
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
) -> tuple:
    """Per-pair collision probability via eq. (7)/(8).

    Parameters
    ----------
    cell_counts:
        Particles per cell (length n_cells) for *this* population.
    volume_fractions:
        Open area fraction per cell (flattened, length n_cells);
        ``None`` means all cells fully open.

    Returns ``(probability, relative_speed)`` arrays over pairs.
    """
    n_pairs = pairs.n_pairs
    if n_pairs == 0:
        return np.zeros(0), np.zeros(0)

    # Compute over ALL formed pairs, then zero the non-candidates at
    # the end: full-array arithmetic beats boolean-masked gathers on
    # every step (candidates are the vast majority after the sort).
    cand = pairs.same_cell
    if pairs.adjacent:
        cells = particles.cell[0 : 2 * n_pairs : 2]
    else:
        cells = particles.cell[pairs.first]

    g = pair_relative_speed(particles, pairs)

    if freestream.is_near_continuum:
        # The lambda -> 0 validation limit: every candidate collides.
        g *= cand
        return cand.astype(np.float64), g

    # Per-cell density table first (n_cells entries), then one gather
    # per pair -- not a division per pair.
    density_table = density_lookup_table(cell_counts, volume_fractions)
    scratch = particles.scratch
    if scratch is not None:
        # mode="clip": cell indices are clipped into range upstream
        # (assign_cells); "raise" would buffer the out array.
        prob = scratch.array("sel_prob", n_pairs)
        np.take(density_table, cells, out=prob, mode="clip")
    else:
        prob = np.take(density_table, cells)
    prob *= freestream.collision_probability / freestream.density
    expo = model.speed_exponent
    if expo != 0.0:
        g_ref = np.sqrt(2.0) * freestream.mean_speed  # mean relative speed
        prob *= model.speed_factor(g, g_ref)
    np.minimum(prob, 1.0, out=prob)
    prob *= cand
    g *= cand
    return prob, g


def select_collisions(
    particles: ParticleArrays,
    pairs: CandidatePairs,
    freestream: Freestream,
    model: MolecularModel,
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    draws: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Apply the selection rule: probability, then an acceptance draw.

    ``draws`` lets the CM engine supply its own uniform numbers (from
    the quick-and-dirty bit stream); otherwise ``rng`` provides them.
    """
    prob, g = collision_probabilities(
        particles, pairs, freestream, model, cell_counts, volume_fractions
    )
    if draws is None:
        if rng is None:
            raise ConfigurationError("need rng or draws")
        draws = rng.random(pairs.n_pairs)
    else:
        draws = np.asarray(draws, dtype=np.float64)
        if draws.shape != (pairs.n_pairs,):
            raise ConfigurationError("draws must have one entry per pair")
    scratch = particles.scratch
    if scratch is not None:
        accept = scratch.array("sel_accept", pairs.n_pairs, dtype=bool)
        np.less(draws, prob, out=accept)
    else:
        accept = draws < prob
    return SelectionResult(accept=accept, probability=prob, relative_speed=g)


@dataclass(frozen=True)
class FusedSelectCollideResult:
    """Diagnostics from one fused selection+collision pass.

    Attributes
    ----------
    n_candidates:
        Pairs evaluated by the selection rule (every reflection pair is
        same-cell, so all formed pairs are candidates).
    n_collisions:
        Pairs accepted and collided.
    probability_sum:
        Sum of the per-pair collision probabilities (mean probability =
        ``probability_sum / n_candidates``).
    t_boundary:
        ``perf_counter`` stamp taken between the acceptance draw and
        the collision physics -- the driver splits the fused pass into
        the paper's ``selection`` / ``collision`` ledger phases at this
        timestamp.
    """

    n_candidates: int
    n_collisions: int
    probability_sum: float
    t_boundary: float


def fused_select_collide(
    particles: ParticleArrays,
    rpairs: ReflectionPairs,
    freestream: Freestream,
    model: MolecularModel,
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    internal_exchange_probability: float = 1.0,
) -> FusedSelectCollideResult:
    """Selection rule and collision physics in one gather/scatter pass.

    The incremental kernel's hot path.  The classic pipeline gathers
    each pair's velocities once for the relative speed, throws them
    away, and re-gathers them (plus rotational state) in the collision
    kernel.  Here the selection rule touches velocities only when the
    molecular model actually needs them: for Maxwell molecules (eq. 8)
    the probability is a pure density lookup by pair cell, so the full
    population is never gathered at all -- only the *accepted subset*
    is, block by block inside :func:`repro.core.collision.collide_pairs`.
    At lambda = 0 every pair is accepted, so the pair rows go to the
    collision kernel as they are.  For speed-dependent models (eq. 7)
    the six translational gathers happen once into the scratch pool,
    feed the probability, and the accepted subset is taken from the
    already-gathered pair-aligned arrays into
    :func:`repro.core.collision.collide_rows_with_velocities`.  Either
    way there are no full-population candidate index arrays and no
    second pass over the pair set.

    RNG consumption order is the same as ``select_collisions`` followed
    by ``collide_pairs``: acceptance draws (one per formed pair), then
    collision signs, then the optional internal-exchange draws, then
    the permutation-refresh transpositions.  A seeded generator
    therefore produces bitwise identical post-collision state to the
    unfused reference on the same pair list -- pinned by a unit test.
    """
    if rng is None:
        raise ConfigurationError("fused_select_collide requires rng")
    a, b = rpairs.first, rpairs.second
    n_pairs = rpairs.n_pairs
    scratch = particles.scratch

    def buf(name, dtype=np.float64, n=n_pairs):
        if scratch is not None:
            return scratch.array(name, n, dtype=dtype)
        return np.empty(n, dtype=dtype)

    needs_speed = (
        not freestream.is_near_continuum and model.speed_exponent != 0.0
    )
    if needs_speed:
        u0, u1 = buf("fs_u0"), buf("fs_u1")
        v0, v1 = buf("fs_v0"), buf("fs_v1")
        w0, w1 = buf("fs_w0"), buf("fs_w1")
        np.take(particles.u, a, out=u0, mode="clip")
        np.take(particles.u, b, out=u1, mode="clip")
        np.take(particles.v, a, out=v0, mode="clip")
        np.take(particles.v, b, out=v1, mode="clip")
        np.take(particles.w, a, out=w0, mode="clip")
        np.take(particles.w, b, out=w1, mode="clip")

    draws = buf("fs_draws")
    if freestream.is_near_continuum:
        # The lambda -> 0 validation limit: every candidate collides.
        # The acceptance draws are still consumed (the stream position
        # is part of the trajectory), but no pair needs selecting.
        rng.random(out=draws)
        probability_sum = float(n_pairs)
        n_acc = n_pairs
        a_rows, b_rows = a, b
    else:
        prob = buf("fs_prob")
        density_table = density_lookup_table(cell_counts, volume_fractions)
        np.take(density_table, rpairs.cell, out=prob, mode="clip")
        prob *= freestream.collision_probability / freestream.density
        if needs_speed:
            # Only the speed-dependent models need the relative speed;
            # reuse the gathered components without destroying them.
            du, dv, dw = buf("fs_du"), buf("fs_dv"), buf("fs_dw")
            np.subtract(u0, u1, out=du)
            np.subtract(v0, v1, out=dv)
            np.subtract(w0, w1, out=dw)
            du *= du
            dv *= dv
            dw *= dw
            du += dv
            du += dw
            g = np.sqrt(du, out=du)
            g_ref = np.sqrt(2.0) * freestream.mean_speed
            prob *= model.speed_factor(g, g_ref)
        np.minimum(prob, 1.0, out=prob)
        rng.random(out=draws)
        accept = buf("fs_accept", dtype=bool)
        np.less(draws, prob, out=accept)
        probability_sum = float(prob.sum())
        accepted = np.flatnonzero(accept)
        n_acc = accepted.shape[0]
        a_rows = buf("fs_arows", dtype=np.intp, n=n_acc)
        b_rows = buf("fs_brows", dtype=np.intp, n=n_acc)
        np.take(a, accepted, out=a_rows, mode="clip")
        np.take(b, accepted, out=b_rows, mode="clip")
    t_boundary = time.perf_counter()

    if needs_speed:
        # Accepted-subset gathers from the pair-aligned arrays already
        # in cache: the fusion win over re-gathering the population.
        vel = [buf(name, n=n_acc) for name in (
            "fs_au0", "fs_au1", "fs_av0", "fs_av1", "fs_aw0", "fs_aw1"
        )]
        for src, dst in zip((u0, u1, v0, v1, w0, w1), vel):
            np.take(src, accepted, out=dst, mode="clip")
        stats = collide_rows_with_velocities(
            particles, a_rows, b_rows, *vel,
            rng=rng,
            internal_exchange_probability=internal_exchange_probability,
        )
    else:
        # Maxwell fast path: velocities were never gathered for the
        # probability; the collision kernel gathers just the accepted
        # rows, block by block -- an O(A) touch instead of O(P).
        stats = collide_pairs(
            particles, a_rows, b_rows,
            rng=rng,
            internal_exchange_probability=internal_exchange_probability,
        )
    return FusedSelectCollideResult(
        n_candidates=n_pairs,
        n_collisions=stats.n_collisions,
        probability_sum=probability_sum,
        t_boundary=t_boundary,
    )
