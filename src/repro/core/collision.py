"""The collision algorithm (sub-step 4; eqs. (9)-(18) of the paper).

The outcome of a collision of two perfect diatomic molecules is "for
each particle, a new velocity and internal energy subject to the
constraints of conservation of linear momentum and energy".  Rotational
energy is carried by a rotational velocity vector r with
``E_rot = 1/2 m r.r`` (eq. (9)); a diatomic r has two components.

**The five values.**  "One begins by computing the relative and mean
pre-collision velocity components for each collision partner"
(eqs. (12)-(15)).  With m1 = m2 = m define, per component,

    mean:           W  = (c1 + c2) / 2       (3 translational)
                    S  = (r1 + r2) / 2       (2 rotational)
    half-relative:  h  = (c1 - c2) / 2       (3 translational)
                    hq = (r1 - r2) / 2       (2 rotational)

Momentum conservation fixes W' = W (eq. (14)-(15)); the paper's
assumption (eqs. (16)-(17)) additionally carries the rotational mean S
through the collision unchanged.  Substituting into energy conservation
(eqs. (10)-(11)) collapses both constraints into the single equation
(18):

    |h'|^2 + |hq'|^2 = |h|^2 + |hq|^2

i.e. the *norm of the five-element half-relative vector is conserved*,
and "any post-collision values that satisfy (18) are valid".  The
implementation uses exactly the paper's choice: re-order the five
pre-collision values by the particle's permutation vector and give every
element a random, equally probable sign; then "for the first particle
the new relative velocity is added to the mean velocity and for the
second particle the relative velocity is subtracted from the mean
velocity":

    c1' = W + h'[0:3]    c2' = W - h'[0:3]
    r1' = S + h'[3:5]    r2' = S - h'[3:5]

Momentum and energy are conserved *exactly* (to rounding), and repeated
collisions equidistribute energy over all five degrees of freedom --
the stationary state satisfies classical equipartition (<c_x'^2> =
<r_j^2>), which the property tests verify.

This module is the float64 reference; the CM engine re-implements the
same arithmetic in Q8.23 fixed point where the divisions by two above
are exactly the truncation hazard the paper's stochastic rounding fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.particles import ParticleArrays, ScratchBuffers
from repro.errors import ConfigurationError
from repro.rng import random_signs

#: Pairs per block of the collision core: its pooled temporaries are
#: sized by this, not by the number of colliding pairs.
BLOCK = 8192


@dataclass(frozen=True)
class CollisionStats:
    """Bookkeeping from one collision sub-step."""

    n_collisions: int
    energy_exchanged: float  # |translational energy change| summed over pairs


def collide_pairs(
    particles: ParticleArrays,
    first: np.ndarray,
    second: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
    internal_exchange_probability: float = 1.0,
) -> CollisionStats:
    """Collide the given (first[i], second[i]) pairs, in place.

    Parameters
    ----------
    particles:
        The population (velocities, rotational state and permutation
        vectors are updated in place).
    first, second:
        Disjoint addresses of the colliding pairs (the accepted
        candidate pairs from the selection rule).
    rng:
        Source for the random signs and the permutation-refresh
        transpositions when they are not supplied explicitly.
    signs:
        Optional ``(n_pairs, k)`` array of +-1 (the CM engine feeds
        quick-and-dirty bits here).
    transpositions:
        Optional ``(2 * n_pairs,)`` swap indices for refreshing first
        then second partners' permutation vectors.
    internal_exchange_probability:
        The Future-Work relaxation knob (see
        :class:`repro.physics.molecules.MolecularModel`): with this
        probability a pair's internal components join the five-element
        shuffle; otherwise only the three translational half-relative
        components are re-ordered among themselves (drawn from ``rng``;
        energy and momentum are conserved either way).  1.0 (default)
        is the paper's fully mixing model.

    Returns per-step collision statistics.
    """
    a = np.asarray(first)
    b = np.asarray(second)
    if a.shape != b.shape:
        raise ConfigurationError("first/second shapes differ")
    if a.shape[0] == 0:
        return CollisionStats(n_collisions=0, energy_exchanged=0.0)
    return _collide(
        particles, _pool(particles), a, b, [], [],
        rng, signs, transpositions, internal_exchange_probability,
        in_place=False,
    )


def collide_adjacent_pairs(
    particles: ParticleArrays,
    pair_index: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
    internal_exchange_probability: float = 1.0,
) -> CollisionStats:
    """Collide pairs of *adjacent* rows ``(2i, 2i+1)``, in place.

    After the cell sort, even/odd pairing makes every collision pair a
    pair of adjacent addresses.  ``pair_index`` holds the indices ``i``
    of the accepted pairs, collided as rows ``(2i, 2i+1)`` by
    :func:`collide_pairs`; ``None`` means *all* ``n // 2`` formed
    pairs collide (the reservoir mix after an in-place re-pairing
    shuffle), which needs no gathers at all -- the kernel reads and
    writes strided views of the particle columns.

    Physics identical to :func:`collide_pairs`; the equivalence is
    pinned by a unit test.
    """
    pool = _pool(particles)
    if pair_index is None:
        m = particles.n // 2
        if m == 0:
            return CollisionStats(n_collisions=0, energy_exchanged=0.0)
        rows = pool.arange(2 * m)
        cols = _columns(particles)
        return _collide(
            particles, pool, rows[0::2], rows[1::2],
            [col[0 : 2 * m : 2] for col in cols],
            [col[1 : 2 * m : 2] for col in cols],
            rng, signs, transpositions, internal_exchange_probability,
            in_place=True,
        )
    pair_index = np.asarray(pair_index)
    m = pair_index.shape[0]
    if m == 0:
        return CollisionStats(n_collisions=0, energy_exchanged=0.0)
    a = np.multiply(pair_index, 2, out=pool.array("adj_a", m, dtype=np.intp))
    b = np.add(a, 1, out=pool.array("adj_b", m, dtype=np.intp))
    return collide_pairs(
        particles, a, b,
        rng=rng, signs=signs, transpositions=transpositions,
        internal_exchange_probability=internal_exchange_probability,
    )


def collide_rows_with_velocities(
    particles: ParticleArrays,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
    internal_exchange_probability: float = 1.0,
) -> CollisionStats:
    """Collide arbitrary row pairs whose velocities are already gathered.

    The entry point for callers that *already* gathered each pair's
    translational velocity components (the speed-dependent selection
    rule needs them for the relative speed): this variant accepts the
    pre-gathered ``u0/u1``, ``v0/v1``, ``w0/w1`` arrays (one entry per
    accepted pair, aligned with ``a_rows``/``b_rows``) and only gathers
    what selection never touched: rotational state and permutation
    vectors.  Otherwise identical to :func:`collide_pairs`; the input
    velocity arrays are not modified.
    """
    a = np.asarray(a_rows)
    b = np.asarray(b_rows)
    if a.shape != b.shape:
        raise ConfigurationError("a_rows/b_rows shapes differ")
    m = a.shape[0]
    if m == 0:
        return CollisionStats(n_collisions=0, energy_exchanged=0.0)
    return _collide(
        particles, _pool(particles), a, b, [u0, v0, w0], [u1, v1, w1],
        rng, signs, transpositions, internal_exchange_probability,
        in_place=False,
    )


def _pool(particles: ParticleArrays) -> ScratchBuffers:
    """The particles' scratch pool, or a throwaway one without scratch."""
    if particles.scratch is not None:
        return particles.scratch
    return ScratchBuffers(slack=0.0)


def _columns(particles: ParticleArrays) -> list:
    """The k per-component state columns (u, v, w, rot[:, j]) as views."""
    rot = particles.rot
    return [particles.u, particles.v, particles.w] + [
        rot[:, j] for j in range(particles.rotational_dof)
    ]


def _collide(
    particles: ParticleArrays,
    pool: ScratchBuffers,
    a: np.ndarray,
    b: np.ndarray,
    c0: list,
    c1: list,
    rng: Optional[np.random.Generator],
    signs: Optional[np.ndarray],
    transpositions: Optional[np.ndarray],
    internal_exchange_probability: float,
    in_place: bool,
) -> CollisionStats:
    """The shared eqs. (12)-(18) core of every collision kernel.

    ``c0``/``c1`` hold the state components of the first/second
    partners of the pairs in rows ``a``/``b``.  With ``in_place`` they
    are all k components (u, v, w, rot...) as views of the particle
    columns, and receive the post-collision state.  Otherwise they are
    empty or the three velocities the caller already gathered; the
    rest of the state is gathered block by block, and the result is
    scattered to rows ``a``/``b``.

    Every random draw is made up front, in the reference order --
    signs, the optional internal-exchange draws, transpositions -- and
    the arithmetic then runs over blocks of :data:`BLOCK` pairs whose
    temporaries live in the particles' scratch pool (names ``col_*``).
    A warm call therefore allocates only the signs and transpositions
    it draws (``Generator.integers`` has no ``out=``), and the pool
    stays block-sized however many pairs collide.  Each pair's
    arithmetic is elementwise, so blocking is bitwise invisible; the
    per-pair energy changes are summed once, at the end.
    """
    m = a.shape[0]
    k = 3 + particles.rotational_dof
    if signs is not None:
        signs = np.asarray(signs)
        if signs.shape != (m, k):
            raise ConfigurationError(f"signs must have shape {(m, k)}")
    elif rng is None:
        raise ConfigurationError("need rng or explicit signs")
    if transpositions is not None:
        transpositions = np.asarray(transpositions)
        if transpositions.shape != (2 * m,):
            raise ConfigurationError("need 2 * n_pairs transposition draws")
    elif rng is None:
        raise ConfigurationError("need rng or explicit transpositions")
    if internal_exchange_probability < 1.0 and rng is None:
        raise ConfigurationError(
            "internal_exchange_probability < 1 requires rng"
        )

    if signs is None:
        signs = random_signs(rng, (m, k))
    frozen = None
    if internal_exchange_probability < 1.0:
        # Pairs that keep their internal state: a translational-only
        # outcome (uniform 3-permutation of the translational
        # half-relatives, fresh signs) drawn here for all of them.
        frozen = rng.random(m) >= internal_exchange_probability
        nf = int(np.count_nonzero(frozen))
        if nf:
            trans_perm = np.argsort(rng.random((nf, 3)), axis=1)
            trans_signs = random_signs(rng, (nf, 3))
        else:
            frozen = None
    if transpositions is None:
        transpositions = rng.integers(0, k, size=2 * m)

    de = pool.array("col_de", m)
    f0 = 0
    for s in range(0, m, BLOCK):
        e = min(s + BLOCK, m)
        frozen_block = None
        if frozen is not None:
            mask = frozen[s:e]
            f1 = f0 + int(np.count_nonzero(mask))
            if f1 > f0:
                frozen_block = (mask, trans_perm[f0:f1], trans_signs[f0:f1])
            f0 = f1
        _collide_block(
            particles, pool, a[s:e], b[s:e],
            [c[s:e] for c in c0], [c[s:e] for c in c1],
            signs[s:e], frozen_block,
            transpositions[s:e], transpositions[m + s : m + e],
            de[s:e], in_place,
        )
    return CollisionStats(n_collisions=m, energy_exchanged=float(de.sum()))


def _collide_block(
    particles: ParticleArrays,
    pool: ScratchBuffers,
    a: np.ndarray,
    b: np.ndarray,
    c0: list,
    c1: list,
    signs: np.ndarray,
    frozen: Optional[tuple],
    js_a: np.ndarray,
    js_b: np.ndarray,
    de: np.ndarray,
    in_place: bool,
) -> None:
    """One block of :func:`_collide`; writes ``|dE_trans|`` per pair to ``de``."""
    n = a.shape[0]
    rdof = particles.rotational_dof
    k = 3 + rdof
    if not in_place:
        # Gather what the caller has not: 1-D takes per velocity
        # component (fancy row indexing is ~5x slower), then one row
        # take of the rotational state, which touches each pair's cache
        # line once.  "wrap" keeps NumPy's negative-index meaning.
        if not c0:
            g0 = pool.array("col_g0", 3 * n).reshape(3, n)
            g1 = pool.array("col_g1", 3 * n).reshape(3, n)
            for j, col in enumerate((particles.u, particles.v, particles.w)):
                np.take(col, a, mode="wrap", out=g0[j])
                np.take(col, b, mode="wrap", out=g1[j])
            c0, c1 = list(g0), list(g1)
        r0, r1 = (
            np.take(
                particles.rot, rows, axis=0, mode="wrap",
                out=pool.array(name, n, width=rdof),
            )
            for name, rows in (("col_r0", a), ("col_r1", b))
        )
        c0 = c0 + [r0[:, j] for j in range(rdof)]
        c1 = c1 + [r1[:, j] for j in range(rdof)]

    # Half-relatives (eqs. (12)-(15)), built component-major: every
    # per-component slice below is a contiguous row, not a strided
    # column.
    ht = pool.array("col_ht", k * n).reshape(k, n)
    for j in range(k):
        np.subtract(c0[j], c1[j], out=ht[j])
    ht *= 0.5

    # Re-order by the first partner's permutation vector ("which one
    # gets used is inconsequential") as one flat take over the (k, n)
    # block -- htn[j, i] = ht[perm[i, j], i] at flat position
    # perm[i, j] * n + i; a C-ordered index keeps the take streaming.
    perm = particles.perm
    prow = np.take(
        perm, a, axis=0, mode="wrap",
        out=pool.array("col_perm", n, dtype=perm.dtype, width=k),
    )
    # Sized for the transposition offsets below too (4n >= kn at k = 3).
    idx_buf = pool.array("col_idx", max(k, 4) * n, dtype=np.intp)
    idx = idx_buf[: k * n].reshape(k, n)
    np.multiply(prow.T, n, out=idx, dtype=np.intp)
    idx += pool.arange(n)
    htn = pool.array("col_htn", k * n).reshape(k, n)
    np.take(ht.reshape(-1), idx, out=htn, mode="clip")
    # ... and give every element a random, equally probable sign.
    np.multiply(htn, signs.T, out=htn, casting="unsafe")
    if frozen is not None:
        mask, trans_perm, trans_signs = frozen
        rows = np.arange(trans_perm.shape[0])[:, None]
        h_trans = ht[:3, mask].T[rows, trans_perm]
        h_trans *= trans_signs
        htn[:3, mask] = h_trans.T
        htn[3:, mask] = ht[3:, mask]

    # |translational energy change| per pair; ht is spent after this,
    # so its rows hold the squares and then the reconstruction values.
    e_before = _energy3(ht, ht[0], ht[1])
    e_after = _energy3(htn, ht[1], ht[2])
    np.abs(np.subtract(e_after, e_before, out=de), out=de)

    # Reconstruct post-collision states: the conserved mean (eqs.
    # (14)-(17)), recomputed per component, +- the new half-relative.
    mean, out = ht[0], ht[1]
    cols = None if in_place else _columns(particles)
    for j in range(k):
        np.add(c0[j], c1[j], out=mean)
        mean *= 0.5
        if in_place:
            np.add(mean, htn[j], out=c0[j])
            np.subtract(mean, htn[j], out=c1[j])
        else:
            cols[j][a] = np.add(mean, htn[j], out=out)
            cols[j][b] = np.subtract(mean, htn[j], out=out)

    # Refresh both partners' permutation vectors with one random
    # transposition each (the Aldous-Diaconis shuffle step); a and b
    # are disjoint, so one pass over both is exact.
    rows, js = idx_buf[: 2 * n], idx_buf[2 * n : 4 * n]
    rows[:n] = a
    rows[n:] = b
    js[:n] = js_a
    js[n:] = js_b
    _transpose_rows(perm, rows, js, pool)


def _energy3(h: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``h[0]**2 + h[1]**2 + h[2]**2`` into ``out`` (same rounding)."""
    np.multiply(h[0], h[0], out=out)
    out += np.multiply(h[1], h[1], out=tmp)
    out += np.multiply(h[2], h[2], out=tmp)
    return out


def _transpose_rows(
    perm: np.ndarray, rows: np.ndarray, js: np.ndarray, pool: ScratchBuffers
) -> None:
    """Swap element js[i] with element 0 in perm[rows[i]], vectorized.

    ``rows`` may repeat only if the repeats carry identical swaps; the
    collision pairing guarantees disjoint rows within each call.  On
    the contiguous path ``rows`` and ``js`` are overwritten (with the
    flat offsets of each row's first and swapped element).
    """
    if perm.flags.c_contiguous:
        # 1-D flattened swap: fancy indexing with a single index array
        # beats the (rows, js) double-index path on every op here.
        n = rows.shape[0]
        flat = perm.reshape(-1)
        i0 = np.multiply(rows, perm.shape[1], out=rows)
        ij = np.add(js, i0, out=js)
        at_j = np.take(
            flat, ij, mode="wrap",
            out=pool.array("col_swap_j", n, dtype=perm.dtype),
        )
        flat[ij] = np.take(
            flat, i0, mode="wrap",
            out=pool.array("col_swap_0", n, dtype=perm.dtype),
        )
        flat[i0] = at_j
        return
    tmp = perm[rows, js].copy()
    perm[rows, js] = perm[rows, 0]
    perm[rows, 0] = tmp
