"""The wind-tunnel simulation driver (the NumPy reference engine).

Assembles the four sub-steps of the algorithm -- collisionless motion,
boundary enforcement, collision-partner selection (cell indexing +
randomized sort + even/odd pairing + selection rule) and collision --
into the paper's time-stepping loop, with the reservoir running its
self-collisions on the side and the sampler accumulating time averages
after the transient.

This driver *is* the physics-reference ("float64") engine; the CM-2
emulation engine (:mod:`repro.core.engine_cm`) runs the identical loop
in fixed point with cost accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_SORT_SCALE
from repro.core import motion
from repro.core.boundary import BoundaryStats, WindTunnelBoundaries
from repro.core.cells import assign_cells
from repro.core.collision import collide_adjacent_pairs, collide_pairs
from repro.core.pairing import (
    even_odd_pairs,
    pairing_efficiency,
    reflection_pairs,
)
from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.sampling import CellSampler
from repro.core.selection import fused_select_collide, select_collisions
from repro.core.sortstep import IncrementalSorter, sort_by_cell
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.perf import PerfLedger
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel, maxwell_molecule
from repro.rng import SeedLike, make_rng

#: Maximum rejection-sampling passes when seeding around the wedge.
#: Each pass re-draws only the offending particles (rejection fraction
#: ~ wedge area / domain area < 1/2 per pass), so 64 passes put the
#: residual probability below 2**-64 for any legal geometry; a failure
#: to converge indicates a broken geometry and raises.
SEED_REJECTION_PASSES = 64


def seed_flow_particles(
    config: "SimulationConfig",
    rng: np.random.Generator,
    volume_fractions: Optional[np.ndarray] = None,
) -> ParticleArrays:
    """Fill the open region at freestream density (rejection sample).

    The seeding recipe shared by :class:`Simulation` and the ensemble
    engine (:mod:`repro.ensemble`): the draw order is part of the
    determinism contract -- velocities, rotational state, positions,
    permutation table, then the wedge rejection re-draws -- so a given
    ``rng`` state always yields the same population bitwise.

    ``volume_fractions`` is the (flattened or gridded) open-area field;
    derived from the config when omitted.
    """
    if volume_fractions is None:
        if config.wedge is not None:
            volume_fractions = config.wedge.open_volume_fractions(
                config.domain
            )
        else:
            volume_fractions = np.ones(config.domain.shape)
    open_area = float(np.asarray(volume_fractions).sum())
    n_target = int(round(config.freestream.density * open_area))
    parts = ParticleArrays.from_freestream(
        rng,
        n_target,
        config.freestream,
        x_range=(0.0, config.domain.width),
        y_range=(0.0, config.domain.height),
        rotational_dof=config.model.rotational_dof,
    )
    if config.wedge is None:
        return parts
    # Rejection passes: re-draw positions of particles that landed
    # inside the wedge until none remain (area ratio ~0.97 per pass).
    for _ in range(SEED_REJECTION_PASSES):
        bad = config.wedge.inside(parts.x, parts.y)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            break
        parts.x[bad] = rng.uniform(0.0, config.domain.width, size=n_bad)
        parts.y[bad] = rng.uniform(0.0, config.domain.height, size=n_bad)
    # Never hand back a population with particles embedded in the
    # solid: a run started from such a state silently corrupts the
    # early flow field (phantom wedge-interior collisions and bogus
    # surface loads).
    n_bad = int(np.count_nonzero(config.wedge.inside(parts.x, parts.y)))
    if n_bad:
        raise ConfigurationError(
            f"flow seeding failed to converge: {n_bad} particles "
            f"remain inside the wedge after {SEED_REJECTION_PASSES} "
            "rejection passes (is the open area a vanishing "
            "fraction of the domain?)"
        )
    return parts


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to define a wind-tunnel run.

    The defaults reproduce a scaled version of the paper's validation
    configuration: Mach 4 flow over a 30-degree wedge (leading edge 20
    cells in, 25-cell base) on a 98 x 64 grid.

    Parameters
    ----------
    domain, freestream, wedge:
        The tunnel, the oncoming stream, and the body (``None`` for an
        empty tunnel).  ``wedge`` accepts any body implementing the
        :mod:`repro.geometry.bodies` seam (:class:`Wedge`,
        :class:`~repro.geometry.bodies.Cylinder`,
        :class:`~repro.geometry.bodies.Step`); the field keeps its
        historical name for compatibility.
    model:
        Molecular model (Maxwell diatomic by default).
    sort_scale:
        Randomization factor of the sort keys (1 disables mixing; the
        ablation configuration).
    sort_kernel:
        Hot-path ordering kernel: ``"incremental"`` (default) maintains
        an indexed cell-contiguous order across steps (temporal
        coherence; host-performance mode), ``"counting"`` physically
        re-sorts every step with the fused counting sort (the
        paper-faithful CM-2 rank-sort analogue, bitwise identical to
        the pre-incremental engine), ``"scaled-key"`` the legacy wide
        argsort.  ``hotpath=False`` runs always use ``"scaled-key"``.
    plunger_trigger:
        Upstream plunger withdrawal point, cell widths.
    reservoir_fraction:
        Initial reservoir population as a fraction of the flow
        population (the paper idles ~10% of its particles there).
    reservoir_mix_rounds:
        Reservoir self-collision rounds per step.
    seed:
        Master seed; every sub-stream derives from it.
    wall_model:
        Tunnel floor/ceiling gas-surface model (see
        :data:`repro.core.boundary.WALL_MODELS`); the paper's inviscid
        "specular" by default.
    accommodation:
        Maxwell-model accommodation coefficient (only the "maxwell"
        wall model reads it).
    scenario:
        Registry id of the scenario this config was built from
        (``None`` for hand-assembled configs).  Pure metadata: carried
        into snapshots and telemetry, never read by the physics.
    """

    domain: Domain = field(default_factory=Domain)
    freestream: Freestream = field(default_factory=Freestream)
    wedge: Optional[Wedge] = field(default_factory=Wedge)
    model: MolecularModel = field(default_factory=maxwell_molecule)
    sort_scale: int = DEFAULT_SORT_SCALE
    sort_kernel: str = "incremental"
    plunger_trigger: float = 4.0
    reservoir_fraction: float = 0.1
    reservoir_mix_rounds: int = 1
    seed: SeedLike = None
    wall_model: str = "specular"
    accommodation: float = 1.0
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.wedge is not None:
            self.wedge.validate_in(self.domain)
            if isinstance(self.wedge, Wedge):
                self._warn_if_detached()
        if not 0.0 <= self.reservoir_fraction <= 1.0:
            raise ConfigurationError("reservoir_fraction must be in [0, 1]")
        if self.reservoir_mix_rounds < 0:
            raise ConfigurationError("reservoir_mix_rounds must be >= 0")
        if self.sort_kernel not in ("incremental", "counting", "scaled-key"):
            raise ConfigurationError(
                f"unknown sort_kernel {self.sort_kernel!r}; expected "
                "'incremental', 'counting' or 'scaled-key'"
            )
        self.freestream.check_selection_rule_validity()

    def _warn_if_detached(self) -> None:
        """Warn when the wedge angle detaches the shock at this Mach.

        Detached (bow-shock) flows simulate fine, but the theta-beta-M
        validation metrology assumes an attached oblique shock, so the
        configuration flags the regime change instead of letting the
        analysis fail mysteriously later.
        """
        import math
        import warnings

        from repro.physics import theory

        try:
            m_min = theory.minimum_attachment_mach(
                math.radians(self.wedge.angle_deg), self.freestream.gamma
            )
        except ConfigurationError:
            m_min = float("inf")
        if self.freestream.mach < m_min:
            warnings.warn(
                f"Mach {self.freestream.mach:g} is below the attachment "
                f"limit {m_min:.2f} for a {self.wedge.angle_deg:g} deg "
                "wedge: expect a detached bow shock (oblique-shock "
                "metrology will not apply)",
                stacklevel=3,
            )


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step observability: what the step did and what it conserved."""

    step: int
    n_flow: int
    n_reservoir: int
    n_candidates: int
    n_collisions: int
    pairing_efficiency: float
    mean_collision_probability: float
    boundary: BoundaryStats
    total_energy: float
    momentum_x: float
    #: Fraction of flow particles whose cell changed this step
    #: (``None`` outside the incremental sort kernel).
    sort_moved_fraction: Optional[float] = None
    #: Full order rebuilds performed this step: 0/1 serially, up to the
    #: worker count on sharded runs (``None`` outside the incremental
    #: kernel).
    sort_rebuilds: Optional[int] = None
    #: Wall-clock seconds by phase for this step (from the perf ledger;
    #: ``None`` when the ledger is disabled).
    phase_seconds: Optional[dict] = None
    #: Recovery events absorbed on the way to this (completed) step --
    #: a tuple of :class:`repro.resilience.supervisor.RecoveryEvent` --
    #: set only by supervised execution; ``None`` on an undisturbed step.
    recovery: Optional[tuple] = None


class SerialBackend:
    """In-process execution of the step loop on the whole domain.

    The default backend: one worker (this process) owns every cell and
    the master RNG stream.  The sharded backend
    (:class:`repro.parallel.backend.ShardedBackend`) implements the same
    four-method seam -- ``bind`` / ``step`` / ``gather`` / ``close`` --
    over slab-decomposed worker processes; :class:`Simulation` only ever
    talks to the seam.
    """

    #: Worker count the backend runs with (diagnostic; 1 for serial).
    n_workers = 1

    def bind(self, sim: "Simulation") -> "SerialBackend":
        """Attach to a fully constructed simulation (no-op serially)."""
        return self

    def gather(self, sim: "Simulation") -> None:
        """Make ``sim.particles``/samplers current (no-op serially)."""

    def close(self) -> None:
        """Release backend resources (no-op serially)."""

    def step(self, sim: "Simulation", sample: bool = False) -> StepDiagnostics:
        """Advance ``sim`` by one time step."""
        cfg = sim.config
        parts = sim.particles
        perf = sim.perf

        # 1+2) Collisionless motion, then boundary conditions (may
        #    rebuild the population arrays).  One perf phase: the paper
        #    reports "particle motion and boundary interaction" as a
        #    single 14% line item.  Surface loads accumulate only
        #    during sampling steps.
        with perf.phase("motion"):
            motion.advance(parts)
            sim.boundaries.surface_sampler = (
                sim.surface if (sample and sim.surface is not None) else None
            )
            parts, bstats = sim.boundaries.apply_rebuilding(
                parts, sim.reservoir, sim.rng
            )

        sort_moved_fraction = None
        sort_rebuilds = None
        if sim.sort_state is not None:
            # 3a-inc) Temporal-coherence path: cell indexing + mover
            #    detection are the "index" phase (outside the paper's
            #    four-phase split); "sort" is only the order
            #    maintenance -- merge repair or narrow-key rebuild plus
            #    the histogram refresh.  No particle data moves.
            with perf.phase("index"):
                assign_cells(parts, cfg.domain)
                sim.sort_state.detect(parts)
            with perf.phase("sort"):
                sres = sim.sort_state.update(parts)
            sort_moved_fraction = sres.moved_fraction
            sort_rebuilds = 1 if sres.rebuilt else 0

            # 3b+4-inc) Reflection pairing, then the fused selection/
            #    collision pass.  The fused kernel hands back the
            #    timestamp of its internal selection/collision boundary
            #    so the ledger keeps the paper's two line items.
            t_sel0 = time.perf_counter()
            rpairs = reflection_pairs(
                sres.order, sres.counts, sres.offsets, sim.rng,
                scratch=parts.scratch,
            )
            fused = fused_select_collide(
                parts,
                rpairs,
                cfg.freestream,
                cfg.model,
                sres.counts,
                volume_fractions=sim._vf_flat,
                rng=sim.rng,
                internal_exchange_probability=(
                    cfg.model.internal_exchange_probability
                ),
            )
            t_end = time.perf_counter()
            perf.record("selection", fused.t_boundary - t_sel0)
            perf.record("collision", t_end - fused.t_boundary)
            if perf.enabled and perf.tracer is not None:
                perf.tracer.record("selection", t_sel0, fused.t_boundary)
                perf.tracer.record("collision", fused.t_boundary, t_end)

            n_candidates = rpairs.n_pairs
            n_collisions = fused.n_collisions
            pair_eff = (
                rpairs.n_pairs / (parts.n // 2) if parts.n >= 2 else 0.0
            )
            mean_p = (
                fused.probability_sum / rpairs.n_pairs
                if rpairs.n_pairs else 0.0
            )
        else:
            # 3a) Cell indexing + the fused counting sort: one kernel
            #    yields the sorted order *and* the per-cell histogram
            #    the selection rule needs (no separate bincount pass).
            with perf.phase("sort"):
                assign_cells(parts, cfg.domain)
                kernel = "scaled-key"
                if sim.hotpath and cfg.sort_kernel != "incremental":
                    kernel = cfg.sort_kernel
                elif sim.hotpath:
                    kernel = "counting"
                sort_res = sort_by_cell(
                    parts, rng=sim.rng, scale=cfg.sort_scale,
                    n_cells=cfg.domain.n_cells,
                    kernel=kernel,
                )
                counts = sort_res.counts

            # 3b) Pairing + the selection rule.
            with perf.phase("selection"):
                pairs = even_odd_pairs(parts.cell, scratch=parts.scratch)
                if parts.scratch is not None:
                    draws = parts.scratch.array("sel_draws", pairs.n_pairs)
                    sim.rng.random(out=draws)
                else:
                    draws = None
                selection = select_collisions(
                    parts,
                    pairs,
                    cfg.freestream,
                    cfg.model,
                    counts,
                    volume_fractions=sim._vf_flat,
                    rng=sim.rng,
                    draws=draws,
                )

            # 4) Collision of selected partners.  Sorted even/odd pairs
            #    are adjacent rows, so the hot path collides contiguous
            #    two-row blocks instead of gather/scatter by address.
            with perf.phase("collision"):
                if sim.hotpath and pairs.adjacent:
                    collide_adjacent_pairs(
                        parts,
                        np.flatnonzero(selection.accept),
                        rng=sim.rng,
                        internal_exchange_probability=(
                            cfg.model.internal_exchange_probability
                        ),
                    )
                else:
                    first = pairs.first[selection.accept]
                    second = pairs.second[selection.accept]
                    collide_pairs(
                        parts,
                        first,
                        second,
                        rng=sim.rng,
                        internal_exchange_probability=(
                            cfg.model.internal_exchange_probability
                        ),
                    )
            cand = pairs.same_cell
            n_candidates = pairs.n_candidates
            n_collisions = selection.n_collisions
            pair_eff = pairing_efficiency(pairs)
            mean_p = (
                float(selection.probability[cand].mean())
                if cand.any() else 0.0
            )

        # Side work: the reservoir Gaussianizes itself.  Charged to its
        # own phase -- the paper's four-phase split does not include it.
        if cfg.reservoir_mix_rounds:
            with perf.phase("reservoir"):
                sim.reservoir.mix(sim.rng, rounds=cfg.reservoir_mix_rounds)

        sim.particles = parts
        sim.step_count += 1
        if sample:
            sim.sampler.accumulate(parts)
            if sim.surface is not None:
                sim.surface.end_step()
            for probe in sim.probes:
                probe.sample(parts)

        perf.end_step(n_particles=parts.n)
        return StepDiagnostics(
            step=sim.step_count,
            n_flow=parts.n,
            n_reservoir=sim.reservoir.size,
            n_candidates=n_candidates,
            n_collisions=n_collisions,
            pairing_efficiency=pair_eff,
            mean_collision_probability=mean_p,
            boundary=bstats,
            total_energy=parts.total_energy(),
            momentum_x=float(parts.u.sum()),
            sort_moved_fraction=sort_moved_fraction,
            sort_rebuilds=sort_rebuilds,
            phase_seconds=perf.last_step_seconds if perf.enabled else None,
        )


class Simulation:
    """The reference wind-tunnel simulation.

    Typical use::

        sim = Simulation(SimulationConfig(seed=7))
        sim.run(300)                  # transient to steady state
        sim.run(400, sample=True)     # accumulate the time average
        rho = sim.sampler.density_ratio(sim.config.freestream.density)

    ``backend`` selects the execution engine: ``None`` (the default)
    steps in-process via :class:`SerialBackend`; a
    :class:`repro.parallel.backend.ShardedBackend` decomposes the grid
    into x-slabs and steps them on worker processes.

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` hub:
    every completed step feeds it diagnostics (metrics, spans, physics
    observables), and sharded backends allocate shared-memory span
    rings for their workers when one is present at bind time.
    """

    def __init__(
        self,
        config: SimulationConfig,
        hotpath: bool = True,
        backend=None,
        telemetry=None,
    ) -> None:
        self._init_static(config, hotpath, telemetry)
        # The population: the draw order (flow seeding, then the
        # reservoir deposit) is part of the determinism contract.
        self.particles = seed_flow_particles(config, self.rng, self._vf_flat)
        n_res = int(round(config.reservoir_fraction * self.particles.n))
        self.reservoir.deposit(self.rng, n_res)
        assign_cells(self.particles, config.domain)
        self._bind(backend)

    @classmethod
    def _restore_shell(
        cls,
        config: SimulationConfig,
        particles: ParticleArrays,
        reservoir_particles: ParticleArrays,
    ) -> "Simulation":
        """A serial simulation around archived populations, never seeded.

        :func:`repro.io.snapshots.load_simulation` then restores the RNG
        state, plunger phase, step count and accumulators.
        """
        sim = cls.__new__(cls)
        sim._init_static(config, True, None)
        sim.particles = particles
        sim.reservoir.particles = reservoir_particles
        sim._bind(None)
        return sim

    def _init_static(self, config, hotpath, telemetry) -> None:
        """Build everything but the particle populations and the backend."""
        self.config = config
        self.rng = make_rng(config.seed)
        self.step_count = 0
        #: Telemetry hub (set before the backend binds so sharded
        #: backends can size their worker span rings; ``None`` disables
        #: all telemetry at zero per-step cost).
        self.telemetry = telemetry
        #: ``hotpath=False`` runs the legacy allocating kernels
        #: (argsort of wide scaled keys, gather/scatter collisions,
        #: full-array boundary passes) -- the pre-overhaul baseline the
        #: hot-path benchmark compares against, and a fallback should a
        #: fused kernel ever be in doubt.
        self.hotpath = bool(hotpath)
        #: Per-phase wall-clock ledger (the paper's motion/sort/
        #: selection/collision split, measured).
        self.perf = PerfLedger()

        # Fractional cell volumes (the selection rule and the sampler
        # both need them when a wedge cuts the grid).
        if config.wedge is not None:
            self.volume_fractions = config.wedge.open_volume_fractions(
                config.domain
            )
        else:
            self.volume_fractions = np.ones(config.domain.shape)
        self._vf_flat = self.volume_fractions.reshape(-1)

        self.boundaries = WindTunnelBoundaries(
            domain=config.domain,
            freestream=config.freestream,
            wedge=config.wedge,
            plunger_trigger=config.plunger_trigger,
            wall_model=config.wall_model,
            accommodation=config.accommodation,
        )
        self.reservoir = Reservoir(
            config.freestream, rotational_dof=config.model.rotational_dof
        )
        self.sampler = CellSampler(config.domain, self.volume_fractions)
        #: Surface-load accumulator (pressure / drag on the wedge);
        #: armed only during sampling steps so its averages align with
        #: the field averages.  Strip-resolved surface metrology is
        #: wedge-specific; other bodies run without it.
        if isinstance(config.wedge, Wedge):
            from repro.core.surface import SurfaceSampler

            self.surface = SurfaceSampler(config.wedge)
        else:
            self.surface = None
        #: Optional extra probes (e.g. analysis.vdf.VDFProbe); each
        #: object's ``sample(particles)`` runs on sampling steps.
        self.probes: list = []
        #: Incremental-sort state (the temporal-coherence kernel):
        #: owns the cached per-particle cell array and the canonical
        #: order permutation; ``None`` for the physical-sort kernels.
        #: Sharded backends give each worker its own sorter instead.
        if self.hotpath and config.sort_kernel == "incremental":
            self.sort_state = IncrementalSorter(config.domain.n_cells)
        else:
            self.sort_state = None

    def _bind(self, backend) -> None:
        """Arm the populations' scratch, then bind backend and telemetry."""
        if self.hotpath:
            # Hot-path and legacy populations differ in memory order
            # after in-place reorders, so a restored population must
            # take the same kernels as the saved run's.
            self.particles.enable_scratch()
            self.reservoir.particles.enable_scratch()
        #: Execution backend (the seam): bound last, once every piece of
        #: state it may need to decompose or mirror exists.
        self.backend = backend if backend is not None else SerialBackend()
        self.backend.bind(self)
        if self.telemetry is not None:
            self.telemetry.attach(self)

    # -- stepping -----------------------------------------------------------

    def step(self, sample: bool = False) -> StepDiagnostics:
        """Advance the simulation by one time step (via the backend)."""
        diag = self.backend.step(self, sample=sample)
        if self.telemetry is not None:
            self.telemetry.on_step(self, diag)
        return diag

    def gather(self) -> None:
        """Synchronize driver-side state with the backend.

        Sharded runs keep the authoritative particle population inside
        the worker shards; after ``gather()`` the driver's
        ``self.particles`` (and reservoir) reflect the current global
        state.  Serial runs are always current, so this is a no-op.
        """
        self.backend.gather(self)

    def close(self) -> None:
        """Shut down the backend (terminates sharded worker processes)."""
        self.backend.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, n_steps: int, sample: bool = False) -> StepDiagnostics:
        """Run ``n_steps`` steps; returns the final step's diagnostics."""
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        diag = None
        for _ in range(n_steps):
            diag = self.step(sample=sample)
        return diag

    # -- results ------------------------------------------------------------

    def density_ratio_field(self, correct_volumes: bool = True) -> np.ndarray:
        """Time-averaged density / freestream density, ``(nx, ny)``."""
        return self.sampler.density_ratio(
            self.config.freestream.density, correct_volumes=correct_volumes
        )
