"""Integration tests for checkpoint/restore."""

import dataclasses

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.io.snapshots import (
    _config_to_json,
    load_simulation,
    save_simulation,
)


class TestSnapshotRoundtrip:
    def test_state_restored_exactly(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(12)
        sim.run(4, sample=True)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        back = load_simulation(path)
        assert back.step_count == sim.step_count
        assert np.array_equal(back.particles.x, sim.particles.x)
        assert np.array_equal(back.particles.perm, sim.particles.perm)
        assert back.reservoir.size == sim.reservoir.size
        assert back.boundaries.plunger.position == pytest.approx(
            sim.boundaries.plunger.position
        )
        assert back.sampler.steps == sim.sampler.steps
        assert np.allclose(
            back.density_ratio_field(), sim.density_ratio_field()
        )

    def test_continuation_is_bitwise_identical(self, small_config, tmp_path):
        # Continue vs checkpoint-restore-continue: identical trajectories.
        sim = Simulation(small_config)
        sim.run(10)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        sim.run(8)
        restored.run(8)
        assert np.array_equal(sim.particles.x, restored.particles.x)
        assert np.array_equal(sim.particles.u, restored.particles.u)
        assert sim.reservoir.size == restored.reservoir.size

    def test_config_roundtrip_no_wedge(self, box_config, tmp_path):
        sim = Simulation(box_config)
        sim.run(3)
        path = tmp_path / "b.npz"
        save_simulation(sim, path)
        back = load_simulation(path)
        assert back.config.wedge is None
        assert back.config.freestream.mach == box_config.freestream.mach

    def test_version_check(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(1)
        path = tmp_path / "v.npz"
        save_simulation(sim, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np.array(999)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigurationError):
            load_simulation(path)

    def test_internal_exchange_probability_survives_restore(
        self, small_config, tmp_path
    ):
        # A restore must resume the same collision model: the partial
        # internal-relaxation knob rides in the config blob.
        cfg = dataclasses.replace(
            small_config,
            model=dataclasses.replace(
                small_config.model, internal_exchange_probability=0.5
            ),
        )
        sim = Simulation(cfg)
        sim.run(5)
        path = tmp_path / "relax.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        assert restored.config.model.internal_exchange_probability == 0.5
        sim.run(5)
        restored.run(5)
        for col in ("x", "y", "u", "v", "w", "rot"):
            assert np.array_equal(
                getattr(sim.particles, col), getattr(restored.particles, col)
            ), col
        # Default-model blobs stay byte-identical to older archives.
        assert "internal_exchange_probability" not in _config_to_json(
            small_config
        )
