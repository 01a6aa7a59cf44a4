"""Integration: batched ensembles are R solo runs, down to the bytes.

Covers the parts of the ensemble contract the per-step property test
cannot: detaching a replica into a live solo :class:`Simulation`
mid-run, resuming a solo run from a replica's on-disk checkpoint,
virtual-site (TIP4P/Ew) systems, byte-identical artifacts across
kernel tiers, and profile attribution of the ``ensemble_*`` phases.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    BerendsenThermostat,
    ForceCalculator,
    MDParams,
    Simulation,
    minimize_energy,
)
from repro.ensemble import EnsembleSimulation, derive_replica_seeds, tile_system
from repro.ewald import gse as gse_module
from repro.forcefield import TIP4PEW
from repro.io import replica_checkpoint_store, replica_trajectory_path
from repro.io.serialize import pack_state
from repro.kernels import available
from repro.systems import build_water_box

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

TEMPERATURE = 300.0


def prepared_water(n_molecules=32, model=None, seed=5):
    kwargs = {"model": model} if model is not None else {}
    base = build_water_box(n_molecules=n_molecules, seed=seed, **kwargs)
    params = MDParams(
        cutoff=min(5.5, base.box.max_cutoff() * 0.9),
        mesh=(16, 16, 16),
        long_range_every=2,
        kernel_mode="table",
    )
    minimize_energy(base, params, max_steps=30)
    return base, params


def solo_sim(base, params, seed):
    ss = base.copy()
    ss.initialize_velocities(TEMPERATURE, seed=seed)
    return Simulation(
        ss, params, dt=1.0,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
    )


def make_ensemble(base, params, seeds, tier=None):
    return EnsembleSimulation(
        base, params, dt=1.0, seeds=list(seeds), temperature=TEMPERATURE,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
        kernel_tier=tier,
    )


class TestTiling:
    def test_tile_system_layout(self):
        base, _ = prepared_water(n_molecules=8)
        tiled = tile_system(base, 3)
        n = base.n_atoms
        assert tiled.n_atoms == 3 * n
        for r in range(3):
            sl = slice(r * n, (r + 1) * n)
            np.testing.assert_array_equal(tiled.positions[sl], base.positions)
            np.testing.assert_array_equal(tiled.charges[sl], base.charges)
        assert len(tiled.exclusions.excluded) == 3 * len(base.exclusions.excluded)
        assert tiled.topology.n_bond_terms == 3 * base.topology.n_bond_terms
        assert tiled.topology.n_constraints == 3 * base.topology.n_constraints
        assert tiled.meta["ensemble_replicas"] == 3
        assert tiled.meta["ensemble_n_solo"] == n


class TestDetachResume:
    def test_detach_mid_run_continues_solo_bits(self):
        """Extract a replica at step 6; both continuations agree at 12."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(21, 3)
        ens = make_ensemble(base, params, seeds)
        ens.run(6)
        solo = ens.detach(1)
        assert solo.integrator.step_count == 6
        solo.run(6)
        ens.run(6)
        ex, ev = ens.state_codes(1)
        np.testing.assert_array_equal(ex, solo.integrator.X)
        np.testing.assert_array_equal(ev, solo.integrator.V)

    def test_solo_resume_from_replica_checkpoint_store(self, tmp_path):
        """A stock solo run restores a replica's on-disk checkpoint."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(22, 2)
        ens = make_ensemble(base, params, seeds)
        stores = [
            replica_checkpoint_store(tmp_path / "ck", r, retain=4)
            for r in range(2)
        ]
        ens.run(8, checkpoint_stores=stores, checkpoint_every=4)
        ens.run(4)  # ensemble continues past the last checkpoint

        for r in range(2):
            loaded = stores[r].load_latest()
            sim = solo_sim(base, params, seeds[r])
            sim.restore(loaded.state)
            assert sim.integrator.step_count == 8
            sim.run(4)
            ex, ev = ens.state_codes(r)
            np.testing.assert_array_equal(ex, sim.integrator.X)
            np.testing.assert_array_equal(ev, sim.integrator.V)


class TestVirtualSites:
    def test_tip4pew_ensemble_matches_solo(self):
        """Virtual-site force spreading survives the replica batch axis."""
        base, params = prepared_water(n_molecules=24, model=TIP4PEW, seed=9)
        seeds = derive_replica_seeds(31, 2)
        ens = make_ensemble(base, params, seeds)
        ens.run(6)
        for r in range(2):
            sim = solo_sim(base, params, seeds[r])
            sim.run(6)
            ex, ev = ens.state_codes(r)
            np.testing.assert_array_equal(ex, sim.integrator.X)
            np.testing.assert_array_equal(ev, sim.integrator.V)


class TestCrossTierArtifacts:
    @needs_compiler
    def test_trajectories_and_checkpoints_byte_identical(self, tmp_path):
        """Both tiers write the same per-replica files, byte for byte."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(41, 3)
        out = {}
        for tier in ("numpy", "compiled"):
            ens = make_ensemble(base, params, seeds, tier=tier)
            assert ens.kernels.tier == tier
            paths = [
                replica_trajectory_path(tmp_path / f"{tier}.rrs", r)
                for r in range(3)
            ]
            writers = [ens.open_replica_trajectory(p) for p in paths]
            try:
                ens.run(6, trajectories=writers, trajectory_every=2)
            finally:
                for w in writers:
                    w.close()
            out[tier] = (
                [p.read_bytes() for p in paths],
                [pack_state(ens.replica_checkpoint(r)) for r in range(3)],
            )
        assert out["numpy"][0] == out["compiled"][0]
        assert out["numpy"][1] == out["compiled"][1]


class TestMeshBlocks:
    """Whichever block layout the plan budget selects, every replica's
    k-space bits are its solo bits."""

    @pytest.mark.parametrize("quantize_mesh_bits", [None, 40])
    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    def test_per_replica_blocks_match_stack_and_solo(
        self, tier, quantize_mesh_bits, monkeypatch
    ):
        base, params = prepared_water(n_molecules=16)
        params = replace(params, quantize_mesh_bits=quantize_mesh_bits)
        ens = make_ensemble(base, params, [1, 2, 3], tier=tier)
        calc, n = ens.calc, ens.n_solo
        # Distinct configurations per replica, so a mixed-up block shows.
        rng = np.random.default_rng(7)
        pos = ens.system.positions + rng.normal(scale=0.05, size=(3 * n, 3))
        codec = ens.fixed_config.force_codec()

        def evaluate():
            codes, report = calc.compute_fixed(pos, codec)
            return codes.copy(), report.energies

        stack_codes, stack_e = evaluate()
        assert calc._plan.n == 3 * n
        # The stack no longer fits, one replica still does.
        monkeypatch.setattr(gse_module, "PLAN_MAX_ELEMENTS", 2 * n * calc.gse.stencil_size())
        block_codes, block_e = evaluate()
        assert calc._plan.n == n
        np.testing.assert_array_equal(block_codes, stack_codes)
        assert stack_e.keys() == block_e.keys()
        for key in stack_e:
            np.testing.assert_array_equal(block_e[key], stack_e[key])
        solo = ForceCalculator(base, params)
        for r in range(3):
            rows = slice(r * n, (r + 1) * n)
            solo_codes, solo_report = solo.compute_fixed(pos[rows], codec)
            np.testing.assert_array_equal(block_codes[rows], solo_codes)
            assert {k: v[r] for k, v in block_e.items()} == solo_report.energies


class TestProfileAttribution:
    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    def test_ensemble_phases_cover_step(self, tier):
        """Named ensemble_* leaves account for >=90% of step wall time.

        Same bar as the machine profile gate; needs a realistically
        sized batch so fixed Python glue is a small fraction of a step.
        """
        base = build_water_box(n_molecules=250, seed=7)
        params = MDParams(
            cutoff=min(9.0, base.box.max_cutoff() * 0.9),
            mesh=(16, 16, 16),
            long_range_every=2,
            kernel_mode="table",
        )
        minimize_energy(base, params, max_steps=30)
        ens = EnsembleSimulation(
            base, params, dt=1.0, seeds=derive_replica_seeds(7, 4),
            temperature=TEMPERATURE, constraints=True, kernel_tier=tier,
        )
        ens.run(22)
        prof = ens.profile()
        assert prof["leaf_coverage"] >= 0.90
        assert prof["coverage"] >= 0.95

        def names(node):
            for key, entry in node.items():
                yield key
                yield from names(entry["children"])

        phase_names = set(names(prof["phases"]))
        assert any(name.startswith("ensemble_") for name in phase_names)
        assert "mesh_fft" in phase_names

    def test_profile_counts_steps_since_timer_reset(self):
        base, params = prepared_water()
        ens = EnsembleSimulation(
            base, params, dt=1.0, seeds=derive_replica_seeds(7, 2),
            temperature=TEMPERATURE, constraints=True,
        )
        ens.run(3)
        ens.timers.reset()
        ens.run(2)
        prof = ens.profile()
        assert prof["steps"] == 2
        assert prof["wall_per_step"] == ens.timers.paths["step"] / 2
