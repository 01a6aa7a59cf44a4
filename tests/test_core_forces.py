"""Unit tests for ForceCalculator, MTS scheduling, and MDParams."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    FixedPointConfig,
    ForceCalculator,
    MDParams,
    MTSForceProvider,
    minimize_energy,
)
from repro.ewald import gse as gse_module
from repro.systems import build_hp_system, build_water_box, hp_miniprotein


@pytest.fixture(scope="module")
def water():
    s = build_water_box(n_molecules=32, seed=3)
    minimize_energy(s, MDParams(cutoff=4.5, mesh=(16, 16, 16)), max_steps=40)
    return s


WATER_PARAMS = MDParams(cutoff=4.5, mesh=(16, 16, 16))


class TestForceCalculator:
    def test_energy_components_present(self, water):
        report = ForceCalculator(water, WATER_PARAMS).compute(water.positions)
        for key in ("lj", "coulomb_real", "coulomb_kspace", "coulomb_self", "correction"):
            assert key in report.energies
        assert report.energies["coulomb_self"] < 0

    def test_water_has_no_bonded_energy(self, water):
        # Rigid water: no bond terms at all (the paper's observation
        # about water-only systems).
        report = ForceCalculator(water, WATER_PARAMS).compute(water.positions)
        assert report.energies["bond"] == 0.0
        assert report.energies["angle"] == 0.0

    def test_fixed_matches_float_forces(self, water):
        calc = ForceCalculator(water, WATER_PARAMS)
        f_float = calc.compute(water.positions).forces
        codec = FixedPointConfig().force_codec()
        _codes, report = calc.compute_fixed(water.positions, codec)
        # Quantization error bounded by ~codec resolution per contribution.
        assert np.max(np.abs(report.forces - f_float)) < 1e-4

    def test_short_plus_long_equals_full(self, water):
        calc = ForceCalculator(water, WATER_PARAMS)
        full = calc.compute(water.positions).forces
        short = calc.compute(water.positions, include_long_range=False).forces
        long_part = calc.compute_long(water.positions).forces
        np.testing.assert_allclose(short + long_part, full, atol=1e-10)

    @pytest.mark.parametrize("quantize_mesh_bits", [None, 40])
    def test_over_plan_budget_mesh_is_bitwise_the_planned_pass(
        self, water, quantize_mesh_bits, monkeypatch
    ):
        params = replace(WATER_PARAMS, quantize_mesh_bits=quantize_mesh_bits)
        codec = FixedPointConfig().force_codec()

        def evaluate():
            calc = ForceCalculator(water, params)
            report = calc.compute(water.positions)
            codes, fixed = calc.compute_fixed(water.positions, codec)
            return calc, (report.forces, report.energies, codes.copy(), fixed.energies)

        planned_calc, planned = evaluate()
        assert planned_calc._plan.n == water.n_atoms
        monkeypatch.setattr(gse_module, "PLAN_MAX_ELEMENTS", water.n_atoms - 1)
        chunked_calc, chunked = evaluate()
        assert chunked_calc._plan is None  # GSE's atom-chunked pass ran
        for a, b in zip(planned, chunked):
            if isinstance(a, dict):
                assert a == b
            else:
                np.testing.assert_array_equal(a, b)

    def test_invalid_kernel_mode(self, water):
        with pytest.raises(ValueError):
            ForceCalculator(water, MDParams(cutoff=4.5, mesh=(16, 16, 16), kernel_mode="magic"))

    def test_electrostatics_disabled_for_neutral_bead_system(self):
        system = build_hp_system(hp_miniprotein("HHPH"))
        calc = ForceCalculator(system, MDParams(cutoff=12.0, mesh=(16, 16, 16)))
        assert calc.gse is None
        report = calc.compute(system.positions)
        assert report.energies["coulomb_kspace"] == 0.0

    def test_forces_translation_invariant_to_mesh_error(self, water):
        # Real-space terms are exactly invariant; the mesh part changes
        # by its discretization error (the grid is fixed in space), so
        # invariance holds to the k-space accuracy (~1e-4 of rms force).
        calc = ForceCalculator(water, WATER_PARAMS)
        f1 = calc.compute(water.positions).forces
        shift = np.array([1.234, -0.77, 2.1])
        f2 = calc.compute(water.box.wrap(water.positions + shift)).forces
        frms = np.sqrt(np.mean(f1**2))
        assert np.max(np.abs(f1 - f2)) < 1e-3 * frms


class TestMTSProvider:
    def test_long_range_evaluation_schedule(self, water):
        calc = ForceCalculator(water, MDParams(cutoff=4.5, mesh=(16, 16, 16), long_range_every=3))
        provider = MTSForceProvider(calc)
        for _ in range(7):
            provider(water.positions)
        # Calls 0, 3, 6 include long-range.
        assert provider.long_evaluations == 3

    def test_impulse_weighting(self, water):
        # On long steps the long-range force enters with weight k.
        calc = ForceCalculator(water, MDParams(cutoff=4.5, mesh=(16, 16, 16), long_range_every=2))
        provider = MTSForceProvider(calc)
        f_long_step, _ = provider(water.positions)   # call 0: long included
        f_short_step, _ = provider(water.positions)  # call 1: short only
        long_part = calc.compute_long(water.positions).forces
        water.spread_virtual_site_forces(long_part)
        np.testing.assert_allclose(
            f_long_step - f_short_step, 2.0 * long_part, atol=1e-8
        )

    def test_energies_carry_last_long_values(self, water):
        calc = ForceCalculator(water, MDParams(cutoff=4.5, mesh=(16, 16, 16), long_range_every=2))
        provider = MTSForceProvider(calc)
        _f, r0 = provider(water.positions)
        _f, r1 = provider(water.positions)  # short-only step
        assert r1.energies["coulomb_kspace"] == r0.energies["coulomb_kspace"]

    def test_single_rate_fast_path(self, water):
        calc = ForceCalculator(water, WATER_PARAMS)
        provider = MTSForceProvider(calc)
        f, report = provider(water.positions)
        direct = calc.compute(water.positions)
        np.testing.assert_allclose(f, direct.forces, atol=1e-12)
