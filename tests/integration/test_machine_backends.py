"""Execution backends of the machine simulation are interchangeable.

The paper's parallel-invariance argument (Section 4) — quantize once,
integer-accumulate, and the distribution of terms is invisible — is
what lets the simulator swap its own execution strategy: per-node
Python loops (serial) or array kernels (vectorized).  These tests pin
that claim bit-for-bit: identical state codes across backends and node
counts, identical traffic statistics, and bit-exact checkpoint/restore
replay within and across backends.
"""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.ewald import gse as gse_module
from repro.machine import AntonMachine, make_backend
from repro.systems import build_water_box

PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    kernel_mode="table",
    long_range_every=2,
    quantize_mesh_bits=40,
)


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def run_machine(base_system, backend, n_nodes=8, steps=4, params=PARAMS):
    machine = AntonMachine(
        base_system.copy(), params, n_nodes=n_nodes, dt=1.0, backend=backend
    )
    try:
        machine.step(steps)
        return machine.state_codes(), machine.traffic_summary(), machine.network.stats
    finally:
        machine.close()


class TestBackendEquivalence:
    @pytest.mark.parametrize("n_nodes, plan_budget", [
        pytest.param(1, None, id="1"),
        pytest.param(8, None, id="8"),
        pytest.param(64, None, id="64"),
        # No plan fits: the vectorized mesh pass takes GSE's atom-chunked
        # path and must match both its planned run and the serial oracle.
        pytest.param(8, 0, id="8-over-plan-budget"),
    ])
    def test_serial_vs_vectorized_bitwise(self, base_system, n_nodes, plan_budget, monkeypatch):
        (Xs, Vs), _, _ = run_machine(base_system, "serial", n_nodes=n_nodes)
        runs = [run_machine(base_system, "vectorized", n_nodes=n_nodes)]
        if plan_budget is not None:
            monkeypatch.setattr(gse_module, "PLAN_MAX_ELEMENTS", plan_budget)
            runs.append(run_machine(base_system, "vectorized", n_nodes=n_nodes))
        for (Xv, Vv), _, _ in runs:
            np.testing.assert_array_equal(Xs, Xv)
            np.testing.assert_array_equal(Vs, Vv)

    def test_analytic_kernel_bitwise(self, base_system):
        # The analytic (non-tabulated) kernel path is backend-invariant too.
        params = MDParams(cutoff=4.0, mesh=(16, 16, 16), quantize_mesh_bits=40)
        (Xs, Vs), _, _ = run_machine(
            base_system, "serial", steps=2, params=params
        )
        (Xv, Vv), _, _ = run_machine(
            base_system, "vectorized", steps=2, params=params
        )
        np.testing.assert_array_equal(Xs, Xv)
        np.testing.assert_array_equal(Vs, Vv)

    def test_traffic_statistics_identical(self, base_system):
        _, tags_s, stats_s = run_machine(base_system, "serial")
        _, tags_v, stats_v = run_machine(base_system, "vectorized")
        assert tags_s == tags_v
        assert stats_s.messages == stats_v.messages
        assert stats_s.bytes == stats_v.bytes
        assert stats_s.hop_bytes == stats_v.hop_bytes
        np.testing.assert_array_equal(
            stats_s.per_node_messages, stats_v.per_node_messages
        )
        np.testing.assert_array_equal(stats_s.per_node_bytes, stats_v.per_node_bytes)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("simd")


class TestLifecycle:
    def test_close_is_idempotent(self, base_system):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        machine.step(1)
        machine.close()
        machine.close()

    def test_checkpoint_restore_replay(self, base_system):
        # An uninterrupted 6-step run...
        reference = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            reference.step(3)
            chk = reference.checkpoint()
            reference.step(3)
            X_ref, V_ref = reference.state_codes()
        finally:
            reference.close()

        # ...is replayed bit-for-bit from the mid-run checkpoint by a
        # fresh machine (migration occurs at step 4, inside the replay
        # window, so the restored migration clock is exercised too).
        resumed = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            resumed.restore(chk)
            resumed.step(3)
            X_res, V_res = resumed.state_codes()
        finally:
            resumed.close()
        np.testing.assert_array_equal(X_ref, X_res)
        np.testing.assert_array_equal(V_ref, V_res)

    def test_checkpoint_restore_across_backends(self, base_system):
        # A serial machine resumes a vectorized-backend checkpoint: the
        # snapshot is backend-independent integer state.
        donor = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            donor.step(2)
            chk = donor.checkpoint()
            donor.step(2)
            X_ref, V_ref = donor.state_codes()
        finally:
            donor.close()

        resumed = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="serial"
        )
        resumed.restore(chk)
        resumed.step(2)
        X_res, V_res = resumed.state_codes()
        np.testing.assert_array_equal(X_ref, X_res)
        np.testing.assert_array_equal(V_ref, V_res)


class TestStepProfile:
    """The hierarchical phase profile accounts for the step wall time."""

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_profile_covers_step_and_exposes_mesh_subphases(self, base_system, backend):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend=backend
        )
        try:
            machine.step(4)
            prof = machine.profile()
        finally:
            machine.close()
        assert prof["steps"] == 4
        assert prof["wall_per_step"] > 0.0
        # Top-level phases must explain >= 90% of the measured step time.
        assert prof["coverage"] >= 0.9
        mesh = (
            prof["phases"]["step"]["children"]["force"]["children"]
            ["machine_mesh"]["children"]
        )
        for phase in ("mesh_spread", "mesh_fft", "mesh_interp"):
            assert phase in mesh
            assert mesh[phase]["seconds_per_step"] > 0.0

    def test_profile_counts_steps_since_timer_reset(self, base_system):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            machine.step(3)
            machine.calc.timers.reset()
            machine.step(2)
            prof = machine.profile()
        finally:
            machine.close()
        assert prof["steps"] == 2
        assert prof["wall_per_step"] == machine.calc.timers.paths["machine_step"] / 2

    def test_phase_timings_include_mesh_subphases(self, base_system):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            machine.step(2)
            phases = machine.phase_timings()
        finally:
            machine.close()
        assert {"mesh_spread", "mesh_fft", "mesh_interp"} <= set(phases)
        assert all(v >= 0.0 for v in phases.values())
