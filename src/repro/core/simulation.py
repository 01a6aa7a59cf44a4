"""High-level simulation driver.

Wires a :class:`ChemicalSystem` to a force calculator, constraint
solver, thermostat, and integrator (fixed-point or float), and runs
time steps while recording energies and optional trajectory snapshots.
Also provides steepest-descent minimization for system preparation.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, MDParams, MTSForceProvider
from repro.core.integrator import FixedPointConfig, VelocityVerlet
from repro.core.run import EnergyRecord, Engine, run_steps
from repro.core.system import ChemicalSystem
from repro.io import TrajectoryWriter

__all__ = ["EnergyRecord", "Simulation", "minimize_energy"]


def minimize_energy(
    system: ChemicalSystem,
    params: MDParams = MDParams(),
    max_steps: int = 200,
    initial_step: float = 0.02,
    force_tolerance: float = 10.0,
) -> float:
    """Steepest-descent minimization (system preparation).

    Moves atoms along the normalized force direction with an adaptive
    step, writing relaxed positions back into ``system``.  Returns the
    final potential energy.  Virtual sites follow their parents, and
    rigid constraints (which carry no bonded-term restoring force) are
    re-imposed with SHAKE after every move.
    """
    calc = ForceCalculator(system, params)
    solver = None
    if system.topology.n_constraints:
        solver = ConstraintSolver(system.topology, system.masses, system.box, iterations=100)
    pos = system.box.wrap(system.positions.copy())
    if solver is not None:
        solver.shake(pos, pos)
    system.place_virtual_sites(pos)
    report = calc.compute(pos)
    energy = report.potential_energy
    step = initial_step
    for _ in range(max_steps):
        fmax = float(np.max(np.abs(report.forces)))
        if fmax < force_tolerance:
            break
        trial = pos + report.forces / max(fmax, 1e-12) * step
        if solver is not None:
            solver.shake(trial, pos)
        trial = system.box.wrap(trial)
        system.place_virtual_sites(trial)
        trial_report = calc.compute(trial)
        if trial_report.potential_energy < energy:
            pos, report, energy = trial, trial_report, trial_report.potential_energy
            step = min(step * 1.2, 0.5)
        else:
            step *= 0.5
            if step < 1e-6:
                break
    system.positions = pos
    return energy


class Simulation(Engine):
    """One runnable MD simulation.

    Parameters
    ----------
    mode:
        ``"fixed"`` — Anton-numerics path (fixed-point state, integer
        force accumulation); ``"float"`` — conventional float64 path.
    constraints:
        ``True`` builds a solver from the topology's constraint list
        (rigid water, H-bond constraints); ``False`` integrates
        unconstrained (required for exact-reversibility experiments).
    """

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        dt: float = 2.5,
        mode: str = "fixed",
        fixed_config: FixedPointConfig = FixedPointConfig(),
        thermostat=None,
        constraints: bool = True,
    ):
        self.system = system
        self.params = params
        self.dt = float(dt)
        self.mode = mode
        self.fixed_config = fixed_config
        self.calc = ForceCalculator(system, params)
        solver = None
        if constraints and system.topology.n_constraints:
            solver = ConstraintSolver(system.topology, system.masses, system.box)
        self.constraint_solver = solver
        if mode == "fixed":
            self._wire_fixed_point(solver, thermostat)
        elif mode == "float":
            self.provider = MTSForceProvider(self.calc)
            self.integrator = VelocityVerlet(
                system, self.provider, dt, constraints=solver, thermostat=thermostat
            )
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.energy_log: list[EnergyRecord] = []
        self.snapshots: list[np.ndarray] = []
        self.snapshot_steps: list[int] = []

    def record_energy(self) -> EnergyRecord:
        integ = self.integrator
        pe = float(sum(integ.last_info.energies.values()))
        rec = self._energy_record(integ.kinetic_energy(), pe, integ.temperature())
        self.energy_log.append(rec)
        return rec

    def run(
        self,
        n_steps: int,
        record_every: int = 0,
        snapshot_every: int = 0,
        energy_writer=None,
        trajectory: TrajectoryWriter | None = None,
        trajectory_every: int = 0,
        checkpoint_store=None,
        checkpoint_every: int = 0,
    ) -> list[EnergyRecord]:
        """Advance ``n_steps``; returns the records appended this call.

        ``record_every`` / ``snapshot_every`` of 0 disable logging.
        With MTS, meaningful total-energy records need ``record_every``
        to be a multiple of ``params.long_range_every``.

        ``energy_writer`` streams each energy record as it is taken
        (an :class:`~repro.io.EnergyLogWriter`).  ``trajectory`` /
        ``checkpoint_store`` persist frames and rolling snapshots every
        ``trajectory_every`` / ``checkpoint_every`` steps.  Every
        cadence is keyed to the *global* step count
        (:func:`~repro.core.run.run_steps`), so a resumed run records
        and writes at exactly the steps the uninterrupted run would
        have.
        """
        start = len(self.energy_log)
        run_steps(
            self, n_steps,
            record_every=record_every, energy_writers=[energy_writer],
            snapshot_every=snapshot_every,
            trajectories=[trajectory], trajectory_every=trajectory_every,
            checkpoint_stores=[checkpoint_store], checkpoint_every=checkpoint_every,
        )
        return self.energy_log[start:]
