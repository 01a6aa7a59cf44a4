"""Batched ensemble engine: R independent replicas in one stacked system.

The paper's throughput numbers come from running *many* independent
simulations (seeds, mutants, temperatures) at once; on commodity
hardware the analogous win is amortizing per-step dispatch overhead
across replicas.  This module stacks R replicas of one chemical system
along the atom axis (replica ``r`` owns rows ``[r*N, (r+1)*N)``) and
steps them all through ONE pass of the vectorized/compiled kernels per
phase: one batched neighbor-list rebuild, one fused pair kernel call,
one stacked mesh/FFT pass, one fixed-point accumulation, one batched
SHAKE/RATTLE sweep.

The correctness bar is *bitwise*: every replica's integer trajectory
(position/velocity codes), energies, and checkpoint artifacts are
byte-identical to the same seed run solo through
:class:`~repro.core.simulation.Simulation`, on both kernel tiers.  The
engine gets this by construction rather than by tolerance:

* all per-atom/per-pair/per-term arithmetic is elementwise, so tiled
  inputs produce tiled outputs with identical bits;
* force accumulation is the same order-invariant fixed-point integer
  sum the solo path uses — replica blocks cannot interact because no
  pair, bonded term, or stencil point ever crosses a block boundary;
* float energy *reductions* are re-done per replica over contiguous
  slices whose length and values match the solo arrays exactly
  (NumPy's pairwise summation depends only on those), never with
  axis/``reduceat`` reductions whose grouping differs;
* the shared-skin neighbor list is bitwise harmless because the pair
  set is a pure function of the current configuration regardless of
  when the list was rebuilt.

The pair search, the neighbor list, the k-space pass and the
SHAKE/RATTLE sweeps are not ensemble copies: they are the one batched
implementation the solo engine also runs, at R = 1.  What this module
adds is the tiling, the per-replica energy reductions and the
per-replica thermostat.

Replicas are *detachable*: :meth:`EnsembleSimulation.detach` (or any
per-replica checkpoint) restores into a stock solo ``Simulation`` that
continues bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, ForceReport, MDParams
from repro.core.integrator import FixedPointConfig
from repro.core.run import Engine, run_steps
from repro.core.simulation import EnergyRecord, Simulation
from repro.core.system import ChemicalSystem
from repro.core.thermostat import BerendsenThermostat
from repro.ewald import self_energy
from repro.ewald.correction import _segment_sums, correction_forces_static
from repro.forcefield.exclusions import ExclusionTable, _pair_keys
from repro.forcefield.topology import Topology
from repro.io import TrajectoryWriter, system_fingerprint
from repro.kernels import get_suite

__all__ = [
    "tile_system",
    "tile_exclusions",
    "EnsembleForceCalculator",
    "EnsembleConstraintSolver",
    "EnsembleBerendsenThermostat",
    "EnsembleSimulation",
]


# -- system tiling ---------------------------------------------------------


def tile_exclusions(solo: ExclusionTable, replicas: int) -> ExclusionTable:
    """Replicate an exclusion table R times with per-block index offsets.

    Built directly from the solo table's arrays instead of re-walking
    the tiled covalent graph (the graph walk is Python-loop heavy).
    Block r's keys are ``lo*(R*N) + hi`` with ``lo`` shifted by ``r*N``,
    so concatenated blocks are globally sorted and the binary-search
    membership test works unchanged.
    """
    n = solo.n_atoms
    big_n = replicas * n

    def shift(block: np.ndarray) -> np.ndarray:
        if not len(block):
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate([block + np.int64(r * n) for r in range(replicas)])

    def keys(block: np.ndarray) -> np.ndarray:
        if not len(block):
            return np.empty(0, dtype=np.int64)
        return _pair_keys(block[:, 0], block[:, 1], big_n)

    excluded = shift(solo.excluded)
    pair14 = shift(solo.pair14)
    return ExclusionTable(
        n_atoms=big_n,
        excluded=excluded,
        pair14=pair14,
        lj_scale14=solo.lj_scale14,
        coul_scale14=solo.coul_scale14,
        _excluded_keys=keys(excluded),
        _pair14_keys=keys(pair14),
    )


def tile_system(
    solo: ChemicalSystem, replicas: int, velocities: np.ndarray | None = None
) -> ChemicalSystem:
    """Stack R copies of ``solo`` along the atom axis.

    Topology terms are merged replica-major (block r's bonds before
    block r+1's), matching the layout every per-replica energy
    segmentation in the force calculator assumes.  ``velocities``
    optionally provides the stacked ``(R*N, 3)`` initial velocities
    (per-replica seeds); default tiles the solo velocities.
    """
    n = solo.n_atoms
    top = Topology(replicas * n)
    for r in range(replicas):
        top.merge(solo.topology, r * n)
    if velocities is None:
        velocities = np.tile(solo.velocities, (replicas, 1))
    return ChemicalSystem(
        box=solo.box,
        positions=np.tile(solo.positions, (replicas, 1)),
        masses=np.tile(solo.masses, replicas),
        charges=np.tile(solo.charges, replicas),
        type_ids=np.tile(solo.type_ids, replicas),
        lj=solo.lj,
        topology=top,
        velocities=np.asarray(velocities, dtype=np.float64),
        exclusions=tile_exclusions(solo.exclusions, replicas),
        meta={**solo.meta, "ensemble_replicas": replicas, "ensemble_n_solo": n},
    )


# -- forces ----------------------------------------------------------------


class EnsembleForceCalculator(ForceCalculator):
    """Force calculator over a replica-stacked system.

    Runs the same physics as :class:`ForceCalculator` on the tiled
    system through one kernel pass per phase, but reports every energy
    as an ``(R,)`` per-replica array whose entries are bitwise equal to
    the solo scalars.  Phases are charged to ``ensemble_*`` timers so
    the hierarchical profile attributes batched work separately.
    """

    phases = {k: "ensemble_" + v for k, v in ForceCalculator.phases.items()}

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams,
        replicas: int,
        n_solo: int,
        kernels=None,
    ):
        if system.n_atoms != replicas * n_solo:
            raise ValueError("tiled system size does not match replicas * n_solo")
        super().__init__(
            system,
            params,
            kernels=kernels if kernels is not None else get_suite(),
            replicas=replicas,
        )
        self.n_solo = int(n_solo)
        # Each replica's self energy is the solo scalar (the tiled
        # system's would be the R-fold total).
        self._e_self = np.full(
            self.replicas, self_energy(system.charges[:n_solo], self.sigma)
        )
        # Pair-index boundaries between replica blocks (ascending i).
        self._bounds = np.arange(1, replicas, dtype=np.int64) * np.int64(n_solo)

    # -- per-replica reductions --------------------------------------------

    def _pair_segment_sums(self, keys_i: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-replica sums of per-pair values split on the owner index.

        The canonical pair order sorts on ``i*(R*N) + j`` so ``keys_i``
        ascends; replica r's pairs form one contiguous slice whose
        values and order equal the solo pair list's, making each
        ``float(np.sum(slice))`` bitwise the solo total.
        """
        cuts = np.searchsorted(keys_i, self._bounds)
        out = np.empty(self.replicas)
        lo = 0
        for r, hi in enumerate([*cuts.tolist(), len(values)]):
            out[r] = float(np.sum(values[lo:hi]))
            lo = hi
        return out

    def _pair_energies(self, nb):
        with self.timers.time("ensemble_energies"):
            return (
                self._pair_segment_sums(nb.i, nb.e_lj_pairs),
                self._pair_segment_sums(nb.i, nb.e_coul_pairs),
            )

    def _term_energies(self, bonded):
        with self.timers.time("ensemble_energies"):
            return tuple(_segment_sums(c.energy_terms, self.replicas) for c in bonded)

    def _corrections(self, positions: np.ndarray):
        with self.timers.time(self.phases["correction"]):
            return correction_forces_static(
                positions, self.system.box, self._corr_static, self.sigma,
                replicas=self.replicas,
            )

    def _kspace_energies(self, energies: np.ndarray) -> np.ndarray:
        """Per-replica ``(R,)`` k-space energies, each the solo scalar."""
        return energies

    # The two entry points are defined here rather than inherited so
    # that the batched force evaluation is its own attribute of this
    # class: anything that patches ``EnsembleForceCalculator`` methods
    # (a tracer, a profiler) sees it apart from the solo evaluation.

    def compute_long_fixed(self, positions: np.ndarray, force_codec):
        """Long-range codes with per-replica ``(R,)`` energies."""
        return super().compute_long_fixed(positions, force_codec)

    def compute_fixed(
        self, positions: np.ndarray, force_codec, include_long_range: bool = True
    ) -> tuple[np.ndarray, ForceReport]:
        """Batched fixed-point forces; each energy is an ``(R,)`` array
        of per-replica sums, entry by entry bitwise the solo scalars."""
        return super().compute_fixed(positions, force_codec, include_long_range)


# -- constraints -----------------------------------------------------------


class EnsembleConstraintSolver:
    """SHAKE/RATTLE over R replica blocks in one batched dispatch.

    Wraps ONE solo :class:`ConstraintSolver` (the constraint topology
    is identical in every block) and runs the kernel suite's batched
    sweep — the same sweep a solo solve runs at one replica — over all
    R blocks: the compiled tier sweeps every replica in a single C call
    that runs the one-replica kernel per block, including each block's
    own convergence exit (a converged replica must not absorb extra
    sweeps, which would change bits).
    """

    def __init__(
        self, solo: ConstraintSolver, replicas: int, n_solo: int, kernels=None
    ):
        self.solo = solo
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
        self.kernels = kernels if kernels is not None else get_suite()

    @property
    def n_constraints(self) -> int:
        return self.solo.n_constraints * self.replicas

    def shake(self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10):
        if not self.solo.n_constraints:
            return positions
        return self.solo.suite_for(positions, self.kernels).shake_batch(
            self.solo, positions, reference, float(tol), self.replicas, self.n_solo
        )

    def rattle(self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12):
        if not self.solo.n_constraints:
            return velocities
        return self.solo.suite_for(velocities, self.kernels).rattle_batch(
            self.solo, velocities, positions, float(tol), self.replicas, self.n_solo
        )


# -- thermostat ------------------------------------------------------------


class EnsembleBerendsenThermostat:
    """Per-replica Berendsen scaling with the exact solo scalar math.

    Computes each replica's temperature from its own contiguous
    velocity block (solo masses, solo ``n_dof``) and its lambda with
    the same ``math.sqrt``/``min``/``max`` scalar chain the solo
    thermostat uses, then broadcasts ``(R,) -> (R*N, 1)`` so the
    integrator applies one vectorized velocity scale.  A replica at
    exactly ``lam == 1.0`` is untouched (the integrator's round-trip
    through float64 is exact for 40-bit codes).
    """

    def __init__(
        self,
        solo: BerendsenThermostat,
        replicas: int,
        n_solo: int,
        solo_system: ChemicalSystem,
    ):
        self.solo = solo
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
        self.solo_system = solo_system

    def __call__(self, integrator) -> np.ndarray:
        v = integrator.velocities
        n = self.n_solo
        lams = np.empty(self.replicas)
        for r in range(self.replicas):
            t_now = self.solo_system.temperature(v[r * n : (r + 1) * n])
            if t_now <= 0:
                lams[r] = 1.0
                continue
            arg = 1.0 + (integrator.dt / self.solo.tau) * (
                self.solo.temperature / t_now - 1.0
            )
            lam = math.sqrt(max(arg, 0.0))
            lams[r] = min(max(lam, 1.0 - self.solo.clamp), 1.0 + self.solo.clamp)
        return np.repeat(lams, n)[:, None]


# -- driver ----------------------------------------------------------------


class EnsembleSimulation(Engine):
    """Drive R bit-exact replicas through one batched integrator.

    Parameters mirror :class:`~repro.core.simulation.Simulation` where
    they overlap.  ``system`` is the *solo* prepared system (already
    minimized); each replica starts from its positions with velocities
    drawn from its own seed.

    ``seeds``/``temperature`` initialize replica r's velocities exactly
    as ``system.initialize_velocities(temperature, seed=seeds[r])``
    would solo; with ``seeds=None`` all ``replicas`` blocks start from
    the solo velocities verbatim.  ``kernel_tier`` picks the kernel
    suite and ``kernel_threads`` its worker-lane count (defaults: the
    ``REPRO_KERNEL_TIER`` / ``REPRO_KERNEL_THREADS`` environment
    resolution).  Both knobs are bitwise-invisible.

    Per-replica artifacts (energy records, trajectory frames,
    checkpoints) use the *solo* fingerprint and the solo formats, so
    they are byte-identical to a solo run's files and restore into a
    stock solo ``Simulation`` (:meth:`detach`).  The inherited
    whole-stack :meth:`checkpoint` restores only into an ensemble of
    the same size (the atom count is checked on restore).
    """

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        dt: float = 2.5,
        replicas: int | None = None,
        seeds: list[int] | None = None,
        temperature: float | None = None,
        fixed_config: FixedPointConfig = FixedPointConfig(),
        thermostat: BerendsenThermostat | None = None,
        constraints: bool = True,
        kernel_tier: str | None = None,
        kernel_threads: int | None = None,
    ):
        if seeds is not None:
            if replicas is not None and replicas != len(seeds):
                raise ValueError("replicas does not match len(seeds)")
            replicas = len(seeds)
            if temperature is None and thermostat is not None:
                temperature = thermostat.temperature
            if temperature is None:
                raise ValueError("seeds need a temperature to draw velocities")
        if replicas is None or replicas < 1:
            raise ValueError("need replicas >= 1 (or an explicit seeds list)")

        self.solo_system = system
        self.params = params
        self.dt = float(dt)
        self.mode = "fixed"
        self.fixed_config = fixed_config
        self.replicas = int(replicas)
        self.n_solo = system.n_atoms
        self.seeds = list(seeds) if seeds is not None else None
        self.solo_thermostat = thermostat
        self.constraints_enabled = bool(constraints)
        self.kernels = get_suite(kernel_tier, kernel_threads)

        n = self.n_solo
        velocities = np.empty((self.replicas * n, 3))
        for r in range(self.replicas):
            if self.seeds is not None:
                rep = system.copy()
                rep.initialize_velocities(temperature, seed=self.seeds[r])
                velocities[r * n : (r + 1) * n] = rep.velocities
            else:
                velocities[r * n : (r + 1) * n] = system.velocities
        self.system = tile_system(system, self.replicas, velocities=velocities)

        self.calc = EnsembleForceCalculator(
            self.system, params, self.replicas, n, kernels=self.kernels
        )
        solver = None
        if constraints and system.topology.n_constraints:
            solver = EnsembleConstraintSolver(
                ConstraintSolver(system.topology, system.masses, system.box),
                self.replicas,
                n,
                kernels=self.kernels,
            )
        self.constraint_solver = solver
        ens_thermo = None
        if thermostat is not None:
            ens_thermo = EnsembleBerendsenThermostat(
                thermostat, self.replicas, n, system
            )
        self._wire_fixed_point(solver, ens_thermo)
        # One fingerprint serves every replica: it hashes only the
        # static solo system, parameters, and datapath widths — never
        # positions/velocities — so it is verbatim what a solo run of
        # any replica embeds in its artifacts.
        self._solo_fingerprint = system_fingerprint(
            system, params, self.mode, self.dt, fixed_config
        )
        self.energy_logs: list[list[EnergyRecord]] = [
            [] for _ in range(self.replicas)
        ]

    # -- views ---------------------------------------------------------------

    def replica_slice(self, r: int) -> slice:
        if not 0 <= r < self.replicas:
            raise IndexError(f"replica {r} out of range (R={self.replicas})")
        return slice(r * self.n_solo, (r + 1) * self.n_solo)

    def state_codes(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Replica r's raw integer state (bitwise-comparison handle)."""
        sl = self.replica_slice(r)
        return self.integrator.X[sl].copy(), self.integrator.V[sl].copy()

    # -- energies ------------------------------------------------------------

    def record_energy(self) -> list[EnergyRecord]:
        """Append one solo-identical energy record per replica."""
        integ = self.integrator
        v = integ.velocities
        energies = integ.last_info.energies
        recs = []
        for r in range(self.replicas):
            vr = v[self.replica_slice(r)]
            # Left-to-right float additions over the solo key order —
            # the same chain ``float(sum(energies.values()))`` runs solo.
            pe = float(sum(float(np.asarray(val)[r]) for val in energies.values()))
            rec = self._energy_record(
                self.solo_system.kinetic_energy(vr), pe, self.solo_system.temperature(vr)
            )
            self.energy_logs[r].append(rec)
            recs.append(rec)
        return recs

    # -- artifacts -----------------------------------------------------------

    def fingerprint(self) -> dict:
        """The solo fingerprint every replica's artifacts embed."""
        return self._solo_fingerprint

    def replica_checkpoint(self, r: int) -> dict:
        """Replica r's state in the exact solo checkpoint schema.

        Byte-identical (through ``pack_state``) to what the same-seed
        solo run's :meth:`Simulation.checkpoint` yields at this step,
        and restorable by it (:meth:`detach`).
        """
        return self._checkpoint(self.replica_slice(r))

    #: A solo-format trajectory writer for one replica's frames.
    open_replica_trajectory = Engine.open_trajectory

    def write_replica_frame(self, writer: TrajectoryWriter, r: int) -> None:
        self._write_frame(writer, self.replica_slice(r))

    _replica_records = record_energy
    _replica_frame = write_replica_frame
    _replica_checkpoint = replica_checkpoint

    def detach(self, r: int) -> Simulation:
        """Extract replica r as a live solo :class:`Simulation`.

        The solo simulation is built on a copy of the solo system and
        restored from the replica checkpoint, so it continues exactly
        the bits the batched run would have produced for this replica.
        """
        sim = Simulation(
            self.solo_system.copy(),
            self.params,
            dt=self.dt,
            mode=self.mode,
            fixed_config=self.fixed_config,
            thermostat=self.solo_thermostat,
            constraints=self.constraints_enabled,
        )
        sim.restore(self.replica_checkpoint(r))
        return sim

    # -- stepping ------------------------------------------------------------

    def run(
        self,
        n_steps: int,
        record_every: int = 0,
        energy_writers=None,
        trajectories=None,
        trajectory_every: int = 0,
        checkpoint_stores=None,
        checkpoint_every: int = 0,
    ) -> list[list[EnergyRecord]]:
        """Advance all replicas ``n_steps``; per-replica record lists.

        Cadences mirror :meth:`Simulation.run` exactly: every one is
        keyed to the global step count (:func:`~repro.core.run.run_steps`).
        The per-replica sequences ``energy_writers`` / ``trajectories``
        / ``checkpoint_stores`` may be ``None`` or contain ``None``
        entries to skip individual replicas.
        """
        start = [len(log) for log in self.energy_logs]
        run_steps(
            self, n_steps,
            record_every=record_every, energy_writers=energy_writers or (),
            trajectories=trajectories or (), trajectory_every=trajectory_every,
            checkpoint_stores=checkpoint_stores or (), checkpoint_every=checkpoint_every,
        )
        return [log[s:] for log, s in zip(self.energy_logs, start)]

    def profile(self) -> dict:
        """Hierarchical per-step phase profile of the batched engine.

        Rooted at the integrator's ``step`` phase; the batched force
        phases appear as ``ensemble_*`` children.  Same coverage /
        ``leaf_coverage`` attribution contract as the machine profile.
        """
        return self.calc.timers.profile("step")
