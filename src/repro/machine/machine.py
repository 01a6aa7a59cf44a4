"""The functional Anton machine simulation.

:class:`AntonMachine` executes real MD time steps the way the hardware
does: atoms live on home nodes of a torus, every force contribution is
computed on the node the NT method assigns it to, quantized once, and
integer-accumulated; mesh charges accumulate in fixed point; the FFT
is logically distributed; positions/forces/bond-destinations/migration
traffic is charged to a simulated network.

Because integer addition commutes, the per-node deposit order cannot
change the force bits — which is exactly the paper's *parallel
invariance*: "a given simulation will evolve in exactly the same way
on any single- or multi-node Anton configuration" (Section 4).  The
integration tests run the same system on 1, 8, and 64 simulated nodes
and compare trajectories bit-for-bit.

The force path is :class:`~repro.core.forces.ForceCalculator`'s
fixed-point skeleton, shared with the solo and ensemble engines; the
machine only decides where each quantized contribution is deposited.
The same invariance frees the *simulator* to choose how it executes
each phase: :mod:`repro.machine.backends` provides per-node loops
(``serial``) and array kernels (``vectorized``, the default), both
producing identical state codes.
Engine phases are charged to ``machine_*`` timers
(:meth:`AntonMachine.phase_timings`, :meth:`AntonMachine.engine_seconds`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, MDParams
from repro.core.integrator import FixedPointConfig
from repro.core.run import Engine, run_steps
from repro.core.system import ChemicalSystem
from repro.fault import FaultController, FaultSchedule, FaultyNetwork, RecoveryPolicy
from repro.fft import DistributedFFT3D
from repro.io import TrajectoryWriter
from repro.machine.backends import MachineBackend, make_backend
from repro.machine.config import ANTON_2008, AntonHardware
from repro.machine.flexible import assign_bond_terms, correction_pairs_per_node
from repro.network import LinkRouter, RoutedConfig
from repro.parallel import (
    MigrationSchedule,
    SimNetwork,
    SpatialDecomposition,
    TorusTopology,
)

__all__ = ["MachineForceCalculator", "AntonMachine"]

#: Timers that measure the machine bookkeeping itself (NT assignment,
#: force deposits, traffic accounting) as opposed to the shared physics
#: kernels every backend runs identically.  Their sum is the "engine
#: time" the scaling benchmark gates on.
ENGINE_TIMERS = ("machine_nt_assign", "machine_deposit", "machine_traffic")


class MachineForceCalculator(ForceCalculator):
    """A ForceCalculator that deposits every contribution per node.

    Runs the base class's fixed-point skeleton, so its force codes are
    bit-identical (integer sums commute).  Only the deposits differ:
    a :class:`~repro.machine.backends.MachineBackend` places them on
    nodes, and the pair-force returns are charged to the network.
    """

    phases = {**ForceCalculator.phases, "deposit": "machine_deposit",
              "collect": "machine_collect"}

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams,
        machine: "AntonMachine",
        backend: MachineBackend,
    ):
        if params.quantize_mesh_bits is None:
            raise ValueError("machine execution requires quantize_mesh_bits")
        super().__init__(system, params)
        self.machine = machine
        self.backend = backend
        backend.bind(self)
        self.kernels = backend.kernels
        # The neighbor list shares the backend's kernel suite (compiled
        # cutoff filtering when available).
        self.neighbor_list.kernels = backend.kernels

    # -- per-node deposits ---------------------------------------------------

    def _deposit_range_limited(self, positions, force_codec, acc):
        # Range-limited pairs: computed on their NT nodes.
        nb, assign = self.backend.range_limited(self, positions, force_codec, acc)
        self.machine.account_force_export(assign.node, nb.i, nb.j)
        return nb

    def _deposit_bonded(self, acc, bonded, force_codec) -> None:
        # Bond terms on their statically assigned geometry cores.
        with self.timers.time("machine_deposit"):
            self.backend.deposit_bonded(self, acc, bonded, force_codec)

    def _deposit_corrections(self, acc, corr, force_codec) -> None:
        # Correction pairs on their owners' correction pipelines.
        if corr.n_pairs:
            ccodes = force_codec.quantize_round_only(corr.force)
            with self.timers.time("machine_deposit"):
                self.backend.deposit_corrections(self, acc, corr, ccodes)

    def _kspace_fixed(self, positions, acc, force_codec):
        if self.gse is None:
            return 0.0
        with self.timers.time("machine_mesh"):
            return self.backend.mesh_long_range(self, positions, acc, force_codec)


class AntonMachine(Engine):
    """A simulated n-node Anton machine running one chemical system.

    Parameters
    ----------
    n_nodes:
        Power-of-two node count (1 to 32768; the paper's flagship is
        512).  Functional results are bitwise independent of this.
    subbox_divisions:
        Subboxes per home box per axis for NT match efficiency.
    migration_interval:
        Steps between migration passes (paper: 4-8).
    backend:
        Execution strategy: ``"serial"``, ``"vectorized"`` (default), or
        a :class:`~repro.machine.backends.MachineBackend` instance.
        State codes are bitwise identical across them.
    kernel_tier:
        Hot-loop implementation suite: ``"numpy"`` or ``"compiled"``
        (lazily built C via :mod:`repro.kernels`, falling back to numpy
        without a compiler).  ``None`` defers to the
        ``REPRO_KERNEL_TIER`` environment variable.  Bitwise identical
        across tiers, so it never appears in fingerprints.
    kernel_threads:
        Worker-lane count for the compiled tier's persistent pthread
        pool (``None`` defers to ``REPRO_KERNEL_THREADS``, default 1).
        Bitwise-invisible like the tier knob: per-thread fixed-point
        partials reduce with wrapping adds, so every thread count
        produces identical trajectories, checkpoints, and state codes.
    faults:
        Optional fault injection: a :class:`~repro.fault.FaultSchedule`,
        a rates dict, or a ``--faults``-style spec string (e.g.
        ``"drop=1e-3,crash=1"``).  Faults are injected, detected, and
        healed inside :meth:`run`; by construction (and by the chaos
        tests) the recovered trajectory is bit-identical to a fault-free
        run.
    fault_seed:
        Hash key for rate-driven fault schedules (ignored when
        ``faults`` is already a :class:`~repro.fault.FaultSchedule`).
    recovery:
        Optional :class:`~repro.fault.RecoveryPolicy` overriding the
        default retry/backoff/snapshot knobs.
    routed:
        Enable the routed network fabric: every charged message is also
        expanded into dimension-ordered per-link traversals
        (:class:`repro.network.LinkRouter`), feeding
        :meth:`network_report` and ``profile()["network"]``.  Pass a
        :class:`repro.network.RoutedConfig` to set multicast mode or
        delta compression.  Accounting only — trajectories, checkpoints,
        and the flat traffic counters are bitwise unchanged.
    """

    #: Fingerprint mode: node count, backend and migration cadence are
    #: deliberately absent from the fingerprint — by parallel invariance
    #: they influence only traffic, never the trajectory bits, so
    #: snapshots restore across any machine configuration.
    mode = "machine"
    io_timer = "machine_io"

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        n_nodes: int = 8,
        dt: float = 2.5,
        fixed_config: FixedPointConfig = FixedPointConfig(),
        subbox_divisions: int = 1,
        migration_interval: int = 4,
        bond_reassign_interval: int = 100_000,
        thermostat=None,
        constraints: bool = True,
        hw: AntonHardware = ANTON_2008,
        backend="vectorized",
        kernel_tier: str | None = None,
        kernel_threads: int | None = None,
        faults=None,
        fault_seed: int = 0,
        recovery: RecoveryPolicy | None = None,
        routed=False,
    ):
        if params.quantize_mesh_bits is None:
            params = replace(params, quantize_mesh_bits=40)
        self.system = system
        self.params = params
        self.hw = hw
        self.dt = float(dt)
        self.fixed_config = fixed_config
        self.topology = TorusTopology.for_node_count(n_nodes)
        if faults is not None and not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(seed=fault_seed, rates=faults)
        self.fault_schedule = faults
        self.network = (
            FaultyNetwork(self.topology) if faults is not None else SimNetwork(self.topology)
        )
        self.router = None
        if routed:
            config = routed if isinstance(routed, RoutedConfig) else None
            self.router = LinkRouter(self.topology, config, hw)
            self.network.attach_router(self.router)
        self.decomp = SpatialDecomposition(system.box, self.topology, subbox_divisions)
        self.migration = MigrationSchedule(
            self.decomp, system.topology, interval=migration_interval
        )
        self.bond_reassign_interval = int(bond_reassign_interval)
        self.owners = self.migration.initialize(system.positions)
        self.bond_assignment = assign_bond_terms(system.topology, self.owners, hw)
        self.correction_lists = correction_pairs_per_node(system.exclusions, self.owners)
        self.dfft = None
        if all(mm % d == 0 for mm, d in zip(params.mesh, self.topology.dims)):
            self.dfft = DistributedFFT3D(params.mesh, self.topology, self.network)
        self.backend = make_backend(backend, kernel_tier, kernel_threads)
        self.calc = MachineForceCalculator(system, params, self, self.backend)
        solver = None
        if constraints and system.topology.n_constraints:
            solver = ConstraintSolver(
                system.topology, system.masses, system.box,
                kernels=self.backend.kernels,
            )
        self._wire_fixed_point(solver, thermostat)
        self.fault_controller = None
        if faults is not None:
            self.fault_controller = FaultController(
                faults, policy=recovery, timers=self.calc.timers
            )

    def close(self) -> None:
        """Release held resources.  Idempotent; the in-process backends
        hold none, so this is a no-op kept for callers' ``finally``
        blocks."""

    # -- traffic accounting -------------------------------------------------

    def _node_occupancy(self) -> np.ndarray:
        """Atoms per home box at the current positions (by box id)."""
        coords = self.decomp.box_coord(self.integrator.positions)
        dims = self.decomp.dims
        flat = (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]
        return np.bincount(flat, minlength=self.topology.n_nodes)

    def account_position_import(self) -> None:
        """Charge the NT position import: whole remote boxes of each
        node's tower and plate, one multicast message per remote box,
        plus bond-destination position sends."""
        with self.calc.timers.time("machine_traffic"):
            self.backend.account_position_import(self)
            # Bond destinations: atoms' positions sent to remote term
            # nodes.  Charged as aggregate volume (sources and
            # destinations are adjacent by construction) with no hop
            # weighting, so it deliberately bypasses the router — the
            # per-link sums stay an exact decomposition of hop_bytes.
            n_msgs = self.bond_assignment.destination_messages(self.owners)
            if n_msgs:
                stats = self.network.stats
                stats.messages += n_msgs
                stats.bytes += n_msgs * self.hw.bytes_per_position
                stats.charge_tag(
                    "bond_destinations", n_msgs, n_msgs * self.hw.bytes_per_position
                )

    def account_force_export(self, pair_nodes: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
        """Charge force returns from computing nodes to atom owners.

        One message per (computing node, owner) route per step, sized by
        the exact count of exported per-atom force sums on that route.
        """
        with self.calc.timers.time("machine_traffic"):
            self.backend.account_force_export(self, pair_nodes, i, j)

    def account_fft(self) -> None:
        """Charge forward + inverse FFT redistributions."""
        if self.dfft is not None:
            for axis in (2, 1, 0):
                self.dfft._charge_axis_phase(axis)
            for axis in (0, 1, 2):
                self.dfft._charge_axis_phase(axis)

    def account_migration(self, n_migrated: int) -> None:
        # Aggregate volume with no routes or hop weighting (migrating
        # atoms move to an adjacent box); bypasses the router like the
        # bond-destination charge above.
        self.network.stats.messages += n_migrated
        self.network.stats.bytes += n_migrated * 64
        self.network.stats.charge_tag("migration", n_migrated, n_migrated * 64)

    # -- running ------------------------------------------------------------

    def reassign_bond_terms(self) -> None:
        """Recompute the static bond-term placement from current owners.

        "To ensure that the bond destinations for each atom remain on
        nodes close to the atom's home node as the chemical system
        evolves, we recompute the assignment of bond terms to GCs
        roughly every 100,000 time steps" (Section 3.2.3).  Placement
        affects only communication, never the force bits.
        """
        self.bond_assignment = assign_bond_terms(self.system.topology, self.owners, self.hw)
        self.correction_lists = correction_pairs_per_node(self.system.exclusions, self.owners)

    def step(self, n: int = 1) -> None:
        """Advance n machine time steps.

        Each step is recorded as a ``machine_step`` phase whose
        children (position import, the integrator's ``step`` subtree,
        migration, bond reassignment) cover essentially all of the
        wall time — the basis of :meth:`profile`.
        """
        t = self.calc.timers
        for _ in range(n):
            with t.time("machine_step"):
                with t.time("import"):
                    self.account_position_import()
                self.integrator.step()
                with t.time("migration"):
                    event = self.migration.step(self.integrator.positions)
                    if event is not None:
                        self.account_migration(event.n_migrated)
                        self.owners = self.migration.owners
                if self.integrator.step_count % self.bond_reassign_interval == 0:
                    with t.time("bond_reassign"):
                        self.reassign_bond_terms()

    def run(
        self,
        n_steps: int,
        trajectory: TrajectoryWriter | None = None,
        trajectory_every: int = 0,
        checkpoint_store=None,
        checkpoint_every: int = 0,
    ) -> None:
        """Advance ``n_steps`` with durable-store hooks.

        Frames and rolling snapshots are emitted every
        ``trajectory_every`` / ``checkpoint_every`` steps of the
        *global* step count (:func:`~repro.core.run.run_steps`), so a
        resumed run writes at exactly the steps the uninterrupted run
        would have.  I/O time is charged to the ``machine_io`` timer
        (it is not part of a machine step).

        With fault injection armed (``faults=`` at construction), every
        step is bracketed by the :class:`~repro.fault.FaultController`:
        the wire ledger records the step's traffic, the barrier audit
        detects and retries message faults, and a node crash rolls the
        machine back to the newest valid checkpoint — ``checkpoint_store``
        when given, else the controller's in-memory snapshot ring — and
        replays deterministically.  Replayed steps charge their traffic
        to the network's recovery pool and skip store writes that
        already happened, so both the primary traffic statistics and
        the on-disk artifacts of a healed run are exactly a clean run's.
        """
        run_steps(
            self, n_steps,
            trajectories=[trajectory], trajectory_every=trajectory_every,
            checkpoint_stores=[checkpoint_store], checkpoint_every=checkpoint_every,
        )

    # Defined in this class's own dict (with checkpoint below): the
    # benchmark tracer patches both here.
    write_frame = Engine.write_frame

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot of the exact machine state (integer codes).

        The solo checkpoint schema (integrator state codes, step count,
        MTS call counter) plus what influences future traffic: atom
        ownership and the migration clock.
        """
        chk = self._checkpoint()
        chk.update(
            owners=self.owners.copy(),
            steps_since_migration=self.migration.steps_since_migration,
            migration_step=self.migration._step,
            n_nodes=self.topology.n_nodes,
        )
        return chk

    def restore(self, chk: dict) -> None:
        """Resume bit-exactly from a :meth:`checkpoint` snapshot.

        Works across machines and backends: state codes are integer,
        ownership-derived placement affects only traffic, and the
        integrator's replay of the force evaluation with the rewound
        MTS counter reproduces the same long-range schedule decision —
        so the continued trajectory is bitwise the uninterrupted one.
        """
        self._check_checkpoint(chk)
        if int(chk.get("n_nodes", self.topology.n_nodes)) == self.topology.n_nodes:
            self.owners = chk["owners"].copy()
        else:
            # Snapshot from a different machine configuration: its
            # ownership map indexes another torus.  Reassign from the
            # restored positions — placement affects only traffic,
            # never the trajectory bits.
            self.owners = self.migration.initialize(self.integrator.pos_codec.decode(chk["X"]))
        self.migration.owners = self.owners
        self.migration.steps_since_migration = int(chk["steps_since_migration"])
        self.migration._step = int(chk["migration_step"])
        self.reassign_bond_terms()
        self.integrator.restore(chk)

    # -- observability -------------------------------------------------------

    def state_codes(self):
        return self.integrator.state_codes()

    def traffic_summary(self) -> dict[str, tuple[int, int]]:
        """(messages, bytes) per traffic class since construction.

        Primary traffic only: retransmissions and rollback-replay
        traffic live in :meth:`recovery_traffic_summary`, so these
        numbers match a fault-free run exactly (the Table 3 contract).
        """
        stats = self.network.stats
        if isinstance(self.network, FaultyNetwork):
            stats = self.network.primary_stats
        return dict(stats.by_tag)

    def recovery_traffic_summary(self) -> dict:
        """Fault-recovery traffic: retransmits plus replayed-step charges.

        Zero everywhere for machines built without ``faults=``.
        """
        if not isinstance(self.network, FaultyNetwork):
            return {"retransmit": (0, 0), "replay": (0, 0)}
        primary = self.network.primary_stats
        replay = self.network.recovery_stats
        return {
            "retransmit": (primary.retransmit_messages, primary.retransmit_bytes),
            "replay": (replay.messages, replay.bytes),
            "retransmit_by_tag": dict(primary.by_tag_retransmit),
        }

    def network_report(self, top: int = 3) -> dict:
        """Routed-fabric occupancy and congestion, per step so far.

        Requires ``routed=True`` at construction.  Per-phase critical
        links, multicast/compression savings, and the congested
        communication time (see :meth:`repro.network.LinkRouter.report`).
        """
        if self.router is None:
            raise ValueError("machine was built without routed=True")
        return self.router.report(steps=max(self.integrator.step_count, 1), top=top)

    def fault_report(self) -> dict[str, int]:
        """Fault/retry/rollback counters (empty without injection)."""
        if self.fault_controller is None:
            return {}
        return self.fault_controller.report()

    def messages_per_node_per_step(self) -> float:
        steps = max(self.integrator.step_count, 1)
        return self.network.stats.messages / (steps * self.topology.n_nodes)

    def phase_timings(self) -> dict[str, float]:
        """Cumulative seconds per engine phase.

        Covers the ``machine_*`` bookkeeping phases and the ``mesh_*``
        sub-phases (plan build, spread, FFT solve, interpolation) the
        backends charge inside ``machine_mesh``.
        """
        return {
            k: v
            for k, v in self.calc.timers.elapsed.items()
            if k.startswith(("machine_", "mesh_"))
        }

    def profile(self) -> dict:
        """Hierarchical per-step phase profile (the ``--profile`` dump).

        Returns per-step seconds for every phase recorded under the
        ``machine_step`` umbrella, nested exactly as the phases ran
        (``step -> force -> machine_mesh -> mesh_spread``...), plus two
        attribution ratios: ``coverage``, the fraction of the measured
        step wall time accounted for by its top-level children, and the
        stricter ``leaf_coverage``, the fraction attributed all the way
        down to *named leaf phases* — time inside a parent phase but in
        none of its children counts as unattributed, so this is the
        number that exposes hidden per-step bookkeeping.
        """
        out = self.calc.timers.profile("machine_step")
        out["kernel_tier"] = self.backend.kernels.tier
        out["kernel_threads"] = getattr(self.backend.kernels, "threads", 1)
        if self.router is not None:
            out["network"] = self.network_report()
        if self.fault_controller is not None:
            out["faults"] = self.fault_report()
            out["recovery_traffic"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.recovery_traffic_summary().items()
            }
        return out

    def engine_seconds(self) -> float:
        """Cumulative machine-bookkeeping time (the backend-sensitive part).

        Sums NT assignment, force deposits, and traffic accounting —
        the phases whose cost depends on the execution backend — and
        excludes the physics kernels (pair forces, FFT, bonded) that
        every backend runs identically.
        """
        e = self.calc.timers.elapsed
        return sum(e.get(k, 0.0) for k in ENGINE_TIMERS)
