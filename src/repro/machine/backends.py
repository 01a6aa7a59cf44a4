"""Execution backends for the functional machine simulation.

Both strategies plug into the one fixed-point force skeleton of
:class:`~repro.core.forces.ForceCalculator` (via
:class:`~repro.machine.machine.MachineForceCalculator`) and decide only
how a machine time step's per-node work is traversed:

* :class:`SerialBackend` — the literal per-node Python loops of the
  original implementation: deposits grouped node by node, GSE spreading
  and interpolation called once per owning node, traffic charged one
  ``send`` at a time.  Kept as the reference oracle and the baseline
  the scaling benchmark measures against.
* :class:`VectorizedBackend` (the default) — the same contributions
  deposited by single array kernels, owner grouping collapsed (integer
  accumulation commutes, so grouping cannot change the bits), cached
  import routes, and bincount-batched traffic accounting.  Its mesh
  phase is the base :meth:`MachineBackend.mesh_long_range`: the
  calculator's one k-space pass
  (:meth:`~repro.core.forces.ForceCalculator._mesh_pass`, the same one
  solo and ensemble runs use), then the FFT traffic and one dense
  deposit.

Both produce bitwise-identical ``state_codes()`` trajectories: every
force contribution is quantized once and integer-accumulated, so
*where* and *in what order* contributions are summed is invisible —
the paper's parallel-invariance argument (Section 4) applied to the
simulator's own execution strategy.

Backends also charge their engine phases to ``machine_*`` timers
(``machine_nt_assign``, ``machine_deposit``, ``machine_mesh``,
``machine_traffic``) on the calculator's
:class:`~repro.perf.timers.Timers`, and the mesh pipeline's sub-phases
to ``mesh_plan`` / ``mesh_spread`` / ``mesh_fft`` / ``mesh_interp``
(plus ``mesh_fft_traffic``) nested inside ``machine_mesh`` — the
breakdown ``repro machine --profile`` and the scaling benchmark
report.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import (
    NTAssignment,
    nt_assign_pairs,
    nt_node_tables,
    tower_plate_boxes,
)

__all__ = [
    "MachineBackend",
    "SerialBackend",
    "VectorizedBackend",
    "make_backend",
]

#: Largest box-pair count tabulated by the vectorized NT lookup; above
#: this (>= 2048 nodes) the direct per-pair computation is used.
_NT_TABLE_MAX_ENTRIES = 4 << 20


def _force_export_side(machine, pair_nodes: np.ndarray, atoms: np.ndarray):
    """Exact force-export routes for one side of the pair list.

    Each remote (atom, computing-node) contribution is one summed force
    vector travelling from the computing node to the atom's owner; the
    per-route byte count is the exact count of such vectors (times
    ``bytes_per_force``, floored at the minimum message size) — the old
    even-split integer division undercounted by up to
    ``len(routes) - 1`` force records per step.

    Returns ``(src, dst, nbytes)`` arrays, or None when nothing leaves
    its computing node.
    """
    owner = machine.owners[atoms]
    remote = pair_nodes != owner
    if not np.any(remote):
        return None
    n = np.int64(machine.topology.n_nodes)
    contrib = np.unique(atoms[remote] * n + pair_nodes[remote])
    c_src = contrib % n
    route = c_src * n + machine.owners[contrib // n]
    routes, counts = np.unique(route, return_counts=True)
    nbytes = np.maximum(
        counts * machine.hw.bytes_per_force, machine.hw.min_message_bytes
    )
    return routes // n, routes % n, nbytes


class MachineBackend:
    """Strategy interface for one machine step's per-node execution.

    ``kernel_tier`` selects the hot-loop implementation suite
    (:mod:`repro.kernels`): ``"numpy"`` (default) or ``"compiled"``
    (lazily built C, falling back to numpy when no compiler exists).
    ``kernel_threads`` sets the compiled tier's worker-lane count.
    Every tier/thread combination is bitwise identical, so both knobs
    compose freely with every backend and with fault-recovery replay.
    """

    name = "base"
    kernel_tier: str | None = None
    kernel_threads: int | None = None

    def bind(self, calc) -> None:
        """Attach to a MachineForceCalculator (called once by it)."""
        self.calc = calc
        from repro.kernels import get_suite

        self.kernels = get_suite(self.kernel_tier, self.kernel_threads)

    # -- force deposit phases -------------------------------------------

    def range_limited(self, calc, positions, force_codec, acc):
        """Compute + deposit range-limited pair forces; return (nb, assignment)."""
        raise NotImplementedError

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> None:
        """Deposit every bond term at once (placement cannot change the bits)."""
        for contrib in bonded:
            if contrib.n_terms:
                c = force_codec.quantize_round_only(contrib.force)
                self.kernels.scatter_rows(acc.raw(), contrib.idx.ravel(), c.reshape(-1, 3))

    def deposit_corrections(self, calc, acc, corr, ccodes) -> None:
        self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)

    def mesh_long_range(self, calc, positions, acc, force_codec) -> float:
        """The calculator's mesh pass, the FFT traffic, then one dense
        deposit; returns the k-space energy."""
        energies, forces = calc._mesh_pass(positions)
        with calc.timers.time("mesh_fft_traffic"):
            calc.machine.account_fft()
        with calc.timers.time("mesh_interp"):
            acc.deposit_dense(force_codec.quantize_round_only(forces))
        return calc._kspace_energies(energies)

    # -- traffic accounting ---------------------------------------------

    def account_position_import(self, machine) -> None:
        raise NotImplementedError

    def account_force_export(self, machine, pair_nodes, i, j) -> None:
        raise NotImplementedError


class SerialBackend(MachineBackend):
    """Per-node Python loops — the original execution strategy.

    Every phase iterates over simulated nodes (or routes) in Python, so
    its cost grows with the node count even though the physics does
    not.  This is the pre-vectorization baseline preserved for the
    scaling benchmark and for differential testing.
    """

    name = "serial"

    def _deposit_by_node(self, calc, acc, node, i, j, codes) -> None:
        """Deposit pair contributions node by node (ascending id)."""
        order = np.argsort(node, kind="stable")
        n_nodes = calc.machine.topology.n_nodes
        boundaries = np.searchsorted(node[order], np.arange(n_nodes + 1))
        for n in range(n_nodes):
            sel = order[boundaries[n] : boundaries[n + 1]]
            if len(sel):
                acc.deposit(i[sel], codes[sel])
                acc.deposit(j[sel], -codes[sel])

    def range_limited(self, calc, positions, force_codec, acc):
        m = calc.machine
        nb, codes = calc._range_limited_codes(positions, force_codec)
        with calc.timers.time("machine_nt_assign"):
            assign = nt_assign_pairs(m.decomp, positions, nb.i, nb.j)
        with calc.timers.time("machine_deposit"):
            self._deposit_by_node(calc, acc, assign.node, nb.i, nb.j, codes)
        return nb, assign

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> None:
        term_nodes = calc.machine.bond_assignment.term_node
        offset = 0
        for contrib in bonded:
            if contrib.n_terms:
                t_nodes = term_nodes[offset : offset + contrib.n_terms]
                c = force_codec.quantize_round_only(contrib.force)
                for n in np.unique(t_nodes):
                    sel = t_nodes == n
                    acc.deposit(contrib.idx[sel].ravel(), c[sel].reshape(-1, 3))
            offset += contrib.n_terms

    def deposit_corrections(self, calc, acc, corr, ccodes) -> None:
        corr_nodes = calc.machine.owners[corr.i]
        self._deposit_by_node(calc, acc, corr_nodes, corr.i, corr.j, ccodes)

    def mesh_long_range(self, calc, positions, acc, force_codec) -> float:
        s, m, gse = calc.system, calc.machine, calc.gse
        t = calc.timers
        # One shared stencil plan per evaluation; each node then spreads
        # and interpolates over the rows it owns.  Bitwise equal to the
        # old per-node weight rebuild: every plan kernel is per-atom
        # arithmetic plus a commutative reduction, so the row partition
        # is invisible in the bits.
        with t.time("mesh_plan"):
            plan = gse.make_plan(positions, kernels=self.kernels)
        mesh_acc = np.zeros(gse.mesh_point_count(), dtype=np.int64)
        node_rows = [np.nonzero(m.owners == n)[0] for n in range(m.topology.n_nodes)]
        with t.time("mesh_spread"):
            for rows in node_rows:
                if len(rows):
                    if plan is not None:
                        plan.spread_codes(s.charges, mesh_acc, calc.mesh_codec, rows=rows)
                    else:
                        gse.spread_contributions(
                            positions[rows], s.charges[rows], mesh_acc, calc.mesh_codec
                        )
        with t.time("mesh_unquantize"):
            Q = calc.mesh_codec.reconstruct(calc.mesh_codec.wrap(mesh_acc)).reshape(
                tuple(gse.mesh)
            )
        with t.time("mesh_fft_traffic"):
            m.account_fft()
        with t.time("mesh_fft"):
            phi, e_k = gse.solve(Q)

        # Force interpolation, per owning node.
        with t.time("mesh_interp"):
            for rows in node_rows:
                if len(rows):
                    if plan is not None:
                        f_k = plan.interpolate_forces(s.charges, phi, rows=rows)
                    else:
                        f_k = gse.interpolate_forces(positions[rows], s.charges[rows], phi)
                    acc.deposit(rows, force_codec.quantize_round_only(f_k))
        return e_k

    def account_position_import(self, machine) -> None:
        # Each occupied source box broadcasts its atoms to every node
        # whose tower/plate imports it — one multicast per source.  The
        # charged statistics equal the old per-route ``send`` loop
        # (multicast batches the same routes); grouping by source is
        # what lets an attached router model the NT broadcast as a
        # spanning tree instead of per-destination unicast paths.
        counts = machine._node_occupancy()
        reach = machine.params.cutoff + machine.migration.import_margin()
        dsts_of: dict[int, list[int]] = {}
        for node in range(machine.topology.n_nodes):
            tower, plate = tower_plate_boxes(
                machine.decomp, machine.topology.coord(node), reach
            )
            for bx in tower | plate:
                src = machine.topology.node_id(bx)
                if src == node or counts[src] == 0:
                    continue
                dsts_of.setdefault(src, []).append(node)
        for src in sorted(dsts_of):
            machine.network.multicast(
                src,
                dsts_of[src],
                int(counts[src]) * machine.hw.bytes_per_position,
                tag="position_import",
            )

    def account_force_export(self, machine, pair_nodes, i, j) -> None:
        for atoms in (i, j):
            out = _force_export_side(machine, pair_nodes, atoms)
            if out is None:
                continue
            for src, dst, nbytes in zip(*out):
                machine.network.send(int(src), int(dst), int(nbytes), tag="force_export")


class VectorizedBackend(MachineBackend):
    """Segmented group-by execution: one array kernel per phase.

    Owner/node grouping is dropped wherever integer accumulation makes
    it unobservable, the NT assignment reuses one ``box_coord`` pass
    over the whole configuration, the GSE mesh runs the calculator's
    one k-space pass over all atoms, and traffic is charged
    through :meth:`~repro.parallel.comm.SimNetwork.send_batch` with
    routes computed by array ops (position-import routes are static per
    machine and cached).  Bitwise identical to :class:`SerialBackend`.
    """

    name = "vectorized"

    def bind(self, calc) -> None:
        super().bind(calc)
        self._import_routes: tuple[np.ndarray, np.ndarray] | None = None
        self._nt_tables: tuple[np.ndarray, np.ndarray] | None = None

    def _assign_pairs(self, m, positions, i, j) -> NTAssignment:
        """NT assignment via the tabulated box-pair rule.

        The computing node is a pure function of the two home-box ids
        (see :func:`~repro.parallel.nt.nt_node_tables`), so per step
        the whole assignment is one ``box_coord`` pass over the
        configuration plus two gathers — identical bits to the direct
        rule at a fraction of the array passes.
        """
        n = m.topology.n_nodes
        if n * n > _NT_TABLE_MAX_ENTRIES:
            coords = m.decomp.box_coord(positions)
            return nt_assign_pairs(m.decomp, positions, i, j, atom_box_coords=coords)
        if self._nt_tables is None:
            self._nt_tables = nt_node_tables(m.decomp)
        node_tab, neutral_tab = self._nt_tables
        flat = m.decomp.node_of(positions)
        key = flat[i] * np.int64(n) + flat[j]
        return NTAssignment(
            node=node_tab.ravel()[key], neutral=neutral_tab.ravel()[key]
        )

    def range_limited(self, calc, positions, force_codec, acc):
        m = calc.machine
        nb, codes = calc._range_limited_codes(positions, force_codec)
        with calc.timers.time("machine_nt_assign"):
            assign = self._assign_pairs(m, positions, nb.i, nb.j)
        with calc.timers.time("machine_deposit"):
            self.kernels.deposit_pairs(acc.raw(), nb.i, nb.j, codes)
        return nb, assign

    def _import_route_arrays(self, machine) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) node ids of every tower/plate import route.

        The import region depends only on the decomposition and the
        (constant) reach, so the routes are computed once per machine.
        """
        if self._import_routes is None:
            reach = machine.params.cutoff + machine.migration.import_margin()
            srcs, dsts = [], []
            for node in range(machine.topology.n_nodes):
                tower, plate = tower_plate_boxes(
                    machine.decomp, machine.topology.coord(node), reach
                )
                for bx in tower | plate:
                    src = machine.topology.node_id(bx)
                    if src != node:
                        srcs.append(src)
                        dsts.append(node)
            self._import_routes = (
                np.asarray(srcs, dtype=np.int64),
                np.asarray(dsts, dtype=np.int64),
            )
        return self._import_routes

    def account_position_import(self, machine) -> None:
        counts = machine._node_occupancy()
        src, dst = self._import_route_arrays(machine)
        nbytes = counts[src] * machine.hw.bytes_per_position
        occupied = nbytes > 0
        # multicast_routes == send_batch for the flat statistics; an
        # attached router additionally groups the routes by source into
        # NT broadcast trees (matching the serial backend's grouping).
        machine.network.multicast_routes(
            src[occupied], dst[occupied], nbytes[occupied], tag="position_import"
        )

    def _force_export_side_counts(self, machine, pair_nodes, atoms):
        """Bincount equivalent of :func:`_force_export_side`.

        Both key spaces are small (``n_atoms * n_nodes`` and
        ``n_nodes**2``), so counting replaces the sort behind
        ``np.unique`` with linear passes.  Local contributions (the
        computing node owns the atom) survive to the route stage here
        but land on src == dst routes, which ``send_batch`` drops —
        the charged statistics are exactly the serial backend's.
        """
        n = np.int64(machine.topology.n_nodes)
        contrib = np.nonzero(np.bincount(atoms * n + pair_nodes))[0]
        route = (contrib % n) * n + machine.owners[contrib // n]
        counts = np.bincount(route, minlength=int(n * n))
        routes = np.nonzero(counts)[0]
        nbytes = np.maximum(
            counts[routes] * machine.hw.bytes_per_force, machine.hw.min_message_bytes
        )
        return routes // n, routes % n, nbytes

    def account_force_export(self, machine, pair_nodes, i, j) -> None:
        for atoms in (i, j):
            out = self._force_export_side_counts(machine, pair_nodes, atoms)
            machine.network.send_batch(*out, tag="force_export")


_BACKENDS = {
    "serial": SerialBackend,
    "vectorized": VectorizedBackend,
}


def make_backend(
    backend,
    kernel_tier: str | None = None,
    kernel_threads: int | None = None,
) -> MachineBackend:
    """Resolve a backend name (or pass through an instance).

    ``kernel_tier`` selects the hot-loop suite (``"numpy"`` or
    ``"compiled"``) and ``kernel_threads`` its worker-lane count;
    ``None`` defers to the instance's own setting and ultimately the
    ``REPRO_KERNEL_TIER`` / ``REPRO_KERNEL_THREADS`` environment
    variables.
    """
    if isinstance(backend, MachineBackend):
        if kernel_tier is not None:
            backend.kernel_tier = kernel_tier
        if kernel_threads is not None:
            backend.kernel_threads = kernel_threads
        return backend
    try:
        out = _BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(_BACKENDS)}"
        ) from None
    if kernel_tier is not None:
        out.kernel_tier = kernel_tier
    if kernel_threads is not None:
        out.kernel_threads = kernel_threads
    return out
