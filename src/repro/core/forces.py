"""Force orchestration: one object that evaluates the full force field.

Composes the substrates exactly as a time step does (Table 2's rows):

* range-limited forces (LJ + screened Coulomb, analytic or tabulated)
* charge spreading -> FFT -> convolution -> inverse FFT -> force
  interpolation (GSE)
* correction forces for excluded / 1-4 pairs
* bonded forces

and produces either dense float forces (reference path) or
order-invariant fixed-point force codes (Anton path).  Multiple
time-stepping ("long-range interactions are typically evaluated only
every two or three time steps") is provided by :class:`MTSForceProvider`.

:class:`ForceCalculator` is the one force skeleton of the solo, machine
and ensemble engines, written for R replicas stacked along the atom
axis (R = 1 for solo and the machine).  It owns the one k-space pass,
:meth:`ForceCalculator._mesh_pass`: the stencil plan, spreading, mesh
solve and interpolation for all R replicas, in blocks sized against
``repro.ewald.gse.PLAN_MAX_ELEMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import ChemicalSystem
from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    correction_forces_static,
    precompute_correction_static,
    self_energy,
)
from repro.ewald import gse as gse_module
from repro.fixedpoint import FixedAccumulator, round_nearest_even
from repro.forcefield import (
    all_bonded_forces,
    build_kernel_tables,
    nonbonded_real_space,
    nonbonded_real_space_tabulated,
    scatter_forces,
)
from repro.forcefield.nonbonded import NonbondedResult
from repro.geometry import NeighborList
from repro.kernels import get_suite, make_pair_spec

__all__ = ["MDParams", "ForceReport", "ForceCalculator", "MTSForceProvider"]


@dataclass(frozen=True)
class MDParams:
    """Tunable simulation parameters (the knobs of Table 2).

    ``cutoff``/``mesh`` trade real-space against Fourier work;
    ``kernel_mode`` selects analytic float64 kernels or the PPIP-style
    tiered tables; ``long_range_every`` is the MTS interval.
    """

    cutoff: float = 9.0
    #: Verlet-list buffer radius (A).  Pairs are cached out to
    #: ``cutoff + skin`` and the list is rebuilt only when an atom has
    #: moved more than ``skin/2`` since the last build; 0 rebuilds
    #: every evaluation.  Results are bitwise independent of the skin.
    skin: float = 2.0
    mesh: tuple[int, int, int] = (32, 32, 32)
    ewald_tolerance: float = 1e-5
    lj_mode: str = "shift_force"
    kernel_mode: str = "analytic"
    long_range_every: int = 1
    table_mantissa_bits: int = 22
    #: Fixed-point bits for mesh-charge accumulation; None keeps float
    #: spreading.  Set (e.g. 40) when bitwise parallel invariance of
    #: the mesh pipeline matters (the machine simulation requires it).
    quantize_mesh_bits: int | None = None
    #: Disable Coulomb entirely (bead models); also auto-disabled when
    #: every charge is zero.
    electrostatics: bool = True


@dataclass
class ForceReport:
    """Forces plus the per-component energy breakdown of one evaluation.

    ``timings`` holds the wall time (seconds) each component of *this*
    evaluation charged to the calculator's :class:`~repro.perf.Timers`.
    """

    forces: np.ndarray
    energies: dict = field(default_factory=dict)
    n_pairs: int = 0
    timings: dict = field(default_factory=dict)

    @property
    def potential_energy(self) -> float:
        return float(sum(self.energies.values()))


class ForceCalculator:
    """Evaluates all force-field components for one system.

    The solo calculator runs the NumPy kernel suite; the machine and
    ensemble engines subclass it with their own suite (``kernels``) and
    deposits.  ``replicas`` is the number of copies of one system
    stacked along the atom axis; the one neighbor list is built with
    the calculator's suite and replica count.
    """

    #: Timer name of each force phase.  Engines rename some (the
    #: ensemble's ``ensemble_*``) so profiles tell their work apart.
    phases = {p: p for p in ("pair_list", "range_limited", "correction", "kspace",
                             "deposit", "collect")}

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        kernels=None,
        replicas: int = 1,
    ):
        # Deferred import: repro.perf pulls in workload -> repro.core.
        from repro.perf.timers import Timers

        self.system = system
        self.params = params
        self.timers = Timers()
        self.kernels = kernels if kernels is not None else get_suite("numpy", 1)
        self.replicas = int(replicas)
        self.neighbor_list = NeighborList(
            system.box,
            params.cutoff,
            skin=params.skin,
            exclusions=system.exclusions,
            timers=self.timers,
            kernels=self.kernels,
            replicas=self.replicas,
        )
        self.electrostatics = bool(params.electrostatics) and bool(np.any(system.charges != 0))
        if self.electrostatics:
            gse_params = GSEParams.choose(
                system.box, params.cutoff, params.mesh, real_space_tolerance=params.ewald_tolerance
            )
            self.gse = GaussianSplitEwald(system.box, gse_params)
            self.sigma = gse_params.sigma
        else:
            from repro.ewald import choose_sigma

            self.gse = None
            # A sigma is still needed for kernel shapes; with zero
            # charges every Coulomb term vanishes identically.
            self.sigma = choose_sigma(params.cutoff, params.ewald_tolerance)
        self.tables = None
        if params.kernel_mode == "table":
            self.tables = build_kernel_tables(
                params.cutoff, self.sigma, mantissa_bits=params.table_mantissa_bits
            )
        elif params.kernel_mode != "analytic":
            raise ValueError(f"unknown kernel_mode {params.kernel_mode!r}")
        self.mesh_codec = None
        if params.quantize_mesh_bits is not None:
            from repro.fixedpoint import FixedFormat, ScaledFixed

            # Mesh charge magnitudes are bounded by a few elementary
            # charges times the (sub-unity) Gaussian weight.
            self.mesh_codec = ScaledFixed(FixedFormat(params.quantize_mesh_bits), limit=8.0)
        # Self energy is configuration-independent: compute once.
        self._e_self = self_energy(system.charges, self.sigma)
        # Correction-pair indices/charge products/LJ coefficients are
        # topology-derived and never change: gather them once.
        self._corr_static = precompute_correction_static(
            system.charges, system.type_ids, system.lj, system.exclusions
        )
        # Fixed-point scratch reused across evaluations: the pooled
        # short/long accumulators and the fused pair kernel's outputs.
        self._acc: dict[str, FixedAccumulator] = {}
        self._pair_out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._pair_spec = None
        self._pair_spec_codec = None
        #: Mesh stencil plan storage, refilled by every mesh block.
        self._plan = None

    # -- contribution gathering -------------------------------------------

    def _nonbonded(self, pairs):
        s = self.system
        if self.tables is not None:
            return nonbonded_real_space_tabulated(
                pairs, s.charges, s.type_ids, s.lj, s.exclusions, self.tables,
                assume_filtered=True,
            )
        return nonbonded_real_space(
            pairs, s.charges, s.type_ids, s.lj, s.exclusions, self.sigma,
            lj_mode=self.params.lj_mode, cutoff=self.params.cutoff,
            assume_filtered=True,
        )

    def _range_limited(self, positions: np.ndarray):
        with self.timers.time(self.phases["pair_list"]):
            pairs = self.neighbor_list.pairs(positions)
        with self.timers.time(self.phases["range_limited"]):
            return self._nonbonded(pairs)

    def _bonded(self, positions: np.ndarray):
        with self.timers.time("bonded"):
            return all_bonded_forces(positions, self.system.box, self.system.topology)

    def _corrections(self, positions: np.ndarray):
        with self.timers.time(self.phases["correction"]):
            return correction_forces_static(
                positions, self.system.box, self._corr_static, self.sigma
            )

    def _long_energies(self, corr, e_k) -> dict:
        return {
            "correction": corr.energy_exclusion + corr.energy_14_coul,
            "lj14": corr.energy_14_lj,
            "coulomb_kspace": e_k,
            "coulomb_self": self._e_self,
        }

    def _kspace(self, positions: np.ndarray):
        """(energy, dense float forces) of the GSE mesh part."""
        with self.timers.time(self.phases["kspace"]):
            energies, forces = self._mesh_pass(positions)
        return self._kspace_energies(energies), forces

    def _kspace_energies(self, energies: np.ndarray):
        """The k-space energy term from its ``(R,)`` per-replica values."""
        return float(energies[0])

    def _mesh_pass(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-replica k-space energies ``(R,)`` and dense float mesh forces.

        The one plan -> spread -> solve -> interpolate pass, over the
        ``replicas`` stacked copies (replica r owns atom rows
        ``[r*N, (r+1)*N)``).  Blocks are sized against
        ``PLAN_MAX_ELEMENTS``, read at call time: the whole stack when
        its plan fits, else one replica per block, every block refilling
        the one plan buffer kept across steps.  A replica whose plan
        alone is over budget runs :meth:`GaussianSplitEwald.kspace`'s
        atom-chunked path.  Each route gives every replica its solo
        bits: plan kernels are per-atom arithmetic followed by
        commutative or view-restarted reductions.
        """
        g, R = self.gse, self.replicas
        n = len(positions) // R
        q = self.system.charges[:n]
        per_replica = n * g.stencil_size()
        budget = gse_module.PLAN_MAX_ELEMENTS
        block = R if R * per_replica <= budget else 1
        energies = np.empty(R)
        forces = np.empty((R * n, 3))
        for lo in range(0, R, block):
            rows = slice(lo * n, (lo + block) * n)
            if per_replica > budget:
                energies[lo], forces[rows] = g.kspace(positions[rows], q, codec=self.mesh_codec)
            else:
                energies[lo : lo + block] = self._mesh_block(positions[rows], q, block, forces[rows])
        return energies, forces

    def _mesh_block(self, positions, q, R: int, out: np.ndarray) -> np.ndarray:
        """Mesh pass over one block of ``R`` replicas with charges ``q``.

        Writes the forces into ``out`` and returns the ``(R,)`` energies.
        One replica runs the engine's full suite (compiled plan build,
        threaded spreading and interpolation).  A stack farms its
        replicas to the suite's pool with the single-threaded ``serial``
        suite (C lanes are never nested inside Python threads): each
        replica owns disjoint plan rows, mesh slab and force rows, and
        its row view restarts every chunk loop at its first row, so the
        farming reorders no reduction.
        """
        g, t, codec, k = self.gse, self.timers, self.mesh_codec, self.kernels
        n = len(q)
        suite = k if R == 1 else k.serial
        shape = (R, *(int(m) for m in g.mesh))
        with t.time("mesh_plan"):
            self._plan = plan = g.make_plan(
                positions, out=self._plan, max_elements=None, kernels=k
            )
        views = [plan] if R == 1 else plan._thread_views(R)[1]
        with t.time("mesh_spread"):
            if codec is not None:
                acc = np.zeros((R, g.mesh_point_count()), dtype=np.int64)
                k.map_chunks(
                    lambda r: views[r].spread_codes(q, acc[r], codec, kernels=suite), R
                )
                Q = codec.reconstruct(codec.wrap(acc)).reshape(shape)
            else:
                Q = np.zeros((R, g.mesh_point_count()))
                for r in range(R):
                    views[r].spread_float(q, Q[r])
                Q = Q.reshape(shape)
        with t.time("mesh_fft"):
            if R > 1 and k.threads == 1:
                phi, energies = g.solve_stack(Q)
            else:
                # Per-replica solves (pocketfft releases the GIL); the
                # stacked solve is pinned bitwise to them.
                phi, energies = np.empty(shape), np.empty(R)

                def _solve(r):
                    phi[r], energies[r] = g.solve(Q[r])

                k.map_chunks(_solve, R)
        with t.time("mesh_interp"):
            k.map_chunks(
                lambda r: views[r].interpolate_forces(
                    q, phi[r], out=out[r * n : (r + 1) * n], kernels=suite
                ),
                R,
            )
        return energies

    # -- float path -----------------------------------------------------------

    def compute_long(self, positions: np.ndarray) -> ForceReport:
        """Long-range components only: corrections + mesh electrostatics.

        Virtual-site redistribution is NOT applied here; callers that
        combine parts apply it once on the combined force.
        """
        s = self.system
        before = self.timers.snapshot()
        forces = np.zeros((s.n_atoms, 3))
        corr = self._corrections(positions)
        np.add.at(forces, corr.i, corr.force)
        np.add.at(forces, corr.j, -corr.force)
        e_k = 0.0
        if self.gse is not None:
            e_k, f_k = self._kspace(positions)
            forces += f_k
        return ForceReport(
            forces=forces, energies=self._long_energies(corr, e_k),
            timings=self.timers.delta_since(before),
        )

    def compute(self, positions: np.ndarray, include_long_range: bool = True) -> ForceReport:
        """Dense float64 forces and the energy breakdown."""
        s = self.system
        n = s.n_atoms
        before = self.timers.snapshot()
        forces = np.zeros((n, 3))
        energies: dict[str, float] = {}

        nb = self._range_limited(positions)
        np.add.at(forces, nb.i, nb.force)
        np.add.at(forces, nb.j, -nb.force)
        energies["lj"] = nb.energy_lj
        energies["coulomb_real"] = nb.energy_coul

        bonded = self._bonded(positions)
        forces += scatter_forces(n, bonded)
        energies["bond"] = bonded[0].energy
        energies["angle"] = bonded[1].energy
        energies["dihedral"] = bonded[2].energy

        if include_long_range:
            long_part = self.compute_long(positions)
            forces += long_part.forces
            energies.update(long_part.energies)

        s.spread_virtual_site_forces(forces)
        return ForceReport(
            forces=forces,
            energies=energies,
            n_pairs=nb.n_pairs,
            timings=self.timers.delta_since(before),
        )

    # -- fixed-point path ---------------------------------------------------------
    #
    # One skeleton serves the solo, machine and ensemble engines: every
    # contribution is quantized once and integer-accumulated, so an
    # engine decides only *where* the same codes are deposited
    # (``_deposit_*``, ``_kspace_fixed``) and how energies are reduced
    # (``_pair_energies``, ``_term_energies``), never the force bits.

    def _accumulator(self, slot: str, force_codec) -> FixedAccumulator:
        """A zeroed per-evaluation accumulator from the reuse pool.

        Two slots ("short", "long") exist because the long-range pass
        runs while the short-range accumulator is live.  Callers
        consume ``acc.raw()``/``acc.total()`` before the next evaluation
        (the MTS provider and :meth:`compute_fixed` both do), so reuse
        is invisible.
        """
        acc = self._acc.get(slot)
        shape = (self.system.n_atoms, 3)
        if acc is None or acc.shape != shape or acc.fmt != force_codec.fmt:
            acc = self._acc[slot] = FixedAccumulator(shape, force_codec.fmt)
        else:
            acc.zero()
        return acc

    def _pair_buffers(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(codes, e_lj, e_coul) output scratch for >= ``n`` pairs."""
        out = self._pair_out
        if out is None or out[0].shape[0] < n:
            cap = max(int(n * 1.25), 1024)
            out = (
                np.empty((cap, 3), dtype=np.int64),
                np.empty(cap, dtype=np.float64),
                np.empty(cap, dtype=np.float64),
            )
            self._pair_out = out
        return out

    def _range_limited_codes(self, positions: np.ndarray, force_codec):
        """Range-limited pair result plus its quantized int64 force codes.

        With tabulated kernels on the compiled tier this is the fused C
        kernel (table evaluation straight to codes, no intermediate
        float force array); otherwise the NumPy kernels plus one
        quantization.  Codes and energies are bitwise identical either
        way — the fused kernel's contract.
        """
        with self.timers.time(self.phases["pair_list"]):
            pairs = self.neighbor_list.pairs(positions)
        with self.timers.time(self.phases["range_limited"]):
            if self.kernels.tier != "compiled" or self.tables is None:
                nb = self._nonbonded(pairs)
                return nb, force_codec.quantize_round_only(nb.force)
            s = self.system
            if self._pair_spec is None or self._pair_spec_codec is not force_codec:
                self._pair_spec = make_pair_spec(
                    self.tables, s.lj, s.charges, s.type_ids, force_codec
                )
                self._pair_spec_codec = force_codec
            n = len(pairs.i)
            codes, e_lj, e_coul = self._pair_buffers(n)
            self.kernels.pair_table_codes(
                self._pair_spec, pairs.i, pairs.j, pairs.dx, pairs.r2,
                codes, e_lj, e_coul,
            )
            nb = NonbondedResult(
                energy_lj=float(np.sum(e_lj[:n])),
                energy_coul=float(np.sum(e_coul[:n])),
                i=pairs.i,
                j=pairs.j,
                force=None,
                e_lj_pairs=e_lj[:n],
                e_coul_pairs=e_coul[:n],
            )
        return nb, codes[:n]

    def _deposit_range_limited(self, positions, force_codec, acc) -> NonbondedResult:
        """Compute and deposit the range-limited pairs; return the pair result."""
        nb, codes = self._range_limited_codes(positions, force_codec)
        with self.timers.time(self.phases["deposit"]):
            self.kernels.deposit_pairs(acc.raw(), nb.i, nb.j, codes)
        return nb

    def _deposit_bonded(self, acc, bonded, force_codec) -> None:
        with self.timers.time(self.phases["deposit"]):
            for contrib in bonded:
                if contrib.n_terms:
                    c = force_codec.quantize_round_only(contrib.force)
                    self.kernels.scatter_rows(acc.raw(), contrib.idx.ravel(), c.reshape(-1, 3))

    def _deposit_corrections(self, acc, corr, force_codec) -> None:
        with self.timers.time(self.phases["deposit"]):
            ccodes = force_codec.quantize_round_only(corr.force)
            self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)

    def _kspace_fixed(self, positions, acc, force_codec):
        """Deposit the mesh forces; return the k-space energy."""
        if self.gse is None:
            return self._kspace_energies(np.zeros(self.replicas))
        e_k, f_k = self._kspace(positions)
        with self.timers.time(self.phases["deposit"]):
            acc.deposit_dense(force_codec.quantize_round_only(f_k))
        return e_k

    def _pair_energies(self, nb):
        """(LJ, real-space Coulomb) energies of the range-limited pairs."""
        return nb.energy_lj, nb.energy_coul

    def _term_energies(self, bonded):
        """(bond, angle, dihedral) energies."""
        return tuple(contrib.energy for contrib in bonded)

    def compute_long_fixed(
        self, positions: np.ndarray, force_codec
    ) -> tuple[np.ndarray, dict]:
        """Fixed-point codes of the long-range components only.

        Raw (unwrapped) int64 sums — callers combine with short-range
        codes and wrap once.  No vsite redistribution here.
        """
        acc = self._accumulator("long", force_codec)
        corr = self._corrections(positions)
        self._deposit_corrections(acc, corr, force_codec)
        e_k = self._kspace_fixed(positions, acc, force_codec)
        return acc.raw(), self._long_energies(corr, e_k)

    def compute_fixed(
        self, positions: np.ndarray, force_codec, include_long_range: bool = True
    ) -> tuple[np.ndarray, ForceReport]:
        """Order-invariant fixed-point force codes.

        Every contribution (per pair, per bonded term, per atom of the
        mesh interpolation) is quantized once with ``force_codec`` and
        integer-accumulated, so the total is independent of evaluation
        and summation order — the machine simulation distributes these
        same contributions over nodes and obtains identical bits.
        Energy keys are inserted in one fixed order, so summing a
        report's values always runs the same float additions.
        """
        before = self.timers.snapshot()
        acc = self._accumulator("short", force_codec)
        energies: dict = {}

        nb = self._deposit_range_limited(positions, force_codec, acc)
        energies["lj"], energies["coulomb_real"] = self._pair_energies(nb)

        bonded = self._bonded(positions)
        self._deposit_bonded(acc, bonded, force_codec)
        energies["bond"], energies["angle"], energies["dihedral"] = self._term_energies(bonded)

        if include_long_range:
            long_codes, long_energies = self.compute_long_fixed(positions, force_codec)
            with self.timers.time(self.phases["deposit"]):
                acc.deposit_dense(long_codes)
            energies.update(long_energies)

        with self.timers.time(self.phases["collect"]):
            total = self._spread_vsite_codes(acc.total())
            report = ForceReport(
                forces=force_codec.reconstruct(total),
                energies=energies,
                n_pairs=nb.n_pairs,
                timings=self.timers.delta_since(before),
            )
        return total, report

    def _spread_vsite_codes(self, codes: np.ndarray) -> np.ndarray:
        """Redistribute vsite force codes to parents (integer-exact)."""
        top = self.system.topology
        if not len(top.vsite_idx):
            return codes
        sidx, p, r1, r2 = (top.vsite_idx[:, c] for c in range(4))
        w = top.vsite_weight[:, None]
        fs = codes[sidx].astype(np.float64)
        codes[sidx] = 0
        with np.errstate(over="ignore"):
            np.add.at(codes, p, round_nearest_even((1.0 - 2.0 * w) * fs).astype(np.int64))
            np.add.at(codes, r1, round_nearest_even(w * fs).astype(np.int64))
            np.add.at(codes, r2, round_nearest_even(w * fs).astype(np.int64))
        return codes


class MTSForceProvider:
    """Impulse (Verlet-I / r-RESPA) multiple-time-step force schedule.

    Long-range forces are evaluated every ``k = long_range_every``
    calls and applied as an impulse with weight ``k``; in between, the
    provider returns only range-limited + bonded forces.  Energies
    report the most recent long-range values so monitoring stays
    meaningful on every step.
    """

    def __init__(self, calc: ForceCalculator, force_codec=None):
        self.calc = calc
        self.force_codec = force_codec
        self.k = calc.params.long_range_every
        self.calls = 0
        self.long_evaluations = 0
        self._last_long_energies: dict[str, float] = {}

    def __call__(self, positions: np.ndarray):
        if self.k == 1:
            # Single-rate fast path: one combined evaluation.
            self.calls += 1
            self.long_evaluations += 1
            if self.force_codec is not None:
                return self.calc.compute_fixed(positions, self.force_codec)
            report = self.calc.compute(positions)
            return report.forces, report
        include_long = self.calls % self.k == 0
        if self.force_codec is not None:
            out, report = self.calc.compute_fixed(
                positions, self.force_codec, include_long_range=False
            )
            if include_long:
                long_codes, long_energies = self.calc.compute_long_fixed(
                    positions, self.force_codec
                )
                with np.errstate(over="ignore"):
                    raw = out.astype(np.int64) + np.int64(self.k) * long_codes
                out = self.calc._spread_vsite_codes(self.force_codec.wrap(raw))
                self._last_long_energies = long_energies
                self.long_evaluations += 1
        else:
            report = self.calc.compute(positions, include_long_range=False)
            out = report.forces
            if include_long:
                long_part = self.calc.compute_long(positions)
                out = out + self.k * long_part.forces
                self.calc.system.spread_virtual_site_forces(out)
                self._last_long_energies = long_part.energies
                self.long_evaluations += 1
        report.energies.update(self._last_long_energies)
        self.calls += 1
        return out, report
