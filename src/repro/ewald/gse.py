"""Gaussian Split Ewald (GSE) — the paper's mesh electrostatics method.

GSE (Shan et al. 2005, ref [31]) replaces SPME's B-spline charge
assignment with *radially symmetric Gaussians*, which is what lets
Anton run charge spreading and force interpolation on the same
pairwise-point-interaction hardware as the range-limited forces
(Section 3.1): the interaction between an atom and a mesh point is a
table-driven function of the distance between them.

The splitting: the total screening Gaussian has width ``sigma``;
charges are spread onto the mesh with a narrower Gaussian ``sigma_s``
and forces interpolated back with the same ``sigma_s``, so the mesh
convolution carries the remaining width ``sigma² - 2 sigma_s²`` (which
must be positive).

Charge spreading and force interpolation share one
:class:`MeshStencilPlan` per evaluation: the separable axis weights
and mesh indices are computed once and reused by both passes (they are
identical by construction — the same radially symmetric kernel runs
both on Anton's HTIS), instead of being rebuilt per pass and, on the
serial machine backend, per owning node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ewald.kernels import choose_sigma
from repro.fixedpoint.accumulate import scatter_add_int64
from repro.geometry import Box
from repro.util import COULOMB

__all__ = ["GSEParams", "GaussianSplitEwald", "MeshStencilPlan"]

#: Default cap on plan storage, in elements (atoms x stencil points).
#: A plan stores ~12 bytes per element (float64 weight + int32 index),
#: so 16M elements is ~190 MB; above the cap :meth:`~GaussianSplitEwald
#: .make_plan` declines and callers fall back to chunked per-pass
#: evaluation (same kernels, same bits).
PLAN_MAX_ELEMENTS = 16_000_000

#: Atom rows per pass while filling a plan (bounds the r² scratch).
_PLAN_BUILD_CHUNK = 256

#: Atom rows per pass in the spreading / interpolation kernels (bounds
#: the per-chunk contribution buffers).  Chunking never changes bits:
#: the quantize/einsum arithmetic is per-atom and the scatters commute.
_KERNEL_CHUNK = 512


@dataclass(frozen=True)
class GSEParams:
    """Tunable parameters of a GSE evaluation.

    ``sigma`` is the total Ewald width (tied to the real-space cutoff),
    ``sigma_s`` the spreading/interpolation Gaussian, ``mesh`` the FFT
    grid, and ``spreading_cutoff`` the atom–mesh-point interaction
    radius (the paper's BPTI run used 7.1 A).
    """

    sigma: float
    sigma_s: float
    mesh: tuple[int, int, int]
    spreading_cutoff: float

    def __post_init__(self) -> None:
        if self.sigma**2 <= 2.0 * self.sigma_s**2:
            raise ValueError(
                f"need sigma^2 > 2 sigma_s^2 (got sigma={self.sigma}, sigma_s={self.sigma_s})"
            )
        if any(m < 4 for m in self.mesh):
            raise ValueError("mesh must be at least 4 points per axis")

    @classmethod
    def choose(
        cls,
        box: Box,
        cutoff: float,
        mesh: tuple[int, int, int],
        real_space_tolerance: float = 1e-5,
        sigma_s_factor: float = 0.5,
        spreading_radius_sigmas: float = 5.5,
        sigma_s_per_h: float = 1.05,
    ) -> "GSEParams":
        """Pick consistent GSE parameters for a cutoff and mesh.

        ``sigma`` comes from the real-space tolerance at the cutoff
        (larger cutoff -> larger sigma -> coarser mesh suffices: the
        Table 2 tradeoff).  ``sigma_s`` is a fixed fraction of sigma,
        floored at ``sigma_s_per_h`` mesh spacings so the grid resolves
        it (calibrated to land total force error in Table 4's 1e-5 to
        1e-4 band).
        """
        sigma = choose_sigma(cutoff, real_space_tolerance)
        h = float(np.max(box.lengths / np.asarray(mesh)))
        sigma_s = max(sigma_s_factor * sigma / math.sqrt(2.0), sigma_s_per_h * h)
        if sigma**2 <= 2.0 * sigma_s**2:
            raise ValueError(
                f"mesh {mesh} too coarse for cutoff {cutoff}: spreading "
                f"Gaussian {sigma_s:.2f} A cannot stay under sigma/sqrt(2)"
            )
        return cls(
            sigma=sigma,
            sigma_s=sigma_s,
            mesh=tuple(mesh),
            spreading_cutoff=spreading_radius_sigmas * sigma_s,
        )


class MeshStencilPlan:
    """Shared stencil weights/indices for one set of atom positions.

    Built once per mesh evaluation and reused by charge spreading,
    force interpolation, and potential interpolation.  Storage per atom
    is the masked 4-D weight cube ``w`` (n, kx, ky, kz), the flattened
    mesh indices ``flat`` (n, k) — int32 when the mesh fits, halving
    gather/scatter index traffic — and the three per-axis displacement
    rows ``axis_d`` used by the separable force contraction.  The full
    ``(n, k, 3)`` displacement tensor of the old per-pass path is never
    materialized.

    Every kernel is strictly per-atom arithmetic followed by a
    commutative reduction (integer scatter, float bincount in element
    order, or an einsum/sum over each atom's own stencil row), so the
    results are bitwise independent of how callers chunk or partition
    the ``rows`` they pass — the machine's parallel-invariance
    requirement.
    """

    __slots__ = ("gse", "n", "shape", "flat", "w", "axis_d", "_scratch", "_mt_views")

    def __init__(self, gse: "GaussianSplitEwald", n: int):
        kx, ky, kz = (int(2 * c + 1) for c in gse._offsets)
        self.gse = gse
        self.n = int(n)
        self.shape = (kx, ky, kz)
        idx_t = np.int32 if gse.mesh_point_count() <= np.iinfo(np.int32).max else np.int64
        self.flat = np.empty((self.n, kx * ky * kz), dtype=idx_t)
        self.w = np.empty((self.n, kx, ky, kz))
        self.axis_d = [np.empty((self.n, k)) for k in (kx, ky, kz)]
        self._scratch: np.ndarray | None = None
        self._mt_views = None

    def _buffer(self, chunk: int) -> np.ndarray:
        """Reusable (chunk, k) contribution buffer.

        Shared by the spreading and interpolation kernels (they never
        run concurrently) and kept across steps when the plan storage
        is reused, so the hot loops touch warm pages instead of
        faulting fresh allocations every evaluation.
        """
        k = self.flat.shape[1]
        if self._scratch is None or self._scratch.shape[0] < chunk:
            self._scratch = np.empty((chunk, k))
        return self._scratch

    # -- construction ------------------------------------------------------

    def build(self, positions: np.ndarray, kernels=None) -> "MeshStencilPlan":
        """Fill the plan for ``positions`` (row i of every array is atom i).

        With a compiled kernel suite, the heavy cube fill (weight outer
        product, r² mask, flattened indices — the only O(n·k³) work)
        runs as one fused C pass per chunk; the small per-axis arrays
        (``np.exp`` weights, displacements, wrapped indices) stay in
        NumPy, which keeps the bits trivially identical.
        """
        g = self.gse
        p = g.params
        kx, ky, kz = self.shape
        mesh = [int(m) for m in g.mesh]
        inv_2ss2 = 1.0 / (2.0 * p.sigma_s**2)
        norm = g._spread_norm
        c2 = p.spreading_cutoff**2
        positions = g.box.wrap(np.asarray(positions, dtype=np.float64))
        offs = [np.arange(-c, c + 1) for c in g._offsets]
        flat4 = self.flat.reshape(self.n, kx, ky, kz)
        use_c = (
            kernels is not None
            and kernels.tier == "compiled"
            and self.flat.dtype == np.int32
        )
        scratch = None
        if not use_c:
            scratch = np.empty((min(_PLAN_BUILD_CHUNK, self.n), kx, ky, kz))
        for lo in range(0, self.n, _PLAN_BUILD_CHUNK):
            hi = min(lo + _PLAN_BUILD_CHUNK, self.n)
            pos = positions[lo:hi]
            base = np.floor(pos / g.h).astype(np.int64)  # nearest-lower mesh pt
            axis_w, axis_d, axis_i = [], [], []
            for a in range(3):
                cells = base[:, a : a + 1] + offs[a][None, :]  # (m, ka)
                disp = pos[:, a : a + 1] - cells * g.h[a]
                self.axis_d[a][lo:hi] = disp
                axis_d.append(disp)
                axis_w.append(np.exp(-(disp * disp) * inv_2ss2))
                axis_i.append(np.mod(cells, g.mesh[a]).astype(self.flat.dtype))
            if use_c:
                kernels.mesh_plan_block(
                    axis_w[0] * norm, axis_w[1], axis_w[2],
                    axis_d[0], axis_d[1], axis_d[2],
                    axis_i[0], axis_i[1], axis_i[2],
                    mesh[1], mesh[2], c2,
                    self.w[lo:hi], flat4[lo:hi],
                )
                continue
            # Weights: two outer products, the big one written in place
            # (einsum's specialized outer loop beats the stride-0
            # broadcast multiply; each element is the same single
            # product either way, so the bits are unchanged).
            wv = self.w[lo:hi]
            wxy = (axis_w[0] * norm)[:, :, None] * axis_w[1][:, None, :]
            np.einsum("nxy,nz->nxyz", wxy, axis_w[2], out=wv)
            # Spherical cutoff mask on r² = (dx²+dy²)+dz² (this exact
            # association order also classifies the dense reference, so
            # masked entries agree bit for bit).
            d2 = [d * d for d in axis_d]
            r2 = scratch[: hi - lo]
            r2xy = d2[0][:, :, None] + d2[1][:, None, :]
            np.add(r2xy[:, :, :, None], d2[2][:, None, None, :], out=r2)
            np.multiply(wv, r2 <= c2, out=wv)
            # Flattened mesh indices, x-major to match the mesh layout.
            fxy = axis_i[0][:, :, None] * mesh[1] + axis_i[1][:, None, :]
            np.add(
                fxy[:, :, :, None] * mesh[2],
                axis_i[2][:, None, None, :],
                out=flat4[lo:hi],
            )
        return self

    def rows_view(self, lo: int, hi: int) -> "MeshStencilPlan":
        """Zero-copy plan over the contiguous atom rows ``[lo, hi)``.

        The view shares this plan's storage (it stays valid across
        in-place :meth:`build` refills) and runs every kernel exactly as
        a standalone plan over those atoms would: chunk loops restart at
        the view's first row, which is what makes the chunk-*sensitive*
        float spreading path of a stacked-replica mesh bitwise equal to
        each replica's solo evaluation.  Do not call :meth:`build` on a
        view; rebuild the parent.
        """
        v = MeshStencilPlan.__new__(MeshStencilPlan)
        v.gse = self.gse
        v.n = int(hi - lo)
        v.shape = self.shape
        v.flat = self.flat[lo:hi]
        v.w = self.w[lo:hi]
        v.axis_d = [a[lo:hi] for a in self.axis_d]
        v._scratch = None
        v._mt_views = None
        return v

    def _thread_views(self, nblocks: int):
        """Cached contiguous row-block views for threaded interpolation.

        Views share plan storage, so they stay valid across in-place
        :meth:`build` refills; each keeps its own ``_scratch``, which
        preserves the zero-allocation steady state per worker thread.
        """
        bounds = tuple(i * self.n // nblocks for i in range(nblocks + 1))
        if self._mt_views is None or self._mt_views[0] != bounds:
            views = [
                self.rows_view(bounds[b], bounds[b + 1]) for b in range(nblocks)
            ]
            self._mt_views = (bounds, views)
        return self._mt_views

    # -- kernels -----------------------------------------------------------

    def _take(self, arr: np.ndarray, rows, lo: int, hi: int) -> np.ndarray:
        """Chunk ``arr`` by position (all rows) or by a ``rows`` subset."""
        return arr[lo:hi] if rows is None else arr[rows[lo:hi]]

    def spread_codes(
        self, charges: np.ndarray, mesh_acc: np.ndarray, codec,
        rows=None, chunk: int = _KERNEL_CHUNK, kernels=None,
    ) -> None:
        """Quantize and scatter ``w · q`` into the flat int64 mesh.

        Codes are ``rint(w * (q * scale / limit))`` — per-atom
        arithmetic, so the partition of ``rows`` across callers cannot
        change any code — and the scatter is bincount-based: whenever
        every per-slice bin sum provably fits float64's 2⁵³ integer
        window the integral codes are summed directly by one float64
        ``np.bincount`` per slice (exact, and bitwise equal to
        ``np.add.at`` because integer sums commute); codes too large
        for that window take :func:`scatter_add_int64`'s split-word
        path instead.
        """
        charges = np.asarray(charges, dtype=np.float64)
        qc = charges * (codec.fmt.scale / codec.limit)
        w2 = self.w.reshape(self.n, -1)
        k = w2.shape[1]
        n_rows = self.n if rows is None else len(rows)
        if n_rows == 0:
            return
        if kernels is not None and kernels.tier == "compiled" and rows is None:
            # One C pass: rint(w * qc) scattered by integer adds.
            # Integer sums commute, so this matches both bincount paths
            # below bit for bit, with no exactness-window analysis.
            kernels.mesh_spread(mesh_acc, self.flat, w2, qc)
            return
        # |code| <= max|w| * max|q·scale/limit| + 1/2 (rint); the +1.0
        # over-covers.  A slice of r rows contributes at most r·k codes
        # to one bin, so r·k·bound < 2**53 keeps every partial sum an
        # exact float64 integer.
        bound = self.gse._spread_norm * float(np.max(np.abs(qc))) + 1.0
        exact_rows = int(2.0**52 / (bound * k))
        if exact_rows >= 1:
            chunk = max(1, min(chunk, exact_rows))
            buf = self._buffer(chunk)
            for lo in range(0, n_rows, chunk):
                hi = min(lo + chunk, n_rows)
                b = buf[: hi - lo]
                np.multiply(
                    self._take(w2, rows, lo, hi),
                    self._take(qc, rows, lo, hi)[:, None],
                    out=b,
                )
                np.rint(b, out=b)
                part = np.bincount(
                    self._take(self.flat, rows, lo, hi).ravel(),
                    weights=b.ravel(),
                    minlength=mesh_acc.shape[0],
                )
                with np.errstate(over="ignore"):
                    mesh_acc += part.astype(np.int64)
            return
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            buf = self._take(w2, rows, lo, hi) * self._take(qc, rows, lo, hi)[:, None]
            np.rint(buf, out=buf)
            scatter_add_int64(
                mesh_acc, self._take(self.flat, rows, lo, hi), buf.astype(np.int64)
            )

    def spread_float(
        self, charges: np.ndarray, mesh: np.ndarray,
        rows=None, chunk: int = _KERNEL_CHUNK,
    ) -> None:
        """Unquantized spreading into the flat float64 ``mesh``."""
        charges = np.asarray(charges, dtype=np.float64)
        w2 = self.w.reshape(self.n, -1)
        n_rows = self.n if rows is None else len(rows)
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            b = buf[: hi - lo]
            np.multiply(
                self._take(w2, rows, lo, hi),
                self._take(charges, rows, lo, hi)[:, None],
                out=b,
            )
            mesh += np.bincount(
                self._take(self.flat, rows, lo, hi).ravel(),
                weights=b.ravel(),
                minlength=mesh.shape[0],
            )

    def interpolate_forces(
        self, charges: np.ndarray, phi: np.ndarray,
        rows=None, out=None, chunk: int = _KERNEL_CHUNK,
        kernels=None,
    ) -> np.ndarray:
        """Separable gather-and-contract force interpolation.

        Gathers ``phi`` at the stencil indices, multiplies by the
        weight cube, and contracts each axis factor with an einsum —
        the ``(n, k, 3)`` displacement/coefficient tensors of the old
        path are never built.  Each atom's contraction runs over its
        own fixed-size stencil row, so chunk and subset boundaries are
        invisible in the bits — which is also what licenses the
        threaded path below: contiguous row blocks are farmed to a
        kernel suite's thread pool, and partition-invariance makes the
        result byte-identical to the serial sweep.
        """
        g = self.gse
        charges = np.asarray(charges, dtype=np.float64)
        phi_flat = phi.ravel()
        n_rows = self.n if rows is None else len(rows)
        if out is None:
            out = np.empty((n_rows, 3))
        nthreads = getattr(kernels, "threads", 1)
        if nthreads > 1 and rows is None and self.n >= 2 * nthreads:
            bounds, views = self._thread_views(nthreads)

            def _run(b):
                lo, hi = bounds[b], bounds[b + 1]
                if hi > lo:
                    views[b].interpolate_forces(
                        charges[lo:hi], phi, out=out[lo:hi], chunk=chunk
                    )

            kernels.map_chunks(_run, nthreads)
            return out
        kx, ky, kz = self.shape
        w2 = self.w.reshape(self.n, -1)
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            m = hi - lo
            cube2 = buf[:m]
            # mode="clip" skips the bounds-check path (indices are
            # in-range by construction: the plan wraps them with mod).
            np.take(phi_flat, self._take(self.flat, rows, lo, hi), out=cube2, mode="clip")
            cube2 *= self._take(w2, rows, lo, hi)
            dz = self._take(self.axis_d[2], rows, lo, hi)
            # One pass over the cube: contract z against [1, dz] with a
            # per-atom fixed-shape matmul, leaving the small (m, kx, ky)
            # partials s0 = sum_z g and s1 = sum_z g·dz.  Each atom's
            # matmul has the same (kx·ky, kz)x(kz, 2) shape no matter
            # how rows are chunked, so the bits are partition-invariant.
            B = np.empty((m, kz, 2))
            B[:, :, 0] = 1.0
            B[:, :, 1] = dz
            s = np.matmul(cube2.reshape(m, kx * ky, kz), B)
            s3 = s.reshape(m, kx, ky, 2)
            pref = self._take(charges, rows, lo, hi) / g.params.sigma_s**2
            out[lo:hi, 0] = pref * np.einsum(
                "nxy,nx->n", s3[..., 0], self._take(self.axis_d[0], rows, lo, hi)
            )
            out[lo:hi, 1] = pref * np.einsum(
                "nxy,ny->n", s3[..., 0], self._take(self.axis_d[1], rows, lo, hi)
            )
            out[lo:hi, 2] = pref * np.einsum("nxy->n", s3[..., 1])
        return out

    def interpolate_potential(
        self, phi: np.ndarray, rows=None, chunk: int = _KERNEL_CHUNK
    ) -> np.ndarray:
        """Per-atom potential ``phi_i = sum_m phi[m] w_im``."""
        phi_flat = phi.ravel()
        w2 = self.w.reshape(self.n, -1)
        n_rows = self.n if rows is None else len(rows)
        out = np.empty(n_rows)
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            b = buf[: hi - lo]
            np.take(phi_flat, self._take(self.flat, rows, lo, hi), out=b, mode="clip")
            b *= self._take(w2, rows, lo, hi)
            out[lo:hi] = np.sum(b, axis=1)
        return out


class GaussianSplitEwald:
    """GSE k-space evaluator for a fixed box and parameter set.

    The pieces (spreading weights, mesh solve, interpolation) are
    exposed separately so the simulated machine can quantize and
    distribute each stage; :meth:`kspace` composes them for the
    single-process path.  All of them run on :class:`MeshStencilPlan`
    kernels, so the chunked wrappers here and a caller-held shared plan
    produce identical bits by construction.
    """

    def __init__(self, box: Box, params: GSEParams, fft_backend: str = "numpy"):
        self.box = box
        self.params = params
        self.mesh = np.asarray(params.mesh, dtype=np.int64)
        self.h = box.lengths / self.mesh
        self.cell_volume = float(np.prod(self.h))
        if fft_backend == "numpy":
            self._fftn = np.fft.fftn
            self._ifftn = np.fft.ifftn
        elif fft_backend == "radix2":
            from repro.fft import fft3d, ifft3d

            self._fftn = fft3d
            self._ifftn = ifft3d
        else:
            raise ValueError(f"unknown fft_backend {fft_backend!r}")
        self._green = self._build_green()
        self._offsets = self._build_offsets()
        #: Peak spreading weight ``h³ g_{sigma_s}(0)`` — the stencil
        #: normalization, and the |w| bound the quantized scatter uses
        #: to prove its float64 bin sums exact.
        self._spread_norm = (
            2.0 * math.pi * params.sigma_s**2
        ) ** -1.5 * self.cell_volume

    # -- precomputation ---------------------------------------------------

    def _build_green(self) -> np.ndarray:
        """Mesh Green's function ke*(4 pi / V) exp(-(s²-2ss²)k²/2)/k²."""
        p = self.params
        L = self.box.lengths
        freqs = [2.0 * math.pi * np.fft.fftfreq(m, d=1.0 / m) / L[a] for a, m in enumerate(p.mesh)]
        KX, KY, KZ = np.meshgrid(*freqs, indexing="ij")
        k2 = KX**2 + KY**2 + KZ**2
        width = p.sigma**2 - 2.0 * p.sigma_s**2
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.exp(-width * k2 / 2.0) / k2
        g[0, 0, 0] = 0.0  # tinfoil boundary: drop k=0
        return COULOMB * (4.0 * math.pi / self.box.volume) * g

    def _build_offsets(self) -> np.ndarray:
        """Integer per-axis mesh offset ranges covering the cutoff."""
        nc = np.ceil(self.params.spreading_cutoff / self.h).astype(int)
        return nc

    # -- stencil plan -------------------------------------------------------

    def make_plan(
        self,
        positions: np.ndarray,
        out: MeshStencilPlan | None = None,
        max_elements: int | None = PLAN_MAX_ELEMENTS,
        kernels=None,
    ) -> MeshStencilPlan | None:
        """Build (or refill) the shared stencil plan for ``positions``.

        Returns ``None`` when the plan would exceed ``max_elements``
        (callers then fall back to the chunked per-pass wrappers, which
        run the same kernels and therefore the same bits).  Pass a
        previous plan as ``out`` to reuse its storage across steps, and
        a kernel suite as ``kernels`` to fill it with the compiled cube
        pass (bitwise identical either way).
        """
        n = len(positions)
        if max_elements is not None and n * self.stencil_size() > max_elements:
            return None
        if out is None or out.n != n or out.gse is not self:
            out = MeshStencilPlan(self, n)
        return out.build(positions, kernels=kernels)

    # -- spreading ----------------------------------------------------------

    def spread_weights(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-atom mesh contributions.

        Returns ``(flat_idx, weights, disp)``: for each atom (axis 0)
        and stencil point (axis 1), the flattened mesh index, the
        Gaussian weight ``h³ g_{sigma_s}(d)`` (zero outside the
        spreading cutoff — the match-unit test), and the displacement
        vector from mesh point to atom.

        This is the dense compatibility view of :class:`MeshStencilPlan`
        (the ``disp`` tensor is materialized here and only here); the
        hot paths hold the plan instead.
        """
        plan = self.make_plan(positions, max_elements=None)
        n = plan.n
        kx, ky, kz = plan.shape
        d = np.empty((n, kx * ky * kz, 3))
        d[:, :, 0] = np.broadcast_to(
            plan.axis_d[0][:, :, None, None], (n, kx, ky, kz)
        ).reshape(n, -1)
        d[:, :, 1] = np.broadcast_to(
            plan.axis_d[1][:, None, :, None], (n, kx, ky, kz)
        ).reshape(n, -1)
        d[:, :, 2] = np.broadcast_to(
            plan.axis_d[2][:, None, None, :], (n, kx, ky, kz)
        ).reshape(n, -1)
        return plan.flat, plan.w.reshape(n, -1), d

    def spread(
        self, positions: np.ndarray, charges: np.ndarray, chunk: int = 4096, codec=None
    ) -> np.ndarray:
        """Charge-spread onto the mesh: ``Q[m] = sum_i q_i h³ g(r_m - r_i)``.

        With ``codec`` (a :class:`~repro.fixedpoint.ScaledFixed`), each
        contribution is quantized and summed in integer arithmetic, so
        the mesh is independent of atom order and of how spreading work
        is distributed over simulated nodes (the machine's
        parallel-invariance requirement).  Use
        :meth:`spread_contributions` to deposit subsets into a shared
        integer mesh.
        """
        if codec is not None:
            acc = np.zeros(self.mesh_point_count(), dtype=np.int64)
            self.spread_contributions(positions, charges, acc, codec, chunk=chunk)
            return codec.reconstruct(codec.wrap(acc)).reshape(tuple(self.mesh))
        Q = np.zeros(self.mesh_point_count())
        charges = np.asarray(charges, dtype=np.float64)
        plan = None
        for lo in range(0, len(positions), chunk):
            hi = min(lo + chunk, len(positions))
            plan = self.make_plan(positions[lo:hi], out=plan, max_elements=None)
            plan.spread_float(charges[lo:hi], Q)
        return Q.reshape(tuple(self.mesh))

    def spread_contributions(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        mesh_acc: np.ndarray,
        codec,
        chunk: int = 4096,
    ) -> None:
        """Deposit quantized spreading contributions into ``mesh_acc``.

        ``mesh_acc`` is a flat int64 accumulator; deposits commute, so
        any partition of atoms over callers yields identical bits.
        """
        charges = np.asarray(charges, dtype=np.float64)
        plan = None
        for lo in range(0, len(positions), chunk):
            hi = min(lo + chunk, len(positions))
            plan = self.make_plan(positions[lo:hi], out=plan, max_elements=None)
            plan.spread_codes(charges[lo:hi], mesh_acc, codec)

    # -- mesh solve -----------------------------------------------------------

    def solve(self, Q: np.ndarray) -> tuple[np.ndarray, float]:
        """Convolve mesh charge with the Green's function.

        Returns the potential mesh ``phi`` and the k-space energy
        ``E = 1/2 sum_m Q[m] phi[m]``.
        """
        Qhat = self._fftn(Q.astype(np.complex128))
        phi = np.real(self._ifftn(self._green * Qhat)) * Q.size
        energy = 0.5 * float(np.sum(Q * phi))
        return phi, energy

    def solve_stack(self, Qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`solve` over a ``(R, *mesh)`` charge stack.

        One FFT/convolution/inverse-FFT pass covers all R replica
        meshes.  NumPy's pocketfft transforms each trailing-axes block
        independently, so every replica's potential mesh is bitwise the
        slice a solo :meth:`solve` returns (pinned by the property
        tests); per-replica energies are summed over each contiguous
        ``Q[r] * phi[r]`` block exactly as solo.  Backends without a
        batched transform (radix2) fall back to a per-replica loop of
        the identical solo solve.
        """
        if self._fftn is not np.fft.fftn:
            phis = np.empty_like(Qs)
            energies = np.empty(len(Qs))
            for r in range(len(Qs)):
                phis[r], energies[r] = self.solve(Qs[r])
            return phis, energies
        Qhat = np.fft.fftn(Qs.astype(np.complex128), axes=(1, 2, 3))
        phi = np.real(np.fft.ifftn(self._green[None] * Qhat, axes=(1, 2, 3)))
        phi = phi * float(Qs[0].size)
        energies = np.array(
            [0.5 * float(np.sum(Qs[r] * phi[r])) for r in range(len(Qs))]
        )
        return phi, energies

    # -- interpolation ----------------------------------------------------------

    def interpolate_potential(
        self, positions: np.ndarray, phi: np.ndarray, chunk: int = 4096
    ) -> np.ndarray:
        """Per-atom potential ``phi_i = sum_m phi[m] h³ g(r_i - r_m)``.

        Chunked like :meth:`spread` / :meth:`interpolate_forces` so the
        weight buffers never exceed ``chunk`` atoms' worth of memory.
        """
        out = np.empty(len(positions))
        plan = None
        for lo in range(0, len(positions), chunk):
            hi = min(lo + chunk, len(positions))
            plan = self.make_plan(positions[lo:hi], out=plan, max_elements=None)
            out[lo:hi] = plan.interpolate_potential(phi)
        return out

    def interpolate_forces(
        self, positions: np.ndarray, charges: np.ndarray, phi: np.ndarray, chunk: int = 4096
    ) -> np.ndarray:
        """Force interpolation: ``F_i = q_i sum_m phi[m] w(d) d / sigma_s²``."""
        out = np.empty((len(positions), 3))
        charges = np.asarray(charges, dtype=np.float64)
        plan = None
        for lo in range(0, len(positions), chunk):
            hi = min(lo + chunk, len(positions))
            plan = self.make_plan(positions[lo:hi], out=plan, max_elements=None)
            plan.interpolate_forces(charges[lo:hi], phi, out=out[lo:hi])
        return out

    # -- composition ---------------------------------------------------------------

    def kspace(
        self, positions: np.ndarray, charges: np.ndarray, codec=None
    ) -> tuple[float, np.ndarray]:
        """Full k-space pass: spread, solve, interpolate.

        Returns (energy, forces).  Combine with the real-space sum,
        self energy, and excluded-pair corrections for total
        electrostatics.  ``codec`` enables order-invariant quantized
        spreading (see :meth:`spread`).

        When the stencil plan fits the memory budget it is built once
        and shared between the spreading and interpolation passes;
        above the budget the chunked wrappers run the identical kernels
        piecewise.
        """
        plan = self.make_plan(positions, max_elements=PLAN_MAX_ELEMENTS)
        if plan is None:
            Q = self.spread(positions, charges, codec=codec)
            phi, energy = self.solve(Q)
            return energy, self.interpolate_forces(positions, charges, phi)
        charges = np.asarray(charges, dtype=np.float64)
        if codec is not None:
            acc = np.zeros(self.mesh_point_count(), dtype=np.int64)
            plan.spread_codes(charges, acc, codec)
            Q = codec.reconstruct(codec.wrap(acc)).reshape(tuple(self.mesh))
        else:
            Qf = np.zeros(self.mesh_point_count())
            plan.spread_float(charges, Qf)
            Q = Qf.reshape(tuple(self.mesh))
        phi, energy = self.solve(Q)
        return energy, plan.interpolate_forces(charges, phi)

    def mesh_point_count(self) -> int:
        return int(np.prod(self.mesh))

    def stencil_size(self) -> int:
        """Mesh points each atom touches (the charge-spreading workload).

        The stencil is the (2 nc + 1)³ cube enclosing the spreading
        sphere; weights outside the sphere are zeroed by the cutoff
        test but still counted as touched (the hardware's match units
        consider and reject them the same way).
        """
        return int(np.prod(2 * self._offsets + 1))
