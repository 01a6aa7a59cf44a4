"""Which public functions the traced run wraps, and the layer table.

``TARGETS`` lists every wrapped function as ``(target, span, measure)``;
the span name's prefix is the layer (the ``repro`` subpackage).
:func:`layer_metrics` turns the tracer's window summary into the
per-layer metrics named in ``BENCHMARK.json``: self milliseconds per
simulated step for times, and counts per step (unless the name says
otherwise) for work.
"""

from __future__ import annotations

import os

__all__ = ["TARGETS", "TIME_METRICS", "count_metrics", "layer_metrics", "profiler_metrics"]


def _pairs_and_candidates(args, result):
    return (len(result.i), args[0].n_candidates)


def _plan_bytes(args, result):
    if result is None:
        return 0
    return result.flat.nbytes + result.w.nbytes + sum(a.nbytes for a in result.axis_d)


def _migrated(args, result):
    return 0 if result is None else result.n_migrated


def _file_bytes(args, result):
    return os.path.getsize(result)


def _n_pairs(args, result):
    return len(args[2])


# (target, span name, measure).  Private names appear only where the
# public entry point delegates the hot-path work to them: every
# neighbor-list rebuild goes through ``NeighborList._build`` (the
# public ``build`` calls it too).  A machine backend's
# ``range_limited`` wraps the pair kernel (a child span) in the NT
# pair-to-node assignment and deposit, so its self time is charged to
# the NT assignment.
TARGETS = [
    ("repro.geometry.neighborlist:NeighborList._build", "geometry.neighbor_build", None),
    ("repro.geometry.neighborlist:NeighborList.pairs", "geometry.pairs", _pairs_and_candidates),
    ("repro.kernels.suite:NumpyKernels.pair_table_codes", "kernels.pair_table_codes", _n_pairs),
    ("repro.kernels.suite:CompiledKernels.pair_table_codes", "kernels.pair_table_codes", _n_pairs),
    ("repro.kernels.suite:NumpyKernels.deposit_pairs", "kernels.deposit_pairs", None),
    ("repro.kernels.suite:CompiledKernels.deposit_pairs", "kernels.deposit_pairs", None),
    ("repro.forcefield.nonbonded:nonbonded_real_space", "kernels.nonbonded", None),
    ("repro.forcefield.nonbonded:nonbonded_real_space_tabulated", "kernels.nonbonded", None),
    ("repro.ewald.gse:GaussianSplitEwald.make_plan", "ewald.make_plan", _plan_bytes),
    ("repro.ewald.gse:MeshStencilPlan.spread_codes", "ewald.spread", None),
    ("repro.ewald.gse:MeshStencilPlan.spread_float", "ewald.spread", None),
    ("repro.ewald.gse:GaussianSplitEwald.spread_contributions", "ewald.spread", None),
    ("repro.ewald.gse:MeshStencilPlan.interpolate_forces", "ewald.interpolate", None),
    ("repro.ewald.gse:GaussianSplitEwald.interpolate_forces", "ewald.interpolate", None),
    ("repro.ewald.gse:GaussianSplitEwald.kspace", "ewald.kspace", None),
    ("repro.ewald.correction:correction_forces_static", "ewald.correction", None),
    ("repro.ewald.gse:GaussianSplitEwald.solve", "fft.solve", None),
    ("repro.ewald.gse:GaussianSplitEwald.solve_stack", "fft.solve", None),
    ("repro.machine.backends:SerialBackend.range_limited", "parallel.nt_assign", None),
    ("repro.machine.backends:VectorizedBackend.range_limited", "parallel.nt_assign", None),
    ("repro.parallel.nt:nt_assign_pairs", "parallel.nt_assign", None),
    ("repro.parallel.nt:nt_node_tables", "parallel.nt_assign", None),
    ("repro.parallel.decomposition:SpatialDecomposition.node_of", "parallel.nt_assign", None),
    ("repro.parallel.decomposition:SpatialDecomposition.box_coord", "parallel.nt_assign", None),
    ("repro.parallel.comm:SimNetwork.send", "parallel.comm", None),
    ("repro.parallel.comm:SimNetwork.send_batch", "parallel.comm", None),
    ("repro.parallel.comm:SimNetwork.multicast", "parallel.comm", None),
    ("repro.parallel.migration:MigrationSchedule.step", "parallel.migration", _migrated),
    ("repro.machine.machine:AntonMachine.account_position_import", "machine.import_accounting", None),
    ("repro.machine.machine:AntonMachine.account_force_export", "machine.export_accounting", None),
    ("repro.machine.machine:AntonMachine.account_fft", "machine.fft_accounting", None),
    ("repro.network.fabric:LinkRouter.charge", "network.route", None),
    ("repro.network.fabric:LinkRouter.charge_batch", "network.route", None),
    ("repro.network.fabric:LinkRouter.charge_multicast", "network.route", None),
    ("repro.network.fabric:LinkRouter.charge_multicast_routes", "network.route", None),
    ("repro.core.constraints:ConstraintSolver.shake", "core.constraints", None),
    ("repro.core.constraints:ConstraintSolver.rattle", "core.constraints", None),
    ("repro.ensemble.engine:EnsembleConstraintSolver.shake", "core.constraints", None),
    ("repro.ensemble.engine:EnsembleConstraintSolver.rattle", "core.constraints", None),
    ("repro.core.integrator:FixedPointIntegrator.step", "core.integrator", None),
    ("repro.ensemble.engine:EnsembleForceCalculator.compute_fixed", "ensemble.force", None),
    ("repro.ensemble.engine:EnsembleForceCalculator.compute_long_fixed", "ensemble.force", None),
    ("repro.machine.machine:AntonMachine.write_frame", "io.frame_pack", None),
    ("repro.io.trajectory:TrajectoryWriter.write_frame", "io.frame", None),
    ("repro.machine.machine:AntonMachine.checkpoint", "io.checkpoint_pack", None),
    ("repro.io.checkpoint:CheckpointStore.save", "io.checkpoint", _file_bytes),
    ("repro.serve.client:ServeClient.submit", "serve.submit", None),
    ("repro.serve.client:ServeClient.jobs", "serve.poll", None),
    ("repro.serve.client:ServeClient.status", "serve.poll", None),
    ("repro.serve.client:ServeClient.metrics", "serve.poll", None),
]

#: Per-layer time metrics: name -> span names whose self time it sums.
TIME_METRICS = {
    "geometry.neighbor_build_ms": ("geometry.neighbor_build",),
    "geometry.pair_select_ms": ("geometry.pairs",),
    "kernels.range_limited_ms": ("kernels.pair_table_codes", "kernels.nonbonded"),
    "kernels.deposit_ms": ("kernels.deposit_pairs",),
    "ewald.mesh_plan_ms": ("ewald.make_plan",),
    "ewald.mesh_spread_ms": ("ewald.spread",),
    "ewald.mesh_interp_ms": ("ewald.interpolate",),
    "ewald.kspace_self_ms": ("ewald.kspace",),
    "ewald.correction_ms": ("ewald.correction",),
    "fft.transform_ms": ("fft.solve",),
    "parallel.nt_assign_ms": ("parallel.nt_assign",),
    "parallel.comm_ms": ("parallel.comm",),
    "parallel.migration_ms": ("parallel.migration",),
    "machine.traffic_ms": ("machine.import_accounting", "machine.export_accounting",
                           "machine.fft_accounting"),
    "machine.import_accounting_ms": ("machine.import_accounting",),
    "network.route_ms": ("network.route",),
    "core.constraints_ms": ("core.constraints",),
    "core.integrator_self_ms": ("core.integrator",),
    "ensemble.force_self_ms": ("ensemble.force",),
    "io.frame_ms": ("io.frame", "io.frame_pack"),
    "io.checkpoint_ms": ("io.checkpoint", "io.checkpoint_pack"),
    "serve.client_ms": ("serve.submit", "serve.poll"),
}

#: ``machine.import_accounting_ms`` is a part of ``machine.traffic_ms``;
#: the attribution sum counts it once.
_NOT_SUMMED = {"machine.import_accounting_ms"}


def _calls(summary, name):
    return summary.get(name, {}).get("calls", 0)


def _n(summary, name, default=0):
    return summary.get(name, {}).get("n", default) or default


def layer_metrics(summary: dict, steps: int, wall: float) -> dict[str, float]:
    """Self ms per step for every time metric, plus the part of the
    step (``wall`` seconds over ``steps``) that no named layer claims:
    ``trace.unattributed_ms``, negative when threaded kernel lanes
    overlap."""
    out = {}
    for metric, names in TIME_METRICS.items():
        secs = sum(summary.get(n, {}).get("self", 0.0) for n in names)
        out[metric] = secs * 1e3 / steps
    pairs = _n(summary, "kernels.pair_table_codes")
    rl = summary.get("kernels.pair_table_codes", {}).get("self", 0.0)
    out["kernels.ns_per_pair"] = rl * 1e9 / pairs if pairs else 0.0
    named = sum(v for k, v in out.items() if k.endswith("_ms") and k not in _NOT_SUMMED)
    out["trace.step_ms"] = wall * 1e3 / steps
    out["trace.unattributed_ms"] = out["trace.step_ms"] - named
    return out


def count_metrics(summary: dict, steps: int) -> dict[str, float]:
    """Work counts per step over a fixed-length span of steps."""
    pairs, candidates = _n(summary, "geometry.pairs", (0, 0))
    return {
        "geometry.neighbor_builds_per_100": _calls(summary, "geometry.neighbor_build") * 100 / steps,
        "geometry.candidates": candidates / steps,
        "geometry.pair_yield": pairs / candidates if candidates else 0.0,
        "kernels.pairs": _n(summary, "kernels.pair_table_codes") / steps,
        "ewald.plan_bytes": summary.get("ewald.make_plan", {}).get("max", 0),
        "ewald.kspace_fallback_calls": _calls(summary, "ewald.kspace") / steps,
        "parallel.migrated_atoms": _n(summary, "parallel.migration") / steps,
        "io.frames": _calls(summary, "io.frame") / steps,
        "io.checkpoints": _calls(summary, "io.checkpoint") / steps,
    }


def profiler_metrics(delta: dict[str, float], steps: int) -> dict[str, float]:
    """The program's own profiler leaves (``Timers.delta_since`` over
    the same window), ms per step, for the cross-check."""
    leaves = {
        "profiler.neighbor_build_ms": ("neighbor_build",),
        "profiler.pair_select_ms": ("pair_select",),
        "profiler.range_limited_ms": ("range_limited", "ensemble_range_limited"),
        "profiler.mesh_plan_ms": ("mesh_plan",),
        "profiler.mesh_spread_ms": ("mesh_spread",),
        "profiler.mesh_interp_ms": ("mesh_interp",),
        "profiler.mesh_fft_ms": ("mesh_fft",),
        "profiler.kspace_ms": ("ensemble_kspace",),
        "profiler.nt_assign_ms": ("machine_nt_assign",),
        "profiler.traffic_ms": ("machine_traffic", "mesh_fft_traffic"),
        "profiler.constraints_ms": ("constraints",),
        "profiler.correction_ms": ("correction", "ensemble_correction"),
    }
    return {
        metric: sum(delta.get(n, 0.0) for n in names) * 1e3 / steps
        for metric, names in leaves.items()
    }
