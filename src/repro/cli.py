"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate   build a benchmark system (at reduced scale) and run MD
ensemble   batch R replicas through one engine pass per step
serve      run the multi-run simulation service (durable queue + workers)
submit     submit a job to a running service
jobs       list jobs on a running service (--watch to follow)
cancel     cancel a job on a running service
machine    run the functional multi-node machine and report traffic
network    routed-fabric link occupancy report / predicted scaling sweep
perf       print the performance model's Table 2 profile / Figure 5 rate
traj       inspect, dump, or CRC-verify a trajectory file
info       version, paper reference, and reproduced-experiment index

Long runs persist through the durable run store (``--trajectory``,
``--checkpoint-dir``/``--checkpoint-every``, ``--energy-log``) and
resume bit-exactly with ``--resume``.  The machine survives injected
faults (``--faults drop=1e-3,crash=1 --fault-seed 7``): message faults
are detected by checksums and healed by retransmission, node crashes
roll back to the newest valid checkpoint and replay — without changing
a single bit of the trajectory (combine with ``--check-invariance`` to
verify).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="run MD on a benchmark system")
    p.add_argument("--system", default="water", help="water, hp, or a Table 4 name (gpW, DHFR, ...)")
    p.add_argument("--scale", type=float, default=0.05, help="atom-count scale for Table 4 systems")
    p.add_argument("--waters", type=int, default=64, help="molecule count for --system water")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--dt", type=float, default=1.0, help="time step, fs")
    p.add_argument("--mode", choices=("fixed", "float"), default="fixed")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--skin", type=float, default=None,
                   help="Verlet-list buffer radius, A (default: MDParams.skin)")
    p.add_argument("--record-every", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="print per-component wall-time counters after the run")
    _add_store_flags(p)


def _add_store_flags(p, energy_log: bool = True) -> None:
    g = p.add_argument_group("durable run store")
    g.add_argument("--trajectory", metavar="PATH",
                   help="write a bit-exact binary trajectory to PATH")
    g.add_argument("--trajectory-every", type=int, default=0, metavar="N",
                   help="steps between frames (default: --record-every)")
    g.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory for rolling atomic checkpoints")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="steps between checkpoints (0: only a final one)")
    g.add_argument("--retain", type=int, default=4,
                   help="checkpoints kept in the rolling store (default 4)")
    g.add_argument("--resume", action="store_true",
                   help="resume bit-exactly from the newest valid checkpoint")
    if energy_log:
        g.add_argument("--energy-log", metavar="PATH",
                       help="stream energy records to PATH as JSON lines")


def _add_ensemble(sub) -> None:
    p = sub.add_parser(
        "ensemble",
        help="run R replicas batched through one engine pass per step",
    )
    p.add_argument("--replicas", type=int, default=4, help="replica count R")
    p.add_argument("--seeds", default=None, metavar="SPEC",
                   help="base seed for splitmix64 derivation, or an explicit "
                        "comma-separated per-replica list (e.g. 1,2,3,4); "
                        "default: derive from --seed")
    p.add_argument("--waters", type=int, default=64, help="water molecule count")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=1.0, help="time step, fs")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--skin", type=float, default=None,
                   help="Verlet-list buffer radius, A (default: MDParams.skin)")
    p.add_argument("--record-every", type=int, default=20)
    p.add_argument("--seed", type=int, default=0,
                   help="system build seed (also the default --seeds base)")
    p.add_argument("--kernel-tier", choices=("numpy", "compiled"), default=None,
                   help="hot-loop kernel tier (bitwise identical across tiers); "
                        "default: $REPRO_KERNEL_TIER or numpy")
    p.add_argument("--kernel-threads", type=int, default=None, metavar="T",
                   help="compiled-tier worker threads (bitwise identical for "
                        "every T); default: $REPRO_KERNEL_THREADS or 1")
    p.add_argument("--detach", type=int, default=None, metavar="R",
                   help="after the run, detach replica R into a solo "
                        "Simulation and verify its state codes match")
    p.add_argument("--timings", action="store_true",
                   help="print per-component wall-time counters after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the hierarchical per-step phase profile as JSON")
    g = p.add_argument_group("per-replica durable store")
    g.add_argument("--trajectory", metavar="PATH",
                   help="write solo-format trajectories to PATH.r000.rrs, ...")
    g.add_argument("--trajectory-every", type=int, default=0, metavar="N",
                   help="steps between frames (default: --record-every)")
    g.add_argument("--checkpoint-dir", metavar="DIR",
                   help="root for per-replica checkpoint stores "
                        "(DIR/replica-000/, ...)")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="steps between checkpoints (0: only a final one)")
    g.add_argument("--retain", type=int, default=4,
                   help="checkpoints kept per replica store (default 4)")


def _add_serve(sub) -> None:
    p = sub.add_parser("serve", help="run the multi-run simulation service")
    p.add_argument("--dir", required=True, metavar="STATE",
                   help="state directory (durable queue, socket, job artifacts)")
    p.add_argument("--workers", type=int, default=2, help="worker processes")
    p.add_argument("--max-batch", type=int, default=8,
                   help="max same-system jobs fused into one engine pass")
    p.add_argument("--kernel-tier", choices=("numpy", "compiled"), default=None,
                   help="worker kernel tier (bitwise identical across tiers); "
                        "default: $REPRO_KERNEL_TIER or numpy")
    p.add_argument("--kernel-threads", type=int, default=None, metavar="T",
                   help="compiled-tier threads per worker (bitwise identical "
                        "for every T)")
    p.add_argument("--idle-exit", type=float, default=0.0, metavar="SEC",
                   help="exit SEC seconds after every job is terminal "
                        "(0: serve until shutdown)")

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("--name", default="", help="job id (default: job-NNNN)")
    p.add_argument("--priority", type=int, default=0,
                   help="scheduling priority (higher preempts lower)")
    p.add_argument("--waters", type=int, default=64)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--seed", type=int, default=0, help="velocity seed (run identity)")
    p.add_argument("--build-seed", type=int, default=0, help="system build seed")
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--trajectory-every", type=int, default=0,
                   help="steps between frames (default: --record-every)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="steps per slice / between checkpoints (0: one slice)")
    p.add_argument("--retain", type=int, default=4)
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")

    p = sub.add_parser("jobs", help="list jobs on a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("--watch", action="store_true",
                   help="refresh until every job is terminal")
    p.add_argument("--metrics", action="store_true",
                   help="also print pool metrics as JSON")

    p = sub.add_parser("cancel", help="cancel a job on a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("id", help="job id to cancel")


def _add_machine(sub) -> None:
    p = sub.add_parser("machine", help="run the functional Anton machine simulation")
    p.add_argument("--nodes", type=int, default=8, help="power-of-two node count")
    p.add_argument("--waters", type=int, default=32)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--check-invariance", action="store_true",
                   help="also run on 1 node and compare bitwise")
    p.add_argument("--backend", choices=("serial", "vectorized"),
                   default="vectorized",
                   help="execution backend (state codes are bitwise "
                        "identical across both)")
    p.add_argument("--kernel-tier", choices=("numpy", "compiled"), default=None,
                   help="hot-loop kernel tier: 'compiled' builds a small C "
                        "extension on first use (bitwise identical to numpy; "
                        "falls back with a warning if no C compiler is found); "
                        "default: $REPRO_KERNEL_TIER or numpy")
    p.add_argument("--kernel-threads", type=int, default=None, metavar="T",
                   help="compiled-tier worker threads from the persistent "
                        "pthread pool (bitwise identical for every T); "
                        "default: $REPRO_KERNEL_THREADS or 1")
    p.add_argument("--timings", action="store_true",
                   help="print per-phase machine engine timings after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the hierarchical per-step phase profile as JSON")
    g = p.add_argument_group("fault injection")
    g.add_argument("--faults", metavar="SPEC",
                   help="inject seeded faults, e.g. drop=1e-3,corrupt=1e-3,crash=1 "
                        "(float: per-step probability; int: exact count); the run "
                        "detects, retries, and rolls back — final bits match a "
                        "fault-free run")
    g.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed for the deterministic fault schedule (default 0)")
    g.add_argument("--max-retries", type=int, default=3, metavar="N",
                   help="retransmissions per dead message / heartbeat waits per "
                        "silent node before escalating to rollback (default 3)")
    _add_routed_flags(p)
    _add_store_flags(p, energy_log=False)


def _add_routed_flags(p) -> None:
    g = p.add_argument_group("routed network fabric (accounting only — "
                             "bits never change)")
    g.add_argument("--routed", action="store_true",
                   help="expand every message into dimension-ordered per-link "
                        "traversals and report link occupancy/congestion")
    g.add_argument("--multicast", choices=("tree", "unicast"), default="tree",
                   help="NT broadcast accounting: spanning-tree edges (default) "
                        "or one unicast path per destination")
    g.add_argument("--delta-bits", type=int, default=None, metavar="B",
                   help="fixed-point delta compression: charge position/force "
                        "payloads at B bits per 32-bit word (accounting only)")


def _routed_config(args):
    from repro.network import RoutedConfig

    return RoutedConfig(multicast=args.multicast, delta_bits=args.delta_bits)


def _print_network_report(report: dict) -> None:
    dims = "x".join(str(d) for d in report["topology"])
    print(f"routed fabric: {dims} torus, {report['links']} directed links, "
          f"{report['steps']} steps "
          f"(multicast={report['multicast_mode']}, delta_bits={report['delta_bits']})")
    print(f"{'phase':<18} {'msgs':>8} {'link bytes':>12} {'max link':>10} "
          f"{'hops':>5} {'us/step':>8}  busiest")
    for tag, ph in report["phases"].items():
        busiest = "-"
        if ph["busiest_link"]:
            busiest = f"node {ph['busiest_link'][0]} {ph['busiest_link'][1]}"
        print(f"{tag:<18} {ph['messages']:>8} {ph['link_bytes']:>12} "
              f"{ph['max_link_bytes']:>10} {ph['max_hops']:>5} "
              f"{ph['time_us_per_step']:>8.3f}  {busiest}")
    mc = report["multicast"]
    if mc["unicast_link_bytes"]:
        saved_pct = 100.0 * mc["saved_link_bytes"] / mc["unicast_link_bytes"]
        print(f"multicast: {mc['tree_link_bytes']} tree vs "
              f"{mc['unicast_link_bytes']} unicast link bytes "
              f"({saved_pct:.0f}% saved)")
    if report["compression_saved_link_bytes"]:
        print(f"compression saved: {report['compression_saved_link_bytes']} link bytes")
    if report["recovery_link_bytes"]:
        print(f"recovery link bytes (segregated): {report['recovery_link_bytes']}")
    print(f"comm critical path: {report['comm_us_per_step']:.3f} us/step "
          f"(max link load: {report['max_link_bytes']} bytes)")


def _add_network(sub) -> None:
    p = sub.add_parser(
        "network",
        help="routed-fabric link report (functional run) or predicted "
             "512-4096 node scaling sweep (--predict)",
    )
    p.add_argument("--nodes", type=int, default=8,
                   help="power-of-two node count for the functional run")
    p.add_argument("--waters", type=int, default=32)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--backend", choices=("serial", "vectorized"),
                   default="vectorized")
    p.add_argument("--multicast", choices=("tree", "unicast"), default="tree")
    p.add_argument("--delta-bits", type=int, default=None, metavar="B")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    g = p.add_argument_group("analytic prediction (no functional stepping)")
    g.add_argument("--predict", action="store_true",
                   help="sweep the congested critical-path model over "
                        "--node-counts for a Table 4 system")
    g.add_argument("--system", default="DHFR", help="Table 4 name (with --predict)")
    g.add_argument("--node-counts", default="512,1024,2048,4096", metavar="LIST",
                   help="comma-separated node counts (with --predict)")
    g.add_argument("--bandwidth-scale", type=float, default=1.0, metavar="S",
                   help="scale usable link bandwidth (S < 1 injects congestion)")


def _add_traj(sub) -> None:
    p = sub.add_parser("traj", help="inspect/verify trajectory files")
    p.add_argument("action", choices=("info", "dump", "verify"),
                   help="info: header + frame table; dump: one frame; "
                        "verify: CRC-check every record")
    p.add_argument("path", help="trajectory file")
    p.add_argument("--frame", type=int, default=-1,
                   help="frame index for dump (negative from the end)")
    p.add_argument("--atoms", type=int, default=3,
                   help="atom rows to print for dump")


def _add_perf(sub) -> None:
    p = sub.add_parser("perf", help="performance model queries")
    p.add_argument("--system", default="DHFR", help="Table 4 name or BPTI")
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--profile", action="store_true", help="print the Table 2 style task profile")


def _recipe(recipe, *args):
    """A water recipe's parameters; SystemExit with its one-line reason
    when the box cannot be run."""
    try:
        return recipe(*args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _open_store(args):
    """(store, loaded) from the durable-store flags; SystemExit on misuse."""
    from repro.io import CheckpointError, CheckpointStore

    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir, retain=args.retain)
    loaded = None
    if args.resume:
        if store is None:
            raise SystemExit("--resume requires --checkpoint-dir")
        try:
            loaded = store.load_latest()
        except CheckpointError as exc:
            raise SystemExit(str(exc)) from exc
        for path, why in loaded.skipped:
            print(f"warning: skipped corrupt snapshot {path}: {why}")
    return store, loaded


def _run_stored(args, engine, stores=(), loaded=None, trajectories=(), energy_logs=(),
                trajectory_every=0, record_every=0) -> None:
    """Resume ``engine`` from ``loaded``, run to ``--steps``, save final checkpoints.

    The one run path of ``simulate``, ``machine`` and ``ensemble``;
    ``stores``, ``trajectories`` and ``energy_logs`` hold one store or
    path per replica (see :func:`repro.core.run.open_sinks`).
    """
    from repro.core.run import close_sinks, open_sinks, run_steps, save_checkpoints

    steps = args.steps
    if loaded is not None:
        engine.restore(loaded.state)
        done = engine.integrator.step_count
        steps = max(0, args.steps - done)
        print(f"resumed from {loaded.path} at step {done} ({steps} steps remain)")
    writers, logs = open_sinks(engine, trajectories, energy_logs, resume=loaded is not None)
    try:
        run_steps(
            engine, steps,
            record_every=record_every, energy_writers=logs,
            trajectories=writers, trajectory_every=trajectory_every,
            checkpoint_stores=stores, checkpoint_every=args.checkpoint_every,
        )
        finals = save_checkpoints(engine, stores, writers)
    finally:
        close_sinks(writers, logs)
    if finals:
        print(f"final checkpoint: {finals[0]}" + (" ..." if len(finals) > 1 else ""))


def cmd_simulate(args) -> int:
    from dataclasses import replace

    from repro import BerendsenThermostat, MDParams, Simulation, minimize_energy
    from repro.systems import (
        benchmark_by_name,
        build_hp_system,
        build_water_box,
        hp_miniprotein,
        mts_water_params,
    )

    if args.system == "water":
        params = _recipe(mts_water_params, args.waters, args.cutoff)
        system = build_water_box(n_molecules=args.waters, seed=args.seed)
    elif args.system == "hp":
        system = build_hp_system(hp_miniprotein(seed=args.seed))
        params = MDParams(cutoff=args.cutoff or 14.0, mesh=(16, 16, 16))
    else:
        spec = benchmark_by_name(args.system)
        system = spec.build(scale=args.scale, seed=args.seed)
        cutoff = args.cutoff or min(spec.cutoff, system.box.max_cutoff() * 0.9)
        params = MDParams(cutoff=cutoff, mesh=(32, 32, 32), long_range_every=2)
    if args.skin is not None:
        params = replace(params, skin=args.skin)
    print(f"system: {system.meta.get('name', args.system)} — {system.n_atoms} atoms, "
          f"box {system.box.lengths[0]:.1f} A, cutoff {params.cutoff:.1f} A, "
          f"skin {params.skin:.1f} A")
    store, loaded = _open_store(args)
    if loaded is None:
        # A restore replaces the dynamic state wholesale, so system
        # preparation is only needed for fresh runs.
        e = minimize_energy(system, params, max_steps=80)
        print(f"minimized potential energy: {e:.1f} kcal/mol")
        system.initialize_velocities(args.temperature, seed=args.seed + 1)
    sim = Simulation(
        system,
        params,
        dt=args.dt,
        mode=args.mode,
        thermostat=BerendsenThermostat(args.temperature),
        constraints=True,
    )
    _run_stored(
        args, sim, stores=[store], loaded=loaded,
        trajectories=[args.trajectory], energy_logs=[args.energy_log],
        trajectory_every=args.trajectory_every or args.record_every,
        record_every=args.record_every,
    )
    print(f"{'step':>8} {'E_total':>14} {'T (K)':>8}")
    for rec in sim.energy_log:
        print(f"{rec.step:>8} {rec.total:>14.4f} {rec.temperature:>8.0f}")
    nl = sim.calc.neighbor_list
    print(f"neighbor list: {nl.n_builds} builds / {nl.n_reuses} reuses "
          f"(skin {nl.effective_skin:.1f} A, {nl.n_candidates} cached pairs)")
    if args.timings:
        print("component wall time:")
        for line in sim.timers.summary_lines():
            print(f"  {line}")
    return 0


def cmd_ensemble(args) -> int:
    from dataclasses import replace

    from repro import BerendsenThermostat, minimize_energy
    from repro.ensemble import EnsembleSimulation, parse_seed_spec
    from repro.io import replica_checkpoint_store, replica_trajectory_path
    from repro.systems import build_water_box, mts_water_params

    params = _recipe(mts_water_params, args.waters, args.cutoff)
    system = build_water_box(n_molecules=args.waters, seed=args.seed)
    if args.skin is not None:
        params = replace(params, skin=args.skin)
    try:
        seeds = parse_seed_spec(args.seeds, args.replicas, base_seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"system: water x{args.replicas} replicas — {system.n_atoms} atoms each "
          f"({system.n_atoms * args.replicas} batched), box {system.box.lengths[0]:.1f} A, "
          f"cutoff {params.cutoff:.1f} A")
    e = minimize_energy(system, params, max_steps=80)
    print(f"minimized potential energy: {e:.1f} kcal/mol")
    print(f"replica seeds: {', '.join(str(s) for s in seeds)}")
    ens = EnsembleSimulation(
        system,
        params,
        dt=args.dt,
        seeds=seeds,
        temperature=args.temperature,
        thermostat=BerendsenThermostat(args.temperature),
        constraints=True,
        kernel_tier=args.kernel_tier,
        kernel_threads=args.kernel_threads,
    )
    print(
        f"kernel tier: {ens.kernels.tier} "
        f"(threads: {getattr(ens.kernels, 'threads', 1)})"
    )

    replicas = range(ens.replicas)
    _run_stored(
        args, ens,
        stores=[replica_checkpoint_store(args.checkpoint_dir, r, retain=args.retain)
                for r in replicas] if args.checkpoint_dir else (),
        trajectories=[replica_trajectory_path(args.trajectory, r)
                      for r in replicas] if args.trajectory else (),
        trajectory_every=args.trajectory_every or args.record_every,
        record_every=args.record_every,
    )
    print(f"{'step':>8}  " + "  ".join(f"{'E_r%d' % r:>12}" for r in replicas))
    for recs in zip(*ens.energy_logs):
        print(f"{recs[0].step:>8}  " + "  ".join(f"{rec.total:>12.4f}" for rec in recs))
    temps = [ens.energy_logs[r][-1].temperature if ens.energy_logs[r] else float("nan")
             for r in range(ens.replicas)]
    print("final T (K): " + ", ".join(f"{t:.0f}" for t in temps))
    nl = ens.calc.neighbor_list
    print(f"neighbor list: {nl.n_builds} builds / {nl.n_reuses} reuses "
          f"({nl.n_candidates} cached pairs across replicas)")
    ok = True
    if args.detach is not None:
        solo = ens.detach(args.detach)
        xs, vs = solo.integrator.X, solo.integrator.V
        xe, ve = ens.state_codes(args.detach)
        same = bool(np.array_equal(xs, xe) and np.array_equal(vs, ve))
        print(f"replica {args.detach} detached as a solo Simulation "
              f"(state codes bitwise identical: {same})")
        ok = same
    if args.timings:
        print("component wall time:")
        for line in ens.timers.summary_lines():
            print(f"  {line}")
    if args.profile:
        import json

        print(json.dumps(ens.profile(), indent=2))
    return 0 if ok else 1


def cmd_machine(args) -> int:
    from repro import AntonMachine, minimize_energy
    from repro.systems import build_water_box, machine_water_params

    params = _recipe(machine_water_params, args.waters)
    base = build_water_box(n_molecules=args.waters, seed=7)
    store, loaded = _open_store(args)
    if loaded is None:
        minimize_energy(base, params, max_steps=40)
        base.initialize_velocities(300.0, seed=8)

    fault_kwargs = {}
    if args.faults:
        from repro.fault import RecoveryPolicy, parse_fault_spec

        try:
            spec = parse_fault_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        fault_kwargs = dict(
            faults=spec,
            fault_seed=args.fault_seed,
            recovery=RecoveryPolicy(max_retries=args.max_retries),
        )
    machine = AntonMachine(
        base.copy(), params, n_nodes=args.nodes, dt=1.0, backend=args.backend,
        kernel_tier=args.kernel_tier, kernel_threads=args.kernel_threads,
        routed=_routed_config(args) if args.routed else False,
        **fault_kwargs,
    )
    _run_stored(
        args, machine, stores=[store], loaded=loaded,
        trajectories=[args.trajectory], trajectory_every=args.trajectory_every,
    )
    print(f"{args.nodes}-node machine, {args.steps} steps "
          f"({machine.topology.dims[0]}x{machine.topology.dims[1]}x{machine.topology.dims[2]} torus), "
          f"{args.backend} backend")
    print(f"kernel tier: {machine.backend.kernels.tier} "
          f"(threads: {getattr(machine.backend.kernels, 'threads', 1)})")
    print(f"messages/node/step: {machine.messages_per_node_per_step():.1f}")
    for tag, (msgs, nbytes) in sorted(machine.traffic_summary().items()):
        print(f"  {tag:<20} {msgs:>8} msgs {nbytes:>12} bytes")
    if args.routed:
        _print_network_report(machine.network_report())
    if args.faults:
        report = machine.fault_report()
        recovery = machine.recovery_traffic_summary()
        print(f"fault injection (seed {args.fault_seed}): "
              f"{report['injected']} injected, {report['retries']} retries, "
              f"{report['rollbacks']} rollbacks, "
              f"{report['replayed_steps']} steps replayed")
        for name, count in sorted(report.items()):
            if count:
                print(f"  {name:<22} {count:>8}")
        rt_msgs, rt_bytes = recovery["retransmit"]
        rp_msgs, rp_bytes = recovery["replay"]
        print(f"  recovery traffic: {rt_msgs} retransmit msgs ({rt_bytes} bytes), "
              f"{rp_msgs} replay msgs ({rp_bytes} bytes) — excluded from the "
              f"primary counters above")
    if args.timings:
        print(f"engine time: {machine.engine_seconds() * 1e3:.1f} ms")
        for name, secs in sorted(machine.phase_timings().items(), key=lambda kv: -kv[1]):
            print(f"  {name:<20} {secs * 1e3:10.2f} ms")
    if args.profile:
        import json

        print(json.dumps(machine.profile(), indent=2))
    ok = True
    if args.check_invariance:
        ref = AntonMachine(base.copy(), params, n_nodes=1, dt=1.0, backend=args.backend)
        ref.step(args.steps)
        same = all(
            np.array_equal(a, b) for a, b in zip(machine.state_codes(), ref.state_codes())
        )
        print(f"bitwise identical to the 1-node machine: {same}")
        ref.close()
        ok = same
    machine.close()
    return 0 if ok else 1


def cmd_traj(args) -> int:
    from repro.io import CorruptRecord, TrajectoryReader

    try:
        reader = TrajectoryReader(args.path)
    except FileNotFoundError:
        print(f"{args.path}: no such file", file=sys.stderr)
        return 1
    except CorruptRecord as exc:
        print(str(exc), file=sys.stderr)
        return 1
    with reader:
        if args.action == "info":
            dec = reader.decode
            print(f"{args.path}: {len(reader)} frames "
                  f"({'rebuilt index — torn tail dropped' if reader.index_rebuilt else 'clean index'})")
            if len(reader):
                steps = reader.steps
                print(f"steps {steps[0]}..{steps[-1]}")
            print(f"storage: {dec.get('storage', '?')}"
                  + (f", {dec['position_bits']}-bit positions" if "position_bits" in dec else ""))
            fp = reader.fingerprint
            if fp:
                print(f"fingerprint: {fp.get('n_atoms', '?')} atoms, mode {fp.get('mode', '?')}, "
                      f"dt {fp.get('dt', '?')} fs, system {fp.get('system_hash', '?')[:12]}")
            for key, value in sorted(reader.meta.items()):
                print(f"meta.{key}: {value}")
        elif args.action == "dump":
            try:
                frame = reader.frame(args.frame)
            except IndexError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            pos = reader.positions(frame)
            vel = reader.velocities(frame)
            print(f"frame {args.frame}: step {frame.step}, t = {frame.time_fs:.1f} fs, "
                  f"{len(pos)} atoms")
            print(f"position extent: [{pos.min():.4f}, {pos.max():.4f}] A; "
                  f"|v|_max {np.max(np.abs(vel)):.5f} A/fs")
            for i in range(min(args.atoms, len(pos))):
                print(f"  atom {i}: x = ({pos[i, 0]:12.6f}, {pos[i, 1]:12.6f}, {pos[i, 2]:12.6f})"
                      f"  v = ({vel[i, 0]:9.6f}, {vel[i, 1]:9.6f}, {vel[i, 2]:9.6f})")
        else:  # verify
            report = reader.verify()
            print(f"{args.path}: {report.n_frames} frames")
            print(f"header: {'ok' if report.header_ok else 'BAD'}; "
                  f"index: {'ok' if report.index_ok else 'missing'}; "
                  f"tail: {'clean' if report.clean_tail else 'TORN'}")
            for err in report.errors:
                print(f"  {err}")
            print("verify: PASS" if report.ok else "verify: FAIL")
            return 0 if report.ok else 1
    return 0


def cmd_network(args) -> int:
    import json

    from repro.network import RoutedConfig

    config = RoutedConfig(multicast=args.multicast, delta_bits=args.delta_bits)
    if args.predict:
        from repro import PerformanceModel
        from repro.network import CongestionModel
        from repro.systems import benchmark_by_name

        spec = benchmark_by_name(args.system)
        node_counts = tuple(int(x) for x in args.node_counts.split(","))
        congestion = CongestionModel(bandwidth_scale=args.bandwidth_scale)
        pm = PerformanceModel()
        rows = pm.anton_routed_scaling(
            spec, node_counts=node_counts, config=config, congestion=congestion
        )
        if args.json:
            print(json.dumps(rows, indent=2, default=float))
            return 0
        print(f"{spec.name}: predicted scaling, congested critical-path model "
              f"(bandwidth scale {args.bandwidth_scale})")
        print(f"{'nodes':>6} {'short us':>9} {'long us':>8} {'step us':>8} "
              f"{'us/day routed':>14} {'us/day counter':>15} {'mcast saved':>12}")
        for r in rows:
            print(f"{r['n_nodes']:>6} {r['short_comm_us']:>9.2f} "
                  f"{r['long_comm_us']:>8.2f} {r['step_us_routed']:>8.2f} "
                  f"{r['us_per_day_routed']:>14.2f} {r['us_per_day_counter']:>15.2f} "
                  f"{r['multicast']['saved_link_bytes']:>12}")
        return 0

    from repro import AntonMachine, minimize_energy
    from repro.systems import build_water_box, machine_water_params

    params = _recipe(machine_water_params, args.waters)
    base = build_water_box(n_molecules=args.waters, seed=7)
    minimize_energy(base, params, max_steps=40)
    base.initialize_velocities(300.0, seed=8)
    machine = AntonMachine(
        base, params, n_nodes=args.nodes, dt=1.0, backend=args.backend,
        routed=config,
    )
    machine.step(args.steps)
    report = machine.network_report()
    if args.json:
        print(json.dumps(report, indent=2, default=float))
    else:
        _print_network_report(report)
    machine.close()
    return 0


def cmd_perf(args) -> int:
    from repro import PerformanceModel
    from repro.systems import benchmark_by_name

    pm = PerformanceModel()
    spec = benchmark_by_name(args.system)
    rate = pm.anton_us_per_day(spec, n_nodes=args.nodes)
    print(f"{spec.name}: {spec.n_atoms} atoms, cutoff {spec.cutoff} A, mesh {spec.mesh}^3")
    print(f"modeled rate on {args.nodes} nodes: {rate:.1f} us/day "
          f"(paper, 512 nodes: {spec.paper_us_per_day})")
    print(f"speedup vs Desmond record: {pm.speedup_vs_desmond(rate):.0f}x; "
          f"vs practical clusters: {pm.speedup_vs_practical_cluster(rate):.0f}x")
    if args.profile:
        from repro.perf import workload_from_spec

        w = workload_from_spec(spec, n_nodes=args.nodes)
        print(f"\nper-node task profile ({args.nodes} nodes), us:")
        for task, t, frac in pm.anton_profile(w, n_nodes=args.nodes).rows():
            print(f"  {task:<24} {t:8.2f}  ({frac:4.0%})")
    return 0


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — functional reproduction of")
    print('  Shaw et al., "Millisecond-Scale Molecular Dynamics Simulations')
    print('  on Anton", SC 2009.')
    print("\nreproduced experiments (see EXPERIMENTS.md):")
    for item in (
        "Table 1  longest published simulations (bench_table1_longest_sims)",
        "Table 2  x86 vs Anton task profiles (bench_table2_profile)",
        "Table 3  NT match efficiency (bench_table3_match_efficiency)",
        "Table 4  force errors / drift / rates (bench_table4_accuracy)",
        "Fig. 3   import-region volumes (bench_figure3_import_volume)",
        "Fig. 4   datapath-width accuracy (bench_figure4_numerics)",
        "Fig. 5   performance vs size (bench_figure5_performance)",
        "Fig. 6   NH order parameters (bench_figure6_order_params)",
        "Fig. 7   folding/unfolding events (bench_figure7_folding)",
        "Sec. 4   determinism / invariance / reversibility (bench_numerics_invariance)",
    ):
        print(f"  {item}")
    return 0


def cmd_serve(args) -> int:
    from repro.serve import ServeConfig, Server

    config = ServeConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        kernel_tier=args.kernel_tier,
        kernel_threads=args.kernel_threads,
        idle_exit=args.idle_exit,
    )
    server = Server(args.dir, config)
    print(f"serving on {server.sock_path} — {config.workers} workers, "
          f"max batch {config.max_batch} (pid {os.getpid()})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeUnavailable
    from repro.serve.jobs import JobSpec

    try:
        spec = JobSpec(
            waters=args.waters, build_seed=args.build_seed, steps=args.steps,
            dt=args.dt, temperature=args.temperature, seed=args.seed,
            priority=args.priority, cutoff=args.cutoff,
            record_every=args.record_every,
            trajectory_every=args.trajectory_every,
            checkpoint_every=args.checkpoint_every,
            retain=args.retain, name=args.name,
        )
    except ValueError as exc:
        raise SystemExit(f"bad job spec: {exc}") from exc
    client = ServeClient(args.dir)
    try:
        resp = client.submit(spec.to_dict())
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc
    print(f"submitted {resp['id']} (arrival {resp['arrival']}, "
          f"priority {spec.priority}, {spec.steps} steps)")
    if args.wait:
        states = client.wait([resp["id"]])
        job = client.status(resp["id"])
        print(f"{resp['id']}: {states[resp['id']]} — {job['steps_done']} steps, "
              f"artifacts in {job['artifact_dir']}")
        return 0 if states[resp["id"]] == "DONE" else 1
    return 0


def _job_table(jobs: list[dict]) -> list[str]:
    head = (f"{'id':<14} {'state':<10} {'pri':>3} {'steps':>11} "
            f"{'pre':>3} {'rec':>3} {'wait s':>7} {'steps/s':>8}")
    lines = [head, "-" * len(head)]
    for j in jobs:
        lines.append(
            f"{j['id']:<14} {j['state']:<10} {j['priority']:>3} "
            f"{j['steps_done']:>5}/{j['steps']:<5} "
            f"{j['preemptions']:>3} {j['recoveries']:>3} "
            f"{j['queue_wait_s']:>7.2f} {j.get('steps_per_s', 0.0):>8.2f}"
        )
    return lines


def cmd_jobs(args) -> int:
    import json as _json
    import time as _time

    from repro.serve import ServeClient, ServeUnavailable
    from repro.serve.jobs import TERMINAL_STATES

    client = ServeClient(args.dir)
    try:
        while True:
            jobs = client.jobs()
            out = _job_table(jobs)
            if args.watch:
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(out))
            if args.metrics:
                print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
            if not args.watch or (jobs and all(
                    j["state"] in TERMINAL_STATES for j in jobs)):
                return 0
            _time.sleep(0.5)
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc


def cmd_cancel(args) -> int:
    from repro.serve import ServeClient, ServeUnavailable

    try:
        resp = ServeClient(args.dir).cancel(args.id)
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc
    print(f"{args.id}: {resp['state']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_ensemble(sub)
    _add_serve(sub)
    _add_machine(sub)
    _add_network(sub)
    _add_traj(sub)
    _add_perf(sub)
    sub.add_parser("info", help="version and experiment index")
    args = parser.parse_args(argv)
    return {
        "simulate": cmd_simulate,
        "ensemble": cmd_ensemble,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "cancel": cmd_cancel,
        "machine": cmd_machine,
        "network": cmd_network,
        "traj": cmd_traj,
        "perf": cmd_perf,
        "info": cmd_info,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
