"""The in-process workloads: ``machine64``, ``machine512-routed`` and
``ensemble16``.

Each :class:`Engine` is built from the seed the way a user prepares a
run (build the water box, minimize it, draw velocities, construct the
engine) and is then driven through its public run loop in *jobs* of
``JOB_STEPS`` steps: one ``AntonMachine.run`` or
``EnsembleSimulation.run`` call per job.  Construction ends with one
warm-up job, so the first timed job finds every lazy cache filled.
That job builds the neighbor list, so the first timed window starts a
rebuild cycle.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np

from repro.core import BerendsenThermostat, MDParams, minimize_energy
from repro.ensemble import EnsembleSimulation, parse_seed_spec
from repro.io import CheckpointStore, TrajectoryReader
from repro.machine import AntonMachine
from repro.systems import build_water_box

__all__ = ["ENGINES", "JOB_STEPS", "nproc"]

#: Steps per job: one multiple-time-step cycle (long-range forces are
#: evaluated every second step).
JOB_STEPS = 2
#: A run whose temperature leaves this band (kelvin) has blown up.
TEMPERATURE_BAND = (100.0, 1500.0)
#: Short steepest-descent relaxation: four steps from a 0.3 A initial
#: move relax the water lattice about as far as 20 steps from the
#: default 0.02 A (the box then holds about 450 K), at a fifth of the
#: set-up time.
MINIMIZE = {"max_steps": 4, "initial_step": 0.3}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _in_band(temperature: float) -> bool:
    lo, hi = TEMPERATURE_BAND
    return math.isfinite(temperature) and lo <= temperature <= hi


class Engine:
    """One prepared run.  ``setup`` holds the seconds each set-up phase
    took; ``replicas`` is how many systems one step advances."""

    replicas = 1
    timers = None
    #: Whether the last job rebuilt the neighbor list.
    rebuilt = False

    def job(self) -> None:
        raise NotImplementedError

    def run_job(self) -> None:
        builds = self.builds()
        self.job()
        self.rebuilt = self.builds() != builds

    def steps(self) -> int:
        raise NotImplementedError

    def builds(self) -> int:
        return self.neighbor_list.n_builds

    def healthy(self) -> bool:
        return _in_band(self.integrator.temperature())

    def counts(self) -> dict:
        """Program-visible cumulative work counters."""
        nl = self.neighbor_list
        return {"neighbor_builds": nl.n_builds, "candidates": nl.n_candidates}

    def final_problems(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class MachineEngine(Engine):
    WATERS = 1700
    PARAMS = MDParams(cutoff=9.0, mesh=(32, 32, 32), kernel_mode="table",
                      long_range_every=2, quantize_mesh_bits=40)
    #: Trajectory-frame and checkpoint cadences of the I/O variant.
    FRAME_EVERY = 10
    CHECKPOINT_EVERY = 20
    #: One kernel thread, the ``repro machine`` default.  On a 2-CPU
    #: host a 2-lane pool needs both CPUs at every barrier, so its step
    #: time follows the hypervisor's steal and swings between runs;
    #: ``ensemble16`` keeps the thread layer measured.
    KERNEL_THREADS = 1

    def __init__(self, seed: int, workdir: Path, nodes: int, routed: bool, io: bool):
        t0 = time.perf_counter()
        system = build_water_box(n_molecules=self.WATERS, seed=seed)
        t1 = time.perf_counter()
        minimize_energy(system, self.PARAMS, **MINIMIZE)
        system.initialize_velocities(300.0, seed=seed + 1)
        t2 = time.perf_counter()
        self.machine = m = AntonMachine(
            system, self.PARAMS, n_nodes=nodes, dt=1.0, kernel_tier="compiled",
            kernel_threads=self.KERNEL_THREADS, routed=routed,
        )
        self.nodes = nodes
        self.integrator = m.integrator
        self.neighbor_list = m.calc.neighbor_list
        self.timers = m.calc.timers
        self.tier = m.backend.kernels.tier
        self.threads = getattr(m.backend.kernels, "threads", 1)
        self.writer = self.store = None
        if io:
            workdir.mkdir(parents=True, exist_ok=True)
            self.traj_path = workdir / "traj.rrs"
            self.writer = m.open_trajectory(self.traj_path)
            self.store = CheckpointStore(workdir / "ck", retain=2)
        t3 = time.perf_counter()
        self.run_job()
        t4 = time.perf_counter()
        self.setup = {"build_s": t1 - t0, "minimize_s": t2 - t1,
                      "construct_s": t3 - t2, "warmup_s": t4 - t3}

    def job(self) -> None:
        io = self.writer is not None
        self.machine.run(
            JOB_STEPS,
            trajectory=self.writer,
            trajectory_every=self.FRAME_EVERY if io else 0,
            checkpoint_store=self.store,
            checkpoint_every=self.CHECKPOINT_EVERY if io else 0,
        )

    def steps(self) -> int:
        return self.integrator.step_count

    def digest(self) -> str:
        return _digest(self.machine.state_codes())

    def counts(self) -> dict:
        out = super().counts()
        stats = self.machine.network.stats
        out.update(
            messages=stats.messages,
            bytes=stats.bytes,
            hop_bytes=stats.hop_bytes,
            fft_messages=sum(m for tag, (m, _b) in stats.by_tag.items()
                             if tag.startswith("fft")),
        )
        router = self.machine.router
        if router is not None:
            saved = router.multicast_savings()
            out.update(
                link_bytes=router.primary.total_bytes(),
                multicast_unicast_bytes=saved["unicast_link_bytes"],
                multicast_saved_bytes=saved["saved_link_bytes"],
                modeled_comm_ns=round(router.step_comm_us(steps=self.steps()) * 1e3),
            )
        if self.writer is not None:
            self.writer.flush()
            out.update(frames=self.writer.n_frames,
                       trajectory_bytes=os.path.getsize(self.traj_path))
        return out

    def link_bytes(self) -> np.ndarray | None:
        """Per-link cumulative bytes (routed machines only)."""
        router = self.machine.router
        return None if router is None else router.primary.bytes.copy()

    def final_problems(self) -> list[str]:
        problems = []
        router = self.machine.router
        if router is not None:
            stats = self.machine.network.stats
            routed = (router.primary.total_bytes() + router.multicast_saved_hop_bytes
                      + router.compression_saved_hop_bytes)
            if routed != stats.hop_bytes:
                problems.append(
                    f"link bytes + savings {routed} != hop bytes {stats.hop_bytes}")
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            reader = TrajectoryReader(self.traj_path)
            try:
                report = reader.verify()
            finally:
                reader.close()
            if not report.ok:
                problems.append(f"trajectory does not verify: {report.errors}")
            if report.n_frames != self.steps() // self.FRAME_EVERY:
                problems.append(f"trajectory has {report.n_frames} frames "
                                f"after {self.steps()} steps")
            if self.store.latest_step() != self.steps() // self.CHECKPOINT_EVERY * self.CHECKPOINT_EVERY:
                problems.append(f"latest checkpoint {self.store.latest_step()} "
                                f"after {self.steps()} steps")
        return problems

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        self.machine.close()


class EnsembleEngine(Engine):
    WATERS = 250
    REPLICAS = 16

    def __init__(self, seed: int, workdir: Path):
        t0 = time.perf_counter()
        system = build_water_box(n_molecules=self.WATERS, seed=seed)
        params = MDParams(cutoff=min(9.0, system.box.max_cutoff() * 0.9),
                          mesh=(16, 16, 16), long_range_every=2, kernel_mode="table")
        t1 = time.perf_counter()
        minimize_energy(system, params, **MINIMIZE)
        t2 = time.perf_counter()
        self.ens = e = EnsembleSimulation(
            system, params, dt=1.0,
            seeds=parse_seed_spec(None, self.REPLICAS, base_seed=seed),
            temperature=300.0, thermostat=BerendsenThermostat(300.0),
            kernel_tier="compiled", kernel_threads=min(2, nproc()),
        )
        self.replicas = e.replicas
        self.integrator = e.integrator
        self.neighbor_list = e.calc.neighbor_list
        self.timers = e.timers
        self.tier = e.kernels.tier
        self.threads = getattr(e.kernels, "threads", 1)
        t3 = time.perf_counter()
        self.run_job()
        t4 = time.perf_counter()
        self.setup = {"build_s": t1 - t0, "minimize_s": t2 - t1,
                      "construct_s": t3 - t2, "warmup_s": t4 - t3}

    def job(self) -> None:
        self.ens.run(JOB_STEPS)

    def steps(self) -> int:
        return self.integrator.step_count

    def digest(self) -> str:
        return _digest(a for r in range(self.replicas) for a in self.ens.state_codes(r))

    def final_problems(self) -> list[str]:
        problems = []
        for r, rec in enumerate(self.ens.record_energy()):
            if not (math.isfinite(rec.total) and _in_band(rec.temperature)):
                problems.append(f"replica {r}: E={rec.total} T={rec.temperature}")
        return problems


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Workload name -> engine factory ``(seed, workdir) -> Engine``.
ENGINES = {
    "machine64": lambda seed, work: MachineEngine(
        seed, work, nodes=64, routed=False, io=False),
    "machine512-routed": lambda seed, work: MachineEngine(
        seed, work, nodes=512, routed=True, io=True),
    "ensemble16": EnsembleEngine,
}
