"""The ``serve16`` workload: a live ``repro serve`` and one closed batch.

The server runs as a child process with two forked workers (one on a
single-CPU host) on the compiled tier.  One client submits every job at t0 and waits for all
of them: eight 64-water jobs and eight 48-water jobs (two batch groups,
so both workers are busy), each 200 steps in four 50-step slices with
trajectory, checkpoint and energy-log artifacts.  A 17th submission,
96 waters, is a probe: the service's fixed 16^3 mesh cannot serve that
box.  It is not one of the workload's operations; its outcome is
reported as ``serve.unservable_accepted``.

The workers are the server's children, so the benchmark's wrappers
cannot reach them: layer numbers come from client-side spans around
``ServeClient`` calls and from the server's ``metrics`` op.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from engines import nproc
from repro.io import TrajectoryReader, job_trajectory_path
from repro.serve import ServeClient
from repro.serve.jobs import TERMINAL_STATES, JobSpec

__all__ = ["Server", "WORKERS", "batch_specs", "run_batch", "vm_hwm_mb"]

#: Two workers, so both batch groups run at once, but no more than the
#: host's CPUs.
WORKERS = min(2, nproc())
JOB_STEPS = 200
SLICE_STEPS = 50
GROUPS = ((64, 8), (48, 8))
UNSERVABLE_WATERS = 96
#: Seconds a server may take to come up, and a batch to finish.
START_TIMEOUT = 60.0
BATCH_TIMEOUT = 150.0
POLL = 0.02


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of one process (``VmHWM``), MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` child process over a fresh state directory.

    ``setup_s`` is the wall time from launch until every worker has
    reported its resolved kernel tier.
    """

    def __init__(self, root: Path, state: Path):
        state.mkdir(parents=True)
        self.log_path = state.parent / (state.name + ".log")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # A relative state directory keeps the unix socket path short
        # however deep the checkout sits.
        rel = os.path.relpath(state, root)
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", rel,
                 "--workers", str(WORKERS), "--kernel-tier", "compiled"],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.client = ServeClient(state, timeout=10.0)
        self.worker_pids: list[int] = []
        deadline = t0 + START_TIMEOUT
        while True:
            try:
                workers = self.client.metrics()["workers"]
            except (OSError, RuntimeError):
                workers = []
            if workers and all(w["tier"] for w in workers):
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError(f"server did not start:\n{self.log()}")
            time.sleep(POLL)
        self.setup_s = time.perf_counter() - t0
        self.worker_pids = [w["pid"] for w in workers]
        self.tiers = sorted({w["tier"] for w in workers})
        self.threads = sorted({w["threads"] for w in workers})

    def log(self) -> str:
        return self.log_path.read_text(errors="replace")

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(p) for p in [self.proc.pid, *self.worker_pids])

    def close(self) -> None:
        """Shut down; kill and reap whatever does not exit in time."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except (OSError, RuntimeError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Workers are the server's children; once it is gone they are
        # reaped by init.  Wait for that, killing stragglers.
        deadline = time.time() + 10
        for pid in self.worker_pids:
            while os.path.exists(f"/proc/{pid}") and _state(pid) != "Z":
                if time.time() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.05)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return "Z"


def batch_specs(seed: int, prefix: str) -> tuple[list[JobSpec], JobSpec]:
    """The batch's valid jobs and its unservable probe, from ``seed``."""
    rng = np.random.default_rng(seed)
    specs = []
    for g, (waters, n) in enumerate(GROUPS):
        build_seed = int(rng.integers(1 << 30))
        for k in range(n):
            specs.append(JobSpec(
                waters=waters, build_seed=build_seed, seed=int(rng.integers(1 << 30)),
                steps=JOB_STEPS, checkpoint_every=SLICE_STEPS, name=f"{prefix}g{g}j{k}",
            ))
    probe = JobSpec(waters=UNSERVABLE_WATERS, build_seed=int(rng.integers(1 << 30)),
                    seed=int(rng.integers(1 << 30)), steps=JOB_STEPS,
                    checkpoint_every=SLICE_STEPS, name=f"{prefix}probe")
    return specs, probe


def _trajectory_digest(path: Path, h) -> tuple[bool, int, list]:
    reader = TrajectoryReader(path)
    try:
        report = reader.verify()
        if report.n_frames:
            last = reader.frame(report.n_frames - 1)
            for key in sorted(last.arrays):
                h.update(np.ascontiguousarray(last.arrays[key]).tobytes())
    finally:
        reader.close()
    return report.ok, report.n_frames, report.errors


def run_batch(server: Server, root: Path, seed: int, prefix: str) -> dict:
    """Submit one closed batch, wait for it, and check its outputs."""
    specs, probe = batch_specs(seed, prefix)
    client = server.client
    before = client.metrics()
    log_before = server.log().count("heartbeat stalled")
    submitted = {}
    t0 = time.perf_counter()
    for spec in specs:
        job_id = client.submit(spec.to_dict())["id"]
        submitted[job_id] = time.perf_counter()
    ids = list(submitted)
    try:
        probe_id = client.submit(probe.to_dict())["id"]
    except RuntimeError:  # rejected at submit: the service's right answer
        probe_id = None
    waiting = ids if probe_id is None else [*ids, probe_id]
    finished: dict[str, float] = {}
    while len(finished) < len(waiting):
        now = time.perf_counter()
        for job in client.jobs():
            if job["id"] in waiting and job["state"] in TERMINAL_STATES:
                finished.setdefault(job["id"], now)
        if now - t0 > BATCH_TIMEOUT:
            raise RuntimeError(f"batch not finished after {BATCH_TIMEOUT}s")
        time.sleep(POLL)
    wall = max(finished.values()) - t0
    after = client.metrics()

    problems, views = [], []
    digest = hashlib.sha256()
    done = 0
    for job_id, spec in zip(ids, specs):
        view = client.status(job_id)
        views.append(view)
        if view["state"] != "DONE" or view["steps_done"] != spec.steps:
            problems.append(f"{job_id}: {view['state']} at {view['steps_done']}/{spec.steps}")
            continue
        ok, frames, errors = _trajectory_digest(
            job_trajectory_path(root / view["artifact_dir"]), digest)
        want = spec.steps // spec.effective_trajectory_every
        if not ok or frames != want:
            problems.append(f"{job_id}: trajectory ok={ok} frames={frames}/{want} {errors}")
            continue
        done += 1
    probe_state = "REJECTED" if probe_id is None else client.status(probe_id)["state"]
    if probe_state == "DONE":
        problems.append("the unservable 96-water probe job ran to DONE")
    groups: dict[int, float] = {}
    for view in views:
        groups[view["waters"]] = max(groups.get(view["waters"], 0.0), view["run_seconds"])
    timers = {k: after["timers"].get(k, 0.0) - before["timers"].get(k, 0.0)
              for k in ("serve_events", "serve_schedule")}
    return {
        "wall": wall,
        "attempted": len(specs),
        "done": done,
        "problems": problems,
        "digest": digest.hexdigest(),
        "turnaround": [finished[i] - submitted[i] for i in ids],
        "queue_wait": [v["queue_wait_s"] for v in views],
        "busy_s": sum(groups.values()),
        "dispatches": after["dispatches"] - before["dispatches"],
        "slices": after["slices"] - before["slices"],
        "stalls": server.log().count("heartbeat stalled") - log_before,
        "tick_s": sum(timers.values()),
        "probe_accepted": int(probe_id is not None),
        "probe_state": probe_state,
        "steps": sum(s.steps for s in specs),
    }
