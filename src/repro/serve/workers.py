"""Worker pool: multiprocess execution of job assignments in slices.

A worker is one OS process running :func:`worker_main`: it resolves
the kernel configuration **once** (per process, not per job slice —
:func:`resolve_worker_kernels` is the single
:func:`repro.kernels.resolve_config` call, and any
``KernelBuildError`` fallback warning is captured and forwarded to the
server exactly once), then loops on its command queue executing
assignments.

Execution model
---------------
An assignment is 1+ batch-compatible jobs.  Fresh jobs run through one
:class:`~repro.ensemble.EnsembleSimulation` pass (R = batch size;
each replica bit-identical to its solo run on every kernel tier); a
job with prior progress resumes from its newest valid checkpoint in a
one-replica batch, on the same kernel suite, appending to its
trajectory and energy log with the torn / past-checkpoint output
truncated.  Work proceeds in **slices of
exactly the checkpoint cadence**: every slice boundary coincides with
a durable checkpoint save (the shared run loop's, frames flushed
first), so

* preemption (requested between slices) needs no special checkpoint —
  the state is already on disk, and the requeued job resumes from it
  bit-exactly;
* a SIGKILLed worker loses at most one slice of progress; the job is
  requeued and its artifacts heal to byte-identity on resume.

:func:`execute_assignment` is the in-process core (used directly by
tests and benchmarks); :func:`worker_main` wraps it in the process /
queue plumbing and heartbeats.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from queue import Empty

from repro.serve.jobs import JobSpec, prepare_job_system

__all__ = [
    "resolve_worker_kernels",
    "execute_assignment",
    "worker_main",
    "AssignmentJob",
    "SliceOutcome",
]


class AssignmentJob:
    """One job as shipped to a worker: spec + artifact paths + progress."""

    __slots__ = ("id", "spec", "artifact_dir", "steps_done")

    def __init__(self, id: str, spec: JobSpec, artifact_dir: str, steps_done: int = 0):
        self.id = id
        self.spec = spec
        self.artifact_dir = artifact_dir
        self.steps_done = int(steps_done)

    def to_dict(self) -> dict:
        return {"id": self.id, "spec": self.spec.to_dict(),
                "artifact_dir": self.artifact_dir, "steps_done": self.steps_done}

    @classmethod
    def from_dict(cls, d: dict) -> "AssignmentJob":
        return cls(id=d["id"], spec=JobSpec.from_dict(d["spec"]),
                   artifact_dir=d["artifact_dir"], steps_done=d.get("steps_done", 0))


class SliceOutcome:
    """Result of :func:`execute_assignment`."""

    __slots__ = ("status", "steps_done", "error")

    def __init__(self, status: str, steps_done: dict[str, int], error: str = ""):
        self.status = status  # "done" | "preempted" | "failed"
        self.steps_done = steps_done
        self.error = error


def resolve_worker_kernels(tier, threads):
    """Resolve the kernel config once per worker process.

    Returns ``(config, suite_tier, suite_threads, warnings)`` where
    ``warnings`` holds the text of any fallback warning (missing
    compiler, pthread-less build) raised while actually loading the
    suite — captured here so the server can log it once per worker,
    and so job slices never re-trigger the resolution.
    """
    from repro.kernels import get_suite, resolve_config

    cfg = resolve_config(tier, threads)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        suite = get_suite(cfg.tier, cfg.threads)
    notes = [str(w.message) for w in caught]
    return cfg, suite.tier, getattr(suite, "threads", 1), notes


def _job_sinks(engine, jobs, resume=False):
    """Per-job (trajectory writers, checkpoint stores, energy writers)."""
    from pathlib import Path

    from repro.core.run import open_sinks
    from repro.io import (
        CheckpointStore,
        job_checkpoint_dir,
        job_energy_log_path,
        job_trajectory_path,
    )

    dirs = [Path(job.artifact_dir) for job in jobs]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    trajectories, writers = open_sinks(
        engine, [job_trajectory_path(d) for d in dirs],
        [job_energy_log_path(d) for d in dirs], resume=resume,
    )
    stores = [CheckpointStore(job_checkpoint_dir(d), retain=job.spec.retain)
              for d, job in zip(dirs, jobs)]
    return trajectories, stores, writers


def _batch_engine(jobs, kernel_cfg):
    """An EnsembleSimulation over ``jobs`` (one replica each) on the worker's suite."""
    from repro.core.thermostat import BerendsenThermostat
    from repro.ensemble import EnsembleSimulation

    spec = jobs[0].spec
    system, params = prepare_job_system(spec)
    return EnsembleSimulation(
        system, params, dt=spec.dt,
        seeds=[j.spec.seed for j in jobs],
        temperature=spec.temperature,
        thermostat=BerendsenThermostat(spec.temperature),
        constraints=True,
        kernel_tier=kernel_cfg.tier, kernel_threads=kernel_cfg.threads,
    )


def _run_fresh_batch(jobs, control, progress, kernel_cfg):
    """One EnsembleSimulation pass over a batch of fresh jobs."""
    ens = _batch_engine(jobs, kernel_cfg)
    sinks = _job_sinks(ens, jobs)
    return _run_slices(ens, jobs, *sinks, control, progress)


def _run_resumed(job, control, progress, kernel_cfg):
    """Resume one job from its newest valid checkpoint, bit-exactly.

    The job's solo-schema checkpoint restores into a one-replica batch
    engine, so a resumed job runs on the worker's kernel suite too.
    """
    from pathlib import Path

    from repro.io import CheckpointError, CheckpointStore, CorruptRecord, job_checkpoint_dir

    try:
        loaded = CheckpointStore(job_checkpoint_dir(Path(job.artifact_dir))).load_latest()
    except CheckpointError:
        # Nothing durable survived (killed before the first snapshot,
        # or every snapshot torn): start over from scratch — the
        # "run-start baseline" rung of the recovery ladder.
        job.steps_done = 0
        return _run_fresh_batch([job], control, progress, kernel_cfg)

    ens = _batch_engine([job], kernel_cfg)
    ens.restore(loaded.state)
    try:
        sinks = _job_sinks(ens, [job], resume=True)
    except CorruptRecord:  # pragma: no cover - externally damaged file
        # Trajectory unreadable even at the header: nothing to append
        # to.  The run loop's flush-before-checkpoint order makes this
        # unreachable from a worker SIGKILL, so it means external
        # damage — regenerate the whole artifact set from step 0
        # (bit-exact, just slower).
        job.steps_done = 0
        return _run_fresh_batch([job], control, progress, kernel_cfg)
    return _run_slices(ens, [job], *sinks, control, progress)


def _run_slices(engine, jobs, trajectories, stores, writers, control, progress):
    """Advance ``engine`` to the jobs' step target, one slice at a time.

    Every sink sequence holds one entry per job.  The run loop saves
    the checkpoints (frames flushed first) at each slice end, since a
    slice is exactly the checkpoint cadence; preemption is honoured
    between slices.  The last step gets a final checkpoint, like the
    CLI's (rewriting an on-cadence one yields the same file).
    """
    from repro.core.run import close_sinks, run_steps, save_checkpoints

    spec = jobs[0].spec
    step = engine.integrator.step_count
    done = {j.id: step for j in jobs}
    try:
        while step < spec.steps:
            n = min(spec.slice_steps, spec.steps - step)
            run_steps(
                engine, n, record_every=spec.record_every, energy_writers=writers,
                trajectories=trajectories, trajectory_every=spec.effective_trajectory_every,
                checkpoint_stores=stores, checkpoint_every=spec.checkpoint_every,
            )
            step += n
            done = dict.fromkeys(done, step)
            if progress is not None:
                progress(done)
            if step < spec.steps and control is not None and control() == "preempt":
                return SliceOutcome("preempted", done)
        save_checkpoints(engine, stores, trajectories)
        return SliceOutcome("done", done)
    finally:
        close_sinks(trajectories, writers)


def execute_assignment(jobs, control=None, progress=None, kernel_cfg=None):
    """Run one assignment to completion, preemption, or failure.

    ``jobs`` is a list of :class:`AssignmentJob`; ``control`` is a
    zero-argument callable polled between slices (return ``"preempt"``
    to stop after the current slice); ``progress`` receives a
    ``{job_id: steps_done}`` dict after every slice.  ``kernel_cfg``
    is the worker's resolved :class:`~repro.kernels.KernelConfig`
    (resolved once per process — see :func:`resolve_worker_kernels`).
    """
    from repro.kernels import resolve_config

    if kernel_cfg is None:
        kernel_cfg = resolve_config()
    try:
        if len(jobs) == 1 and jobs[0].steps_done > 0:
            return _run_resumed(jobs[0], control, progress, kernel_cfg)
        if any(j.steps_done > 0 for j in jobs):
            raise ValueError("batched assignments must be fresh")
        return _run_fresh_batch(list(jobs), control, progress, kernel_cfg)
    except Exception:
        return SliceOutcome(
            "failed",
            {j.id: j.steps_done for j in jobs},
            error=traceback.format_exc(limit=8),
        )


# -- process entry point -----------------------------------------------------


def worker_main(worker_id: int, cmd_q, evt_q, kernel_tier, kernel_threads,
                parent_pid: int, idle_poll: float = 0.2) -> None:
    """Worker process: resolve kernels once, then serve assignments.

    Exits when told to stop, or when the parent process disappears
    (``getppid`` changed — an orphan after a server SIGKILL must not
    keep mutating artifacts a restarted server will reschedule).
    """
    cfg, tier, threads, notes = resolve_worker_kernels(kernel_tier, kernel_threads)
    # Every event carries this process incarnation's pid: mp.Queue can
    # surface a SIGKILLed worker's buffered events after the server has
    # already spawned a replacement into the same slot, and the server
    # must be able to tell the two apart.
    pid = os.getpid()
    evt_q.put({"evt": "online", "worker": worker_id, "pid": pid,
               "tier": tier, "threads": threads, "warnings": notes})

    def drain_cmds() -> list[dict]:
        out = []
        while True:
            try:
                out.append(cmd_q.get_nowait())
            except Empty:
                return out

    pending_cmds: list[dict] = []
    while True:
        if pending_cmds:
            msg = pending_cmds.pop(0)
        else:
            try:
                msg = cmd_q.get(timeout=idle_poll)
            except Empty:
                if os.getppid() != parent_pid:
                    return
                evt_q.put({"evt": "heartbeat", "worker": worker_id,
                           "pid": pid, "wall": time.time()})
                continue
        if msg.get("cmd") == "stop":
            return
        if msg.get("cmd") != "run":
            continue

        jobs = [AssignmentJob.from_dict(d) for d in msg["jobs"]]
        job_ids = {j.id for j in jobs}
        evt_q.put({"evt": "started", "worker": worker_id, "pid": pid,
                   "jobs": [j.id for j in jobs], "wall": time.time()})
        t0 = time.time()
        state = {"preempt": False}

        def control() -> str | None:
            if os.getppid() != parent_pid:
                os._exit(1)  # orphaned mid-run: stop touching artifacts
            for cmd in drain_cmds():
                if cmd.get("cmd") == "preempt":
                    # A preempt tagged for a different assignment is a
                    # stale leftover — obeying it would churn this one.
                    if cmd.get("jobs") is None or job_ids.issuperset(cmd["jobs"]):
                        state["preempt"] = True
                elif cmd.get("cmd") == "stop":
                    state["preempt"] = True
                    pending_cmds.append(cmd)
                elif cmd.get("cmd") == "run":
                    # Never drop work: hold it for the idle loop rather
                    # than leaving its jobs RUNNING with no worker.
                    pending_cmds.append(cmd)
            return "preempt" if state["preempt"] else None

        def progress(done: dict) -> None:
            evt_q.put({"evt": "slice", "worker": worker_id, "pid": pid,
                       "steps": done, "wall": time.time()})

        outcome = execute_assignment(jobs, control=control, progress=progress,
                                     kernel_cfg=cfg)
        evt_q.put({
            "evt": outcome.status,  # "done" | "preempted" | "failed"
            "worker": worker_id,
            "pid": pid,
            "jobs": [j.id for j in jobs],
            "steps": outcome.steps_done,
            "error": outcome.error,
            "seconds": time.time() - t0,
            "wall": time.time(),
        })
