"""One run loop and one state-I/O path for every engine.

The solo :class:`~repro.core.simulation.Simulation`, the
:class:`~repro.machine.AntonMachine` and the batched
:class:`~repro.ensemble.EnsembleSimulation` share the :class:`Engine`
state I/O and advance through :func:`run_steps`, so the paper's restart
guarantee (an interrupted run resumes bit for bit, Section 4) is
implemented once:

* every cadence — energy records, snapshots, trajectory frames and
  checkpoints — is keyed to the global ``integrator.step_count``, so a
  resumed run records and writes at exactly the steps the
  uninterrupted run would have;
* trajectory writers are flushed before each checkpoint is saved, so a
  durable checkpoint is always covered by frames the operating system
  already holds: a killed process cannot lose a frame that a resume
  from that checkpoint would not write again;
* an engine with a :class:`~repro.fault.FaultController` has every step
  bracketed by it (wire audit, retries, rollback and replay).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from repro.core.forces import MTSForceProvider
from repro.core.integrator import FixedPointIntegrator
from repro.io import (
    EnergyLogWriter,
    TrajectoryWriter,
    check_fingerprint,
    system_fingerprint,
    truncate_energy_log,
)

__all__ = ["EnergyRecord", "Engine", "open_sinks", "close_sinks", "save_checkpoints", "run_steps"]


@dataclass(frozen=True)
class EnergyRecord:
    """One row of the energy log."""

    step: int
    time_fs: float
    kinetic: float
    potential: float
    temperature: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


class Engine:
    """State views, integrator wiring and state I/O shared by every engine.

    A subclass sets ``system``, ``params``, ``dt``, ``fixed_config``,
    ``calc`` and ``mode`` (the fingerprint mode: ``"fixed"``,
    ``"float"`` or ``"machine"``), and builds its ``integrator`` (on
    the fixed-point path through :meth:`_wire_fixed_point`).  The
    integrator restores its own state; checkpoints use one schema, the
    solo one (:meth:`_checkpoint`), which the machine extends with atom
    ownership and the migration clock.  A batched engine addresses
    replica ``r`` by passing its atom rows to :meth:`_checkpoint` /
    :meth:`_write_frame` and overriding the ``_replica_*`` hooks
    :func:`run_steps` calls.
    """

    #: Timer charged with frame and checkpoint writes (``None``: untimed).
    io_timer = None
    fault_controller = None

    @property
    def positions(self):
        return self.integrator.positions

    @property
    def velocities(self):
        return self.integrator.velocities

    @property
    def timers(self):
        """Per-component wall-time counters of the force calculator."""
        return self.calc.timers

    def _wire_fixed_point(self, constraints, thermostat) -> None:
        """Build the MTS provider and fixed-point integrator over ``calc``."""
        self.provider = MTSForceProvider(self.calc, force_codec=self.fixed_config.force_codec())
        self.integrator = FixedPointIntegrator(
            self.system, self.provider, self.dt, config=self.fixed_config,
            constraints=constraints, thermostat=thermostat, timers=self.calc.timers,
        )

    def step(self, n: int = 1) -> None:
        """Advance ``n`` steps with no recording or I/O."""
        self.integrator.step(n)

    def _energy_record(self, kinetic: float, potential: float, temperature: float) -> EnergyRecord:
        step = self.integrator.step_count
        return EnergyRecord(step, step * self.dt, kinetic, potential, temperature)

    def fingerprint(self) -> dict:
        """Run identity embedded in checkpoints/trajectories.

        Validated on :meth:`restore` and on trajectory append: atom
        count, hashed static system arrays, force-parameter hash (minus
        the bitwise-irrelevant neighbor-list skin), mode, dt, and — on
        the fixed path — the integrator datapath widths.
        """
        fixed = None if self.mode == "float" else self.fixed_config
        return system_fingerprint(self.system, self.params, self.mode, self.dt, fixed)

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot of the exact dynamic state.

        On the fixed-point path it holds the raw integer state, so a
        restored run continues *bit-for-bit* — the property that let the
        paper's multi-month BPTI run survive interruptions without
        perturbing the trajectory.
        """
        return self._checkpoint()

    def _checkpoint(self, rows=slice(None)) -> dict:
        """The solo checkpoint schema for atom ``rows``."""
        integ = self.integrator
        return {
            "mode": self.mode,
            "dt": self.dt,
            "step_count": integ.step_count,
            "provider_calls": integ.force_fn.calls,
            "fingerprint": self.fingerprint(),
            **integ.state_arrays(rows),
        }

    def restore(self, chk: dict) -> None:
        """Resume bit-exactly from a checkpoint of a compatible run."""
        self._check_checkpoint(chk)
        self.integrator.restore(chk)

    def _check_checkpoint(self, chk: dict) -> None:
        # Snapshots without a fingerprint (or, from the machine, without
        # mode and time step) are still accepted.
        if chk.get("mode", self.mode) != self.mode or chk.get("dt", self.dt) != self.dt:
            raise ValueError("checkpoint is for a different mode or time step")
        if chk.get("fingerprint") is not None:
            check_fingerprint(chk["fingerprint"], self.fingerprint(), what="checkpoint")

    # -- trajectories --------------------------------------------------------

    def open_trajectory(self, path, meta: dict | None = None) -> TrajectoryWriter:
        """A fresh trajectory file for this run.

        The header carries the fingerprint plus the decode parameters
        (datapath widths, box) a reader needs to reconstruct physical
        positions/velocities bit-exactly without the system objects.
        """
        return TrajectoryWriter(path, fingerprint=self.fingerprint(),
                                decode=self.integrator.decode_header(), meta=meta)

    def append_trajectory(self, path) -> TrajectoryWriter:
        """Reopen ``path`` for resumed writing.

        Frames past the current step (written by an interrupted run
        after its last durable checkpoint) and any torn tail are
        truncated, so the finished file is identical to one from an
        uninterrupted run.
        """
        return TrajectoryWriter.append(path, fingerprint=self.fingerprint(),
                                       resume_step=self.integrator.step_count)

    def write_frame(self, writer: TrajectoryWriter) -> None:
        """Append the current exact state as one frame."""
        self._write_frame(writer)

    def _write_frame(self, writer: TrajectoryWriter, rows=slice(None)) -> None:
        step = self.integrator.step_count
        writer.write_frame(step, step * self.dt, self.integrator.state_arrays(rows))

    # -- run-loop hooks (one replica) ------------------------------------------

    def _replica_records(self) -> list:
        return [self.record_energy()]

    def _replica_frame(self, writer: TrajectoryWriter, r: int) -> None:
        self.write_frame(writer)

    def _replica_checkpoint(self, r: int) -> dict:
        return self.checkpoint()


def open_sinks(engine: Engine, trajectories=(), energy_logs=(), resume: bool = False):
    """Per-replica ``(trajectory writers, energy-log writers)`` for a run.

    ``trajectories`` and ``energy_logs`` hold one path per replica
    (``None`` skips it).  With ``resume``, existing files are cut back
    to the engine's step and appended to, so the finished files equal
    an uninterrupted run's; otherwise they are created fresh.
    """
    writers, logs = [], []
    try:
        for path in trajectories:
            if path is not None and resume and os.path.exists(path):
                writers.append(engine.append_trajectory(path))
            else:
                writers.append(None if path is None else engine.open_trajectory(path))
        for path in energy_logs:
            if path is not None and resume:
                truncate_energy_log(path, engine.integrator.step_count)
            logs.append(None if path is None else EnergyLogWriter(path, append=resume))
    except BaseException:
        close_sinks(writers, logs)
        raise
    return writers, logs


def close_sinks(*sinks) -> None:
    """Close every writer in the given per-replica sequences."""
    for sequence in sinks:
        for sink in sequence:
            if sink is not None:
                sink.close()


def save_checkpoints(engine: Engine, stores, trajectories=()) -> list:
    """Flush ``trajectories``, then save each replica's checkpoint.

    ``stores`` holds one store per replica (``None`` skips it).  The
    flush comes first so a durable checkpoint never runs ahead of the
    frames it covers.  Returns the saved paths.
    """
    for writer in trajectories:
        if writer is not None:
            writer.flush()
    step = engine.integrator.step_count
    return [store.save(engine._replica_checkpoint(r), step)
            for r, store in enumerate(stores) if store is not None]


def run_steps(
    engine: Engine,
    n_steps: int,
    *,
    record_every: int = 0,
    energy_writers=(),
    snapshot_every: int = 0,
    trajectories=(),
    trajectory_every: int = 0,
    checkpoint_stores=(),
    checkpoint_every: int = 0,
) -> None:
    """Advance ``engine`` by ``n_steps`` with its outputs on the global step.

    ``energy_writers``, ``trajectories`` and ``checkpoint_stores`` hold
    one sink per replica (``None`` skips it); an ``every`` of 0
    disables that output.  Snapshots append to the engine's
    ``snapshots``/``snapshot_steps`` lists.  With a fault controller, a
    step that must be undone rolls back to the newest snapshot (the
    run's store when it has one) and replays; replayed steps skip the
    outputs they already produced, so a healed run's artifacts are
    exactly a clean run's.
    """
    integ = engine.integrator
    fc = engine.fault_controller
    io_time = partial(engine.timers.time, engine.io_timer) if engine.io_timer else nullcontext
    framing = trajectory_every and any(w is not None for w in trajectories)
    saving = checkpoint_every and any(s is not None for s in checkpoint_stores)
    store = checkpoint_stores[0] if checkpoint_stores else None  # rollback source
    if fc is not None:
        fc.start_run(engine, n_steps)
    target = integ.step_count + n_steps
    while integ.step_count < target:
        step = integ.step_count + 1
        if fc is None:
            engine.step()
        elif not fc.run_step(engine, step, store):
            continue
        if record_every and step % record_every == 0:
            for writer, rec in zip(energy_writers, engine._replica_records()):
                if writer is not None:
                    writer.write(rec)
        if snapshot_every and step % snapshot_every == 0:
            engine.snapshots.append(engine.positions.copy())
            engine.snapshot_steps.append(step)
        if framing and step % trajectory_every == 0:
            with io_time():
                for r, writer in enumerate(trajectories):
                    if writer is not None:
                        engine._replica_frame(writer, r)
        if saving and step % checkpoint_every == 0:
            with io_time():
                save_checkpoints(engine, checkpoint_stores, trajectories)
        if fc is not None:
            fc.maybe_snapshot(engine, step, has_store=store is not None)
