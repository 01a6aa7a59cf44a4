"""Unit tests for the serve job model and state machine."""

import pytest

from repro.core.simulation import Simulation
from repro.core.thermostat import BerendsenThermostat
from repro.io import EnergyLogWriter, job_energy_log_path, job_trajectory_path
from repro.serve import AssignmentJob, execute_assignment, prepare_job_system
from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    Job,
    JobSpec,
)


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(waters=8, steps=20, seed=7, priority=3, name="x")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({"steps": 5, "bogus": 1})
        assert spec.steps == 5

    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError, match="unsupported"):
            JobSpec(system="argon")

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="steps"):
            JobSpec(steps=0)

    def test_slice_off_record_cadence_is_byte_identical(self, tmp_path):
        # Records and frames follow the global step, so a checkpoint
        # cadence (== slice length) off the record cadence slices a
        # preempted job without changing its artifacts.
        spec = JobSpec(waters=16, steps=16, seed=5, record_every=4, checkpoint_every=6)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))
        slices = {"n": 0}

        def control():
            slices["n"] += 1
            return "preempt" if slices["n"] >= 2 else None

        first = execute_assignment([job], control=control)
        assert first.status == "preempted", first.error
        assert first.steps_done == {"j": 12}
        job.steps_done = 12
        second = execute_assignment([job])
        assert second.status == "done", second.error

        system, params = prepare_job_system(spec)
        system.initialize_velocities(spec.temperature, seed=spec.seed)
        sim = Simulation(system, params, dt=spec.dt, mode="fixed",
                         thermostat=BerendsenThermostat(spec.temperature),
                         constraints=True)
        ref = tmp_path / "ref"
        ref.mkdir()
        trajectory = sim.open_trajectory(job_trajectory_path(ref))
        writer = EnergyLogWriter(job_energy_log_path(ref))
        try:
            for _ in sim.run(spec.steps, record_every=spec.record_every,
                             energy_writer=writer, trajectory=trajectory,
                             trajectory_every=spec.effective_trajectory_every):
                pass
        finally:
            trajectory.close()
            writer.close()
        for path in (job_energy_log_path, job_trajectory_path):
            assert path(tmp_path / "j").read_bytes() == path(ref).read_bytes()

    def test_derived_cadences(self):
        spec = JobSpec(steps=20, record_every=5)
        assert spec.effective_trajectory_every == 5
        assert spec.slice_steps == 20  # no checkpoints: one slice
        sliced = JobSpec(steps=20, record_every=5, checkpoint_every=10,
                         trajectory_every=5)
        assert sliced.slice_steps == 10

    def test_group_key_ignores_seed_and_name(self):
        a = JobSpec(waters=8, steps=10, seed=1, name="a")
        b = JobSpec(waters=8, steps=10, seed=2, name="b")
        assert a.group_key() == b.group_key()

    def test_group_key_separates_priority_and_params(self):
        base = JobSpec(waters=8, steps=10)
        assert base.group_key() != JobSpec(waters=8, steps=10, priority=1).group_key()
        assert base.group_key() != JobSpec(waters=16, steps=10).group_key()
        assert base.group_key() != JobSpec(waters=8, steps=11).group_key()


class TestJobStateMachine:
    def test_every_state_has_rules(self):
        assert set(VALID_TRANSITIONS) == set(JOB_STATES)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert VALID_TRANSITIONS[state] == set()

    def test_happy_path(self):
        job = Job(id="j", spec=JobSpec())
        job.transition("RUNNING")
        job.transition("DONE")
        assert job.state == "DONE"

    def test_preemption_cycle(self):
        job = Job(id="j", spec=JobSpec())
        job.transition("RUNNING")
        job.transition("PREEMPTED")
        job.transition("PENDING")
        job.transition("RUNNING")
        assert job.state == "RUNNING"

    def test_illegal_transition_rejected(self):
        job = Job(id="j", spec=JobSpec())
        with pytest.raises(InvalidTransition):
            job.transition("DONE")  # PENDING cannot jump to DONE
        job.transition("RUNNING")
        job.transition("DONE")
        with pytest.raises(InvalidTransition):
            job.transition("RUNNING")  # DONE is terminal

    def test_unknown_state_rejected(self):
        with pytest.raises(InvalidTransition):
            Job(id="j", spec=JobSpec()).transition("LIMBO")

    def test_progress_properties(self):
        job = Job(id="j", spec=JobSpec(steps=10))
        assert job.fresh and job.remaining == 10
        job.steps_done = 4
        assert not job.fresh and job.remaining == 6
