"""Integration: the one run loop keys every output to the global step.

Solo, machine and ensemble runs all advance through
:func:`repro.core.run.run_steps`.  These tests pin the two properties
an interrupted run needs to finish with the uninterrupted run's bytes:

* energy records follow the global step count, like frames and
  checkpoints, so a resumed or split run records at the same steps;
* trajectory frames are flushed before each checkpoint is saved, so a
  process killed right after a checkpoint cannot lose frames that a
  resume from that checkpoint would not write again.

The shared state I/O also gives the ensemble a whole-stack checkpoint,
pinned here to continue bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation
from repro.io import CheckpointStore, EnergyLogWriter, TrajectoryReader
from repro.machine import AntonMachine
from repro.systems import build_water_box

ROOT = Path(__file__).resolve().parents[2]
SIM_PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16), long_range_every=2)
MACHINE_PARAMS = MDParams(
    cutoff=4.0, mesh=(16, 16, 16), kernel_mode="table",
    long_range_every=2, quantize_mesh_bits=40,
)


def _system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, MACHINE_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def _engine(kind: str):
    if kind == "solo":
        return Simulation(_system(), SIM_PARAMS, dt=1.0, mode="fixed")
    return AntonMachine(_system(), MACHINE_PARAMS, n_nodes=8, dt=1.0)


def _killed_run(kind: str, workdir: str) -> None:
    """Run 4 steps writing frames and one checkpoint, then die at once.

    ``os._exit`` skips every cleanup: whatever still sits in Python's
    write buffers is lost, exactly as in a SIGKILL.
    """
    workdir = Path(workdir)
    engine = _engine(kind)
    trajectory = engine.open_trajectory(workdir / "run.rrs")
    engine.run(4, trajectory=trajectory, trajectory_every=2,
               checkpoint_store=CheckpointStore(workdir / "ck"), checkpoint_every=4)
    os._exit(0)


class TestRecordCadence:
    def test_resumed_solo_records_on_global_steps(self, tmp_path):
        ref = Simulation(_system(), SIM_PARAMS, dt=1.0, mode="fixed")
        ref_records = ref.run(12, record_every=4)
        assert [r.step for r in ref_records] == [4, 8, 12]

        store = CheckpointStore(tmp_path / "ck")
        first = Simulation(_system(), SIM_PARAMS, dt=1.0, mode="fixed")
        first.run(6, checkpoint_store=store, checkpoint_every=6)
        resumed = Simulation(_system(), SIM_PARAMS, dt=1.0, mode="fixed")
        resumed.restore(store.load_latest().state)
        assert resumed.integrator.step_count == 6
        records = resumed.run(6, record_every=4)
        assert [r.step for r in records] == [8, 12]
        assert records == ref_records[1:]

    def test_split_ensemble_run_records_like_one_run(self, tmp_path):
        def make():
            return EnsembleSimulation(
                _system(), SIM_PARAMS, dt=1.0, seeds=[3, 4], temperature=300.0,
                thermostat=BerendsenThermostat(300.0),
            )

        def logs(tag):
            return [EnergyLogWriter(tmp_path / f"{tag}{r}.jsonl") for r in range(2)]

        whole, whole_logs = make(), logs("whole")
        whole.run(12, record_every=4, energy_writers=whole_logs)
        split, split_logs = make(), logs("split")
        split.run(6, record_every=4, energy_writers=split_logs)
        split.run(6, record_every=4, energy_writers=split_logs)
        for writer in whole_logs + split_logs:
            writer.close()

        for r in range(2):
            assert [rec.step for rec in split.energy_logs[r]] == [4, 8, 12]
            assert split.energy_logs[r] == whole.energy_logs[r]
            assert (tmp_path / f"split{r}.jsonl").read_bytes() == (
                tmp_path / f"whole{r}.jsonl"
            ).read_bytes()


@pytest.mark.parametrize("kind", ["solo", "machine"])
def test_frames_survive_kill_after_checkpoint(kind, tmp_path):
    ref_path = tmp_path / "ref.rrs"
    ref = _engine(kind)
    with ref.open_trajectory(ref_path) as trajectory:
        ref.run(8, trajectory=trajectory, trajectory_every=2)

    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    subprocess.run(
        [sys.executable, "-c",
         "from tests.integration.test_run_loop import _killed_run; "
         f"_killed_run({kind!r}, {str(tmp_path)!r})"],
        cwd=ROOT, env=env, check=True,
    )

    resumed = _engine(kind)
    resumed.restore(CheckpointStore(tmp_path / "ck").load_latest().state)
    assert resumed.integrator.step_count == 4
    path = tmp_path / "run.rrs"
    with resumed.append_trajectory(path) as trajectory:
        resumed.run(4, trajectory=trajectory, trajectory_every=2)

    with TrajectoryReader(path) as reader:
        assert list(reader.steps) == [2, 4, 6, 8]
    assert path.read_bytes() == ref_path.read_bytes()


def test_ensemble_checkpoint_restores_the_whole_stack():
    def make():
        return EnsembleSimulation(
            _system(), SIM_PARAMS, dt=1.0, seeds=[3, 4], temperature=300.0,
            thermostat=BerendsenThermostat(300.0),
        )

    ref = make()
    ref.run(8)
    first = make()
    first.run(3)
    resumed = make()
    resumed.restore(first.checkpoint())
    resumed.run(5)
    for r in range(2):
        for a, b in zip(resumed.state_codes(r), ref.state_codes(r)):
            assert (a == b).all()
    with pytest.raises(ValueError, match="atoms"):
        Simulation(_system(), SIM_PARAMS, dt=1.0, mode="fixed").restore(first.checkpoint())


def test_machine_checkpoint_from_before_the_solo_schema_restores():
    # Machine snapshots written before the shared schema carry no
    # "mode"/"dt" keys; they still restore and continue bitwise.
    ref = _engine("machine")
    ref.run(6)
    first = _engine("machine")
    first.run(3)
    chk = first.checkpoint()
    assert chk["mode"] == "machine"
    del chk["mode"], chk["dt"]
    resumed = _engine("machine")
    resumed.restore(chk)
    resumed.run(3)
    for a, b in zip(resumed.state_codes(), ref.state_codes()):
        assert (a == b).all()
