#!/usr/bin/env python
"""Crash-recovery smoke: SIGKILL a run mid-flight, resume, compare bits.

End-to-end drill of the durable run store's recovery contract:

1. Run a reference simulation to completion; keep its final checkpoint,
   trajectory, and energy log.
2. Start an identical run in a child process and SIGKILL it mid-step —
   no atexit handlers, no flushing, exactly the failure a multi-month
   run must survive.
3. Corrupt the newest snapshot the dead run left (simulating a tear in
   the very write the kill interrupted).
4. Resume via the CLI (`--resume`): the store must fall back to the
   newest *valid* snapshot, truncate the trajectory's torn tail and
   post-checkpoint frames, and finish the run.
5. Compare the recovered trajectory, final checkpoint, and energy log
   against the uninterrupted reference **byte for byte**.  The
   checkpoint cadence is not a multiple of the record cadence, so the
   energy log also checks that records follow the global step.

Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

STEPS = 24
# Not a multiple of --record-every (4): a resume from step 6 or 18 must
# still record on the global cadence (8, 12, ...), not from the resume.
CHECKPOINT_EVERY = 6


def run_flags(workdir: Path, steps: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "simulate",
        "--system", "water", "--waters", "24",
        "--steps", str(steps), "--record-every", "4",
        "--trajectory", str(workdir / "run.rrs"), "--trajectory-every", "2",
        "--checkpoint-dir", str(workdir / "ck"),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
        "--energy-log", str(workdir / "energy.jsonl"),
    ]


def env():
    e = os.environ.copy()
    e["PYTHONPATH"] = str(REPO / "src")
    return e


def start_and_kill(workdir: Path) -> None:
    """Launch the run and SIGKILL it once it is mid-simulation."""
    proc = subprocess.Popen(
        run_flags(workdir, STEPS), env=env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    ck = workdir / "ck"
    deadline = time.monotonic() + 120
    # Wait until at least two checkpoints exist (so a valid one remains
    # after we corrupt the newest), then kill without warning.
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit("FAIL: run finished before it could be killed; "
                             "raise STEPS or lower CHECKPOINT_EVERY")
        if ck.is_dir() and len(list(ck.glob("ckpt-*.rrs"))) >= 2:
            break
        time.sleep(0.02)
    else:
        raise SystemExit("FAIL: two checkpoints did not appear within 120 s")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    print(f"killed run with SIGKILL; store holds steps "
          f"{[p.name for p in sorted(ck.glob('ckpt-*.rrs'))]}")


def corrupt_newest(workdir: Path) -> Path:
    snaps = sorted((workdir / "ck").glob("ckpt-*.rrs"))
    newest = snaps[-1]
    raw = newest.read_bytes()
    newest.write_bytes(raw[: max(8, len(raw) - 64)])
    print(f"tore the newest snapshot: {newest.name}")
    return newest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--keep", action="store_true", help="keep the work dirs")
    args = ap.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="crash-smoke-"))
    ref_dir, crash_dir = tmp / "ref", tmp / "crash"
    ref_dir.mkdir(parents=True)
    crash_dir.mkdir(parents=True)

    print("reference run (uninterrupted)...")
    subprocess.run(run_flags(ref_dir, STEPS), env=env(), check=True,
                   stdout=subprocess.DEVNULL)

    print("crash run (to be killed)...")
    start_and_kill(crash_dir)
    corrupt_newest(crash_dir)

    print("resuming from the newest valid snapshot...")
    out = subprocess.run(
        run_flags(crash_dir, STEPS) + ["--resume"], env=env(), check=True,
        capture_output=True, text=True,
    ).stdout
    resumed_line = next(line for line in out.splitlines() if "resumed from" in line)
    print(f"  {resumed_line}")

    failures = []
    if (crash_dir / "run.rrs").read_bytes() == (ref_dir / "run.rrs").read_bytes():
        print("run.rrs: byte-identical to the uninterrupted run")
    else:
        failures.append("run.rrs")
    final = f"ckpt-{STEPS:012d}.rrs"
    if (crash_dir / "ck" / final).read_bytes() == (ref_dir / "ck" / final).read_bytes():
        print(f"ck/{final}: byte-identical to the uninterrupted run")
    else:
        failures.append(final)
    # The resume cuts the energy log back to the restored step before
    # appending, so lines the killed run logged past its last durable
    # checkpoint are not duplicated: the log is byte-identical too.
    if (crash_dir / "energy.jsonl").read_bytes() == (ref_dir / "energy.jsonl").read_bytes():
        print("energy.jsonl: byte-identical to the uninterrupted run")
    else:
        failures.append("energy.jsonl")

    if not args.keep:
        import shutil

        shutil.rmtree(tmp)
    if failures:
        raise SystemExit(f"FAIL: recovered artifacts differ: {failures}")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
