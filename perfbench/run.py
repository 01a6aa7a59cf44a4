#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload machine64 --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the program's public functions (see ``layers.py``)
and reports the per-layer metrics instead.  The metric names, units and
workloads are the ones listed in ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result (host and
program fingerprint, set-up breakdown, profiler cross-check) is written
to ``.perfbench/results/`` and, for traced runs, the measured spans as
a Chrome trace-event file that opens in Perfetto.

Run-to-run state lives in ``.perfbench/`` at the checkout root: the
first run of a seed records its state digest and work counts there,
and every later run of that seed must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 0
#: Set-ups per run; the median is ``setup_s``.  The machine set-ups are
#: dominated by minimization (about 10 s each), so they repeat twice.
SETUP_REPEATS = {"machine64": 2, "machine512-routed": 2, "ensemble16": 3, "serve16": 3}
#: Steps from the window's start over which work counts are taken and
#: the state digest is checked; fixed so both repeat exactly.
COUNT_STEPS = {"machine64": 20, "machine512-routed": 20, "ensemble16": 10}
#: A window stops after this many seconds even without whole cycles.
MAX_WINDOW_FACTOR, MAX_WINDOW_EXTRA = 3, 30.0

#: Service-only layer metrics, zero on the in-process workloads.
_SERVE_ONLY_METRICS = (
    "serve.submit_rtt_ms", "serve.queue_wait_p50_s", "serve.worker_busy_frac",
    "serve.dispatches", "serve.slices", "serve.heartbeat_stalls", "serve.tick_ms",
    "serve.unservable_accepted",
)

#: Engine layer metrics the serve workload cannot observe.
_ENGINE_ONLY_METRICS = (
    "parallel.messages_per_node", "parallel.bytes", "fft.messages_per_transform",
    "network.link_bytes", "network.max_link_bytes", "network.multicast_saved_frac",
    "network.modeled_comm_us", "io.bytes_written", "machine.construct_s", "core.minimize_s",
)

#: Per-layer counts that must repeat exactly across runs of one seed.
_REPEATED_LAYER_COUNTS = {
    "geometry.neighbor_builds_per_100", "geometry.candidates", "kernels.pairs",
    "ewald.plan_bytes", "ewald.kspace_fallback_calls", "parallel.migrated_atoms",
    "parallel.messages_per_node", "parallel.bytes", "fft.messages_per_transform",
    "network.link_bytes", "network.max_link_bytes", "io.frames", "io.checkpoints",
    "io.bytes_written",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- the timed window -------------------------------------------------------

def run_window(eng, seconds: float, count_steps: int, tracer=None) -> dict:
    """Run jobs and measure whole neighbor-list rebuild cycles.

    The measured part runs from the end of a job that rebuilt the list
    (or the window's start, when the job before it did) to the end of
    the first rebuilding job at least ``seconds`` later.  A rebuild
    costs about ten ordinary steps, so a window cut at an arbitrary job
    would hold a varying share of one; whole cycles remove that phase
    noise.  Work counts and the state digest are taken after exactly
    ``count_steps`` steps (none when 0).
    """
    steps0 = eng.steps()
    links = getattr(eng, "link_bytes", lambda: None)
    start = {"counts": eng.counts(), "links": links()}
    timers_start = eng.timers.snapshot()
    t_start = time.perf_counter()
    limit = MAX_WINDOW_FACTOR * seconds + MAX_WINDOW_EXTRA
    marks = [(t_start, 0, 0, timers_start)] if eng.rebuilt else []
    jobs, snap, failed, done = [], None, 0, 0
    while True:
        a = time.perf_counter()
        if tracer is not None:
            with tracer.span("bench.job"):
                eng.run_job()
        else:
            eng.run_job()
        b = time.perf_counter()
        jobs.append(b - a)
        failed += not eng.healthy()
        done = eng.steps() - steps0
        if done == count_steps:
            snap = {"t": b, "digest": eng.digest(), "counts": eng.counts(), "links": links()}
        if eng.rebuilt:
            marks.append((b, done, len(jobs), eng.timers.snapshot()))
        if snap is None and count_steps:
            continue
        if len(marks) >= 2 and marks[-1][0] - marks[0][0] >= seconds:
            break
        if b - t_start >= limit:
            break
    if len(marks) < 2:  # fewer than two rebuilds: measure the whole window
        marks = [(t_start, 0, 0, timers_start), (b, done, len(jobs), eng.timers.snapshot())]
    (w0, s0, j0, timers0), (w1, s1, j1, timers1) = marks[0], marks[-1]
    return {
        "t_start": t_start, "w0": w0, "w1": w1, "wall": w1 - w0, "steps": s1 - s0,
        "jobs": jobs[j0:j1], "attempted": len(jobs), "failed": failed,
        "start": start, "snap": snap,
        "profiler": {k: v - timers0.get(k, 0.0) for k, v in timers1.items()},
    }


def _count_deltas(eng, win: dict, steps: int, transforms: int) -> dict:
    """Per-step program-counter metrics over the count window
    (``transforms``: the FFTs the window ran)."""
    a, b = win["start"]["counts"], win["snap"]["counts"]
    d = {k: b[k] - a.get(k, 0) for k in b if isinstance(b[k], int)}
    nodes = getattr(eng, "nodes", 0)
    out = {
        "parallel.messages_per_node": d.get("messages", 0) / (steps * nodes) if nodes else 0.0,
        "parallel.bytes": d.get("bytes", 0) / steps,
        "network.link_bytes": d.get("link_bytes", 0) / steps,
        "network.multicast_saved_frac": (
            d["multicast_saved_bytes"] / d["multicast_unicast_bytes"]
            if d.get("multicast_unicast_bytes") else 0.0),
        "network.modeled_comm_us": b.get("modeled_comm_ns", 0) / 1e3,
        "io.bytes_written": d.get("trajectory_bytes", 0) / steps,
        "fft.messages_per_transform": d.get("fft_messages", 0) / transforms if transforms else 0.0,
    }
    links0, links1 = win["start"]["links"], win["snap"]["links"]
    out["network.max_link_bytes"] = (
        float((links1 - links0).max()) / steps if links1 is not None else 0.0)
    return out


# -- workloads ---------------------------------------------------------------

def engine_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from engines import ENGINES
    from layers import TARGETS, count_metrics, layer_metrics, profiler_metrics
    from serve16 import vm_hwm_mb
    from spans import Tracer

    factory = ENGINES[name]
    count_steps = COUNT_STEPS[name]
    setups, warm, eng = [], set(), None
    for i in range(SETUP_REPEATS[name]):
        if eng is not None:
            eng.close()
            eng = None
            gc.collect()
        t0 = time.perf_counter()
        eng = factory(seed, work / f"setup{i}")
        setups.append((time.perf_counter() - t0, eng.setup))
        warm.add(eng.digest())
    problems = []
    if len(warm) != 1:
        problems.append("repeated set-ups disagree on the warmed-up state")
    if eng.tier != "compiled":
        problems.append(f"kernel tier fell back to {eng.tier!r}")
    result = {"problems": problems, "kernel_tier": eng.tier, "kernel_threads": eng.threads,
              "setup_s": _median([s for s, _ in setups]),
              "setup_phases": {k: _median([p[k] for _, p in setups]) for k in setups[0][1]}}
    tracer = None
    try:
        if trace:
            tracer = Tracer()
            for target in TARGETS:
                tracer.wrap(*target)
            try:
                win = run_window(eng, seconds, count_steps, tracer)
            finally:
                tracer.close()
            plain = run_window(eng, seconds, 0)
        else:
            win = plain = run_window(eng, seconds, count_steps)
        problems += eng.final_problems()
    finally:
        eng.close()
    windows = [win] if win is plain else [win, plain]
    rate = plain["steps"] * eng.replicas / plain["wall"]
    result.update(
        attempted=sum(w["attempted"] for w in windows),
        failed=sum(w["failed"] for w in windows),
        digest=win["snap"]["digest"],
        counts=dict(win["snap"]["counts"]),
        window={"steps": plain["steps"], "wall": plain["wall"], "job_s": plain["jobs"]},
    )
    result["end_to_end"] = {
        "setup_s": result["setup_s"],
        "steps_per_s": rate,
        "jobs_per_s": len(plain["jobs"]) / plain["wall"],
        "turnaround_p50_s": _median(plain["jobs"]),
        "done_frac": (result["attempted"] - result["failed"]) / result["attempted"],
        "peak_rss_mb": vm_hwm_mb(),
    }
    if tracer is not None:
        steps = win["steps"]
        layers = layer_metrics(tracer.summary(win["w0"], win["w1"]), steps, win["wall"])
        counted = tracer.summary(win["t_start"], win["snap"]["t"])
        layers.update(count_metrics(counted, count_steps))
        # account_fft charges a forward and an inverse transform.
        transforms = 2 * counted.get("machine.fft_accounting", {}).get("calls", 0)
        layers.update(_count_deltas(eng, win, count_steps, transforms))
        layers["io.bytes_written"] += counted.get("io.checkpoint", {}).get("n", 0) / count_steps
        layers.update(profiler_metrics(win["profiler"], steps))
        layers["machine.construct_s"] = result["setup_phases"]["construct_s"]
        layers["core.minimize_s"] = result["setup_phases"]["minimize_s"]
        # Median job times skip the rebuild jobs, so the two windows
        # compare like with like although they cover different steps.
        layers["trace.overhead_frac"] = _median(win["jobs"]) / _median(plain["jobs"]) - 1.0
        result["counts"].update({k: v for k, v in layers.items()
                                 if k in _REPEATED_LAYER_COUNTS})
        layers.update(dict.fromkeys(_SERVE_ONLY_METRICS, 0.0))
        result["layers"] = layers
        result["chrome"] = tracer.chrome_events(win["w0"], win["w1"])
    return result




def serve_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from layers import TARGETS, count_metrics, layer_metrics, profiler_metrics
    from serve16 import WORKERS, Server, run_batch, vm_hwm_mb
    from spans import Tracer

    setups, server = [], None
    try:
        for i in range(SETUP_REPEATS[name]):
            if server is not None:
                server.close()
            server = Server(ROOT, work / f"state{i}")
            setups.append(server.setup_s)
        problems = []
        if server.tiers != ["compiled"]:
            problems.append(f"worker kernel tier fell back to {server.tiers}")

        def batches(prefix: str) -> list[dict]:
            out, t0 = [], time.perf_counter()
            while not out or time.perf_counter() - t0 < seconds:
                out.append(run_batch(server, ROOT, seed, f"{prefix}{len(out)}-"))
            return out

        tracer = None
        if trace:
            tracer = Tracer()
            for target in TARGETS:
                tracer.wrap(*target)
            try:
                t_traced = time.perf_counter()
                traced = batches("t")
                t_traced_end = time.perf_counter()
            finally:
                tracer.close()
        plain = batches("p")
        peak = server.peak_rss_mb() + vm_hwm_mb()
    finally:
        if server is not None:
            server.close()
    runs = (traced + plain) if trace else plain
    for r in runs:
        problems += r["problems"]
    if len({r["digest"] for r in runs}) != 1:
        problems.append("batches of one seed disagree on their trajectories")
    wall = sum(r["wall"] for r in plain)
    attempted = sum(r["attempted"] for r in runs)
    done = sum(r["done"] for r in runs)
    first = runs[0]
    result = {
        "problems": problems, "kernel_tier": ",".join(server.tiers),
        "kernel_threads": server.threads[0] if server.threads else 0,
        "setup_s": _median(setups), "setup_phases": {"server_start_s": _median(setups)},
        "attempted": attempted, "failed": attempted - done, "digest": first["digest"],
        "counts": {"dispatches": first["dispatches"], "slices": first["slices"],
                   "probe_state": first["probe_state"]},
    }
    result["end_to_end"] = {
        "setup_s": result["setup_s"],
        "steps_per_s": sum(r["steps"] for r in plain) / wall,
        "jobs_per_s": sum(r["done"] for r in plain) / wall,
        "turnaround_p50_s": _median([t for r in plain for t in r["turnaround"]]),
        "done_frac": done / attempted,
        "peak_rss_mb": peak,
    }
    if trace:
        steps = sum(r["steps"] for r in traced)
        t_wall = sum(r["wall"] for r in traced)
        summary = tracer.summary(t_traced, t_traced_end)
        # The engine layers run in the workers, out of the wrappers' reach.
        layers = layer_metrics(summary, steps, t_wall)
        layers.update(count_metrics({}, steps))
        layers.update(profiler_metrics({}, steps))
        layers.update(dict.fromkeys(_ENGINE_ONLY_METRICS, 0.0))
        submit = summary.get("serve.submit", {"wall": 0.0, "calls": 1})
        layers.update({
            "serve.submit_rtt_ms": submit["wall"] * 1e3 / max(submit["calls"], 1),
            "serve.queue_wait_p50_s": _median([q for r in traced for q in r["queue_wait"]]),
            "serve.worker_busy_frac": sum(r["busy_s"] for r in traced) / (WORKERS * t_wall),
            "serve.dispatches": sum(r["dispatches"] for r in traced) / len(traced),
            "serve.slices": sum(r["slices"] for r in traced) / len(traced),
            "serve.heartbeat_stalls": sum(r["stalls"] for r in traced) / len(traced),
            "serve.tick_ms": sum(r["tick_s"] for r in traced) * 1e3 / steps,
            "serve.unservable_accepted": first["probe_accepted"],
            "trace.overhead_frac": result["end_to_end"]["steps_per_s"] * t_wall / steps - 1.0,
        })
        result["layers"] = layers
        result["chrome"] = tracer.chrome_events(t_traced, t_traced_end)
    return result


# -- checks, fingerprint and output -----------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "_build" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty elsewhere)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def fingerprint(result: dict) -> dict:
    import numpy as np
    from engines import nproc

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "kernel_tier": result["kernel_tier"],
        "kernel_threads": result["kernel_threads"],
        "thread_layer": "measured" if nproc() >= 2 else "unevaluated (nproc < 2)",
    }


def repeat_problems(name: str, seed: int, result: dict) -> list[str]:
    """Compare the digest and counts with the recorded ones for this
    seed (and with the committed digest for the default seed), then
    record what this run added."""
    problems = []
    if seed == DEFAULT_SEED:
        golden = json.loads((HERE / "digests.json").read_text()).get(name)
        if golden != result["digest"]:
            problems.append(f"state digest {result['digest']} != recorded {golden}")
    path = STATE / "seen" / f"{name}-seed{seed}.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.get("digest", result["digest"]) != result["digest"]:
        problems.append(f"state digest differs from an earlier run of seed {seed}")
    counts = seen.get("counts", {})
    for key, value in result["counts"].items():
        if key in counts and counts[key] != value:
            problems.append(f"count {key}={value} differs from an earlier run ({counts[key]})")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": result["digest"], "counts": {**counts, **result["counts"]}},
                              indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a checkout with src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    ticks0 = _cpu_ticks()
    work = STATE / f"run-{os.getpid()}"
    runner = serve_workload if args.workload == "serve16" else engine_workload
    try:
        result = runner(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Share of the host's CPU time the hypervisor gave to other guests
    # during the run: a high value explains a slow run.
    ticks = [b - a for a, b in zip(ticks0, _cpu_ticks())]
    steal = ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else None
    problems = result["problems"] + repeat_problems(args.workload, args.seed, result)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(result), "problems": problems,
        "host_steal_frac": steal,
        "setup_phases": result["setup_phases"], "digest": result["digest"],
        "counts": result["counts"], "end_to_end": result["end_to_end"],
        "layers": result.get("layers", {}), "window": result.get("window", {}),
    }
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True))
    if "chrome" in result:
        (out_dir / f"{stem}.trace.json").write_text(
            json.dumps({"traceEvents": result["chrome"], "displayTimeUnit": "ms"}))
    print("fingerprint " + json.dumps(full["fingerprint"], sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    for key, value in sorted(values.items()):
        print(f"  {key:<40} {value:.6g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
