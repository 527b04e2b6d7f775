"""Benchmark of the diracwell solver, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

--trace 0 runs the workload's planned operations, checks every output
against the benchmark's own reference, and prints the end-to-end metrics.
--trace 1 replays the first operations of the plan, first plainly and then
with every layer wrapped, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Times are wall-clock seconds rescaled to the
reference machine speed by `probe.py`; the raw wall-clock figures are
printed above the result.  The package is imported from the checkout's src/
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# a run whose operations take this many times --seconds at the reference
# speed, on a much slower commit, ends before its plan does; the operations
# it skips count as attempted and failed
BUSY_CAP = 3.0

END_TO_END = (
    ("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("items_per_s", "1/s"), ("pass_ratio", "ratio"), ("peak_rss_mb", "MB"),
)


def _load_package():
    """Import diracwell from src/ with DIRACWELL_WORKERS unset; exits with
    an error if the checkout holds no package."""
    if not (SRC / "diracwell" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'diracwell'}; run from a full checkout")
    was_set = os.environ.pop("DIRACWELL_WORKERS", None) is not None
    sys.path[:0] = [str(SRC), str(HERE)]
    import diracwell

    if Path(diracwell.__file__).resolve().parent != SRC / "diracwell":
        sys.exit(f"bench: imported diracwell from {diracwell.__file__}, not from {SRC}")
    return was_set


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIRACWELL_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _environment(args, workers_was_set: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "DIRACWELL_WORKERS": "unset" + (" (removed from the environment)" if workers_was_set else ""),
    }


def timed(fn, *args):
    """Call fn(*args); returns (result, error, reference seconds, wall seconds).

    An exception from fn comes back as its message: a failed operation is
    counted, not fatal.
    """
    import probe

    before = probe.probe()
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return result, error, probe.compensated(wall, before, probe.probe()), wall


def measure_setup(env: dict) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter until
    `import diracwell` returns, as (reference seconds, wall seconds)."""
    import probe

    code = "import time, diracwell; print(repr(time.time()))"
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.probe()
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(proc.stdout) - t0)
        ref.append(probe.compensated(wall[-1], before, probe.probe()))
    return statistics.median(ref), statistics.median(wall)


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the processes that run the package: the
    largest command on cli-cold, this process on the in-process workloads."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least ten samples
    beyond it; the maximum when there are ten or fewer samples."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


@dataclass
class Record:
    op: object
    seconds: float  # at the reference speed
    wall: float
    error: str | None
    checked: int  # checked items
    passed: int
    known: int  # failed items that are documented seed defects
    items: int


def check_apart(op, out) -> list:
    """op.check(out) in a forked child, so that the checker's memory never
    enters this process's peak RSS; an error in the check is raised here."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            payload = pickle.dumps((True, op.check(out)))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"the check of {op.kind} ended without a result")
    ok, result = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"the check of {op.kind} raised:\n{result}")
    return result


def checked(op, out, err, apart: bool) -> tuple[int, int, int]:
    """Check one operation's output, in a forked child when `apart`; prints
    every failure, known seed defects as one line per operation.  Returns
    the counts of checked, passed and known-defect items."""
    if err is not None:
        print(f"failed-op {op.kind} {json.dumps(op.params, default=str)}: {err}")
        return 0, 0, 0
    checks = check_apart(op, out) if apart else op.check(out)
    for c in checks:
        if not (c.ok or c.known):
            print(f"wrong-output {op.kind} {json.dumps(op.params, default=str)}: {c.detail}")
    known = [c for c in checks if c.known]
    if known:
        print(f"known-defect {op.kind} {json.dumps(op.params, default=str)}: "
              f"{len(known)} of {len(checks)} items, e.g. {known[0].detail}")
    return len(checks), sum(c.ok for c in checks), len(known)


def run_checked(op, workload: str, timing=None) -> Record:
    """Run (unless `timing` already holds the call), time and check one
    operation, keeping only what the metrics need.  In-process workloads
    check apart, so that peak_rss_mb is the package's; on cli-cold the
    package runs in the child processes and the check can stay here."""
    out, err, seconds, wall = timing or timed(op.run)
    tally = checked(op, out, err, apart=workload != "cli-cold")
    return Record(op, seconds, wall, err, *tally, 0 if err else op.items(out))


def summarize(records) -> tuple[int, int, int, int]:
    """Checked items, passed items, wrong outputs and failed operations."""
    n = sum(r.checked for r in records)
    passed = sum(r.passed for r in records)
    known = sum(r.known for r in records)
    wrong = n - passed - known
    print(f"checked items {n}: {passed} passed, {known} known seed defects, {wrong} wrong outputs")
    return n, passed, wrong, sum(r.error is not None for r in records)


def timed_run(workload, ops, seconds: float, env: dict):
    """Run the planned operations in order, each output checked right after
    its timed call, outside the timing."""
    records = []
    for op in ops:
        if sum(r.seconds for r in records) >= BUSY_CAP * seconds:
            print(f"stopped after {len(records)} of {len(ops)} planned operations; "
                  f"the {len(ops) - len(records)} skipped count as failed")
            break
        records.append(run_checked(op, workload))
    n_checked, passed, wrong, failed = summarize(records)
    failed += len(ops) - len(records)
    times = [r.seconds for r in records]
    walls = [r.wall for r in records]
    busy = sum(times)
    items = sum(r.items for r in records)
    tail_s, tail_pct = tail(times)
    setup_s, setup_wall = measure_setup(env)
    print(f"operations {len(records)} of {len(ops)} planned ({failed} failed), items {items}, "
          f"op_tail_s at p{tail_pct:.1f} with {min(10, len(times) - 1)} operations beyond it")
    print(f"wall clock: setup_s {setup_wall!r}, op_p50_s {statistics.median(walls)!r}, "
          f"op_tail_s {tail(walls)[0]!r}, items_per_s {items / sum(walls)!r}, "
          f"machine at {busy / sum(walls):.3f} of the reference speed")
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "items_per_s": items / busy,
        "pass_ratio": passed / n_checked if n_checked else 1.0,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    units = dict(END_TO_END)
    return records, wrong, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced_run(workload, ops, env: dict):
    """Untraced, then traced replay of the same operations.  The untraced
    replay also gives the raw wall-clock figures wall.*, so that a gain seen
    only after the probe's rescaling shows."""
    import layers
    import workloads as wl

    tracer = layers.Tracer()

    def traced_call(fn, *args):
        undo = tracer.install()
        try:
            return timed(fn, *args)
        finally:
            tracer.uninstall(undo)

    cli_layer = {"cli.warm_s": 0.0, "cli.cold_overhead_s": 0.0}
    if workload == "cli-cold":
        records, plain, traced = [], [], []
        for op in ops:
            records.append(run_checked(op, workload))
            plain.append(timed(wl.cli_main, op.params["argv"])[2])
            traced.append(traced_call(wl.cli_main, op.params["argv"])[2])
        cli_layer = {"cli.warm_s": statistics.median(plain),
                     "cli.cold_overhead_s": statistics.median(
                         r.seconds - w for r, w in zip(records, plain))}
        walls = [r.wall for r in records]
    else:
        plain, walls = zip(*(timed(op.run)[2:] for op in ops))
        records = [run_checked(op, workload, traced_call(op.run)) for op in ops]
        traced = [r.seconds for r in records]
    _, _, wrong, failed = summarize(records)
    metrics = {**layers.measure_imports(sys.executable, env, str(ROOT)), **cli_layer, **tracer.metrics()}
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
    metrics["wall.op_p50_s"] = statistics.median(walls)
    metrics["wall.items_per_s"] = sum(r.items for r in records) / sum(walls)
    print(f"traced {len(ops)} operations; spans {len(tracer.spans)}")
    units = dict(layers.PER_LAYER)
    return records, wrong, failed, {k: {"value": float(metrics[k]), "unit": units[k]}
                                     for k, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "sweep", "states", "routes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workers_was_set = _load_package()
    # every workload is serial; one CPU for the benchmark and the processes
    # it starts lets the speed probe measure the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads as wl

    env = _child_env()
    print("env " + json.dumps(_environment(args, workers_was_set), sort_keys=True))
    print(f"workload {args.workload}: closed loop, one client, serial; "
          f"items are {wl.ITEM_UNIT[args.workload]}")
    ops = wl.planned_ops(args.workload, args.seed, args.seconds, sys.executable, env, str(ROOT))
    if args.trace:
        ops = ops[:wl.TRACE_OPS[args.workload]]
        records, wrong, failed, metrics = traced_run(args.workload, ops, env)
    else:
        records, wrong, failed, metrics = timed_run(args.workload, ops, args.seconds, env)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    correct = all(r.error is None for r in records) and wrong == 0
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
