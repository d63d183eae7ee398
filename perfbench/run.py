"""Benchmark of lrpictures as it is used: sweeps, big single calls, and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
worker process with cold caches and one job, as every ``lrpictures`` command
does; passes repeat until ``--seconds`` have gone by and the workload has
enough ops for its tail percentile.  Every output is checked after its pass,
outside the timed region.

The run pins itself and its children to one CPU, and every end-to-end time
it reports is at the reference host speed: the measured time multiplied by
the host speed the worker sampled around it (see ``worker.py``).  Per-layer
times and ``cli.startup_ms`` are as measured.  The stderr report also gives
the measured end-to-end times and the host speed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, from
untraced passes only.  With ``--trace 1`` untraced and traced passes of the
same inputs alternate; the last line carries the per-layer metrics of the
traced passes (per pass) and the tracing overhead, and the spans are kept in
``.perfbench-out/<workload>.spans.jsonl``.  A report goes to stderr; the
environment block is the stdout line before the last.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # set-up is reported as the median over at least this many processes
HARD_STOP_S = 120  # no pass starts after this, whatever the op count
STARTUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "first_output_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "emitted": "count"}
# the per-layer metrics each layer reports; see README.md for what they should move
LAYER_METRICS = {
    "lr.glr": ("calls", "busy_s", "self_s", "emitted"),
    "lr.glmn": ("calls", "busy_s", "self_s", "emitted"),
    "lr.coefficient": ("calls", "busy_s"),
    "picture.enumerate": ("calls", "busy_s", "self_s", "emitted"),
    "lr.maps": ("calls", "busy_s"),
    "reading.order": ("calls", "busy_s"),
    "reading.is_admissible": ("calls", "busy_s"),
    "sweeps.check_triple": ("calls", "self_s"),
    "tableau.enumerate": ("calls", "busy_s", "emitted"),
    "crystal.decomposition": ("calls", "busy_s"),
    "cli.run": ("self_s",),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_pass(workload: str, seed: int, pass_index: int, size: str, spans_path: Path | None = None) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass", str(pass_index),
        "--size", size,
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} pass {pass_index} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    pos = pct / 100 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _ops(passes) -> list:
    return [op for p in passes for op in p["ops"]]


def _op_seconds(passes) -> float:
    """Op time at the reference host speed."""
    return sum(op["s"] * op["speed"] for op in _ops(passes))


def _tally(passes) -> tuple[int, int]:
    ops = _ops(passes)
    return len(ops), sum(not op["ok"] for op in ops)


def end_to_end(workload: str, seed: int, seconds: float, size: str) -> tuple[list, dict]:
    work = workloads.WORKLOADS[workload]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, len(passes), size))
        elapsed = time.monotonic() - start
        min_ops = work.min_ops if size == "full" else 0
        enough = len(_ops(passes)) >= min_ops and len(passes) >= MIN_PASSES
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and enough):
            break
    ops = _ops(passes)
    attempted, failed = _tally(passes)
    latency = [op["s"] * op["speed"] for op in ops]
    values = {
        "setup_s": statistics.median(p["setup_s"] * p["setup_speed"] for p in passes),
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_tail_ms": percentile(latency, work.tail_pct) * 1e3,
        "first_output_p50_ms": statistics.median(op["first_s"] * op["speed"] for op in ops) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
    }
    return passes, {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def cli_startup_ms() -> float:
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lrpictures.cli"], cwd=ROOT, env=_env(), check=True)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def per_layer(workload: str, seed: int, seconds: float, size: str) -> tuple[list, dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < min(seconds, HARD_STOP_S):
        plain.append(run_pass(workload, seed, len(traced), size))
        traced.append(run_pass(workload, seed, len(traced), size, spans_path))
    totals = spans.layer_totals(str(spans_path))
    n = len(traced)
    values = {}
    for layer, names in LAYER_METRICS.items():
        for name in names:
            values[f"{layer}.{name}"] = (totals[layer][name] / n, LAYER_UNITS[name])
    values["cli.startup_ms"] = (cli_startup_ms(), "ms")
    values["cli.stdout_bytes"] = (sum(p["stdout_bytes"] for p in traced) / n, "bytes")
    values["trace.overhead_frac"] = (_op_seconds(traced) / _op_seconds(plain) - 1, "ratio")
    # layer times are as measured, so their shares are of the measured op time
    measured_s = sum(op["s"] for op in _ops(traced))
    return plain + traced, values, {"totals": totals, "passes": n, "op_s": measured_s / n}


def _report(workload, seed, passes, metrics, layers, environment) -> None:
    attempted, failed = _tally(passes)
    err = sys.stderr
    print(f"# {workload}  seed={seed}  passes={len(passes)}  ops={attempted}  failed={failed}"
          f"  fail_frac={failed / max(attempted, 1):.4g}", file=err)
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()), file=err)
    ops = _ops(passes)
    measured = [op["s"] for op in ops]
    print(f"# measured: {len(measured) / sum(measured):.4g} ops/s,"
          f" op p50 {statistics.median(measured) * 1e3:.4g} ms,"
          f" setup {statistics.median(p['setup_s'] for p in passes):.4g} s;"
          f" host speed median {statistics.median(op['speed'] for op in ops):.3f}"
          f" (min {min(op['speed'] for op in ops):.3f}, max {max(op['speed'] for op in ops):.3f})", file=err)
    work = workloads.WORKLOADS[workload]
    print(f"# op_tail_ms is p{work.tail_pct:g}; a run has at least {work.min_ops} ops", file=err)
    if layers is not None:
        n, op_s = layers["passes"], layers["op_s"]
        print(f"# per traced pass: measured op time {op_s:.4f} s; shares are of that time", file=err)
        print(f"{'layer':<24}{'calls':>9}{'busy_s':>10}{'busy':>7}{'self_s':>10}{'self':>7}{'emitted':>9}", file=err)
        outside = op_s
        for layer, t in layers["totals"].items():
            busy, own = t["busy_s"] / n, t["self_s"] / n
            outside -= own
            print(f"{layer:<24}{t['calls'] / n:>9.0f}{busy:>10.4f}{busy / op_s:>7.1%}{own:>10.4f}"
                  f"{own / op_s:>7.1%}{t['emitted'] / n:>9.0f}", file=err)
        print(f"{'(outside every span)':<24}{'':>26}{outside:>10.4f}{outside / op_s:>7.1%}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28}{value:>14.6g} {unit}", file=err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "lrpictures" / "__init__.py").is_file():
        print(f"error: no lrpictures sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the host's CPUs drift apart in speed, so the speed samples must come from
    # the CPU that runs the ops
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            passes, metrics, layers = per_layer(args.workload, args.seed, args.seconds, args.size)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds, args.size)
            layers = None
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    environment = passes[0]["environment"]
    if any(p["environment"] != environment for p in passes):
        print("error: workers ran in different environments", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, passes, metrics, layers, environment)
    attempted, failed = _tally(passes)
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
