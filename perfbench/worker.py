"""One pass of a workload in a fresh process; prints one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload NAME --seed N --pass K [--size tiny] [--spans FILE]

The pass builds its inputs (set-up), times every op, then checks every output
outside the timed region.  With ``--spans`` the library is traced and the
spans are appended to FILE.

The speed of a shared host drifts by a quarter or more within a minute, for
CPU time as much as for wall time.  So the pass also samples the host speed
with a fixed pure-Python loop that runs no library code: once right after
set-up, then after any op that ends 0.25 s or more after the last sample,
and once at the end.  Each op carries the speed interpolated at its
midpoint; ``run.py`` multiplies times by it, which gives times at the
reference speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy

import workloads

CAL_LOOPS = 20_000
CAL_REF_S = 0.0017  # the calibration loop's time at the reference host speed
CAL_EVERY_S = 0.25


def host_speed() -> float:
    """Host speed over the reference speed, from the best of three calibration loops."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_LOOPS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return CAL_REF_S / best


def environment() -> dict:
    import lrpictures

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": bool(lrpictures.USING_NUMBA),
        "cpu_count": os.cpu_count(),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run_pass(name: str, seed: int, pass_index: int, size: str, spans_path: str | None) -> dict:
    work = workloads.WORKLOADS[name]
    golden = workloads.load_corpus()["golden"].get(name, {})
    inputs = work.inputs(seed, pass_index, size)
    tracer = None
    if spans_path is not None:
        if work.in_children:
            inputs = [dataclasses.replace(op, spans_path=spans_path) for op in inputs]
        else:
            import spans

            tracer = spans.Tracer()
            tracer.install()
    outputs, times = [], []
    ready = time.monotonic()
    samples = [(time.monotonic(), host_speed())]
    for k, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = k
        t0 = time.monotonic()
        out, t_first = work.run(inp, outputs)
        t1 = time.monotonic()
        outputs.append(out)
        times.append((t0, t1, t_first or t1))
        if t1 - samples[-1][0] >= CAL_EVERY_S:
            samples.append((time.monotonic(), host_speed()))
    samples.append((time.monotonic(), host_speed()))
    at, speed = zip(*samples)
    speeds = numpy.interp([(t0 + t1) / 2 for t0, t1, _ in times], at, speed)
    verdicts = workloads.check(work, inputs, outputs, golden)
    if tracer is not None:
        tracer.write(spans_path)
    who = resource.RUSAGE_CHILDREN if work.in_children else resource.RUSAGE_SELF
    ops = [
        {"s": t1 - t0, "first_s": t_first - t0, "speed": float(s), "ok": ok, "digest": work.digest(inp, out)}
        for (t0, t1, t_first), ok, inp, out, s in zip(times, verdicts, inputs, outputs, speeds)
    ]
    return {
        "ready": ready,
        "setup_speed": samples[0][1],
        "ops": ops,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "stdout_bytes": sum(len(out[1]) for out in outputs) if work.in_children else 0,
        "environment": environment(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import lrpictures

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(lrpictures.__file__).resolve().parents:
        print(f"error: lrpictures imported from {lrpictures.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run_pass(args.workload, args.seed, args.pass_index, args.size, args.spans)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
