"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["coeff_large", "pictures_large", "cli_mix"])
def test_a_corrupted_recorded_value_fails_its_op(name, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    clean = workloads.load_corpus()
    assert run._tally([worker.run_pass(name, 0, 0, "tiny", None)])[1] == 0

    work = workloads.WORKLOADS[name]
    key = work.key(work.inputs(0, 0, "tiny")[0])
    corrupt = json.loads(json.dumps(clean))
    value = corrupt["golden"][name][key]
    corrupt["golden"][name][key] = value + 1 if isinstance(value, int) else "0" * 64
    monkeypatch.setattr(workloads, "load_corpus", lambda: corrupt)
    attempted, failed = run._tally([worker.run_pass(name, 0, 0, "tiny", None)])
    assert failed / attempted > 0


def _emitted_from_outputs(name, digests):
    """The items each enumerating layer must have returned, from the outputs alone."""
    if name == "sweep_roundtrip":
        k = len(workloads.ROUNDTRIP_ORDERS)
        return {
            "lr.glr": k * sum(d[0] for d in digests),
            "lr.glmn": k * sum(d[1] for d in digests),
            "picture.enumerate": sum(d[2] for d in digests),
        }
    if name == "coeff_large":
        return {"lr.glr": sum(digests), "lr.glmn": sum(digests)}
    if name == "pictures_large":
        return {"picture.enumerate": sum(digests)}
    return {}


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_passes_agree(name, tmp_path):
    plain = run.run_pass(name, 7, 0, "tiny")
    path = tmp_path / "spans.jsonl"
    traced = run.run_pass(name, 7, 0, "tiny", path)
    def verdicts(result):
        return [(op["ok"], op["digest"]) for op in result["ops"]]

    assert verdicts(plain) == verdicts(traced)
    totals = spans.layer_totals(str(path))
    for layer, count in _emitted_from_outputs(name, [op["digest"] for op in plain["ops"]]).items():
        assert totals[layer]["emitted"] == count, layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
