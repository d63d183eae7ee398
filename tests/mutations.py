"""One-line mutations of the library's checks, and whether the tests catch each.

    python tests/mutations.py [NAME ...]

Run from the root of a checkout. For each mutation (all of them, or those
whose names contain one of the NAMEs), the script copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, changes one line there and
runs the tests listed for it with ``pytest -x``. It prints one line per
mutation: ``caught``, ``survives``, or ``equivalent`` for a mutation that no
input the library makes can tell apart from the original, with the reason.
It first runs every listed test on an unchanged copy, and stops if one
fails. It exits 1 when a mutation that is not marked equivalent survives.

pytest does not collect this file: its name does not start with ``test_``.
A new check lands with its mutation here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEPS, CLI, CRYSTAL = "src/lrpictures/sweeps.py", "src/lrpictures/cli.py", "src/lrpictures/crystal.py"
SWEEP_TESTS = ("tests/test_sweeps.py", "tests/test_cli.py")
SUBSET = (
    "the back-map test makes the images distinct and the size test makes them as many as"
    " the pictures, so images that lie in the pictures are all of them"
)

# (name, file, line as it is, line mutated, tests that should catch it, why equivalent or None);
# each line as it is occurs once in its file
MUTATIONS = (
    ("record_ok ignores a failed round trip", SWEEPS,
     'if entry["roundtrip_ok"] is False:', "if False:", SWEEP_TESTS, None),
    ("record_ok ignores counts that disagree", SWEEPS,
     'return len(counts) == 1 and rec["order_independent"] and rec["identity_ok"]',
     'return rec["order_independent"] and rec["identity_ok"]', SWEEP_TESTS, None),
    ("record_ok ignores order_independent", SWEEPS,
     'return len(counts) == 1 and rec["order_independent"] and rec["identity_ok"]',
     'return len(counts) == 1 and rec["identity_ok"]', SWEEP_TESTS, None),
    ("record_ok ignores identity_ok", SWEEPS,
     'return len(counts) == 1 and rec["order_independent"] and rec["identity_ok"]',
     'return len(counts) == 1 and rec["order_independent"]', SWEEP_TESTS, None),
    ("_same_sets allows two distinct families", SWEEPS,
     "return len({frozenset(s) for s in families}) <= 1",
     "return len({frozenset(s) for s in families}) <= 2", SWEEP_TESTS, None),
    ("_roundtrip_pair skips its size test", SWEEPS,
     "if len(members) != len(pictures):", "if False:", SWEEP_TESTS, None),
    ("_roundtrip_pair tests images <= pictures, not ==", SWEEPS,
     "return {images[t] for t in members} == set(pictures)",
     "return {images[t] for t in members} <= set(pictures)", SWEEP_TESTS, SUBSET),
    ("check_triple skips membership", SWEEPS,
     "identity_ok = not identity or all(", "identity_ok = True or all(", SWEEP_TESTS, None),
    ("_roundtrip_pair skips the back map", SWEEPS,
     "images[t] = p if picture_to_tableau(p) == t else None", "images[t] = p", SWEEP_TESTS, None),
    ("check_triple drops the swapped round trip", SWEEPS,
     'entry["roundtrip_ok"] = ok and _roundtrip_pair(lr_sets[j], swapped, w_shape.inner, lr_images)',
     'entry["roundtrip_ok"] = ok', SWEEP_TESTS, None),
    ("check_triple counts the classical family as the pictures", SWEEPS,
     'entry = {"pictures": len(pics), "pictures_swapped": len(pics), "roundtrip_ok": None}',
     'entry = {"pictures": len(b_sets[i]), "pictures_swapped": len(b_sets[i]), "roundtrip_ok": None}',
     SWEEP_TESTS, None),
    ("check_triple reads c from the two-family set", SWEEPS,
     '"c": len(b_sets[0]),', '"c": len(lr_sets[0]),', SWEEP_TESTS, None),
    ("check_triple reads n_super from the classical family", SWEEPS,
     '"n_super": len(lr_sets[0]),', '"n_super": len(b_sets[0]),', SWEEP_TESTS, None),
    ("verify exits 0 on failures", CLI,
     "return 1 if failures else 0", "return 0", ("tests/test_cli.py",), None),
    ("verify passes a sweep of zero triples", CLI,
     "if total == 0:", "if False:", ("tests/test_cli.py",), None),
    ("verify_decomposition_glr drops the FE route", CRYSTAL,
     "passed = grown_me == grown_fe == from_highest and lhs_card == rhs_card",
     "passed = grown_me == from_highest and lhs_card == rhs_card", ("tests/test_crystal.py",), None),
    ("verify_decomposition_glr drops lhs_card == rhs_card", CRYSTAL,
     "passed = grown_me == grown_fe == from_highest and lhs_card == rhs_card",
     "passed = grown_me == grown_fe == from_highest", ("tests/test_crystal.py",), None),
    ("verify_decomposition_glmn compares sizes, not weight multisets", CRYSTAL,
     "passed = lhs == rhs", "passed = lhs_card == rhs_card", ("tests/test_crystal.py",), None),
    ("seeded draws always take the top minimal cell", "src/lrpictures/reading.py",
     "i = minimal[r]", "i = minimal[0]", ("tests/test_reading.py",), None),
    ("the picture search's forced last cell skips its window test", "src/lrpictures/picture.py",
     "if lo <= r < hi:", "if True:", ("tests/test_picture.py",), None),
    ("the forced last cell skips its upper bound", "src/lrpictures/picture.py",
     "if lo <= r < hi:", "if r < hi:", ("tests/test_picture.py",), None),
    ("the forced last cell skips its right bound", "src/lrpictures/picture.py",
     "if lo <= r < hi:", "if lo <= r:", ("tests/test_picture.py",), None),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into)


def _passes(tree: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main(names) -> int:
    chosen = [m for m in MUTATIONS if not names or any(n in m[0] for n in names)]
    with tempfile.TemporaryDirectory(prefix="mutations-") as tmp:
        base = Path(tmp) / "unchanged"
        _copy(base)
        tests = sorted({t for m in chosen for t in m[4]})
        if not _passes(base, tests):
            print(f"the unchanged tree fails {' '.join(tests)}: no mutation run")
            return 2
        survivors = 0
        for k, (name, path, old, new, tests, equivalent) in enumerate(chosen):
            tree = Path(tmp) / f"m{k}"
            _copy(tree)
            text = (tree / path).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
            (tree / path).write_text(text.replace(old, new))
            survives = _passes(tree, tests)
            shutil.rmtree(tree)
            if not survives:
                print(f"caught      {name} ({path})", flush=True)
            elif equivalent:
                print(f"equivalent  {name} ({path}): {equivalent}", flush=True)
            else:
                print(f"survives    {name} ({path}); ran {' '.join(tests)}", flush=True)
                survivors += 1
        print(f"{survivors} of {len(chosen)} survive, not counting equivalent ones")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
