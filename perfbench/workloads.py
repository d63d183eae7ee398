"""The four workloads: their inputs, one op each, and the checks on the outputs.

Every workload has the same four parts:

* ``inputs(seed, pass_index, size)`` builds the inputs of one pass.  It runs in
  the worker before the first timed op, so its cost is part of ``setup_s``.
* ``run(inp, done)`` is one op, the unit of user-visible work.  It returns the
  output and the monotonic time at which the op's first result was in hand,
  or None when the op returns its whole result at once, as every library
  call here does.
  ``done`` holds the outputs of the earlier ops of the pass.
* ``key(inp)`` names the input in the corpus, and ``digest(inp, out)``
  reduces an output to what the corpus records for it.
* ``identity(inputs, outputs)`` gives one verdict per op from the
  seed-independent identity of the workload.

``check`` runs after the pass, outside the timed region: an op passes when
its identity holds and its digest equals the recorded value, wherever the
corpus has one.

``size`` is ``"full"`` for measured runs and ``"tiny"`` for the benchmark's own
tests.  Only worker processes import ``lrpictures``, so every use of it here
is a local import.  The corpus (``corpus.json``) holds the coefficient pools and every
recorded value; ``record_corpus.py`` rebuilds it.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
CORPUS_PATH = BENCH_DIR / "corpus.json"


def load_corpus() -> dict:
    with open(CORPUS_PATH) as fh:
        return json.load(fh)


def _rng(name: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{pass_index}")


def _parts(p) -> str:
    return ",".join(map(str, p))


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float  # the percentile reported as op_tail_ms
    min_ops: int  # a run never stops before this many ops, so the tail has >= 10 beyond it
    inputs: Callable
    run: Callable
    key: Callable
    digest: Callable
    identity: Callable
    in_children: bool = False  # each op is a child process that prints to stdout


def check(work: Workload, inputs, outputs, golden: dict) -> list[bool]:
    verdicts = []
    for ok, inp, out in zip(work.identity(inputs, outputs), inputs, outputs):
        key = work.key(inp)
        verdicts.append(ok and (key not in golden or work.digest(inp, out) == golden[key]))
    return verdicts


# --- sweep_roundtrip ---------------------------------------------------------

ROUNDTRIP_ORDERS = ("ME", "FE", "seed:0", "seed:1", "seed:2")
SWEEP_SIZE = {"full": 7, "tiny": 3}


def _sweep_inputs(seed, pass_index, size):
    from lrpictures import sweeps

    base = _rng("sweep_roundtrip", seed, pass_index).randrange(1 << 30)
    # run_sweep's canonical order for straight triples
    triples = sweeps.straight_triples(SWEEP_SIZE[size])
    return [(y, w, z, base) for y, w, z in sorted(triples, key=lambda t: (sum(t[2]), t[2], t[0], t[1]))]


def _sweep_run(inp, done):
    from lrpictures import sweeps

    y, w, z, base = inp
    rec = sweeps.check_triple(y, w, z, ROUNDTRIP_ORDERS, seed=base, roundtrips=True, identity=False)
    return rec, None


def _sweep_digest(inp, rec):
    pictures = sum((e["pictures"] or 0) + (e["pictures_swapped"] or 0) for e in rec["orders"])
    return [rec["c"], rec["n_super"], pictures]


def _sweep_identity(inputs, outputs):
    from lrpictures import sweeps

    return [sweeps.record_ok(rec) for rec in outputs]


# --- coeff_large -------------------------------------------------------------

HOOK = (3, 3)


def _coeff_key(inp) -> str:
    return "|".join(map(_parts, inp))


def _coeff_inputs(seed, pass_index, size):
    # every pool triple once per pass, in an order drawn from the seed
    keys = load_corpus()["coeff_large"][size]
    pool = [tuple(tuple(map(int, p.split(","))) for p in key.split("|")) for key in keys]
    _rng("coeff_large", seed, pass_index).shuffle(pool)
    return pool


def _coeff_run(inp, done):
    from lrpictures import lr_coefficient

    y, w, z = inp
    try:
        return lr_coefficient(y, w, z, *HOOK, verify=True), None
    except ValueError as e:  # verify=True raises on a count mismatch
        return str(e), None


def _coeff_digest(inp, res):
    return res.c if hasattr(res, "c") else None


def _coeff_identity(inputs, outputs):
    return [hasattr(res, "c") and res.c == res.n_super for res in outputs]


# --- pictures_large ----------------------------------------------------------

# (domain, codomain) as (outer, inner) pairs.  The first two are the shapes W
# and Z/Y of the triple Y=(2,1,1,1), W=(5,4,3,1), Z=(6,5,3,2,1,1) in both
# directions (13 cells, 3 pictures: search-bound); the last maps (4,3,2,1)
# onto the 10-cell antichain (768 pictures: construction and sorting).
_W, _ZY = ((5, 4, 3, 1), ()), ((6, 5, 3, 2, 1, 1), (2, 1, 1, 1))
_ANTICHAIN = (tuple(range(10, 0, -1)), tuple(range(9, 0, -1)))
PICTURE_CASES = {
    "full": ((_W, _ZY), (_ZY, _W), (((4, 3, 2, 1), ()), _ANTICHAIN)),
    "tiny": (
        (((2, 1), ()), ((3, 2), (1, 1))),
        (((3, 2), (1, 1)), ((2, 1), ())),
        (((2, 1), ()), ((3, 2, 1), (2, 1))),
    ),
}
PICTURE_ORDER_PAIRS = {"full": 16, "tiny": 2}


def _shape_key(s) -> str:
    outer, inner = s
    return _parts(outer) + ("/" + _parts(inner) if inner else "")


def _pair_key(domain, codomain) -> str:
    """Both directions of a shape pair share one key: their counts must agree."""
    return " <-> ".join(sorted((_shape_key(domain), _shape_key(codomain))))


def _pictures_inputs(seed, pass_index, size):
    from lrpictures import SkewShape, random_admissible_order

    rng = _rng("pictures_large", seed, pass_index)
    out = []
    for _ in range(PICTURE_ORDER_PAIRS[size]):
        for domain, codomain in PICTURE_CASES[size]:
            x, y = SkewShape(*domain), SkewShape(*codomain)
            a = random_admissible_order(y, rng.randrange(1 << 30))
            a_prime = random_admissible_order(x, rng.randrange(1 << 30))
            out.append((_pair_key(domain, codomain), x, y, a, a_prime))
    return out


def _pictures_run(inp, done):
    from lrpictures import enumerate_pictures

    _, x, y, a, a_prime = inp
    return enumerate_pictures(x, y, a, a_prime), None


def _pictures_digest(inp, pics):
    return len(pics)


def _pictures_identity(inputs, outputs):
    # the picture count of a shape pair is the same for every order pair and
    # in both directions
    first: dict[str, int] = {}
    return [len(pics) == first.setdefault(inp[0], len(pics)) for inp, pics in zip(inputs, outputs)]


# --- cli_mix -----------------------------------------------------------------

# (argv, expected exit code, index of the command whose first stdout line is
# fed to stdin, or None).  {seed} marks arguments drawn from the seed; each
# such argument leaves the output bytes unchanged when the library is
# correct, so the recorded hashes hold at every seed.
_ANTI = f"{_parts(range(12, 0, -1))}/{_parts(range(11, 0, -1))}"
CLI_COMMANDS = {
    "full": (
        ("coeff --y 2,1,1 --w 3,2,1 --z 4,3,2,1 --m 2 --n 2", 0, None),
        ("coeff --y 2,2 --w 1 --z 2,2,1 --m 1 --n 1", 2, None),
        ("enumerate ssyt --shape 4,3,2/1 --max-entry 6", 0, None),
        ("enumerate lr --y 3,2,1 --w 4,3,2,1 --z 6,5,3,2 --order seed:{seed}", 0, None),
        ("map phihat --input -", 0, 3),
        (f"enumerate pictures --domain 4,4,3,1 --codomain {_ANTI}", 0, None),
        ("verify roundtrip --max-size 4 --seed {seed}", 0, None),
        ("verify decomposition-glr --max-size 3 --r 3", 0, None),
        ("verify decomposition-glmn --max-size 4 --m 2 --n 1", 0, None),
    ),
    "tiny": (
        ("coeff --y 1 --w 1 --z 2 --m 1 --n 1", 0, None),
        ("coeff --y 2,2 --w 1 --z 2,2,1 --m 1 --n 1", 2, None),
        ("enumerate lr --y 2,1 --w 2,1 --z 3,2,1 --order seed:{seed}", 0, None),
        ("map phihat --input -", 0, 2),
        ("verify roundtrip --max-size 2 --seed {seed}", 0, None),
    ),
}
CLI_CODE = "from lrpictures.cli import main; main()"


@dataclass(frozen=True)
class CliOp:
    key: str  # the argv template (with its stdin's), which keys the corpus
    argv: tuple[str, ...]
    expect: int
    source: int | None
    index: int
    spans_path: str | None = None  # side file when the op is traced


def _cli_inputs(seed, pass_index, size):
    rng = _rng("cli_mix", seed, pass_index)
    commands = CLI_COMMANDS[size]
    out = []
    for k, (template, expect, source) in enumerate(commands):
        key = template if source is None else f"{commands[source][0]} | {template}"
        argv = tuple(template.format(seed=rng.randrange(1000)).split())
        out.append(CliOp(key, argv, expect, source, k))
    return out


def _cli_code(op: CliOp) -> str:
    if op.spans_path is None:
        return CLI_CODE
    return (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import spans; "
        f"spans.trace_cli({op.spans_path!r}, {op.index})"
    )


def _cli_run(op: CliOp, done):
    stdin = b""
    if op.source is not None:
        stdin = done[op.source][1].partition(b"\n")[0] + b"\n"
    proc = subprocess.Popen(
        [sys.executable, "-c", _cli_code(op), *op.argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        first = proc.stdout.readline()
        t_first = time.monotonic()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    return (code, first + rest), t_first


def _cli_digest(op, out):
    return hashlib.sha256(out[1]).hexdigest()


def _cli_identity(inputs, outputs):
    return [out[0] == op.expect for op, out in zip(inputs, outputs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_roundtrip", 99.0, 1000,
            _sweep_inputs, _sweep_run, lambda inp: None, _sweep_digest, _sweep_identity,
        ),
        Workload(
            "coeff_large", 90.0, 100,
            _coeff_inputs, _coeff_run, _coeff_key, _coeff_digest, _coeff_identity,
        ),
        Workload(
            "pictures_large", 95.0, 200,
            _pictures_inputs, _pictures_run, lambda inp: inp[0], _pictures_digest, _pictures_identity,
        ),
        Workload(
            "cli_mix", 75.0, 48,
            _cli_inputs, _cli_run, lambda op: op.key, _cli_digest, _cli_identity, in_children=True,
        ),
    )
}
