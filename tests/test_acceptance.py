"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package, records a pass/fail
line for the run summary, and enforces the runtime targets where one is
stated. The heavy sweeps are shared across tests through session fixtures.
"""

import random
import time
from collections import defaultdict

import pytest

from oracles import aitken_oracle, hook_content_oracle, jacobi_trudi_oracle, syt_count_oracle
from lrpictures import sweeps
from lrpictures.crystal import (
    is_highest_weight,
    verify_decomposition_glmn,
    verify_decomposition_glr,
)
from lrpictures.diagram import (
    SkewShape,
    add_boxes,
    hook_partitions_up_to,
    is_hook,
    partition_contains,
    partitions_up_to,
)
from lrpictures.lr import companion_tableau, glmn_lr_tableaux, lr_coefficient
from lrpictures.reading import is_lattice_permutation
from lrpictures.tableau import Tableau, from_rows

ROUNDTRIP_ORDERS = ("ME", "FE", "seed:0", "seed:1", "seed:2")
INDEPENDENCE_ORDERS = ("ME", "FE", "seed:0", "seed:1", "seed:2", "seed:3", "seed:4")


@pytest.fixture(scope="session")
def hook_sweep():
    """Every triple with y inside z, |z| <= 8, under the round-trip orders."""
    t0 = time.perf_counter()
    records = sweeps.run_sweep(
        sweeps.straight_triples(8),
        specs=ROUNDTRIP_ORDERS,
        roundtrips=True,
        identity=False,
    )
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def independence_sweep():
    """|z| <= 7 under seven orders, sets only (no picture enumeration)."""
    t0 = time.perf_counter()
    records = sweeps.run_sweep(
        sweeps.straight_triples(7),
        specs=INDEPENDENCE_ORDERS,
        roundtrips=False,
        identity=True,
        pictures=False,
    )
    return records, time.perf_counter() - t0


def test_worked_example_reproduction(criterion_log):
    y, w, z = (5, 2, 1), (3, 2, 2, 1), (6, 4, 2, 2, 2)
    zy = SkewShape(z, y)
    displayed = {
        Tableau(zy, ((1,), (1, 1), (2,), (2, 3), (3, 4))): from_rows(
            [[1, 2, 2], [3, 4], [4, 5], [5]]
        ),
        Tableau(zy, ((1,), (1, 2), (1,), (2, 3), (3, 4))): from_rows(
            [[1, 2, 3], [2, 4], [4, 5], [5]]
        ),
        Tableau(zy, ((1,), (1, 2), (2,), (1, 3), (3, 4))): from_rows(
            [[1, 2, 4], [2, 3], [4, 5], [5]]
        ),
    }
    t0 = time.perf_counter()
    members = glmn_lr_tableaux(y, w, z)
    companions = {q: companion_tableau(q, verify=True) for q in members}
    coeff = lr_coefficient(y, w, z, 3, 3, verify=True)
    elapsed = time.perf_counter() - t0
    ok = (
        set(members) == set(displayed)
        and all(companions[q] == t for q, t in displayed.items())
        and coeff.c == coeff.n_super == 3
        and elapsed < 10.0
    )
    criterion_log.record(
        "worked example: family of 3 and its companion tableaux",
        ok,
        f"{elapsed:.2f}s",
    )
    assert set(members) == set(displayed)
    for q, t in displayed.items():
        assert companions[q] == t
    assert coeff.c == coeff.n_super == 3
    assert elapsed < 10.0


def test_coefficient_identity_small_hooks(criterion_log, hook_sweep):
    records, elapsed = hook_sweep
    # every shape of size <= 8 fits the (2,2) hook, so the sweep covers every
    # hook triple with y inside z; the remaining hook triples have y not
    # inside z and both counts must vanish
    assert all(is_hook(p, 2, 2) for p in partitions_up_to(8))
    counts_ok = True
    for rec in records:
        want = {rec["c"], rec["n_super"]}
        for entry in rec["orders"]:
            want.add(entry["pictures"])
            want.add(entry["pictures_swapped"])
        if len(want) != 1:
            counts_ok = False
            break
    outside = 0
    for z in partitions_up_to(8):
        for y in partitions_up_to(sum(z)):
            if partition_contains(z, y):
                continue
            for w in partitions_up_to(sum(z) - sum(y)):
                if sum(y) + sum(w) != sum(z):
                    continue
                got = lr_coefficient(y, w, z, 2, 2)
                if (got.c, got.n_super) != (0, 0):
                    counts_ok = False
                outside += 1
    ok = counts_ok and elapsed < 300.0
    criterion_log.record(
        "coefficient identity: tableau counts equal picture counts, both "
        "directions, all triples to size 8",
        ok,
        f"{len(records)} triples + {outside} disjoint, {elapsed:.1f}s",
    )
    assert counts_ok
    assert elapsed < 300.0


def test_counts_satisfy_the_determinant_identities(criterion_log, hook_sweep):
    # tableau-free: for each (z, y), every count summed over w, weighted by
    # f^w and by s_w(1^r), gives Aitken's f^{z/y} and Jacobi-Trudi's s_{z/y}(1^r)
    records, _ = hook_sweep
    sums = defaultdict(list)  # (z, y) -> per record, (w, its counts)
    for rec in records:
        counts = [rec["c"], rec["n_super"]]
        for entry in rec["orders"]:
            counts += [entry["pictures"], entry["pictures_swapped"]]
        sums[rec["z"], rec["y"]].append((rec["w"][0], counts))
    bad = []
    for (z, y), rows in sums.items():
        checks = [(syt_count_oracle, aitken_oracle(z, y))]
        checks += [
            (lambda w, r=r: hook_content_oracle(w, r), jacobi_trudi_oracle(z, y, r))
            for r in (len(z) + 1, len(z) + 2)
        ]
        for weight, target in checks:
            weighted = [(weight(w), counts) for w, counts in rows]
            # one column per count: c, n_super, then both picture counts per order
            if any(sum(x * counts[i] for x, counts in weighted) != target for i in range(len(rows[0][1]))):
                bad.append((z, y))
    ok = not bad and len(sums) == 862
    criterion_log.record(
        "determinant identities: Aitken and Jacobi-Trudi at 1^r hold for every count, to size 8",
        ok,
        f"{len(sums)} (z, y) pairs",
    )
    assert not bad
    assert len(sums) == 862  # every y inside every z with |z| <= 8


def test_roundtrips_on_the_hook_sweep(criterion_log, hook_sweep):
    records, elapsed = hook_sweep
    ok = True
    checked = 0
    for rec in records:
        if len(rec["orders"]) != len(ROUNDTRIP_ORDERS):
            ok = False
        for entry in rec["orders"]:
            if entry["roundtrip_ok"] is not True:
                ok = False
            checked += 1
    criterion_log.record(
        "round-trips: both map pairs invert elementwise under five orders",
        ok,
        f"{checked} (triple, order) pairs",
    )
    assert ok


def test_order_independence(criterion_log, independence_sweep):
    records, _ = independence_sweep
    ok = all(rec["order_independent"] for rec in records)
    criterion_log.record(
        "order independence: both families stable across seven orders to size 7",
        ok,
        f"{len(records)} triples x {len(INDEPENDENCE_ORDERS)} orders",
    )
    assert ok


def test_family_identity_over_the_skew_shape(criterion_log, independence_sweep):
    records, _ = independence_sweep
    ok = all(rec["identity_ok"] for rec in records)
    criterion_log.record(
        "two-family LR sets: every member has content w and a lattice reading",
        ok,
        f"{len(records)} triples",
    )
    assert ok


def test_product_decompositions(criterion_log):
    t0 = time.perf_counter()
    shapes = partitions_up_to(4, max_rows=3)
    glr_ok = all(
        verify_decomposition_glr(y, w, 3).passed for y in shapes for w in shapes
    )
    glr_pairs = len(shapes) ** 2
    glmn_ok = True
    glmn_pairs = 0
    for m, n in ((1, 1), (2, 2)):
        hooks = hook_partitions_up_to(4, m, n)
        glmn_pairs += len(hooks) ** 2
        if not all(
            verify_decomposition_glmn(y, w, m, n).passed for y in hooks for w in hooks
        ):
            glmn_ok = False
    elapsed = time.perf_counter() - t0
    ok = glr_ok and glmn_ok and elapsed < 600.0
    criterion_log.record(
        "product decompositions: reading replay, highest words, and characters agree",
        ok,
        f"{glr_pairs} classical + {glmn_pairs} two-family pairs, {elapsed:.1f}s",
    )
    assert glr_ok
    assert glmn_ok
    assert elapsed < 600.0


def test_lattice_word_characterization(criterion_log):
    rng = random.Random(20260815)
    agree = True
    lattice_count = 0
    for _ in range(10_000):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 10)))
        a = is_lattice_permutation(word)
        b = add_boxes((), word) is not None
        c = is_highest_weight(word)
        if not (a == b == c):
            agree = False
            break
        lattice_count += a
    criterion_log.record(
        "lattice words: ballot test, box replay, and raising operators agree",
        agree,
        f"10000 random words, {lattice_count} lattice",
    )
    assert agree
    assert lattice_count > 0


def test_roundtrips_with_skew_reading_shapes(criterion_log):
    t0 = time.perf_counter()
    records = sweeps.run_sweep(
        sweeps.skew_w_triples(3, 3, 5, 8),
        specs=ROUNDTRIP_ORDERS,
        roundtrips=True,
        identity=True,
    )
    elapsed = time.perf_counter() - t0
    ok = all(sweeps.record_ok(rec) for rec in records)
    criterion_log.record(
        "skew reading shapes: counts, membership and round-trips in both directions under five orders",
        ok,
        f"{len(records)} triples, {elapsed:.1f}s",
    )
    assert ok
