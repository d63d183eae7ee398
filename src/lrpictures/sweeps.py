"""Exhaustive verification sweeps over triples of shapes.

These drivers back the ``verify`` subcommands and the acceptance tests. Each
record covers one triple (y, w, z): both LR counts, picture counts for the
first order pair, round-trips of the maps under every requested order pair,
order-independence of the enumerated sets, and a membership check: every
two-family LR tableau, in each order, has content w and a lattice reading.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .diagram import SkewShape, as_partition, partitions_of, partitions_up_to, subdiagrams
from .lr import glmn_lr_tableaux, glr_lr_tableaux, is_glmn_lr_tableau, picture_to_tableau, tableau_to_picture
from .picture import enumerate_pictures
from .reading import AdmissibleOrder, far_eastern, middle_eastern, random_admissible_order

DEFAULT_ORDERS = ("ME", "FE")


def resolve_order(spec: str, shape: SkewShape, seed_base: int = 0) -> AdmissibleOrder:
    """Turn a textual order spec (ME | FE | seed:<n>) into an order on ``shape``."""
    if spec == "ME":
        return middle_eastern(shape)
    if spec == "FE":
        return far_eastern(shape)
    if spec.startswith("seed:"):
        return random_admissible_order(shape, seed_base + int(spec[5:]))
    raise ValueError(f"unknown order spec {spec!r}")


def straight_triples(max_z: int) -> list[tuple]:
    """All (y, w, z) with y inside z, w a partition of the leftover size, |z| <= max_z."""
    out = []
    for total in range(max_z + 1):
        for z in partitions_of(total):
            for y in subdiagrams(z):
                for w in partitions_of(total - sum(y)):
                    out.append((y, w, z))
    return out


def skew_w_triples(box_rows: int, box_cols: int, max_w: int, max_z: int) -> list[tuple]:
    """(y, w, z) with w a skew shape inside a box, w nonempty allowed either way."""
    shapes = []
    for outer in partitions_up_to(box_rows * box_cols, box_rows, box_cols):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            if 0 < s.size <= max_w:
                shapes.append(s)
    out = []
    for total in range(max_z + 1):
        for z in partitions_of(total):
            for y in subdiagrams(z):
                leftover = total - sum(y)
                for s in shapes:
                    if s.size == leftover:
                        out.append((y, s, z))
    return out


def _roundtrip_pair(members, pictures, base) -> bool:
    """Both composites are identities between a tableau family and a picture set.

    Each member is mapped forward once and must map back: with that left
    inverse, equal sizes and the images equal to the picture set, the forward
    map is a bijection onto the pictures and the back map is its inverse."""
    if len(members) != len(pictures):
        return False
    images = set()
    for t in members:
        p = tableau_to_picture(t, base)
        if picture_to_tableau(p) != t:
            return False
        images.add(p)
    return images == set(pictures)


def check_triple(
    y,
    w,
    z,
    specs=DEFAULT_ORDERS,
    seed: int = 0,
    roundtrips: bool = True,
    identity: bool = True,
    pictures: bool = True,
) -> dict:
    """Run every per-triple verification; ``w`` may be a partition or a skew shape."""
    y, z = as_partition(y), as_partition(z)
    w_shape = w if isinstance(w, SkewShape) else SkewShape(w)
    straight = not w_shape.inner
    zy = SkewShape(z, y)
    orders_w = [resolve_order(s, w_shape, seed) for s in specs]
    orders_zy = [resolve_order(s, zy, seed) for s in specs]

    b_sets = [glr_lr_tableaux(w_shape, y, z, order=o) for o in orders_w]
    lr_sets = (
        [glmn_lr_tableaux(y, w_shape.outer, z, order=o) for o in orders_zy] if straight else []
    )

    order_independent = all(set(s) == set(b_sets[0]) for s in b_sets[1:]) and all(
        set(s) == set(lr_sets[0]) for s in lr_sets[1:]
    )

    identity_ok = not (identity and straight) or all(
        is_glmn_lr_tableau(q, y, w_shape.outer, z, o)
        for o, lr_set in zip(orders_zy, lr_sets)
        for q in lr_set
    )

    per_order = []
    for k, spec in enumerate(specs):
        entry = {"order": spec, "pictures": None, "pictures_swapped": None, "roundtrip_ok": None}
        if pictures:
            pics = enumerate_pictures(w_shape, zy, orders_zy[k], orders_w[k])
            entry["pictures"] = len(pics)
            ok = _roundtrip_pair(b_sets[k], pics, y) if roundtrips else None
            if straight:
                swapped = enumerate_pictures(zy, w_shape, orders_w[k], orders_zy[k])
                entry["pictures_swapped"] = len(swapped)
                if roundtrips:
                    ok = ok and _roundtrip_pair(lr_sets[k], swapped, ())
            entry["roundtrip_ok"] = ok
        per_order.append(entry)

    return {
        "y": y,
        "w": (w_shape.outer, w_shape.inner),
        "z": z,
        "c": len(b_sets[0]),
        "n_super": len(lr_sets[0]) if straight else None,
        "order_independent": order_independent,
        "identity_ok": identity_ok,
        "orders": per_order,
    }


def _worker(task) -> dict:
    return check_triple(*task)


def run_sweep(
    triples,
    specs=DEFAULT_ORDERS,
    seed: int = 0,
    roundtrips: bool = True,
    identity: bool = True,
    pictures: bool = True,
    jobs: int = 1,
) -> list[dict]:
    """check_triple over every triple, in a canonical deterministic order."""
    if not specs:
        raise ValueError("at least one order spec is required")
    rest = (tuple(specs), seed, roundtrips, identity, pictures)
    tasks = [
        (y, w if isinstance(w, SkewShape) else as_partition(w), z, *rest) for y, w, z in triples
    ]

    def _key(t):
        y, w, z = t[:3]
        flat = (1,) + w.outer + (-1,) + w.inner if isinstance(w, SkewShape) else (0,) + w
        return (sum(z), z, y, flat)

    tasks.sort(key=_key)
    if jobs <= 1:
        return [_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_worker, tasks, chunksize=64))


def record_ok(rec: dict) -> bool:
    """Every count in the record agrees and every per-order check passed."""
    counts = {rec["c"]}
    if rec["n_super"] is not None:
        counts.add(rec["n_super"])
    for entry in rec["orders"]:
        if entry["pictures"] is not None:
            counts.add(entry["pictures"])
        if entry["pictures_swapped"] is not None:
            counts.add(entry["pictures_swapped"])
        if entry["roundtrip_ok"] is False:
            return False
    return len(counts) == 1 and rec["order_independent"] and rec["identity_ok"]
