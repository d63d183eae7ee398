"""Exhaustive verification sweeps over triples of shapes.

These drivers back the ``verify`` subcommands and the acceptance tests. Each
record covers one triple (y, W, z), W straight or skew, in both directions:
both LR counts, both picture counts and both round-trips of the maps under
every requested order spec, order-independence of the enumerated sets, and a
membership check: every two-family LR tableau, in each order, has a reading
that grows W.inner into W.outer. A family is read once per distinct order
and the pictures W -> Z/Y are searched once per distinct order pair, however
many specs name them; the pictures Z/Y -> W are their inverses. The families
come from ``lr.lr_families`` with no ceiling: one search per (shape, start,
order), cached, grows the start into every partition it can reach, so it
serves every triple a sweep meets on it.
"""

from __future__ import annotations

import os

from .diagram import SkewShape, as_partition, partitions_of, partitions_up_to, subdiagrams
from .lr import is_glmn_lr_tableau, lr_families, picture_to_tableau, tableau_to_picture
from .picture import enumerate_pictures, omega
from .reading import AdmissibleOrder, far_eastern, middle_eastern, random_admissible_order

DEFAULT_ORDERS = ("ME", "FE")


def parse_order_spec(spec: str) -> tuple:
    """The order a textual spec (ME | FE | seed:<n>) names, as ("ME",), ("FE",)
    or ("seed", n). Equal keys name the same order on every shape, so
    ``seed:0`` and ``seed:00`` are one spec."""
    if spec in ("ME", "FE"):
        return (spec,)
    if spec.startswith("seed:"):
        try:
            return ("seed", int(spec[5:]))
        except ValueError:
            pass
    raise ValueError(f"unknown order spec {spec!r}")


def resolve_order(spec: str, shape: SkewShape, seed_base: int = 0) -> AdmissibleOrder:
    """Turn a textual order spec (ME | FE | seed:<n>) into an order on ``shape``."""
    if spec == "ME":
        return middle_eastern(shape)
    if spec == "FE":
        return far_eastern(shape)
    return random_admissible_order(shape, seed_base + parse_order_spec(spec)[1])


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


def _roundtrip_pair(members, pictures, base, images: dict) -> bool:
    """Both composites are identities between a tableau family and a picture set.

    Each member is mapped forward and must map back: with that left inverse,
    equal sizes and the images equal to the picture set, the forward map is a
    bijection onto the pictures and the back map is its inverse. ``images``
    keeps each member's image once mapped, or None when it did not map back.
    Neither map reads an order, so one dict serves all the orders of a triple:
    each member is mapped once per triple, every order still makes every
    check, and a member that failed fails each order that holds it."""
    if len(members) != len(pictures):
        return False
    for t in members:
        if t not in images:
            try:
                p = tableau_to_picture(t, base)
                images[t] = p if picture_to_tableau(p) == t else None
            except ValueError:  # a member that maps nowhere does not map back either
                images[t] = None
        if images[t] is None:
            return False
    return {images[t] for t in members} == set(pictures)


def _refuse_bad_request(specs, roundtrips: bool, pictures: bool) -> None:
    """The checks both drivers make before any work."""
    if not specs:
        raise ValueError("at least one order spec is required")
    if roundtrips and not pictures:
        raise ValueError("round-trips are checked against the pictures: pass roundtrips=False with pictures=False")


def _same_sets(families) -> bool:
    """Every family holds the same members."""
    return len({frozenset(s) for s in families}) <= 1


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
    """Run every per-triple verification; ``w`` may be a partition or a skew shape.

    Built for sweeps. Every W, straight or skew, is checked both ways: the
    classical family on W against the pictures W -> Z/Y over base y, and the
    two-family side on Z/Y against the pictures Z/Y -> W over base W.inner.
    Each family is read once per distinct order on its shape, as group z of
    ``lr_families(W, y, order)`` and group W.outer of ``lr_families(Z/Y,
    W.inner, order)``. Those searches are cached, so the other triples
    of a sweep on the same shape and order, zero ones included, only look up
    their group; one triple alone pays for every group. Once per distinct
    (order on W, order on Z/Y) pair, the pictures W -> Z/Y are searched, the
    pictures Z/Y -> W taken as their inverses (``omega``: the inverse of a
    picture is a picture for the swapped pair), and both round-trips checked.
    Specs that resolve to equal orders (ME and FE on one row, say) get that
    pair's entry under their own names: every search and check is a pure
    function of its shapes, orders and members, so it is the entry each would
    make alone. Each member is mapped once per triple: neither map reads an
    order, so every pair's round-trip check (``_roundtrip_pair``) reads the
    same images, which is the same check as mapping it again. The round-trips
    need the pictures, so ``roundtrips`` without ``pictures`` is refused, as
    are empty ``specs``."""
    _refuse_bad_request(specs, roundtrips, pictures)
    y, z = as_partition(y), as_partition(z)
    w_shape = w if isinstance(w, SkewShape) else SkewShape(w)
    zy = SkewShape(z, y)
    orders_w = [resolve_order(s, w_shape, seed) for s in specs]
    orders_zy = [resolve_order(s, zy, seed) for s in specs]

    # one family per distinct order on its shape, read from the search shared
    # by every triple on that (shape, start, order)
    b_sets = {o: lr_families(w_shape, y, o).get(z, ()) for o in dict.fromkeys(orders_w)}
    lr_sets = {o: lr_families(zy, w_shape.inner, o).get(w_shape.outer, ()) for o in dict.fromkeys(orders_zy)}

    order_independent = _same_sets(b_sets.values()) and _same_sets(lr_sets.values())

    identity_ok = not identity or all(
        is_glmn_lr_tableau(q, y, w_shape, z, o) for o, lr_set in lr_sets.items() for q in lr_set
    )

    pairs = list(zip(orders_w, orders_zy))
    per_pair = {}
    b_images, lr_images = {}, {}
    for o_w, o_zy in dict.fromkeys(pairs):
        entry = {"pictures": None, "pictures_swapped": None, "roundtrip_ok": None}
        if pictures:
            pics = enumerate_pictures(w_shape, zy, o_zy, o_w)
            entry["pictures"] = entry["pictures_swapped"] = len(pics)  # the inverses are as many
            if roundtrips:
                swapped = [omega(p) for p in pics]
                ok = _roundtrip_pair(b_sets[o_w], pics, y, b_images)
                entry["roundtrip_ok"] = ok and _roundtrip_pair(lr_sets[o_zy], swapped, w_shape.inner, lr_images)
        per_pair[o_w, o_zy] = entry
    per_order = [{"order": s, **per_pair[pair]} for s, pair in zip(specs, pairs)]

    return {
        "y": y,
        "w": (w_shape.outer, w_shape.inner),
        "z": z,
        "c": len(b_sets[orders_w[0]]),
        "n_super": len(lr_sets[orders_zy[0]]),
        "order_independent": order_independent,
        "identity_ok": identity_ok,
        "orders": per_order,
    }


_CHUNK = 64  # tasks per message to a worker


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
    """check_triple over every triple, in a canonical deterministic order.

    ``jobs`` caps the worker processes; no more start than there are CPUs or
    chunks of work, and with one the sweep runs in this process."""
    _refuse_bad_request(specs, roundtrips, pictures)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    rest = (tuple(specs), seed, roundtrips, identity, pictures)
    tasks = [(y, w if isinstance(w, SkewShape) else SkewShape(w), z, *rest) for y, w, z in triples]
    tasks.sort(key=lambda t: (sum(t[2]), t[2], t[0], t[1].outer, t[1].inner))
    workers = min(jobs, os.cpu_count() or 1, -(-len(tasks) // _CHUNK))
    if workers <= 1:
        return [_worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing, slow to start

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, tasks, chunksize=_CHUNK))


def record_ok(rec: dict) -> bool:
    """Every count in the record agrees and every per-order check passed."""
    counts = {rec["c"], rec["n_super"]}
    for entry in rec["orders"]:
        if entry["pictures"] is not None:
            counts.update((entry["pictures"], entry["pictures_swapped"]))
        if entry["roundtrip_ok"] is False:
            return False
    return len(counts) == 1 and rec["order_independent"] and rec["identity_ok"]
