import re
from collections import Counter

import pytest

from lrpictures import sweeps
from lrpictures.diagram import SkewShape, subdiagrams
from lrpictures.lr import glmn_lr_tableaux, glr_lr_tableaux, is_glmn_lr_tableau
from lrpictures.reading import far_eastern, middle_eastern, random_admissible_order
from lrpictures.tableau import Tableau


def test_resolve_order():
    s = SkewShape((2, 1))
    assert sweeps.resolve_order("ME", s) == middle_eastern(s)
    assert sweeps.resolve_order("FE", s) == far_eastern(s)
    assert sweeps.resolve_order("seed:3", s) == random_admissible_order(s, 3)
    assert sweeps.resolve_order("seed:1", s, seed_base=2) == random_admissible_order(s, 3)
    with pytest.raises(ValueError):
        sweeps.resolve_order("rowmajor", s)
    for spec in ("seed:x", "seed:"):
        with pytest.raises(ValueError, match=f"unknown order spec {spec!r}"):
            sweeps.resolve_order(spec, s)


def test_parse_order_spec():
    assert sweeps.parse_order_spec("ME") == ("ME",)
    assert sweeps.parse_order_spec("FE") == ("FE",)
    assert sweeps.parse_order_spec("seed:0") == sweeps.parse_order_spec("seed:00") == ("seed", 0)
    assert sweeps.parse_order_spec("seed:+1") == ("seed", 1)
    for spec in ("bogus", "me", "", "seed:x", "seed:"):
        with pytest.raises(ValueError, match=f"unknown order spec {spec!r}"):
            sweeps.parse_order_spec(spec)
    # a key names the seed the draw reads, |base + n|: equal keys exactly when the draws agree
    assert sweeps.parse_order_spec("seed:3") == sweeps.parse_order_spec("seed:-3")
    assert sweeps.parse_order_spec("seed:1", 2) == sweeps.parse_order_spec("seed:-5", 2) == ("seed", 3)
    with pytest.raises(ValueError, match="expected integers"):
        sweeps.parse_order_spec("seed:1", 1.5)


def test_resolved_orders_are_the_distinct_resolutions_in_order_of_first_use():
    # the table check_triple reads: per (shape, specs, seed), dict.fromkeys
    # over resolve_order, and each spec's index into it. An entry keeps the
    # objects it resolved, so the test starts from an empty table
    sweeps._resolved.cache_clear()
    spec_lists = [
        ("ME",), ("FE", "ME"), ("ME", "FE", "ME"), ROUNDTRIP, ("seed:5", "seed:6", "seed:7"),
        ("seed:0", "seed:00", "FE", "seed:0"), ("seed:3", "ME", "seed:3", "FE", "seed:4", "ME"),
    ]
    box = subdiagrams((3, 3, 3))
    shapes = [SkewShape(outer, inner) for outer in box for inner in subdiagrams(outer)]
    shared = 0
    for shape in shapes + [SkewShape((4, 3, 2, 1), (2, 1))]:
        for specs in spec_lists:
            for seed in (0, 7):
                distinct, at = sweeps._resolved(shape, specs, seed)
                orders = [sweeps.resolve_order(s, shape, seed) for s in specs]
                assert distinct == tuple(dict.fromkeys(orders))
                assert list(at) == [distinct.index(o) for o in orders]
                assert all(distinct[k] is o for k, o in zip(at, orders))
                shared += len(distinct) < len(set(specs))
    assert shared  # some distinct specs named equal orders


def test_straight_triples_small():
    triples = sweeps.straight_triples(2)
    assert ((), (), ()) in triples
    assert ((), (1,), (1,)) in triples
    assert ((1,), (), (1,)) in triples
    assert ((1,), (1,), (2,)) in triples
    assert ((1,), (1,), (1, 1)) in triples
    for y, w, z in triples:
        assert sum(y) + sum(w) == sum(z) <= 2
    # a size is an integer; a negative one builds nothing (the CLI's "nothing to check")
    with pytest.raises(ValueError, match="expected integers"):
        sweeps.straight_triples(2.5)
    assert sweeps.straight_triples(-1) == []


def test_skew_w_triples_small():
    triples = sweeps.skew_w_triples(2, 2, 2, 3)
    assert all(isinstance(w, SkewShape) for _, w, _ in triples)
    assert any(w.inner for _, w, _ in triples)
    for y, w, z in triples:
        assert sum(y) + w.size == sum(z) <= 3
        assert 0 < w.size <= 2
    # every bound is an integer, and a box side is nonnegative rather than an empty sweep
    for args in ((2, 2, 2.5, 3), (2, 2, 2, 3.0)):
        with pytest.raises(ValueError, match="expected integers"):
            sweeps.skew_w_triples(*args)
    with pytest.raises(ValueError, match="box_rows must be nonnegative"):
        sweeps.skew_w_triples(-1, 2, 2, 3)
    with pytest.raises(ValueError, match="box_cols must be nonnegative"):
        sweeps.skew_w_triples(2, -1, 2, 3)


def test_check_triple_on_the_worked_example():
    rec = sweeps.check_triple((2, 1), (2, 1), (3, 2, 1), specs=("ME", "FE", "seed:0"))
    assert rec["c"] == rec["n_super"] == 2
    assert rec["order_independent"] and rec["identity_ok"]
    assert len(rec["orders"]) == 3
    for entry in rec["orders"]:
        assert entry["pictures"] == 2
        assert entry["pictures_swapped"] == 2
        assert entry["roundtrip_ok"] is True
    assert sweeps.record_ok(rec)


def test_check_triple_skew_w():
    # a skew W is checked in both directions, like a straight one: the dual
    # family on Z/Y = (2,1,1)/(1) grows W.inner = (1) into W.outer = (2,2)
    w = SkewShape((2, 2), (1,))
    rec = sweeps.check_triple((1,), w, (2, 1, 1), specs=("ME",))
    assert rec["w"] == ((2, 2), (1,))
    assert rec["c"] == rec["n_super"] == 1
    assert rec["orders"][0]["pictures"] == rec["orders"][0]["pictures_swapped"] == 1
    assert rec["orders"][0]["roundtrip_ok"] is True
    assert rec["identity_ok"]
    assert sweeps.record_ok(rec)
    q = Tableau(SkewShape((2, 1, 1), (1,)), ((2,), (1,), (2,)))  # reading 2, 1, 2
    assert glmn_lr_tableaux((1,), w, (2, 1, 1)) == (q,)
    assert is_glmn_lr_tableau(q, (1,), w, (2, 1, 1))
    assert not is_glmn_lr_tableau(q, (1,), (2, 1), (2, 1, 1))  # content (1, 2), not (2, 1)


def test_check_triple_flags():
    # every combination counts the pictures; without round trips roundtrip_ok
    # is None, and without the membership test identity_ok is True
    for roundtrips in (False, True):
        for identity in (False, True):
            rec = sweeps.check_triple(*WORKED, specs=("ME",), roundtrips=roundtrips, identity=identity)
            (entry,) = rec["orders"]
            assert rec["c"] == rec["n_super"] == entry["pictures"] == entry["pictures_swapped"] == 2
            assert entry["roundtrip_ok"] is (True if roundtrips else None)
            assert rec["identity_ok"] and sweeps.record_ok(rec)


def test_check_triple_canonicalizes_once_and_refuses_as_skew_shape_does():
    # y and z are canonicalized once and Z/Y built from them directly: the
    # same record for padded input from either driver, and SkewShape's own
    # message for a y outside z
    assert sweeps.check_triple([1, 0], [1, 0, 0], [2, 0]) == sweeps.check_triple((1,), (1,), (2,))
    assert sweeps.run_sweep([([1, 0], [1, 0, 0], [2, 0])]) == [sweeps.check_triple((1,), (1,), (2,))]
    for y, z in (((2,), (1,)), ((1, 1), (2, 0)), ((1,), ())):
        with pytest.raises(ValueError) as refused:
            SkewShape(z, y)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            sweeps.check_triple(y, (), z)


def test_run_sweep_sorts_triples_as_canonical_values():
    # the order of the records does not depend on how a partition is spelled,
    # and spellings of different types sort together
    padded = sweeps.run_sweep([((1, 0), (1, 1), (2, 1)), ((1,), (2,), (2, 1))], specs=("ME",))
    canonical = sweeps.run_sweep([((1,), (1, 1), (2, 1)), ((1,), (2,), (2, 1))], specs=("ME",))
    assert padded == canonical and [rec["w"] for rec in padded] == [((1, 1), ()), ((2,), ())]
    mixed = sweeps.run_sweep([((1,), (1,), (2,)), ([1], [1], [2, 0])], specs=("ME",))
    assert mixed == [sweeps.check_triple((1,), (1,), (2,), specs=("ME",))] * 2


def test_record_ok_spots_bad_counts():
    rec = sweeps.check_triple((1,), (1,), (2,), specs=("ME",))
    assert sweeps.record_ok(rec)
    broken = dict(rec)
    broken["c"] = rec["c"] + 1
    assert not sweeps.record_ok(broken)
    broken = dict(rec)
    broken["order_independent"] = False
    assert not sweeps.record_ok(broken)
    # a picture count one off fails the record by itself
    broken = dict(rec, orders=[dict(rec["orders"][0], pictures=rec["c"] + 1)])
    assert not sweeps.record_ok(broken)


def test_a_failed_identity_check_alone_fails_the_record(monkeypatch):
    # a membership test that refuses every member changes identity_ok and
    # nothing else: every count agrees and every round trip passes, so the
    # record fails on identity_ok alone
    rec = sweeps.check_triple(*WORKED, specs=("ME", "FE"))
    assert sweeps.record_ok(rec)
    monkeypatch.setattr(sweeps, "is_glmn_lr_tableau", lambda *args: False)
    refused = sweeps.check_triple(*WORKED, specs=("ME", "FE"))
    assert refused == dict(rec, identity_ok=False)
    assert not sweeps.record_ok(refused)


def test_order_independence_fails_when_one_order_reads_another_family(swap_one_member_under_fe):
    # W = (2,2) has FE != ME; its classical family over y = (1) into z = (3,2)
    # has one member, which FE swaps for an outsider: the counts still agree,
    # so order_independent alone fails the record, with two distinct families
    # among the two orders
    y, w, z = (1,), (2, 2), (3, 2)
    assert far_eastern(SkewShape(w)) is not middle_eastern(SkewShape(w))
    rec = sweeps.check_triple(y, w, z, specs=("ME", "FE"), roundtrips=False)
    assert rec["order_independent"] and sweeps.record_ok(rec)
    swap_one_member_under_fe()
    swapped = sweeps.check_triple(y, w, z, specs=("ME", "FE"), roundtrips=False)
    assert swapped == dict(rec, order_independent=False)
    assert not sweeps.record_ok(swapped)


def test_run_sweep_deterministic_and_parallel(monkeypatch):
    # 101 triples are two chunks, so two workers start on any host
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    triples = sweeps.straight_triples(4)
    serial = sweeps.run_sweep(triples, specs=("ME",))
    again = sweeps.run_sweep(list(reversed(triples)), specs=("ME",))
    assert serial == again
    parallel = sweeps.run_sweep(triples, specs=("ME",), jobs=2)
    assert serial == parallel
    assert all(sweeps.record_ok(r) for r in serial)


def test_run_sweep_skew_w_parallel_matches_serial():
    triples = sweeps.skew_w_triples(2, 2, 2, 3)
    serial = sweeps.run_sweep(triples, specs=("ME", "seed:1"))
    assert any(rec["w"][1] for rec in serial)
    assert serial == sweeps.run_sweep(list(reversed(triples)), specs=("ME", "seed:1"), jobs=2)
    assert all(sweeps.record_ok(r) for r in serial)


def test_run_sweep_rejects_empty_specs():
    with pytest.raises(ValueError):
        sweeps.run_sweep([((), (), ())], specs=())


def test_check_triple_rejects_empty_specs():
    # a record needs one order to report its counts under
    with pytest.raises(ValueError, match="at least one order spec is required"):
        sweeps.check_triple((1,), (1,), (2,), specs=())


def test_jobs_starts_no_more_workers_than_cpus_or_chunks(monkeypatch):
    started = []

    class Pool:  # records the worker count and runs nothing
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return []

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    one_chunk = sweeps.straight_triples(3)  # 33 triples
    assert sweeps.run_sweep(one_chunk, specs=("ME",), jobs=1000) == sweeps.run_sweep(
        one_chunk, specs=("ME",)
    )
    assert started == []  # one chunk runs in this process
    sweeps.run_sweep(sweeps.straight_triples(4), specs=("ME",), jobs=1000)  # 2 chunks
    sweeps.run_sweep(sweeps.straight_triples(5), specs=("ME",), jobs=1000)  # 5 chunks
    sweeps.run_sweep(sweeps.straight_triples(5), specs=("ME",), jobs=2)
    assert started == [2, 3, 2]
    # pinned to one of the host's CPUs: no pool, however many the host has
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0})
    sweeps.run_sweep(sweeps.straight_triples(4), specs=("ME",), jobs=1000)
    assert started == [2, 3, 2]
    # no affinity on this platform, and the CPU count unknown: one CPU
    monkeypatch.delattr(sweeps.os, "sched_getaffinity")
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: None)
    sweeps.run_sweep(sweeps.straight_triples(4), specs=("ME",), jobs=1000)
    assert started == [2, 3, 2]


@pytest.mark.parametrize("jobs", [0, -3, "2", 2.5])
def test_run_sweep_rejects_jobs_below_one(jobs):
    # a worker count is an integer, at least 1
    with pytest.raises(ValueError, match="jobs must be at least 1|expected integers"):
        sweeps.run_sweep([((), (), ())], jobs=jobs)


def test_identity_check_fails_on_a_non_member(monkeypatch):
    # the two-family sets are checked member by member against the content
    # and lattice definition, so a set that holds a non-member fails
    y, w, z = (2, 1), (2, 1), (3, 2, 1)
    assert sweeps.check_triple(y, w, z, roundtrips=False)["identity_ok"]
    outsider = Tableau(SkewShape(z, y), ((2,), (1,), (1,)))  # reading 2, 1, 1
    real = sweeps.lr_families

    def with_outsider(shape, start, order):
        families = real(shape, start, order)
        if shape != SkewShape(z, y):
            return families
        return {**families, w: families.get(w, ()) + (outsider,)}

    monkeypatch.setattr(sweeps, "lr_families", with_outsider)
    rec = sweeps.check_triple(y, w, z, roundtrips=False)
    assert not rec["identity_ok"]
    assert not sweeps.record_ok(rec)


WORKED = ((2, 1), (2, 1), (3, 2, 1))  # c = 2, so two pictures per order pair
ROUNDTRIP = ("ME", "FE", "seed:0", "seed:1", "seed:2")  # verify roundtrip's default


def _spy(monkeypatch):
    """Wrap both maps as ``sweeps`` holds them now; returns the lists that
    get each forward call's (member, base) and each back call's picture."""
    forward_calls, back_calls = [], []
    forward, back = sweeps.tableau_to_picture, sweeps.picture_to_tableau

    def spied_forward(t, base, *args, **kw):
        forward_calls.append((t, base))
        return forward(t, base, *args, **kw)

    def spied_back(p, *args, **kw):
        back_calls.append(p)
        return back(p, *args, **kw)

    monkeypatch.setattr(sweeps, "tableau_to_picture", spied_forward)
    monkeypatch.setattr(sweeps, "picture_to_tableau", spied_back)
    return forward_calls, back_calls


def test_each_member_is_mapped_once_per_triple(monkeypatch):
    # the maps read no order, so five orders map each member once, not five times
    forward, back = _spy(monkeypatch)
    mapped = 0
    for y, w, z in sweeps.straight_triples(5):
        forward.clear()
        back.clear()
        rec = sweeps.check_triple(y, w, z, specs=ROUNDTRIP)
        assert sweeps.record_ok(rec)
        members = [(t, y) for t in glr_lr_tableaux(w, y, z)]
        members += [(q, ()) for q in glmn_lr_tableaux(y, w, z)]
        assert Counter(forward) == Counter(members)
        assert len(back) == len(members)
        mapped += len(members)
    assert mapped == 2 * 131  # both families, over the 266 triples with |z| <= 5


def _fails_every_order(monkeypatch) -> bool:
    """Under all five orders, every order's round-trip fails, and no member
    went through the forward map twice: a failure is remembered, not redone."""
    forward, _ = _spy(monkeypatch)
    rec = sweeps.check_triple(*WORKED, specs=ROUNDTRIP)
    return (
        [e["roundtrip_ok"] for e in rec["orders"]] == [False] * len(ROUNDTRIP)
        and not sweeps.record_ok(rec)
        and set(Counter(forward).values()) == {1}
    )


def test_roundtrip_catches_a_wrong_back_map(monkeypatch):
    # one picture maps back to the other member; the forward images are
    # still exactly the pictures, so only the back-map check sees it
    assert sweeps.record_ok(sweeps.check_triple(*WORKED, specs=ROUNDTRIP))
    real = sweeps.picture_to_tableau
    first = {}

    def wrong(p, *args, **kw):
        t = real(p, *args, **kw)
        first.setdefault(p.domain, t)
        return first[p.domain]

    monkeypatch.setattr(sweeps, "picture_to_tableau", wrong)
    assert _fails_every_order(monkeypatch)


def test_roundtrip_catches_a_forward_map_that_merges_members(monkeypatch):
    real = sweeps.tableau_to_picture
    first = {}

    def merged(t, *args, **kw):
        p = real(t, *args, **kw)
        first.setdefault(t.shape, p)
        return first[t.shape]

    monkeypatch.setattr(sweeps, "tableau_to_picture", merged)
    assert _fails_every_order(monkeypatch)


def test_a_member_that_maps_nowhere_fails_its_record(monkeypatch, refuse_three_cell_members):
    # a member the forward map refuses does not map back: the record fails,
    # and no error escapes the sweep
    assert _fails_every_order(monkeypatch)


def test_roundtrip_catches_a_repeated_picture(monkeypatch):
    # the count stays right, but one picture stands in for another, so only
    # the comparison of the images with the picture set sees it
    real = sweeps.enumerate_pictures

    def repeated(*args):
        pics = real(*args)
        return pics[:-1] + pics[:1]

    monkeypatch.setattr(sweeps, "enumerate_pictures", repeated)
    assert _fails_every_order(monkeypatch)


def test_roundtrip_catches_a_missing_picture(monkeypatch):
    # one picture fewer than members: the sizes differ, so the check fails
    # before it maps any member
    real = sweeps.enumerate_pictures
    monkeypatch.setattr(sweeps, "enumerate_pictures", lambda *args: real(*args)[1:])
    forward, _ = _spy(monkeypatch)
    rec = sweeps.check_triple(*WORKED, specs=ROUNDTRIP)
    assert [e["roundtrip_ok"] for e in rec["orders"]] == [False] * len(ROUNDTRIP)
    assert not sweeps.record_ok(rec) and forward == []


@pytest.mark.parametrize(
    "short_side, counts", [("pictures", (2, 2, 1)), ("classical", (1, 2, 2)), ("two-family", (2, 1, 2))]
)
def test_one_count_short_fails_a_record_without_round_trips(monkeypatch, short_side, counts):
    # without round trips (verify coefficients and order-independence), the
    # record's counts (c, n_super, pictures) are its only comparison of the
    # pictures and the two families. The same picture or member goes missing
    # under every order, so the families stay order-independent and every
    # member still passes the membership test
    assert sweeps.record_ok(sweeps.check_triple(*WORKED, specs=ROUNDTRIP, roundtrips=False))
    y, w, z = WORKED
    if short_side == "pictures":
        real_pictures = sweeps.enumerate_pictures
        monkeypatch.setattr(sweeps, "enumerate_pictures", lambda *args: real_pictures(*args)[1:])
    else:  # group z of the search on (W, y), or group W.outer of the one on (Z/Y, W.inner)
        searched, group = ((SkewShape(w), y), z) if short_side == "classical" else ((SkewShape(z, y), ()), w)
        real = sweeps.lr_families

        def one_short(shape, start, order):
            families = real(shape, start, order)
            if (shape, start) != searched:
                return families
            members = families[group]
            dropped = min(members, key=lambda t: t.rows)
            return {**families, group: tuple(t for t in members if t != dropped)}

        monkeypatch.setattr(sweeps, "lr_families", one_short)
    short = sweeps.check_triple(*WORKED, specs=ROUNDTRIP, roundtrips=False)
    assert [(short["c"], short["n_super"], e["pictures"]) for e in short["orders"]] == [counts] * len(ROUNDTRIP)
    assert short["order_independent"] and short["identity_ok"]
    assert not sweeps.record_ok(short)


def _some_triples():
    """Every straight triple with |z| <= 5, and skew-W ones up to the same size."""
    return sweeps.straight_triples(5) + sweeps.skew_w_triples(2, 3, 4, 5)


def _distinct(y, w, z, specs, seed):
    """The distinct orders on W and on Z/Y that ``specs`` resolve to, and their pairs."""
    w_shape = w if isinstance(w, SkewShape) else SkewShape(w)
    zy = SkewShape(z, y)
    pairs = {(sweeps.resolve_order(s, w_shape, seed), sweeps.resolve_order(s, zy, seed)) for s in specs}
    return {o_w for o_w, _ in pairs}, {o_zy for _, o_zy in pairs}, pairs


@pytest.mark.parametrize("seed", [0, 7])
def test_each_spec_gets_the_entry_it_makes_alone(seed):
    # specs that resolve to equal orders share the work, never the result
    shared = 0
    for y, w, z in _some_triples():
        rec = sweeps.check_triple(y, w, z, specs=ROUNDTRIP, seed=seed)
        assert [e["order"] for e in rec["orders"]] == list(ROUNDTRIP)
        for spec, entry in zip(ROUNDTRIP, rec["orders"]):
            alone = sweeps.check_triple(y, w, z, specs=(spec,), seed=seed)
            assert entry == alone["orders"][0]
            assert {**rec, "orders": None} == {**alone, "orders": None}
        shared += len(_distinct(y, w, z, ROUNDTRIP, seed)[2]) < len(ROUNDTRIP)
    assert shared  # some specs really did name equal orders


def _spy_searches(monkeypatch):
    """Wrap the LR and picture searches as ``sweeps`` holds them now; returns
    the lists that get each call's positional and keyword arguments."""
    calls = {}
    for name in ("enumerate_pictures", "lr_families"):
        real, log = getattr(sweeps, name), calls.setdefault(name, [])

        def spied(*args, _real=real, _log=log, **kw):
            _log.append((args, kw))
            return _real(*args, **kw)

        monkeypatch.setattr(sweeps, name, spied)
    return calls


@pytest.mark.parametrize("seed", [0, 7])
def test_each_distinct_order_and_pair_is_searched_once(monkeypatch, seed):
    calls = _spy_searches(monkeypatch)
    for y, w, z in _some_triples():
        for log in calls.values():
            log.clear()
        rec = sweeps.check_triple(y, w, z, specs=ROUNDTRIP, seed=seed)
        assert sweeps.record_ok(rec)
        on_w, on_zy, pairs = _distinct(y, w, z, ROUNDTRIP, seed)
        w_shape = w if isinstance(w, SkewShape) else SkewShape(w)
        # the classical searches on (W, y) come first, then the two-family
        # ones on (Z/Y, W.inner): W and Z/Y may be one shape
        families = [args for args, _ in calls["lr_families"]]
        glr, glmn = families[: len(on_w)], families[len(on_w) :]
        assert [a[:2] for a in glr] == [(w_shape, y)] * len(on_w)
        assert [a[:2] for a in glmn] == [(SkewShape(z, y), w_shape.inner)] * len(on_zy)
        assert len(glr) == len(on_w) and {a[2] for a in glr} == on_w
        assert len(glmn) == len(on_zy) and {a[2] for a in glmn} == on_zy
        # each pair searched once, from W: the swapped pictures are their inverses
        pictures = [args for args, _ in calls["enumerate_pictures"]]
        assert [a[:2] for a in pictures] == [(w_shape, SkewShape(z, y))] * len(pairs)
        assert Counter((a[3], a[2]) for a in pictures) == {pair: 1 for pair in pairs}


def test_different_orders_are_never_merged(monkeypatch):
    # ME and FE differ on both W = (2,2) and Z/Y = (4,4)/(2,2), so both are searched
    y, w, z = (2, 2), (2, 2), (4, 4)
    w_shape, zy = SkewShape(w), SkewShape(z, y)
    assert middle_eastern(w_shape) != far_eastern(w_shape)
    assert middle_eastern(zy) != far_eastern(zy)
    calls = _spy_searches(monkeypatch)
    rec = sweeps.check_triple(y, w, z, specs=("ME", "FE", "ME"))
    assert sweeps.record_ok(rec) and rec["c"] == 1
    assert [a for a, _ in calls["lr_families"]] == [
        (w_shape, y, middle_eastern(w_shape)),
        (w_shape, y, far_eastern(w_shape)),
        (zy, (), middle_eastern(zy)),
        (zy, (), far_eastern(zy)),
    ]
    assert [a for a, _ in calls["enumerate_pictures"]] == [
        (w_shape, zy, middle_eastern(zy), middle_eastern(w_shape)),
        (w_shape, zy, far_eastern(zy), far_eastern(w_shape)),
    ]
    assert [e["order"] for e in rec["orders"]] == ["ME", "FE", "ME"]
