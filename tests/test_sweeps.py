import pytest

from lrpictures import sweeps
from lrpictures.diagram import SkewShape
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


def test_straight_triples_small():
    triples = sweeps.straight_triples(2)
    assert ((), (), ()) in triples
    assert ((), (1,), (1,)) in triples
    assert ((1,), (), (1,)) in triples
    assert ((1,), (1,), (2,)) in triples
    assert ((1,), (1,), (1, 1)) in triples
    for y, w, z in triples:
        assert sum(y) + sum(w) == sum(z) <= 2


def test_skew_w_triples_small():
    triples = sweeps.skew_w_triples(2, 2, 2, 3)
    assert all(isinstance(w, SkewShape) for _, w, _ in triples)
    assert any(w.inner for _, w, _ in triples)
    for y, w, z in triples:
        assert sum(y) + w.size == sum(z) <= 3
        assert 0 < w.size <= 2


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
    w = SkewShape((2, 2), (1,))
    rec = sweeps.check_triple((1,), w, (2, 1, 1), specs=("ME",))
    assert rec["n_super"] is None
    assert rec["w"] == ((2, 2), (1,))
    assert rec["orders"][0]["pictures_swapped"] is None
    assert rec["orders"][0]["roundtrip_ok"] is True
    assert sweeps.record_ok(rec)


def test_check_triple_flags():
    rec = sweeps.check_triple((1,), (1,), (2,), specs=("ME",), roundtrips=False, pictures=False)
    assert rec["orders"][0]["pictures"] is None
    assert rec["orders"][0]["roundtrip_ok"] is None
    assert sweeps.record_ok(rec)


def test_record_ok_spots_bad_counts():
    rec = sweeps.check_triple((1,), (1,), (2,), specs=("ME",))
    assert sweeps.record_ok(rec)
    broken = dict(rec)
    broken["c"] = rec["c"] + 1
    assert not sweeps.record_ok(broken)
    broken = dict(rec)
    broken["order_independent"] = False
    assert not sweeps.record_ok(broken)


def test_run_sweep_deterministic_and_parallel():
    triples = sweeps.straight_triples(3)
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


def test_identity_check_fails_on_a_non_member(monkeypatch):
    # the two-family sets are checked member by member against the content
    # and lattice definition, so a set that holds a non-member fails
    y, w, z = (2, 1), (2, 1), (3, 2, 1)
    assert sweeps.check_triple(y, w, z, roundtrips=False, pictures=False)["identity_ok"]
    outsider = Tableau(SkewShape(z, y), ((2,), (1,), (1,)))  # reading 2, 1, 1
    real = sweeps.glmn_lr_tableaux
    monkeypatch.setattr(
        sweeps, "glmn_lr_tableaux", lambda *args, **kw: real(*args, **kw) + (outsider,)
    )
    rec = sweeps.check_triple(y, w, z, roundtrips=False, pictures=False)
    assert not rec["identity_ok"]
    assert not sweeps.record_ok(rec)
