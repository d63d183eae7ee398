import json
import pickle
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import pictures_oracle, standard_oracle, syt_count_oracle
from lrpictures import picture, serialize
from lrpictures.diagram import SkewShape, partitions_up_to, subdiagrams
from lrpictures.picture import (
    Picture,
    enumerate_pictures,
    is_admissible_picture,
    is_pa_standard,
    omega,
)
from lrpictures.reading import far_eastern, middle_eastern, random_admissible_order
from lrpictures.sweeps import resolve_order, skew_w_triples, straight_triples


DOM = SkewShape((2, 2))
COD = SkewShape((4, 3), (2, 1))
EXAMPLE = Picture(
    DOM, COD, {(1, 1): (1, 4), (1, 2): (1, 3), (2, 1): (2, 3), (2, 2): (2, 2)}
)


def test_picture_validation():
    with pytest.raises(ValueError):
        Picture(DOM, COD, {(1, 1): (1, 4)})
    with pytest.raises(ValueError):
        Picture(
            DOM, COD,
            {(1, 1): (1, 4), (1, 2): (1, 4), (2, 1): (2, 3), (2, 2): (2, 2)},
        )
    with pytest.raises(ValueError):
        Picture(
            DOM, COD,
            {(1, 1): (9, 9), (1, 2): (1, 3), (2, 1): (2, 3), (2, 2): (2, 2)},
        )


def test_picture_rejects_non_integral_cells():
    one = SkewShape((1,))
    for forward in ({(1, 1): (1.0, 1)}, {(1, 1.5): (1, 1)}):
        with pytest.raises(ValueError):
            Picture(one, one, forward)


def test_picture_call_and_equality():
    assert EXAMPLE.forward[(1, 1)] == (1, 4)
    # the hash is stored on first use; an equal picture built another way, or
    # one that crossed a process boundary, must compare and hash the same
    hash(EXAMPLE)
    for same in (
        Picture(DOM, COD, dict(EXAMPLE.forward)),
        omega(omega(EXAMPLE)),
        pickle.loads(pickle.dumps(EXAMPLE)),
    ):
        assert same is not EXAMPLE
        assert same == EXAMPLE and hash(same) == hash(EXAMPLE)
    swapped = dict(EXAMPLE.forward)
    swapped[(1, 1)], swapped[(1, 2)] = swapped[(1, 2)], swapped[(1, 1)]
    assert Picture(DOM, COD, swapped) != EXAMPLE


def test_picture_repr_lists_each_domain_cell_with_its_image():
    assert repr(EXAMPLE) == "Picture((1, 1)->(1, 4), (1, 2)->(1, 3), (2, 1)->(2, 3), (2, 2)->(2, 2))"


def test_example_picture_admissible_under_any_orders():
    # this map satisfies both conditions for every admissible order pair
    makes = [middle_eastern, far_eastern] + [
        lambda s, k=k: random_admissible_order(s, k) for k in range(4)
    ]
    for make_a in makes:
        for make_ap in makes:
            assert is_admissible_picture(EXAMPLE, make_a(COD), make_ap(DOM))


def test_identity_on_a_row_is_not_standard():
    row = SkewShape((2,))
    ident = Picture(row, row, {(1, 1): (1, 1), (1, 2): (1, 2)})
    assert not is_admissible_picture(ident, middle_eastern(row), middle_eastern(row))
    flip = Picture(row, row, {(1, 1): (1, 2), (1, 2): (1, 1)})
    assert is_admissible_picture(flip, middle_eastern(row), middle_eastern(row))


def test_is_pa_standard_direct():
    order = middle_eastern(SkewShape((2,)))
    assert not is_pa_standard({(1, 1): (1, 1), (1, 2): (1, 2)}, order)
    assert is_pa_standard({(1, 1): (1, 2), (1, 2): (1, 1)}, order)


def _rank_of(order):
    return {c: k for k, c in enumerate(order.cells)}


def test_is_pa_standard_matches_the_pairwise_oracle():
    # every bijection between equal-size skew shapes of up to five cells in a
    # 3x3 box, forward into the codomain order and backward into the domain
    # order, under ME, FE and one seed
    shapes = {}
    for outer in partitions_up_to(9, 3, 3):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            if 0 < s.size <= 5:
                shapes.setdefault(s.cells(), s)
    makes = (middle_eastern, far_eastern, lambda s: random_admissible_order(s, 5))
    for x in shapes.values():
        for y in shapes.values():
            if x.size != y.size:
                continue
            orders = [(make(y), make(x), _rank_of(make(y)), _rank_of(make(x))) for make in makes]
            for images in permutations(y.cells()):
                forward = dict(zip(x.cells(), images))
                backward = dict(zip(images, x.cells()))
                for a, a_prime, rank_a, rank_ap in orders:
                    assert is_pa_standard(forward, a) == standard_oracle(forward, rank_a)
                    assert is_pa_standard(backward, a_prime) == standard_oracle(backward, rank_ap)


def test_omega_swaps_and_involutes():
    q = omega(EXAMPLE)
    assert q.domain == COD and q.codomain == DOM
    assert q.forward[(1, 4)] == (1, 1)
    assert omega(q) == EXAMPLE


def test_order_shape_mismatch_raises():
    with pytest.raises(ValueError):
        is_admissible_picture(EXAMPLE, middle_eastern(DOM), middle_eastern(DOM))
    with pytest.raises(ValueError):
        enumerate_pictures(DOM, COD, middle_eastern(DOM), middle_eastern(DOM))
    # a value that is no order is refused as a mismatched one is
    with pytest.raises(ValueError, match="a is not an admissible order on the codomain"):
        enumerate_pictures(DOM, COD, None, None)
    with pytest.raises(ValueError, match="a_prime is not an admissible order on the domain"):
        enumerate_pictures(DOM, COD, middle_eastern(COD), None)
    with pytest.raises(ValueError, match="orders do not match"):
        is_admissible_picture(EXAMPLE, middle_eastern(COD), "ME")


def test_enumerate_pictures_counts():
    # counts from the permutation-filter search in oracles.py
    cases = [
        (SkewShape((2, 1)), SkewShape((3, 2, 1), (2, 1)), 2),
        (SkewShape((2, 2)), SkewShape((4, 3), (2, 1)), 1),
        (SkewShape((3, 1)), SkewShape((3, 2, 1), (1, 1)), 1),
        (SkewShape((2, 1)), SkewShape((2, 1)), 1),
    ]
    for x, y, count in cases:
        for make in (middle_eastern, far_eastern):
            assert len(enumerate_pictures(x, y, make(y), make(x))) == count


def test_enumerate_pictures_finds_the_example():
    pics = enumerate_pictures(DOM, COD, middle_eastern(COD), middle_eastern(DOM))
    assert pics == (EXAMPLE,)


def test_enumerate_pictures_degenerate():
    empty = SkewShape(())
    assert len(enumerate_pictures(empty, empty, middle_eastern(empty), middle_eastern(empty))) == 1
    assert (
        enumerate_pictures(
            SkewShape((1,)), SkewShape((2,)),
            middle_eastern(SkewShape((2,))), middle_eastern(SkewShape((1,))),
        )
        == ()
    )


def _order_for(spec, shape):
    if spec == "ME":
        return middle_eastern(shape)
    if spec == "FE":
        return far_eastern(shape)
    return random_admissible_order(shape, int(spec))


@settings(max_examples=25)
@given(
    sts.skew_shapes(max_size=4),
    sts.skew_shapes(max_size=4),
    st.sampled_from(["ME", "FE", "0", "1"]),
    st.sampled_from(["ME", "FE", "0", "1"]),
)
def test_enumerate_matches_oracle(x, y, spec_a, spec_ap):
    a = _order_for(spec_a, y)
    a_prime = _order_for(spec_ap, x)
    ours = {tuple(sorted(p.forward.items())) for p in enumerate_pictures(x, y, a, a_prime)}
    theirs = {tuple(sorted(f.items())) for f in pictures_oracle(x, y, a, a_prime)}
    assert ours == theirs


def _both_sides(a, a_prime):
    """The search's image tuples from the domain and, turned, from the codomain, each sorted."""
    return sorted(picture._bijections(a, a_prime, False)), sorted(picture._bijections(a, a_prime, True))


def test_enumerate_matches_oracle_on_every_small_pair():
    # every pair of equal-size skew shapes inside a 3x3 box with up to five
    # cells, under two mixed order pairs and, as a sweep does, under ME, FE and
    # two seeds with each order object serving first as the codomain order and
    # then as the domain order of the swapped search; orders recur from pair to
    # pair, so most searches read tables cached by an earlier one.  Both sides
    # list the maps in the order of their image sequences over the row-major
    # domain cells.  Under ME, FE and the seeds the search itself also runs
    # from both shapes, as enumerate_pictures picks only one, by its neighbour
    # pairs, and never the codomain for most of these pairs: sorted, both
    # sides' image tuples are the oracle's
    shapes = {}
    for outer in partitions_up_to(9, 3, 3):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            if 0 < s.size <= 5:
                shapes.setdefault(s.cells(), s)
    makes = (middle_eastern, far_eastern) + tuple(
        lambda s, k=k: random_admissible_order(s, k) for k in (3, 4)
    )
    for x in shapes.values():
        for y in shapes.values():
            if x.size != y.size:
                continue
            for a, a_prime in (
                (middle_eastern(y), far_eastern(x)),
                (random_admissible_order(y, 1), random_admissible_order(x, 2)),
            ):
                ours = [p.forward for p in enumerate_pictures(x, y, a, a_prime)]
                assert ours == pictures_oracle(x, y, a, a_prime), (x, y)
            for make in makes:
                a, a_prime = make(y), make(x)
                for dom, cod, order, order2 in ((x, y, a, a_prime), (y, x, a_prime, a)):
                    oracle = pictures_oracle(dom, cod, order, order2)
                    ours = [p.forward for p in enumerate_pictures(dom, cod, order, order2)]
                    assert ours == oracle, (dom, cod)
                    images = [tuple([f[u] for u in dom.cells()]) for f in oracle]
                    assert _both_sides(order, order2) == (images, images), (dom, cod)


def test_pictures_come_sorted_by_image_sequence():
    # every pair of 3-cell skew shapes inside size 5, under four order pairs
    shapes = [
        s for s in (SkewShape(o, i) for o in partitions_up_to(5) for i in subdiagrams(o))
        if s.size == 3
    ]
    for x in shapes:
        for y in shapes:
            for make_a in (middle_eastern, far_eastern):
                for make_ap in (middle_eastern, far_eastern):
                    pics = enumerate_pictures(x, y, make_a(y), make_ap(x))
                    keys = [tuple(p.forward[c] for c in x.cells()) for p in pics]
                    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=15)
@given(sts.skew_shapes(max_size=4), sts.skew_shapes(max_size=4))
def test_picture_sets_do_not_depend_on_the_orders(x, y):
    reference = None
    for make in (middle_eastern, far_eastern, lambda s: random_admissible_order(s, 7)):
        pics = set(enumerate_pictures(x, y, make(y), make(x)))
        if reference is None:
            reference = pics
        assert pics == reference


@settings(max_examples=15)
@given(sts.skew_shapes(max_size=4), sts.skew_shapes(max_size=4))
def test_omega_bijects_the_two_picture_sets(x, y):
    fwd = enumerate_pictures(x, y, middle_eastern(y), middle_eastern(x))
    back = enumerate_pictures(y, x, middle_eastern(x), middle_eastern(y))
    assert {omega(p) for p in fwd} == set(back)


def _strip(n):
    """The n-cell staircase strip (n, ..., 1)/(n - 1, ..., 1): an antichain."""
    return SkewShape(tuple(range(n, 0, -1)), tuple(range(n - 1, 0, -1)))


def test_swapped_search_finds_the_inverses_on_every_sweep_pair():
    # the sweeps search each order pair one way and take the inverses for the
    # other: run both searches, which may start from either side, and compare
    pairs = set()
    for y, w, z in straight_triples(7) + skew_w_triples(2, 3, 4, 6):
        x = w if isinstance(w, SkewShape) else SkewShape(w)
        zy = SkewShape(z, y)
        pairs.update((x, zy, resolve_order(s, zy), resolve_order(s, x)) for s in ("ME", "FE", "seed:0"))
    for x, zy, a, a_prime in pairs:
        fwd = enumerate_pictures(x, zy, a, a_prime)
        back = enumerate_pictures(zy, x, a_prime, a)
        assert len(back) == len(fwd) and set(back) == {omega(p) for p in fwd}, (x, zy)


@pytest.mark.parametrize("rows, n", [((4, 3, 2, 1), 10), ((4, 4, 3, 1), 12)])
def test_pictures_onto_a_strip_are_the_standard_tableaux(rows, n):
    # a picture of a partition onto an antichain is a standard tableau of the
    # partition, so there are f^λ of them: far more than the permutation
    # filter in oracles.py can list.  Both directions, three seeded order
    # pairs; in each, the search run from either shape finds the same images
    x, strip = SkewShape(rows), _strip(n)
    count = syt_count_oracle(rows)
    for seed in (1, 4, 9):
        a, a_prime = random_admissible_order(strip, seed), random_admissible_order(x, seed + 1)
        fwd = enumerate_pictures(x, strip, a, a_prime)
        back = enumerate_pictures(strip, x, a_prime, a)
        for pics, dom, order, order2 in ((fwd, x, a, a_prime), (back, strip, a_prime, a)):
            assert len(pics) == count
            assert all(is_admissible_picture(p, order, order2) for p in pics)
            keys = [tuple(p.forward[c] for c in dom.cells()) for p in pics]
            assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))  # sorted, so distinct
            assert _both_sides(order, order2) == (keys, keys)
        assert {omega(p) for p in fwd} == set(back)


def test_search_on_a_row_of_6000_cells_keeps_no_table_of_cell_pairs():
    # what the search caches per order grows linearly in the cell count
    x, zy = SkewShape((6000,)), SkewShape((6000, 1), (1,))
    a, a_prime = middle_eastern(zy), middle_eastern(x)
    tracemalloc.start()
    try:
        pictures = enumerate_pictures(x, zy, a, a_prime)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pictures) == 1
    assert held < 1.5 * 2**20


def test_pictures_of_empty_and_one_cell_shapes():
    empty = SkewShape(())
    for x, y in ((empty, empty), (empty, SkewShape((1,))), (SkewShape((1,)), empty)):
        for a, a_prime in ((middle_eastern(y), middle_eastern(x)), (far_eastern(y), far_eastern(x))):
            pics = enumerate_pictures(x, y, a, a_prime)
            assert len(pics) == (x.size == y.size)
            assert all(p.images == () and p.forward == p.backward == {} and omega(p) == p for p in pics)
    # one cell onto one cell, both directions: the one map, whatever the orders
    ones = [SkewShape((1,)), SkewShape((2,), (1,)), SkewShape((1, 1), (1,)), SkewShape((3, 2), (2, 2))]
    for x in ones:
        for y in ones:
            (u,), (v,) = x.cells(), y.cells()
            for make in (middle_eastern, far_eastern, lambda s: random_admissible_order(s, 3)):
                (p,) = enumerate_pictures(x, y, make(y), make(x))
                assert p.images == (v,) and p.forward == {u: v} and p.backward == {v: u}
                assert p == Picture(x, y, {u: v}) and omega(p) == Picture(y, x, {v: u})
    x, y = SkewShape((1,)), SkewShape((2,), (1,))
    (p,) = enumerate_pictures(x, y, middle_eastern(y), middle_eastern(x))
    assert json.dumps(serialize.picture_to_obj(p), separators=(",", ":")) == (
        '{"domain":{"outer":[1],"inner":[]},"codomain":{"outer":[2],"inner":[1]},'
        '"map":[[[1,1],[1,2]]]}'
    )


def test_two_cell_pictures_from_both_search_sides(monkeypatch):
    # a row has one neighbour pair and the 2-cell strip none, so the search
    # runs from the strip in both directions: turned, from the codomain, onto
    # the strip, and from the domain out of it.  The spy records the cells
    # of the side searched from and whether the search was turned
    row, strip = SkewShape((2,)), SkewShape((2, 1), (1,))
    searched = []
    search = picture._bijections

    def spy(a, a_prime, turned):
        searched.append(((a if turned else a_prime).cells, turned))
        return search(a, a_prime, turned)

    monkeypatch.setattr(picture, "_bijections", spy)
    a_row, a_strip = middle_eastern(row), middle_eastern(strip)
    onto = enumerate_pictures(row, strip, a_strip, a_row)
    back = enumerate_pictures(strip, row, a_row, a_strip)
    assert searched == [(a_strip.cells, True), (a_strip.cells, False)]
    assert [p.forward for p in onto] == pictures_oracle(row, strip, a_strip, a_row)
    assert [p.forward for p in back] == pictures_oracle(strip, row, a_row, a_strip)
    assert len(onto) == len(back) == 1 and {omega(p) for p in onto} == set(back)


def test_omega_and_serialize_round_trip_every_small_picture():
    # every picture between equal-size shapes of up to four cells in a 3x3
    # box, under ME, FE and one seeded order pair
    shapes = {}
    for outer in partitions_up_to(9, 3, 3):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            if 0 < s.size <= 4:
                shapes.setdefault(s.cells(), s)
    seen = 0
    for x in shapes.values():
        for y in shapes.values():
            if x.size != y.size:
                continue
            for make in (middle_eastern, far_eastern, lambda s: random_admissible_order(s, 6)):
                for p in enumerate_pictures(x, y, make(y), make(x)):
                    q = omega(p)
                    assert q.domain == y and q.codomain == x
                    assert q.forward == p.backward and q.backward == p.forward
                    assert omega(q) == p and hash(omega(q)) == hash(p)
                    obj = json.loads(json.dumps(serialize.picture_to_obj(p)))
                    back = serialize.picture_from_obj(obj)
                    assert back == p and hash(back) == hash(p)
                    assert serialize.picture_to_obj(back) == obj
                    seen += 1
    assert seen > 1000
