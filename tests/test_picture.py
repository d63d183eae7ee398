from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import pictures_oracle, standard_oracle
from lrpictures.diagram import SkewShape, partitions_up_to, subdiagrams
from lrpictures.picture import (
    Picture,
    enumerate_pictures,
    is_admissible_picture,
    is_pa_standard,
    omega,
)
from lrpictures.reading import far_eastern, middle_eastern, random_admissible_order


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


def test_picture_call_and_equality():
    assert EXAMPLE((1, 1)) == (1, 4)
    same = Picture(DOM, COD, dict(EXAMPLE.forward))
    assert same == EXAMPLE and hash(same) == hash(EXAMPLE)


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
    assert q((1, 4)) == (1, 1)
    assert omega(q) == EXAMPLE


def test_order_shape_mismatch_raises():
    with pytest.raises(ValueError):
        is_admissible_picture(EXAMPLE, middle_eastern(DOM), middle_eastern(DOM))
    with pytest.raises(ValueError):
        enumerate_pictures(DOM, COD, middle_eastern(DOM), middle_eastern(DOM))


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


def test_enumerate_matches_oracle_on_every_small_pair():
    # every pair of equal-size skew shapes inside a 3x3 box with up to five
    # cells, under two mixed order pairs and, as a sweep does, under ME, FE and
    # two seeds with each order object serving first as the codomain order and
    # then as the domain order of the swapped search; orders recur from pair to
    # pair, so most searches read tables cached by an earlier one.  Both sides
    # list the maps in the order of their image sequences over the row-major
    # domain cells
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
                ours = [p.forward for p in enumerate_pictures(x, y, a, a_prime)]
                assert ours == pictures_oracle(x, y, a, a_prime), (x, y)
                ours = [p.forward for p in enumerate_pictures(y, x, a_prime, a)]
                assert ours == pictures_oracle(y, x, a_prime, a), (y, x)


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
                    keys = [tuple(p(c) for c in x.cells()) for p in pics]
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
