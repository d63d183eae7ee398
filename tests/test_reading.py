import re
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies as sts
from oracles import admissible_oracle, lattice_oracle, random_order_oracle
from lrpictures import serialize
from lrpictures.diagram import SkewShape, partitions_up_to, subdiagrams
from lrpictures.reading import (
    AdmissibleOrder,
    far_eastern,
    is_admissible,
    is_lattice_permutation,
    middle_eastern,
    random_admissible_order,
    reading,
)
from lrpictures.tableau import from_rows


def test_order_rejects_repeats():
    with pytest.raises(ValueError):
        AdmissibleOrder([(1, 1), (1, 1)])


def test_canonical_orders_on_worked_shape():
    t = from_rows([[2, 2, 5], [3, 4]])
    assert reading(t, middle_eastern(t.shape)) == (5, 2, 2, 4, 3)
    assert reading(t, far_eastern(t.shape)) == (5, 2, 4, 2, 3)


def test_middle_eastern_cells():
    s = SkewShape((3, 2), (1,))
    assert middle_eastern(s).cells == ((1, 3), (1, 2), (2, 2), (2, 1))
    assert far_eastern(s).cells == ((1, 3), (1, 2), (2, 2), (2, 1))
    s2 = SkewShape((2, 2))
    assert middle_eastern(s2).cells == ((1, 2), (1, 1), (2, 2), (2, 1))
    assert far_eastern(s2).cells == ((1, 2), (2, 2), (1, 1), (2, 1))


def test_is_admissible():
    s = SkewShape((2, 2))
    assert is_admissible(middle_eastern(s), s)
    assert is_admissible(far_eastern(s), s)
    # row-major violates the constraint, (1,2) must come before (1,1), so no
    # such order can be built, whichever way the sequence comes in
    row_major = [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(ValueError, match="admissible"):
        AdmissibleOrder(row_major)
    with pytest.raises(ValueError, match="admissible"):
        serialize.order_from_obj([list(c) for c in row_major])
    with pytest.raises(ValueError, match="admissible"):
        AdmissibleOrder([(1, 1), (1, 2)])
    # wrong cell set
    assert not is_admissible(middle_eastern(s), SkewShape((2, 1)))
    assert not is_admissible(middle_eastern(SkewShape((2, 1))), s)


def test_order_accepts_exactly_the_admissible_sequences():
    # every permutation of every skew shape with up to six cells in a 3x3 box;
    # a refusal names a pair in the wrong order
    shapes = {}
    for outer in partitions_up_to(9, 3, 3):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            if 0 < s.size <= 6:
                shapes.setdefault(s.cells(), s)
    for cells in shapes:
        for seq in permutations(cells):
            if admissible_oracle(seq):
                assert AdmissibleOrder(seq).cells == seq
                continue
            with pytest.raises(ValueError, match="admissible") as refused:
                AdmissibleOrder(seq)
            v, u = (tuple(map(int, m)) for m in re.findall(r"\((\d+), (\d+)\)", str(refused.value)))
            assert seq.index(u) < seq.index(v) and v[0] <= u[0] and v[1] >= u[1]


@given(sts.skew_shapes(max_size=6), st.integers(0, 10), st.data())
def test_swapping_adjacent_cells_keeps_admissibility_iff_incomparable(shape, seed, data):
    cells = list(random_admissible_order(shape, seed).cells)
    if len(cells) < 2:
        return
    k = data.draw(st.integers(0, len(cells) - 2))
    (i, j), (i2, j2) = cells[k], cells[k + 1]
    cells[k], cells[k + 1] = cells[k + 1], cells[k]
    if i <= i2 and j >= j2:  # the first was weakly northeast of the second
        with pytest.raises(ValueError):
            AdmissibleOrder(cells)
    else:
        assert is_admissible(AdmissibleOrder(cells), shape)


@given(sts.skew_shapes(max_size=6))
def test_canonical_orders_are_admissible(shape):
    assert is_admissible(middle_eastern(shape), shape)
    assert is_admissible(far_eastern(shape), shape)


@given(sts.skew_shapes(max_size=6), st.integers(0, 10))
def test_random_orders_admissible_and_deterministic(shape, seed):
    order = random_admissible_order(shape, seed)
    assert is_admissible(order, shape)
    random_admissible_order.cache_clear()  # draw again rather than read the memo
    assert order == random_admissible_order(shape, seed)


def test_random_orders_match_the_pairwise_draw():
    # every skew shape in a 4x4 box, empty rows included, seeds 0-5: the row
    # scan offers rng.choice the same sorted list of minimal cells as the
    # all-pairs test, so every draw, and so every order, is the same
    for outer in partitions_up_to(16, 4, 4):
        for inner in subdiagrams(outer):
            s = SkewShape(outer, inner)
            for seed in range(6):
                ours = random_admissible_order(s, seed).cells
                assert ours == random_order_oracle(s, seed), (s, seed)


def test_random_orders_vary_with_seed():
    s = SkewShape((3, 3, 3))
    orders = {random_admissible_order(s, seed).cells for seed in range(8)}
    assert len(orders) > 1


def test_reading_rejects_mismatched_order():
    t = from_rows([[1, 2]])
    with pytest.raises(ValueError):
        reading(t, middle_eastern(SkewShape((3,))))


def test_is_lattice_permutation():
    assert is_lattice_permutation(())
    assert is_lattice_permutation((1, 1, 2, 2))
    assert is_lattice_permutation((1, 2, 1, 3))
    assert not is_lattice_permutation((1, 2, 2))
    assert not is_lattice_permutation((2,))
    with pytest.raises(ValueError):
        is_lattice_permutation((0, 1))


@given(sts.words(max_letter=5, max_len=12))
def test_lattice_matches_oracle(word):
    assert is_lattice_permutation(word) == lattice_oracle(word)
