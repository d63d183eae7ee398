import pickle
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
    _BLOCK,
    AdmissibleOrder,
    _orders,
    _words,
    far_eastern,
    is_admissible,
    is_lattice_permutation,
    middle_eastern,
    random_admissible_order,
    reading,
)
from lrpictures.tableau import Tableau, from_rows


def test_order_rejects_repeats():
    with pytest.raises(ValueError):
        AdmissibleOrder([(1, 1), (1, 1)])


def test_order_and_word_checks_reject_non_integral_values():
    with pytest.raises(ValueError):
        AdmissibleOrder([(1, 1.5)])
    with pytest.raises(ValueError):
        is_lattice_permutation([1, 1.0])


def test_stored_hash_holds_across_pickling_and_a_second_route():
    # the hash is stored at construction; once the table of orders has
    # dropped an order, an equal one that crossed a process boundary, or was
    # built from its cell list, is another object and must hash the same
    shape = SkewShape((4, 3, 1), (1,))
    me = middle_eastern(shape)
    for route in (lambda: pickle.loads(pickle.dumps(me)), lambda: AdmissibleOrder(list(me.cells))):
        _orders.cache_clear()
        other = route()
        assert other is not me
        assert other == me and hash(other) == hash(me)
        assert is_admissible(other, shape)
    assert far_eastern(shape) != me


def test_equal_orders_are_one_object():
    # every route to a cell sequence ends in the one table of orders: the
    # checking constructor, pickling and the three constructors of the
    # library. Equal sequences give one object; another sequence on the same
    # cells gives another. That holds while the table holds the order, and
    # middle_eastern's own cache may outlive it, so the test starts from empty tables
    for table in (_orders, middle_eastern):
        table.cache_clear()
    box = subdiagrams((3, 3, 3))
    shapes = [SkewShape(outer, inner) for outer in box for inner in subdiagrams(outer)]
    assert len(shapes) == 175
    shared = 0
    for shape in shapes:
        drawn = [
            (middle_eastern(shape), sorted(shape.cells(), key=lambda c: (c[0], -c[1]))),
            (far_eastern(shape), sorted(shape.cells(), key=lambda c: (-c[1], c[0]))),
        ]
        drawn += [(random_admissible_order(shape, seed), random_order_oracle(shape, seed)) for seed in range(10)]
        by_cells = {}
        for o, cells in drawn:
            assert o.cells == tuple(cells)
            assert AdmissibleOrder(cells) is o  # an equal sequence, not the same tuple
            assert pickle.loads(pickle.dumps(o)) is o
            assert by_cells.setdefault(o.cells, o) is o  # every route to equal cells, one object
        assert len({id(o) for o, _ in drawn}) == len(by_cells)
        shared += len(drawn) - len(by_cells)
    assert shared > 1000


def test_order_repr_lists_the_cells():
    assert repr(middle_eastern(SkewShape((2, 1)))) == "AdmissibleOrder([(1, 2), (1, 1), (2, 1)])"


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
    # a value that is no order at all, a spec's name included
    assert not is_admissible(None, s)
    assert not is_admissible("ME", s)


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
    assert order == random_admissible_order(shape, seed)  # each call draws again


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


def test_random_orders_match_the_pairwise_draw_at_large_and_negative_seeds():
    # rng.choice under seeds whose generators seed through several key words,
    # or through the absolute value, on the 3x3 box and on shapes with many
    # rows, whose draws read past the first block of words
    box = subdiagrams((3, 3, 3))
    shapes = [SkewShape(outer, inner) for outer in box for inner in subdiagrams(outer)]
    shapes += [SkewShape((5, 4, 3, 2, 1)), SkewShape((8, 7, 6, 5, 4, 3, 2, 1))]
    assert shapes[-1].size > _BLOCK
    seeds = (-1, -7, 2**31 - 1, 2**32, 2**64 + 3, 2**30 - 3)
    _words.cache_clear()
    for shape in shapes:
        for seed in seeds:
            assert random_admissible_order(shape, seed).cells == random_order_oracle(shape, seed), (shape, seed)
    # one first block per seed, and longer tables for the draws that ran past it
    assert _words.cache_info().misses > len(seeds)
    assert all(_words(seed, 2 * _BLOCK)[:_BLOCK] == _words(seed, _BLOCK) for seed in seeds)


def test_a_seed_and_its_negative_draw_alike():
    shape = SkewShape((4, 3, 2, 1))
    for seed in (1, 3, 2**64 + 3):
        assert random_admissible_order(shape, -seed) is random_admissible_order(shape, seed)


@pytest.mark.parametrize("seed", [None, "3", 1.5])
def test_random_orders_refuse_seeds_that_are_not_integers(seed):
    with pytest.raises(ValueError, match="expected integers"):
        random_admissible_order(SkewShape((4, 3, 2, 1)), seed)


def test_random_orders_vary_with_seed():
    s = SkewShape((3, 3, 3))
    orders = {random_admissible_order(s, seed).cells for seed in range(8)}
    assert len(orders) > 1


def test_reading_rejects_mismatched_order():
    t = from_rows([[1, 2]])
    with pytest.raises(ValueError):
        reading(t, middle_eastern(SkewShape((3,))))
    with pytest.raises(ValueError, match="order does not cover"):
        reading(t, None)


def _layout(order):
    """Every field ``AdmissibleOrder._lay_out`` lays out but the two readers,
    written out from the cells of ``order`` by neighbour lookups."""
    cells = list(order.cells)

    def position(cell):
        return cells.index(cell) if cell in cells else -1

    up = tuple(position((i - 1, j)) for i, j in cells)
    right = tuple(position((i, j + 1)) for i, j in cells)
    succs = []  # per cell, its right and lower neighbours with their other left or upper one
    for i, j in cells:
        nexts = {position((i, j + 1)): position((i - 1, j + 1)), position((i + 1, j)): position((i + 1, j - 1))}
        nexts.pop(-1, None)
        succs.append(tuple(sorted(nexts.items())))
    roots = sum(1 << k for k, (i, j) in enumerate(cells) if up[k] < 0 and (i, j - 1) not in cells)
    pairs = sum(k >= 0 for k in up + right)
    return {
        "cells": order.cells, "_row_major": tuple(sorted(cells)), "_up": up, "_right": right,
        "_succs": tuple(succs), "_roots": roots, "_pairs": pairs, "_hash": hash(order.cells),
    }


def test_orders_lay_out_their_neighbour_and_row_major_positions():
    # every field of an order the library draws, without the checks of
    # outside input, is the one the checking constructor lays out from the
    # same cells, and a rebuild from the cells by neighbour lookups
    box = subdiagrams((3, 3, 3))
    shapes = [SkewShape(outer, inner) for outer in box for inner in subdiagrams(outer)]
    # the disconnected shape, and the 0-cell and 1-cell orders, by name
    shapes += [SkewShape((2, 1), (1,)), SkewShape(()), SkewShape((1,))]
    fields = [name for name in AdmissibleOrder.__slots__ if name not in ("_reader", "_writer")]
    assert sorted(fields) == sorted(_layout(middle_eastern(shapes[-1])))
    for shape in shapes:
        orders = [middle_eastern(shape), far_eastern(shape)]
        orders += [random_admissible_order(shape, seed) for seed in range(10)]
        entries = iter(range(1, shape.size + 1))  # distinct entries, one per cell
        widths = [shape.outer[i - 1] - shape.inner_width(i) for i in range(1, len(shape.outer) + 1)]
        t = Tableau(shape, [[next(entries) for _ in range(width)] for width in widths])
        for order in orders:
            expected = _layout(order)
            pickled = pickle.loads(pickle.dumps(order))
            loaded = serialize.order_from_obj([list(c) for c in order.cells])
            # equal orders are one object while the table holds them, so a
            # fresh layout of the same cells stands for the checking constructor's
            for copy in (order, AdmissibleOrder._lay_out(order.cells), pickled, loaded):
                assert {name: getattr(copy, name) for name in fields} == expected, (shape, order)
                word = reading(t, copy)
                assert word == tuple(dict(t.items())[c] for c in order.cells)
                # the writer takes the reading word, a vector by position, back to row-major order
                assert copy._writer(word) == copy._writer(list(word)) == t.entries


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
