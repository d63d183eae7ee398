import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strategies as sts
from lrpictures import cli, serialize
from lrpictures.diagram import SkewShape, partitions_up_to, subdiagrams
from lrpictures.picture import Picture, enumerate_pictures
from lrpictures.reading import far_eastern, middle_eastern, random_admissible_order
from lrpictures.tableau import Tableau, from_rows


def test_picture_map_lists_each_domain_cell_once():
    one = {"outer": [1], "inner": []}
    obj = {"domain": one, "codomain": one, "map": [[[1, 1], [1, 1]]]}
    assert serialize.picture_from_obj(obj).forward == {(1, 1): (1, 1)}
    obj["map"] = obj["map"] * 2
    with pytest.raises(ValueError, match="twice"):
        serialize.picture_from_obj(obj)


def test_partition_roundtrip():
    assert serialize.partition_from_obj([3, 1]) == (3, 1)
    assert serialize.partition_from_obj([]) == ()
    with pytest.raises(ValueError):
        serialize.partition_from_obj("3,1")
    with pytest.raises(ValueError):
        serialize.partition_from_obj([1, "2"])
    with pytest.raises(ValueError):
        serialize.partition_from_obj([1, 2])


def test_shape_roundtrip():
    s = SkewShape((3, 2), (1,))
    assert serialize.shape_from_obj(serialize.shape_to_obj(s)) == s
    assert serialize.shape_from_obj({"outer": [2]}) == SkewShape((2,))
    with pytest.raises(ValueError):
        serialize.shape_from_obj({"inner": [1]})
    with pytest.raises(ValueError):
        serialize.shape_from_obj([2, 1])


def test_tableau_roundtrip():
    t = from_rows([[1, -1], [2]], inner=(1,))
    obj = serialize.tableau_to_obj(t)
    assert json.loads(json.dumps(obj)) == obj
    assert serialize.tableau_from_obj(obj) == t
    with pytest.raises(ValueError):
        serialize.tableau_from_obj({"rows": [[1]]})
    with pytest.raises(ValueError):
        serialize.tableau_from_obj({"shape": {"outer": [1]}, "rows": [["x"]]})


def test_picture_roundtrip():
    dom = SkewShape((2,))
    p = Picture(dom, dom, {(1, 1): (1, 2), (1, 2): (1, 1)})
    obj = serialize.picture_to_obj(p)
    assert json.loads(json.dumps(obj)) == obj
    assert serialize.picture_from_obj(obj) == p
    assert obj["map"] == [[[1, 1], [1, 2]], [[1, 2], [1, 1]]]
    with pytest.raises(ValueError):
        serialize.picture_from_obj({"domain": obj["domain"], "map": []})
    bad = dict(obj)
    bad["map"] = [[[1, 1], [1, 2]], [[1, 2]]]
    with pytest.raises(ValueError):
        serialize.picture_from_obj(bad)


def test_order_roundtrip():
    order = middle_eastern(SkewShape((2, 1)))
    assert serialize.order_from_obj([list(c) for c in order.cells]) == order
    with pytest.raises(ValueError):
        serialize.order_from_obj({"cells": []})
    with pytest.raises(ValueError):
        serialize.order_from_obj([[1]])


def test_tableau_shape_row_mismatch_is_loud():
    with pytest.raises(ValueError):
        serialize.tableau_from_obj({"shape": {"outer": [2]}, "rows": [[1]]})


@pytest.mark.parametrize(
    "load, obj",
    [
        (serialize.partition_from_obj, [2, True]),
        (serialize.shape_from_obj, {"outer": [2, 1], "inner": [True]}),
        (serialize.tableau_from_obj, {"shape": {"outer": [1]}, "rows": [[True]]}),
        (serialize.picture_from_obj, {
            "domain": {"outer": [1]}, "codomain": {"outer": [1]}, "map": [[[1, True], [1, 1]]],
        }),
        (serialize.order_from_obj, [[True, 1]]),
    ],
)
def test_json_booleans_are_not_ints(load, obj):
    # bool is an int subclass in Python, but true is not a row length, an entry or a coordinate
    with pytest.raises(ValueError):
        load(obj)


def _json_line(obj) -> str:
    return cli._ENCODER.encode(obj) + "\n"


def _fillings(shape):
    """Tableaux on ``shape`` with any nonzero entries, barred ones and several digits among them."""
    entry = st.integers(-12, 12).filter(bool)
    return st.lists(entry, min_size=shape.size, max_size=shape.size).map(
        lambda entries: Tableau(shape, [entries[a:b] for a, b in shape._spans])
    )


@given(st.lists(sts.skew_shapes(max_size=7).flatmap(_fillings), max_size=4))
@example([from_rows([])])  # the empty shape
@example([from_rows([[-3]]), from_rows([[7]], inner=(2,))])  # one-cell shapes
@example([Tableau(SkewShape((3, 2, 1), (3, 1)), [[], [-1], [2]])])  # a row the inner shape covers
@example([Tableau(SkewShape((2, 1), (2, 1)), [[], []])])  # every row covered
def test_tableau_lines_are_the_object_form(tableaux):
    # one call over several shapes: each tableau is written with its own shape's template
    assert list(serialize.tableau_lines(tableaux)) == [
        _json_line(serialize.tableau_to_obj(t)) for t in tableaux
    ]


def test_picture_lines_are_the_object_form():
    # every pair of equal-size shapes up to 5 cells, the 0-cell and 1-cell pairs among them
    shapes = [SkewShape(outer, inner) for outer in partitions_up_to(5) for inner in subdiagrams(outer)]
    seen = 0
    for x in shapes:
        for y in shapes:
            if x.size != y.size:
                continue
            orders = [(middle_eastern(y), far_eastern(x)), (random_admissible_order(y, 1), middle_eastern(x))]
            for a, a_prime in orders:
                pictures = enumerate_pictures(x, y, a, a_prime)
                assert list(serialize.picture_lines(pictures)) == [
                    _json_line(serialize.picture_to_obj(p)) for p in pictures
                ]
                seen += len(pictures)
    assert seen > 3000
    one, moved = SkewShape((1,)), SkewShape((2, 2), (2, 1))
    assert list(serialize.picture_lines([Picture(one, moved, {(1, 1): (2, 2)})])) == [
        '{"domain":{"outer":[1],"inner":[]},"codomain":{"outer":[2,2],"inner":[2,1]},"map":[[[1,1],[2,2]]]}\n'
    ]
