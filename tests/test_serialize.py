import json

import pytest

from lrpictures import serialize
from lrpictures.diagram import SkewShape
from lrpictures.picture import Picture
from lrpictures.reading import middle_eastern
from lrpictures.tableau import Tableau, from_rows


def test_picture_map_lists_each_domain_cell_once():
    one = {"outer": [1], "inner": []}
    obj = {"domain": one, "codomain": one, "map": [[[1, 1], [1, 1]]]}
    assert serialize.picture_from_obj(obj).forward == {(1, 1): (1, 1)}
    obj["map"] = obj["map"] * 2
    with pytest.raises(ValueError, match="twice"):
        serialize.picture_from_obj(obj)


def test_partition_roundtrip():
    assert serialize.partition_from_obj(serialize.partition_to_obj((3, 1))) == (3, 1)
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
    assert serialize.order_from_obj(serialize.order_to_obj(order)) == order
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
