"""The library builds its own shapes, tableaux and pictures through private
builders that skip the public checks. Every value a sweep makes must equal
the value the checking constructor makes from the same fields, with the same
stored hash, size and cells."""

import pickle

from lrpictures.diagram import SkewShape
from lrpictures.lr import (
    companion_tableau,
    glmn_lr_tableaux,
    glr_lr_tableaux,
    picture_to_tableau,
    tableau_to_picture,
)
from lrpictures.picture import Picture, enumerate_pictures, omega
from lrpictures.sweeps import resolve_order, straight_triples
from lrpictures.tableau import Tableau

SPECS = ("ME", "FE", "seed:0", "seed:1", "seed:2")


def _sweep_values(max_z):
    """Every shape, tableau and picture a round-trip sweep to ``max_z`` makes."""
    shapes, tableaux, pictures = set(), set(), set()
    for y, w, z in straight_triples(max_z):
        w_shape, zy = SkewShape(w), SkewShape(z, y)
        for spec in SPECS:
            o_w, o_zy = resolve_order(spec, w_shape), resolve_order(spec, zy)
            members = glr_lr_tableaux(w_shape, y, z, order=o_w)
            super_members = glmn_lr_tableaux(y, w, z, order=o_zy)
            tableaux.update(members, super_members)
            pictures.update(enumerate_pictures(w_shape, zy, o_zy, o_w))
            pictures.update(enumerate_pictures(zy, w_shape, o_w, o_zy))
        for t in members:
            p = tableau_to_picture(t, y)
            pictures.update((p, omega(p)))
            tableaux.add(picture_to_tableau(p))
        for q in super_members:
            p = tableau_to_picture(q)
            pictures.update((p, omega(p)))
            tableaux.update((picture_to_tableau(omega(p)), companion_tableau(q)))
    for t in tableaux:
        shapes.add(t.shape)
    for p in pictures:
        shapes.update((p.domain, p.codomain))
    return shapes, tableaux, pictures


def _same_shape(s, r):
    # the stored fields against the fields themselves, not only against a
    # rebuild: both constructors end in the one builder
    cells = tuple(
        (i, j)
        for i in range(1, len(s.outer) + 1)
        for j in range(s.inner_width(i) + 1, s.outer[i - 1] + 1)
    )
    assert r == s and hash(r) == hash(s)
    # the hash of the field tuple, as before the hash was stored: the
    # iteration order of sets of shapes and tableaux stays what it was
    assert hash(s) == hash((s.outer, s.inner))
    assert r.size == s.size == len(cells) == sum(s.outer) - sum(s.inner)
    assert r.cells() == s.cells() == cells


def _rebuilt_shape(s):
    return SkewShape(list(s.outer), list(s.inner))


def test_builders_agree_with_the_checking_constructors():
    shapes, tableaux, pictures = _sweep_values(6)
    assert len(shapes) > 200 and len(tableaux) > 300 and len(pictures) > 500
    assert any(s.inner for s in shapes) and any(t.shape.inner for t in tableaux)
    for s in shapes:
        _same_shape(s, _rebuilt_shape(s))
    for t in tableaux:
        r = Tableau(_rebuilt_shape(t.shape), [list(row) for row in t.rows])
        assert r == t and hash(r) == hash(t) == hash((t.shape, t.entries))
        assert r.size == t.size and r.cells() == t.cells()
        _same_shape(t.shape, r.shape)
    for p in pictures:
        r = Picture(_rebuilt_shape(p.domain), _rebuilt_shape(p.codomain), dict(p.forward))
        assert r == p and hash(r) == hash(p)
        assert r.backward == p.backward
        _same_shape(p.domain, r.domain)
        _same_shape(p.codomain, r.codomain)


def test_shapes_and_tableaux_pickle_through_their_constructors():
    t = Tableau(SkewShape((3, 1), (1,)), ((1, 1), (2,)))
    for value in (t.shape, t, SkewShape(())):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
        assert back.size == value.size and back.cells() == value.cells()
    # what crosses a process is the fields, rebuilt and checked on arrival
    assert SkewShape.__reduce__(t.shape) == (SkewShape, ((3, 1), (1,)))
    assert Tableau.__reduce__(t) == (Tableau, (t.shape, ((1, 1), (2,))))


def test_searched_pictures_pickle_through_their_constructor():
    # a dense search result, and one from the swapped search side
    x, strip = SkewShape((3, 2, 1)), SkewShape((6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    onto = enumerate_pictures(x, strip, resolve_order("seed:1", strip), resolve_order("FE", x))
    back = enumerate_pictures(strip, x, resolve_order("FE", x), resolve_order("seed:1", strip))
    assert len(onto) == len(back) == 16
    for p in onto + back:
        hash(p)  # stored before pickling: the copy must not carry it over
        copy = pickle.loads(pickle.dumps(p))
        assert copy is not p and copy == p and hash(copy) == hash(p)
        assert copy.forward == p.forward and copy.backward == p.backward
        assert Picture.__reduce__(p) == (Picture, (p.domain, p.codomain, p.forward))


def test_trailing_zeros_make_the_same_shape():
    s = SkewShape((2, 1, 0))
    assert s == SkewShape((2, 1)) and hash(s) == hash(SkewShape((2, 1)))
    assert s.outer == (2, 1) and s.size == 3
    assert SkewShape((2, 1, 0), (1, 0)) == SkewShape((2, 1), (1,))
