import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import tensor_lower, tensor_raise
from lrpictures.crystal import (
    DecompositionReport,
    is_highest_weight,
    lower,
    raise_,
    verify_decomposition_glmn,
    verify_decomposition_glr,
    weight,
)
from lrpictures import crystal
from lrpictures.diagram import (
    SkewShape,
    add_boxes,
    is_hook,
    partition_contains,
    partitions_of,
    partitions_up_to,
    subdiagrams,
)
from lrpictures.lr import LRCoefficient, _Value, glmn_lr_tableaux, glr_lr_tableaux, lr_coefficient
from lrpictures.reading import (
    far_eastern,
    is_lattice_permutation,
    middle_eastern,
    reading,
)
from lrpictures.tableau import enumerate_glmn, enumerate_ssyt, glmn_weight


def test_operator_spot_values():
    # frozen from the recursive pair rule in oracles.py
    assert lower((1, 1), 1) == (2, 1)
    assert raise_((1, 1), 1) is None
    assert lower((2, 1), 1) == (2, 2)
    assert raise_((2, 1), 1) == (1, 1)
    assert lower((1, 2, 1), 1) == (1, 2, 2)
    assert lower((1, 1, 2), 1) == (2, 1, 2)
    assert lower((2, 1, 1, 2), 1) == (2, 2, 1, 2)
    assert raise_((2, 1, 1, 2), 1) == (1, 1, 1, 2)
    assert lower((1, 2, 3, 1), 2) is None
    assert raise_((1, 2, 3, 1), 2) is None
    assert lower((), 1) is None and raise_((), 1) is None


def test_operator_validation():
    with pytest.raises(ValueError):
        lower((0, 1), 1)
    for op in (lower, raise_):
        with pytest.raises(ValueError, match="operator index must be at least 1"):
            op((1,), 0)
    # the index is an integer: a float or a string is refused, not flipped in as a letter
    for op, word, i in ((raise_, (2,), 1.0), (lower, (1,), 1.0), (lower, (1,), "1")):
        with pytest.raises(ValueError, match="expected integers"):
            op(word, i)


@given(sts.words(max_letter=4, max_len=8), st.integers(1, 3))
def test_operators_match_the_pair_rule(word, i):
    assert lower(word, i) == tensor_lower(word, i)
    assert raise_(word, i) == tensor_raise(word, i)


@given(sts.words(max_letter=4, max_len=8), st.integers(1, 3))
def test_lower_and_raise_invert(word, i):
    down = lower(word, i)
    if down is not None:
        assert raise_(down, i) == word
    up = raise_(word, i)
    if up is not None:
        assert lower(up, i) == word


@given(sts.words(max_letter=5, max_len=10))
def test_highest_weight_three_ways(word):
    # no raising operator applies <=> lattice <=> the box replay from the
    # empty shape succeeds
    hw = is_highest_weight(word)
    assert hw == is_lattice_permutation(word)
    assert hw == (add_boxes((), word) is not None)


def test_weight():
    assert weight((1, 3, 1)) == (2, 0, 1)
    assert weight(()) == ()


def test_three_fold_tensor_cube_of_the_line():
    # ((1) x (1)) x (1) with two rows available: one copy of (3), two of (2,1)
    total = {}
    for mid, mult in verify_decomposition_glr((1,), (1,), 2).per_shape.items():
        for z, k in verify_decomposition_glr(mid, (1,), 2).per_shape.items():
            total[z] = total.get(z, 0) + mult * k
    assert total == {(3,): 1, (2, 1): 2}


def test_glr_decomposition_small():
    rep = verify_decomposition_glr((1,), (1, 1), 3)
    assert rep.passed
    assert rep.lhs_card == rep.rhs_card == 9
    assert rep.per_shape == {(2, 1): 1, (1, 1, 1): 1}
    obj = rep.to_obj()
    assert obj["pass"] and obj["per_shape"] == {"1,1,1": 1, "2,1": 1}


def test_glr_decomposition_rejects_tall_shapes():
    with pytest.raises(ValueError):
        verify_decomposition_glr((1, 1, 1), (1,), 2)
    # the row bound is a count, not compared as it comes
    with pytest.raises(ValueError, match="expected integers"):
        verify_decomposition_glr((1,), (1,), 2.5)


@settings(max_examples=20)
@given(
    sts.partitions(max_size=4, max_rows=3),
    sts.partitions(max_size=4, max_rows=3),
)
def test_glr_decomposition_property(y, w):
    assert verify_decomposition_glr(y, w, 3).passed


def test_glr_decomposition_reads_each_multiplicity_from_the_lr_search(monkeypatch):
    # route one is one search on (W, y) per reading direction under a
    # ceiling of r rows; the z with more than r rows, here (3,1,1,1) and
    # (2,2,1,1), are never built
    y, w, r = (2, 1), (2, 1), 3
    searched, returned = [], []
    real = crystal.lr_families

    def spied(shape, start, order, ceiling=None):
        searched.append((shape, start, order))
        assert ceiling is not None and len(ceiling) == r
        returned.append(real(shape, start, order, ceiling))
        return returned[-1]

    monkeypatch.setattr(crystal, "lr_families", spied)
    rep = verify_decomposition_glr(y, w, r)
    sw = SkewShape(w)
    assert searched == [(sw, y, middle_eastern(sw)), (sw, y, far_eastern(sw))]
    assert all(len(z) <= r for groups in returned for z in groups)
    assert rep.passed
    fits = [z for z in partitions_of(6) if len(z) <= r and partition_contains(z, y)]
    assert rep.per_shape == {z: len(glr_lr_tableaux(sw, y, z)) for z in fits if glr_lr_tableaux(sw, y, z)}
    assert rep.per_shape[3, 2, 1] == 2
    tall = {(3, 1, 1, 1), (2, 2, 1, 1)}
    assert tall <= set(real(sw, y, middle_eastern(sw))) and not tall & set(rep.per_shape)


def test_glmn_decomposition_small():
    rep = verify_decomposition_glmn((1,), (1,), 1, 1)
    assert rep.passed
    assert rep.lhs_card == rep.rhs_card == 4
    assert rep.per_shape == {(2,): 1, (1, 1): 1}


def test_glmn_decomposition_searches_only_the_z_that_contain_y(monkeypatch):
    # a z without y in it has an empty LR set, so it costs no search; each
    # z that holds y costs one uncapped search on Z/Y, which serves every w
    y, w, m, n = (2, 1), (2, 1), 2, 1
    searched = []
    real = crystal.lr_families

    def spied(shape, start, order, ceiling=None):
        searched.append((shape, start))
        return real(shape, start, order, ceiling)

    monkeypatch.setattr(crystal, "lr_families", spied)
    rep = verify_decomposition_glmn(y, w, m, n)
    hooks = [z for z in partitions_of(6) if is_hook(z, m, n)]
    assert searched == [(SkewShape(z, y), ()) for z in hooks if partition_contains(z, y)]
    assert not hasattr(crystal, "glmn_lr_tableaux")  # the capped search is not on this path
    assert len(searched) == len(hooks) - 2  # (6) and (1,1,1,1,1,1) do not hold (2,1)
    assert rep.passed
    assert rep.per_shape == {z: len(glmn_lr_tableaux(y, w, z)) for z in hooks if glmn_lr_tableaux(y, w, z)}


def test_glr_decomposition_fails_when_the_fe_route_differs(monkeypatch):
    # W = (2,2) has FE != ME; under FE one summand loses a member, so the
    # FE route alone disagrees: the ME route, the highest weights and both
    # cardinalities are untouched
    y, w, r = (1,), (2, 2), 3
    sw = SkewShape(w)
    assert far_eastern(sw) is not middle_eastern(sw)
    real = crystal.lr_families

    def one_short_under_fe(shape, start, order, ceiling=None):
        families = real(shape, start, order, ceiling)
        if order is not far_eastern(shape):
            return families
        return {**families, (3, 2): families[3, 2][:-1]}

    rep = verify_decomposition_glr(y, w, r)
    assert rep.passed and rep.per_shape[3, 2] == 1
    monkeypatch.setattr(crystal, "lr_families", one_short_under_fe)
    assert verify_decomposition_glr(y, w, r) == DecompositionReport(rep.lhs_card, rep.rhs_card, rep.per_shape, False)


def test_glr_decomposition_fails_when_a_cardinality_differs(monkeypatch):
    # the summand (2) counts one filling short, so rhs_card is one less; all
    # three multiplicity routes read no filling of a summand and still agree
    real = crystal._fillings

    def one_short_on_a_row_of_two(shape, *args):
        fillings = real(shape, *args)
        return fillings[:-1] if shape == SkewShape((2,)) else fillings

    rep = verify_decomposition_glr((1,), (1,), 2)
    assert rep.passed and rep.lhs_card == rep.rhs_card == 4
    monkeypatch.setattr(crystal, "_fillings", one_short_on_a_row_of_two)
    assert verify_decomposition_glr((1,), (1,), 2) == DecompositionReport(4, 3, rep.per_shape, False)


def test_glmn_decomposition_fails_when_a_weight_moves(monkeypatch):
    # one filling of the summand (2) moves from its weight to another one:
    # both sides keep their sizes, but their weight multisets differ
    real = crystal._glmn_weights

    def one_moved_on_a_row_of_two(shape, m, n):
        weights = real(shape, m, n)
        if shape != SkewShape((2,)):
            return weights
        (u, a), (v, b), *rest = weights
        return ((u, a - 1), (v, b + 1), *rest)

    rep = verify_decomposition_glmn((1,), (1,), 1, 1)
    assert rep.passed and rep.lhs_card == rep.rhs_card == 4
    monkeypatch.setattr(crystal, "_glmn_weights", one_moved_on_a_row_of_two)
    assert verify_decomposition_glmn((1,), (1,), 1, 1) == DecompositionReport(4, 4, rep.per_shape, False)


def test_decomposition_report_fields_equality_and_object_form():
    rep = verify_decomposition_glmn((1,), (1,), 1, 1)
    assert (rep.lhs_card, rep.rhs_card, rep.per_shape, rep.passed) == (4, 4, {(2,): 1, (1, 1): 1}, True)
    assert rep == DecompositionReport(4, 4, {(1, 1): 1, (2,): 1}, True)
    assert rep != DecompositionReport(4, 4, {(2,): 1, (1, 1): 1}, False)
    assert rep != DecompositionReport(4, 5, {(2,): 1, (1, 1): 1}, True)
    assert rep != (4, 4, {(2,): 1, (1, 1): 1}, True)
    assert repr(rep) == (
        "DecompositionReport(lhs_card=4, rhs_card=4, per_shape={(2,): 1, (1, 1): 1}, passed=True)"
    )
    # summand shapes are keyed by their rows, in sorted order
    assert rep.to_obj() == {"lhs_card": 4, "rhs_card": 4, "per_shape": {"1,1": 1, "2": 1}, "pass": True}
    assert list(rep.to_obj()["per_shape"]) == ["1,1", "2"]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(rep, protocol)) == rep


def test_decomposition_report_is_a_frozen_value_of_its_own():
    rep = verify_decomposition_glmn((1,), (1,), 1, 1)
    with pytest.raises(AttributeError, match="^cannot assign to field 'passed'$"):
        rep.passed = False
    with pytest.raises(AttributeError, match="^cannot delete field 'lhs_card'$"):
        del rep.lhs_card
    with pytest.raises(AttributeError):
        rep.extra = 1
    assert rep.passed and rep.lhs_card == 4
    with pytest.raises(TypeError):  # its per_shape is a dict
        hash(rep)


def test_a_result_equals_only_a_result_of_its_own_class():
    coefficient = lr_coefficient((1,), (1,), (2,), 1, 1)
    report = DecompositionReport(1, 1, {}, True)
    assert coefficient != report and report != coefficient

    class Counts(_Value):  # another result with the same fields
        __slots__ = ("c", "n_super")

        def __init__(self, c, n_super):
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "n_super", n_super)

    assert coefficient == LRCoefficient(1, 1) and Counts(1, 1) == Counts(1, 1)
    assert Counts(1, 1) != coefficient and coefficient != Counts(1, 1)


def test_glmn_decomposition_rejects_non_hooks():
    with pytest.raises(ValueError):
        verify_decomposition_glmn((2, 2), (1,), 1, 1)


def test_both_hook_checks_name_the_first_non_hook_part():
    # each part is made canonical first, so the message names (2, 2), not (2, 2, 0)
    with pytest.raises(ValueError, match=r"^w=\(2, 2\) is not a \(1,1\)-hook diagram$"):
        verify_decomposition_glmn((1,), (2, 2, 0), 1, 1)
    with pytest.raises(ValueError, match=r"^w=\(2, 2\) is not a \(1,1\)-hook diagram$"):
        lr_coefficient((1,), (2, 2, 0), (3, 3), 1, 1)
    with pytest.raises(ValueError, match=r"^y=\(2, 2\) is not a \(1,1\)-hook diagram$"):
        lr_coefficient((2, 2), (3, 3), (1,), 1, 1)
    # every part is canonicalized before any is tested: a bad z is named before the non-hook w
    with pytest.raises(ValueError, match="negative row length"):
        lr_coefficient((1,), (2, 2), (1, -1), 1, 1)


def test_glmn_weight_tables_match_the_public_route():
    # the table counts the raw filling vectors; the reference maps each filling to its
    # barred entries and back through glmn_weight
    shapes = [SkewShape(o, i) for o in partitions_up_to(6) for i in subdiagrams(o)]
    assert len(shapes) == 230
    for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)):
        for s in shapes:
            expected = Counter(glmn_weight(t, m, n) for t in enumerate_glmn(s, m, n))
            assert crystal._glmn_weights(s, m, n) == tuple(expected.items()), (s, m, n)


@settings(max_examples=15)
@given(
    st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (3, 1)]),
    st.sampled_from([(), (1,), (2,), (1, 1), (2, 1)]),
)
def test_glmn_decomposition_property(y, w):
    assert verify_decomposition_glmn(y, w, 1, 1).passed


@settings(max_examples=10)
@given(sts.skew_shapes(max_size=5), st.integers(2, 3))
def test_reading_families_close_under_the_operators(shape, r):
    # applying a lowering operator to any reading word of a semistandard
    # filling lands on the reading word of another one (or dies); same for
    # raising; and this holds for both canonical reading directions
    for make in (middle_eastern, far_eastern):
        order = make(shape)
        words = {reading(t, order) for t in enumerate_ssyt(shape, r)}
        for word in words:
            for i in range(1, r):
                for moved in (lower(word, i), raise_(word, i)):
                    if moved is not None:
                        assert moved in words


@settings(max_examples=15)
@given(
    sts.partitions(max_size=3, max_rows=3),
    sts.skew_shapes(max_size=4),
)
def test_growth_equals_highest_weight_concatenation(y, shape):
    # replaying a reading word over y succeeds exactly when prepending the
    # row word of y leaves a word that no raising operator touches, and the
    # grown shape is then the combined weight
    prefix = ()
    for i, row in enumerate(y, start=1):
        prefix += (i,) * row
    for t in enumerate_ssyt(shape, 3):
        word = reading(t, middle_eastern(shape))
        grown = add_boxes(y, word)
        combined = prefix + word
        if grown is None:
            assert not is_highest_weight(combined)
        else:
            assert is_highest_weight(combined)
            assert weight(combined) == grown
