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
from lrpictures.diagram import SkewShape, add_boxes, is_hook, partition_contains, partitions_of
from lrpictures.lr import glmn_lr_tableaux, glr_lr_tableaux
from lrpictures.reading import (
    far_eastern,
    is_lattice_permutation,
    middle_eastern,
    reading,
)
from lrpictures.tableau import enumerate_ssyt


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
    with pytest.raises(ValueError):
        raise_((1,), 0)


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


def test_glmn_decomposition_rejects_non_hooks():
    with pytest.raises(ValueError):
        verify_decomposition_glmn((2, 2), (1,), 1, 1)


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
