import pickle

import pytest
from hypothesis import example, given

import strategies as sts
from oracles import subdiagrams_oracle
from lrpictures.diagram import (
    SkewShape,
    _skew,
    add_box,
    add_boxes,
    as_partition,
    first_invalid_step,
    hook_partitions_up_to,
    is_hook,
    partition_contains,
    partitions_of,
    partitions_up_to,
    subdiagrams,
)
from lrpictures.lr import lr_coefficient, lr_families
from lrpictures.reading import middle_eastern


def test_as_partition_canonicalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    assert as_partition([0]) == ()


def test_as_partition_rejects_bad_rows():
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([1, -1])


class _Index:
    """An int-like that is not an int: ``operator.index`` accepts it."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_as_partition_rejects_non_integral_rows():
    # a check refuses what it would otherwise have to truncate or parse
    for rows in ((2.7, 1), (2.0, 1), ("2", 1), (None,)):
        with pytest.raises(ValueError):
            as_partition(rows)
    with pytest.raises(ValueError):
        SkewShape((2, 1), (1.5,))
    assert as_partition((_Index(2), 1)) == (2, 1)


def test_partition_contains():
    assert partition_contains((3, 2), (2, 2))
    assert partition_contains((3, 2), ())
    assert not partition_contains((3, 2), (1, 1, 1))
    assert not partition_contains((3, 2), (3, 3))


def test_is_hook():
    assert is_hook((5, 1), 1, 1)
    assert not is_hook((2, 2), 1, 1)
    assert is_hook((4, 2, 2), 2, 2)
    # smallest non-(2,2)-hook: the 3x3 square, size 9
    assert not is_hook((3, 3, 3), 2, 2)
    for p in partitions_up_to(8):
        assert is_hook(p, 2, 2)
    with pytest.raises(ValueError):
        is_hook((1,), -1, 0)
    # a non-integral hook size is refused, here and in the coefficient that tests it
    with pytest.raises(ValueError):
        is_hook((1,), 1.5, 1)
    with pytest.raises(ValueError):
        lr_coefficient((1,), (1,), (2,), 1.5, 1)


def test_skew_shape_cells_row_major():
    s = SkewShape((3, 2), (1,))
    assert s.cells() == ((1, 2), (1, 3), (2, 1), (2, 2))
    assert s.size == 4
    assert (1, 1) not in s
    assert (2, 1) in s
    assert (3, 1) not in s
    # anything that is not a pair of integers is no cell; int-likes are
    for cell in ((1.5, 1), (2, 1.0), ("a", 1), (2, 1, 1), (2,), 5, None):
        assert cell not in s
    assert (True, 2) in s


@given(sts.skew_shapes(max_size=8))
@example(SkewShape((2, 1), (1,)))  # disconnected: (2, 1) sits left of, not under, (1, 2)
@example(SkewShape((3, 3, 1), (3, 1)))  # the top row covered, a row that starts further left
def test_shapes_lay_out_their_left_and_upper_neighbours(shape):
    cells = shape.cells()
    position = {c: k for k, c in enumerate(cells)}
    assert shape._left == tuple(position.get((i, j - 1), -1) for i, j in cells)
    assert shape._up == tuple(position.get((i - 1, j), -1) for i, j in cells)


def test_equal_shapes_are_one_object():
    shape = SkewShape((3, 1, 0), [1])
    assert shape is SkewShape((3, 1), (1,))
    assert pickle.loads(pickle.dumps(shape)) is shape


def test_equal_shapes_built_apart_find_the_same_cached_values():
    # once the bounded table of _skew has dropped a shape, building it again
    # gives a second object; the caches keyed by shapes must find their
    # entries through it by comparing fields
    shape = SkewShape((4, 2, 1), (1,))
    order = middle_eastern(shape)
    families = lr_families(shape, (), order)
    _skew.cache_clear()
    again = SkewShape((4, 2, 1), (1,))
    assert again is not shape
    assert again == shape and hash(again) == hash(shape)
    assert middle_eastern(again) is order
    assert lr_families(again, (), middle_eastern(again)) is families


def test_skew_shape_rejects_bad_inner():
    with pytest.raises(ValueError):
        SkewShape((2,), (1, 1))


def test_empty_shape():
    s = SkewShape(())
    assert s.cells() == ()
    assert s.size == 0


def test_add_box():
    assert add_box((), 1) == (1,)
    assert add_box((2, 1), 2) == (2, 2)
    assert add_box((2, 2), 2) is None
    assert add_box((2, 1), 3) == (2, 1, 1)
    assert add_box((2, 1), 4) is None
    assert add_box((2, 1), 0) is None
    # add_box canonicalizes and checks its input as add_boxes does
    assert add_box((2, 0), 3) is None  # (2, 0, 1) is not a partition
    with pytest.raises(ValueError):
        add_box((1, 2), 1)
    with pytest.raises(ValueError):
        add_box((2.0,), 1)


def test_box_growth_refuses_letters_that_are_not_integers():
    # a float letter is not rounded to a row, and text is refused the same way
    for call in (
        lambda: add_boxes((), [1.0]),
        lambda: add_box((1,), 2.0),
        lambda: first_invalid_step((1,), [1.5]),
        lambda: add_boxes((1,), ["a"]),
    ):
        with pytest.raises(ValueError, match="expected integers"):
            call()


def test_add_boxes_examples():
    assert add_boxes((), (1, 1)) == (2,)
    assert add_boxes((), (2,)) is None
    assert add_boxes((5, 2, 1), (1, 2, 2, 3, 4, 4, 5, 5)) == (6, 4, 2, 2, 2)


def test_first_invalid_step():
    assert first_invalid_step((), (2,)) == 1
    assert first_invalid_step((), (1, 1, 3)) == 3
    assert first_invalid_step((), (1, 2, 2)) == 3
    assert first_invalid_step((), (1, 1, 2, 2)) is None


@given(sts.words(max_letter=4, max_len=8))
def test_add_boxes_agrees_with_first_invalid_step(word):
    grown = add_boxes((), word)
    step = first_invalid_step((), word)
    assert (grown is None) == (step is not None)
    if grown is not None:
        assert sum(grown) == len(word)


def test_partition_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22 partitions of 0..8
    assert [len(partitions_of(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert partitions_of(-1) == ()
    assert partitions_of(4, max_rows=2) == ((4,), (3, 1), (2, 2))
    assert partitions_of(4, max_cols=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(3, 0) == partitions_of(3, None, 0) == ()
    assert partitions_of(0, 0, 0) == ((),)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: partitions_of(3, -1), "max_rows"),
        (lambda: partitions_of(3, None, -1), "max_cols"),
        (lambda: partitions_of(-1, -1), "max_rows"),
        (lambda: partitions_up_to(2, -2), "max_rows"),
        (lambda: partitions_up_to(2, None, -1), "max_cols"),
        (lambda: partitions_of(3, 1.5), "expected integers"),
        pytest.param(lambda: partitions_of(2.5), "expected integers", id="partitions_of-size"),
        pytest.param(lambda: partitions_up_to(2.5), "expected integers", id="partitions_up_to-size"),
        pytest.param(lambda: hook_partitions_up_to(2.5, 1, 1), "expected integers", id="hook_partitions_up_to-size"),
        # the alphabet sizes are checked once, before any partition, so also when there is none
        pytest.param(lambda: hook_partitions_up_to(-1, 1.5, 1), "expected integers", id="hook_partitions_up_to-m"),
        pytest.param(lambda: hook_partitions_up_to(-1, 1, -1), "n must be nonnegative", id="hook_partitions_up_to-n"),
    ],
)
def test_partitions_refuse_a_negative_bound(call, named):
    # a negative bound on the rows or the columns is an error, not a missing bound
    with pytest.raises(ValueError, match=named):
        call()


@given(sts.partitions(max_size=7))
def test_partitions_of_are_valid(p):
    assert as_partition(p) == p


def test_partitions_up_to_ordering():
    ps = partitions_up_to(3)
    assert ps == ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))


def test_subdiagrams():
    assert subdiagrams((2, 1)) == ((), (1,), (1, 1), (2,), (2, 1))
    assert subdiagrams(()) == ((),)


def test_subdiagrams_match_the_filter_in_order():
    for z in partitions_up_to(10):
        assert list(subdiagrams(z)) == subdiagrams_oracle(z), z


@given(sts.partitions(max_size=5))
def test_subdiagrams_contained(z):
    subs = subdiagrams(z)
    assert len(set(subs)) == len(subs)
    for y in subs:
        assert partition_contains(z, y)


def test_hook_partitions_up_to():
    hooks = hook_partitions_up_to(4, 1, 1)
    assert (2, 2) not in hooks
    assert (3, 1) in hooks
    assert (2, 1, 1) in hooks
    assert (2, 2, 2) not in hook_partitions_up_to(6, 1, 1)
