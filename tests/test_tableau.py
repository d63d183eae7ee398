from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import filling_of, glmn_oracle, hook_fillings_oracle, ssyt_oracle
from lrpictures.diagram import SkewShape, partitions_up_to, subdiagrams
from lrpictures.tableau import (
    Tableau,
    bar,
    content,
    entry_str,
    enumerate_glmn,
    enumerate_ssyt,
    from_rows,
    glmn_weight,
    is_glmn_semistandard,
    is_semistandard,
    p_index,
)


def test_tableau_rejects_non_integral_entries():
    for entry in (1.5, 1.0, "1"):
        with pytest.raises(ValueError):
            Tableau(SkewShape((1,)), ((entry,),))
    with pytest.raises(ValueError):
        from_rows([[1, 2.5]])


def test_bar_and_entry_key():
    assert bar(2) == -2
    with pytest.raises(ValueError, match="letter index must be at least 1"):
        bar(0)
    # a letter index is an integer, not negated as it comes
    with pytest.raises(ValueError, match="expected integers"):
        bar(1.5)


def test_entry_str():
    assert entry_str(3) == "3"
    assert entry_str(-2) == "2'"
    assert entry_str(-2, unicode=True) == "2̄"


def test_tableau_construction_and_access():
    t = from_rows([[1, 2], [2]], inner=(1,))
    assert t.shape == SkewShape((3, 1), (1,))
    assert t.entry(1, 2) == 1
    assert t.entry(2, 1) == 2
    assert list(t.items()) == [((1, 2), 1), ((1, 3), 2), ((2, 1), 2)]
    assert t.size == 3


def test_entry_rejects_cells_outside_the_shape():
    # a negative index would wrap to the row's end; (1, 1) lies in the inner shape
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]]).entry(1, 0)
    t = from_rows([[1], [2]], inner=(1,))
    assert t.shape == SkewShape((2, 1), (1,))
    with pytest.raises(ValueError):
        t.entry(1, 1)
    # a cell is a pair of integers: one that is not lies outside every shape
    t = from_rows([[1, 2], [2]])
    for i, j in ((1, 1.0), (1.5, 1), ("1", 1)):
        with pytest.raises(ValueError, match="is not a cell of"):
            t.entry(i, j)


def test_tableau_rejects_bad_rows():
    with pytest.raises(ValueError):
        Tableau(SkewShape((2,)), ((1,),))
    with pytest.raises(ValueError):
        Tableau(SkewShape((2,)), ((1, 0),))
    with pytest.raises(ValueError):
        Tableau(SkewShape((2,)), ((1, 1), (1,)))


def test_is_semistandard():
    assert is_semistandard(from_rows([[1, 1, 2], [2, 3]]))
    assert not is_semistandard(from_rows([[2, 1]]))
    assert not is_semistandard(from_rows([[1], [1]]))
    # skew: equal entries in successive rows are fine in different columns
    assert is_semistandard(Tableau(SkewShape((2, 1), (1,)), ((1,), (1,))))
    with pytest.raises(ValueError):
        is_semistandard(from_rows([[bar(1)]]))


def test_is_glmn_semistandard():
    # barred letters repeat down columns, not along rows
    assert is_glmn_semistandard(from_rows([[bar(1)], [bar(1)]]), 1, 1)
    assert not is_glmn_semistandard(from_rows([[bar(1), bar(1)]]), 1, 1)
    # plain letters repeat along rows, not down columns
    assert is_glmn_semistandard(from_rows([[1, 1]]), 1, 1)
    assert not is_glmn_semistandard(from_rows([[1], [1]]), 1, 1)
    # mixed row: plain then barred, weakly increasing in the two-family order
    assert is_glmn_semistandard(from_rows([[1, bar(1)]]), 1, 1)
    assert not is_glmn_semistandard(from_rows([[bar(1), 1]]), 1, 1)
    # alphabet bounds
    assert not is_glmn_semistandard(from_rows([[2]]), 1, 1)
    assert not is_glmn_semistandard(from_rows([[bar(2)]]), 1, 1)


def test_semistandard_predicates_match_their_oracles():
    # every filling of every skew shape in a 3x3 box with at most 5 cells, over
    # the (m, n) alphabet and the letters m+1 and bar(n+1) just outside it
    box = subdiagrams((3, 3, 3))
    shapes = [SkewShape(outer, inner) for outer in box for inner in subdiagrams(outer)]
    shapes = [s for s in shapes if s.size <= 5]
    checked = 0
    for m, n in ((2, 1), (1, 2), (0, 2), (2, 0), (1, 1)):
        letters = list(range(1, m + 2)) + [bar(k) for k in range(1, n + 2)]
        for shape in shapes:
            cells = shape.cells()
            ssyt = {tuple(f[c] for c in cells) for f in ssyt_oracle(shape, m + 1)}
            glmn = {tuple(f[c] for c in cells) for f in glmn_oracle(shape, m, n)}
            for entries in product(letters, repeat=shape.size):
                t = Tableau(shape, [entries[a:b] for a, b in shape._spans])
                assert is_glmn_semistandard(t, m, n) == (entries in glmn), (t, m, n)
                if min(entries, default=1) < 0:
                    with pytest.raises(ValueError):
                        is_semistandard(t)
                else:
                    assert is_semistandard(t) == (entries in ssyt), t
                checked += 1
    assert checked == 215574


def test_content_and_weight():
    t = from_rows([[1, 1, 2], [2, 3]])
    assert content(t) == (2, 2, 1)
    with pytest.raises(ValueError):
        content(from_rows([[bar(1)]]))
    assert glmn_weight(from_rows([[1, bar(2)]]), 1, 2) == (1, 0, 1)
    with pytest.raises(ValueError):
        glmn_weight(from_rows([[3]]), 1, 1)
    # a plain letter above m is outside the alphabet too, not a barred letter
    with pytest.raises(ValueError, match=r"entry 2 outside the \(1,1\) alphabet"):
        glmn_weight(from_rows([[1, 2]]), 1, 1)
    with pytest.raises(ValueError, match=r"entry 3 outside the \(2,2\) alphabet"):
        glmn_weight(from_rows([[3]]), 2, 2)
    # a negative alphabet size is refused, not read as a shorter weight
    with pytest.raises(ValueError):
        glmn_weight(from_rows([[1]]), -1, 2)


def test_alphabet_sizes_must_be_nonnegative_integers():
    # neither truncated (2.5 -> 2) nor let through into the entries (1.5 - 2 == -0.5)
    with pytest.raises(ValueError):
        enumerate_glmn(SkewShape((2,)), 1.5, 1)
    with pytest.raises(ValueError):
        enumerate_ssyt(SkewShape((2,)), 2.5)
    with pytest.raises(ValueError):
        enumerate_glmn(SkewShape((2,)), 1, -1)
    with pytest.raises(ValueError):
        is_glmn_semistandard(from_rows([[1]]), 1.5, 1)


def test_p_index_on_worked_example():
    # shape (6,4,2,2,2)/(5,2,1), the first member of the worked family below
    q = Tableau(
        SkewShape((6, 4, 2, 2, 2), (5, 2, 1)),
        ((1,), (1, 1), (2,), (2, 3), (3, 4)),
    )
    expected = {
        (1, 6): 1,
        (2, 3): 3,
        (2, 4): 2,
        (3, 2): 1,
        (4, 1): 2,
        (4, 2): 1,
        (5, 1): 2,
        (5, 2): 1,
    }
    for cell, want in expected.items():
        assert p_index(q, cell) == want


def test_p_index_rejects_cells_outside_the_shape():
    t = from_rows([[1, 2], [3]])
    for cell in ((5, 5), (2, 2), (0, 1), (1.0, 1), (1, "1"), (1, 1, 1), 5):
        with pytest.raises(ValueError):
            p_index(t, cell)


def test_p_index_rejects_column_repeats():
    t = Tableau(SkewShape((1, 1)), ((1,), (1,)))
    with pytest.raises(ValueError):
        p_index(t, (1, 1))
    # a repeat in another column leaves a cell's index defined
    assert p_index(from_rows([[1, 1], [1]]), (1, 2)) == 1
    # equal entries in distinct columns stay unambiguous
    t2 = Tableau(SkewShape((2, 1), (1,)), ((1,), (1,)))
    assert p_index(t2, (2, 1)) == 2
    assert p_index(t2, (1, 2)) == 1


def test_enumerate_ssyt_counts():
    # counts from the product-filter search in oracles.py
    assert len(enumerate_ssyt(SkewShape((3, 2)), 3)) == 15
    assert len(enumerate_ssyt(SkewShape((2, 2, 1), (1,)), 3)) == 9
    assert len(enumerate_ssyt(SkewShape((3, 1)), 2)) == 3
    assert len(enumerate_ssyt(SkewShape((2, 2), (1,)), 2)) == 2
    assert len(enumerate_ssyt(SkewShape((4,)), 3)) == 15
    assert len(enumerate_ssyt(SkewShape((1, 1, 1)), 3)) == 1
    assert len(enumerate_ssyt(SkewShape((2, 2)), 2)) == 1
    assert len(enumerate_ssyt(SkewShape((1, 1, 1)), 2)) == 0
    assert len(enumerate_ssyt(SkewShape(()), 0)) == 1
    assert len(enumerate_ssyt(SkewShape((1,)), 0)) == 0


def test_enumerate_glmn_counts():
    # counts from the product-filter search in oracles.py
    assert len(enumerate_glmn(SkewShape((2, 2)), 1, 1)) == 0
    assert len(enumerate_glmn(SkewShape((3, 1)), 2, 1)) == 12
    assert len(enumerate_glmn(SkewShape((2, 1)), 1, 1)) == 2
    assert len(enumerate_glmn(SkewShape((2, 2, 2)), 2, 2)) == 16
    assert len(enumerate_glmn(SkewShape((3, 3), (1,)), 1, 1)) == 0
    assert len(enumerate_glmn(SkewShape((1,)), 1, 1)) == 2
    assert len(enumerate_glmn(SkewShape((1, 1)), 1, 1)) == 2


def test_enumerate_glmn_degenerate():
    assert len(enumerate_glmn(SkewShape(()), 0, 0)) == 1
    assert enumerate_glmn(SkewShape((1,)), 0, 0) == ()


@settings(max_examples=40)
@given(sts.skew_shapes(max_size=5), st.integers(0, 3))
def test_ssyt_matches_oracle(shape, max_entry):
    ours = {tuple(sorted(filling_of(t).items())) for t in enumerate_ssyt(shape, max_entry)}
    theirs = {tuple(sorted(f.items())) for f in ssyt_oracle(shape, max_entry)}
    assert ours == theirs


@settings(max_examples=40)
@given(sts.skew_shapes(max_size=4), st.integers(0, 2), st.integers(0, 2))
def test_glmn_matches_oracle(shape, m, n):
    ours = {tuple(sorted(filling_of(t).items())) for t in enumerate_glmn(shape, m, n)}
    theirs = {tuple(sorted(f.items())) for f in glmn_oracle(shape, m, n)}
    assert ours == theirs


def test_hook_fillings_oracle_counts_the_glmn_fillings():
    # Berele and Regev's sum, anchored to the brute-force filter where that
    # runs (|z| <= 5), then checked against the library's enumerator for
    # every (z, y) with |z| <= 7 on four alphabets
    pairs = [(z, y) for z in partitions_up_to(7) for y in subdiagrams(z)]
    checked = 0
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for z, y in pairs:
            count = hook_fillings_oracle(z, y, m, n)
            if sum(z) <= 5:
                assert count == len(glmn_oracle(SkewShape(z, y), m, n)), (z, y, m, n)
            assert count == len(enumerate_glmn(SkewShape(z, y), m, n)), (z, y, m, n)
            checked += 1
    assert checked == 1796


@given(sts.skew_shapes(max_size=5))
def test_classical_is_glmn_with_empty_bar_alphabet(shape):
    assert enumerate_ssyt(shape, 3) == enumerate_glmn(shape, 3, 0)


@settings(max_examples=30)
@given(sts.skew_shapes(max_size=5), st.integers(1, 2), st.integers(1, 2))
def test_glmn_members_pass_the_predicate(shape, m, n):
    for t in enumerate_glmn(shape, m, n):
        assert is_glmn_semistandard(t, m, n)


@settings(max_examples=30)
@given(sts.skew_shapes(max_size=5), st.integers(0, 2), st.integers(0, 2))
def test_fillings_come_in_lexicographic_order(shape, m, n):
    # row-major entry vectors, compared under the alphabet order
    # 1 < ... < m < bar(1) < ... < bar(n): plain letters first, each kind by index
    def key(e):
        return (e < 0, abs(e))

    for family in (enumerate_ssyt(shape, m + n), enumerate_glmn(shape, m, n)):
        keys = [tuple(key(e) for row in t.rows for e in row) for t in family]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_glmn_straight_nonempty_iff_hook():
    # fillings of a straight shape exist exactly when the shape fits the hook
    from lrpictures.diagram import is_hook, partitions_up_to

    for p in partitions_up_to(5):
        got = len(enumerate_glmn(SkewShape(p), 1, 1)) > 0
        assert got == is_hook(p, 1, 1)
