import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import (
    aitken_oracle,
    companion_tableau_via_pictures,
    conjugate_oracle,
    filling_of,
    glmn_lr_oracle,
    glr_lr_oracle,
    hook_content_oracle,
    jacobi_trudi_oracle,
    p_index_oracle,
    ssyt_oracle,
    syt_count_oracle,
)
from lrpictures.diagram import SkewShape, partition_contains, partitions_of, partitions_up_to, subdiagrams
from lrpictures.lr import (
    LRCoefficient,
    companion_tableau,
    glmn_lr_tableaux,
    glr_lr_tableaux,
    is_glmn_lr_tableau,
    is_glr_lr_tableau,
    lr_coefficient,
    lr_families,
    picture_to_tableau,
    tableau_to_picture,
)
from lrpictures.picture import Picture, enumerate_pictures, omega
from lrpictures.reading import far_eastern, middle_eastern, random_admissible_order
from lrpictures.sweeps import resolve_order, skew_w_triples, straight_triples
from lrpictures.tableau import Tableau, _p_indices, from_rows, p_index


# One triple worked end to end: y = (5,2,1), w = (3,2,2,1), z = (6,4,2,2,2).
# The three members of the two-family LR set and their companions.
Y, W, Z = (5, 2, 1), (3, 2, 2, 1), (6, 4, 2, 2, 2)
ZY = SkewShape(Z, Y)
FAMILY = {
    Tableau(ZY, ((1,), (1, 1), (2,), (2, 3), (3, 4))): from_rows(
        [[1, 2, 2], [3, 4], [4, 5], [5]]
    ),
    Tableau(ZY, ((1,), (1, 2), (1,), (2, 3), (3, 4))): from_rows(
        [[1, 2, 3], [2, 4], [4, 5], [5]]
    ),
    Tableau(ZY, ((1,), (1, 2), (2,), (1, 3), (3, 4))): from_rows(
        [[1, 2, 4], [2, 3], [4, 5], [5]]
    ),
}


def test_worked_family_enumeration():
    assert set(glmn_lr_tableaux(Y, W, Z)) == set(FAMILY)


def test_worked_family_companions():
    for q, t in FAMILY.items():
        assert companion_tableau(q, verify=True) == t
        assert companion_tableau_via_pictures(q) == t


def test_worked_family_membership_predicates():
    for q, t in FAMILY.items():
        assert is_glmn_lr_tableau(q, Y, W, Z)
        assert is_glr_lr_tableau(t, Y, Z)
    outsider = Tableau(ZY, ((1,), (1, 1), (2,), (2, 3), (4, 3)))
    assert not is_glmn_lr_tableau(outsider, Y, W, Z)


def test_worked_family_coefficient():
    got = lr_coefficient(Y, W, Z, 3, 3, verify=True)
    assert got.c == got.n_super == 3


def test_glr_lr_tableaux_counts():
    # values from the filter oracles in oracles.py; the first is also the
    # textbook count for the smallest triple with multiplicity two
    assert len(glr_lr_tableaux(SkewShape((2, 1)), (2, 1), (3, 2, 1))) == 2
    assert len(glr_lr_tableaux(SkewShape((1,)), (1,), (2,))) == 1
    assert len(glr_lr_tableaux(SkewShape((1,)), (1,), (1, 1))) == 1
    assert len(glr_lr_tableaux(SkewShape((2, 1)), (2,), (3, 2))) == 1
    assert len(glr_lr_tableaux(SkewShape((2, 1)), (2, 2), (3, 3, 1))) == 1
    assert len(glr_lr_tableaux(SkewShape((2, 2)), (3, 1), (4, 3, 1))) == 1
    assert len(glr_lr_tableaux(SkewShape((1, 1)), (2,), (2, 1, 1))) == 1
    assert glr_lr_tableaux(SkewShape((1,)), (1,), (3,)) == ()


def test_glmn_lr_tableaux_counts():
    assert len(glmn_lr_tableaux((2, 1), (2, 1), (3, 2, 1))) == 2
    assert len(glmn_lr_tableaux((2,), (2, 1), (3, 2))) == 1
    assert len(glmn_lr_tableaux((2, 2), (2, 1), (3, 3, 1))) == 1
    assert glmn_lr_tableaux((1,), (1,), (3,)) == ()
    assert glmn_lr_tableaux((2,), (1,), (1, 1, 1)) == ()
    assert len(glmn_lr_tableaux((), (), ())) == 1


@settings(max_examples=25)
@given(
    st.sampled_from(
        [
            ((2, 1), (2, 1), (3, 2, 1)),
            ((1,), (1,), (2,)),
            ((1,), (2, 1), (3, 1)),
            ((2,), (2, 2), (3, 2, 1)),
            ((1, 1), (2, 1), (3, 1, 1)),
            ((3,), (2, 1), (4, 2)),
        ]
    ),
    st.sampled_from(["ME", "FE", "4"]),
)
def test_both_families_match_their_oracles(triple, spec):
    y, w, z = triple

    def make(shape):
        if spec == "ME":
            return middle_eastern(shape)
        if spec == "FE":
            return far_eastern(shape)
        return random_admissible_order(shape, int(spec))

    sw = SkewShape(w)
    r = max(len(w), len(z))
    ours = {
        tuple(sorted(filling_of(t).items()))
        for t in glr_lr_tableaux(sw, y, z, order=make(sw), max_entry=r)
    }
    theirs = {
        tuple(sorted(f.items())) for f in glr_lr_oracle(sw, y, z, make(sw), r)
    }
    assert ours == theirs

    zy = SkewShape(z, y)
    ours2 = {
        tuple(sorted(filling_of(t).items()))
        for t in glmn_lr_tableaux(y, w, z, order=make(zy))
    }
    theirs2 = {tuple(sorted(f.items())) for f in glmn_lr_oracle(y, w, z, make(zy))}
    assert ours2 == theirs2


@settings(max_examples=25)
@given(sts.partitions(max_size=4), sts.partitions(max_size=4), st.sampled_from(["ME", "FE", "3"]))
def test_lr_families_come_in_lexicographic_order(y, w, spec):
    # whatever the reading order, members are listed by row-major entry vector
    def make(shape):
        if spec == "ME":
            return middle_eastern(shape)
        if spec == "FE":
            return far_eastern(shape)
        return random_admissible_order(shape, int(spec))

    def increasing(family):
        keys = [tuple(e for row in t.rows for e in row) for t in family]
        return all(a < b for a, b in zip(keys, keys[1:]))

    sw = SkewShape(w)
    for z in partitions_of(sum(y) + sum(w)):
        assert increasing(glr_lr_tableaux(sw, y, z, order=make(sw)))
        if partition_contains(z, y):
            assert increasing(glmn_lr_tableaux(y, w, z, order=make(SkewShape(z, y))))


def test_grouped_families_equal_the_capped_searches():
    # one search with no ceiling per (shape, start, order) holds, under each
    # end partition, the family the public functions build for it: the same
    # members in the same order, and no group for any other partition. Under
    # a ceiling of r rows, or of one end, the search keeps exactly the groups
    # whose end fits in the ceiling, member for member
    def check(shape, start, order, ends, capped):
        free = lr_families(shape, start, order)
        expected = {end: capped(end) for end in ends}
        assert free == {end: ts for end, ts in expected.items() if ts}
        k = sum(start) + shape.size
        for ceiling in [(k,) * r for r in (1, 2, 3)] + list(ends):
            fits = {end: ts for end, ts in free.items() if partition_contains(ceiling, end)}
            assert lr_families(shape, start, order, ceiling) == fits, (shape, start, ceiling)
        return len(expected)

    straight = {(y, w) for y, w, _ in straight_triples(7)}
    skew = skew_w_triples(2, 3, 4, 6)
    classical = [(SkewShape(w), y) for y, w in straight] + list({(w, y) for y, w, _ in skew})
    dual = {(y, z, ()) for y, _, z in straight_triples(7)} | {(y, z, w.inner) for y, w, z in skew}
    checked = 0
    for spec in ("ME", "FE", "seed:0"):
        for sw, y in classical:
            o = resolve_order(spec, sw)
            ends = partitions_of(sum(y) + sw.size)
            checked += check(sw, y, o, ends, lambda z: glr_lr_tableaux(sw, y, z, order=o))
        for y, z, inner in dual:
            zy = SkewShape(z, y)
            o = resolve_order(spec, zy)
            ends = [e for e in partitions_of(zy.size + sum(inner)) if partition_contains(e, inner)]
            checked += check(zy, inner, o, ends, lambda e: glmn_lr_tableaux(y, SkewShape(e, inner), z, order=o))
    assert checked == 37608


def test_both_families_are_conjugation_symmetric():
    # c^{z'}_{y',w'} = c^z_{y,w} for every straight triple with |z| <= 8, as
    # group z of (W, y) and as group w of (Z/Y, ()). Counts only: the
    # pictures of the conjugate triple are not the transposed pictures
    def classical(y, w, z):
        sw = SkewShape(w)
        return len(lr_families(sw, y, middle_eastern(sw)).get(z, ()))

    def dual(y, w, z):
        zy = SkewShape(z, y)
        return len(lr_families(zy, (), middle_eastern(zy)).get(w, ()))

    triples = straight_triples(8)
    nonzero = 0
    for y, w, z in triples:
        conjugates = tuple(map(conjugate_oracle, (y, w, z)))
        for count in (classical, dual):
            assert count(*conjugates) == count(y, w, z), (y, w, z, count.__name__)
        nonzero += classical(y, w, z) > 0
    assert (len(triples), nonzero) == (4136, 1330)


def test_membership_predicates_match_their_oracles():
    # every semistandard filling of Z/Y and of W, for every straight triple
    # with |z| <= 5 under three orders: True exactly for the oracles' members
    def tableau(shape, filling):
        return Tableau(shape, [[filling[c] for c in shape.cells()[a:b]] for a, b in shape._spans])

    checked = 0
    for y, w, z in straight_triples(5):
        zy, sw = SkewShape(z, y), SkewShape(w)
        for spec in ("ME", "FE", "seed:0"):
            a, b = resolve_order(spec, zy), resolve_order(spec, sw)
            members = {tableau(zy, f) for f in glmn_lr_oracle(y, w, z, a)}
            for f in ssyt_oracle(zy, max(len(w), len(z))):
                q = tableau(zy, f)
                assert is_glmn_lr_tableau(q, y, w, z, order=a) == (q in members), (q, y, w, z, spec)
                checked += 1
            members = {tableau(sw, f) for f in glr_lr_oracle(sw, y, z, b, len(z))}
            for f in ssyt_oracle(sw, len(z)):
                t = tableau(sw, f)
                assert is_glr_lr_tableau(t, y, z, order=b) == (t in members), (t, y, z, spec)
                checked += 1
    assert checked == 15927


def test_negative_max_entry_is_refused():
    with pytest.raises(ValueError, match="max_entry must be nonnegative"):
        glr_lr_tableaux(SkewShape((1,)), (1,), (2,), max_entry=-3)
    assert glr_lr_tableaux(SkewShape((1,)), (1,), (2,), max_entry=0) == ()


def test_max_entry_keeps_the_whole_family_or_nothing():
    # a member holds z_v - y_v entries v, so it has an entry past k exactly
    # when some row of z/y past row k holds a box; then no member survives
    for y, w, z in straight_triples(6):
        sw = SkewShape(w)
        family = glr_lr_tableaux(sw, y, z)
        padded = y + (0,) * (len(z) - len(y))
        for k in range(len(z) + 1):
            got = glr_lr_tableaux(sw, y, z, max_entry=k)
            assert got == tuple(t for t in family if max(t.entries, default=0) <= k)
            assert got == (() if any(a > b for a, b in zip(z[k:], padded[k:])) else family)


def test_order_must_be_admissible():
    from lrpictures import serialize
    from lrpictures.reading import AdmissibleOrder

    s = SkewShape((2, 2))
    # a row-major sequence is refused when the order is built
    row_major = [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(ValueError):
        AdmissibleOrder(row_major)
    with pytest.raises(ValueError):
        serialize.order_from_obj([list(c) for c in row_major])
    # an order on the wrong cell set is refused where it is used
    wrong = middle_eastern(SkewShape((2, 1)))
    with pytest.raises(ValueError):
        glr_lr_tableaux(s, (), (2, 2), order=wrong)
    with pytest.raises(ValueError):
        glmn_lr_tableaux((), (2, 2), (2, 2), order=wrong)
    # also when the sizes of the triple do not add up
    with pytest.raises(ValueError):
        glmn_lr_tableaux((), (1,), (2, 2), order=wrong)


def test_picture_to_tableau_on_the_small_example():
    dom = SkewShape((2, 2))
    cod = SkewShape((4, 3), (2, 1))
    p = Picture(
        dom, cod, {(1, 1): (1, 4), (1, 2): (1, 3), (2, 1): (2, 3), (2, 2): (2, 2)}
    )
    t = picture_to_tableau(p, verify=True)
    assert t == from_rows([[1, 1], [2, 2]])
    assert tableau_to_picture(t, (2, 1), verify=True) == p


def test_tableau_to_picture_empty_base():
    for q, t in FAMILY.items():
        p = tableau_to_picture(q, (), verify=True)
        assert picture_to_tableau(p) == q
        assert picture_to_tableau(omega(p), verify=True) == t


def test_tableau_to_picture_rejects_bad_reading():
    t = from_rows([[2, 2]])
    with pytest.raises(ValueError):
        tableau_to_picture(t, ())
    with pytest.raises(ValueError):
        tableau_to_picture(from_rows([[-1]]), ())


def test_maps_reject_column_repeats():
    t = from_rows([[1, 1], [1]])
    for convert in (tableau_to_picture, companion_tableau):
        with pytest.raises(ValueError, match="repeats in column 1"):
            convert(t)


def test_p_indices_match_the_definition_on_both_families():
    # every cell of every member of both LR families with |z| <= 6
    for y, w, z in straight_triples(6):
        members = glr_lr_tableaux(SkewShape(w), y, z) + glmn_lr_tableaux(y, w, z)
        for t in members:
            filling = filling_of(t)
            want = {cell: p_index_oracle(filling, cell) for cell in filling}
            assert dict(zip(t.cells(), _p_indices(t, t.cells()))) == want, t
            assert {cell: p_index(t, cell) for cell in filling} == want, t


def test_companion_rejects_non_lattice_input():
    # content (1, 1) but the reading word starts with 2
    q = Tableau(SkewShape((2,)), ((1, 2),))
    with pytest.raises(ValueError):
        companion_tableau(q, verify=True)


def test_roundtrips_across_random_orders():
    # the two map pairs invert each other on the worked triple, and the
    # enumerated sets line up elementwise under every order
    for seed in (0, 1, 2):
        order_zy = random_admissible_order(ZY, seed)
        members = glmn_lr_tableaux(Y, W, Z, order=order_zy)
        assert set(members) == set(FAMILY)
    sw = SkewShape(W)
    for seed in (0, 1, 2):
        order_w = random_admissible_order(sw, seed)
        classical = glr_lr_tableaux(sw, Y, Z, order=order_w)
        assert {companion_tableau(q) for q in FAMILY} == set(classical)


def test_lr_coefficient_validation():
    with pytest.raises(ValueError):
        lr_coefficient((3, 3, 3), (), (3, 3, 3), 2, 2)
    got = lr_coefficient((1,), (1,), (3,), 2, 2)
    assert (got.c, got.n_super) == (0, 0)


def test_lr_coefficient_is_a_value():
    got = lr_coefficient((5, 2, 1), (3, 2, 2, 1), (6, 4, 2, 2, 2), 3, 3)
    assert got == LRCoefficient(3, 3) == LRCoefficient(c=3, n_super=3)
    assert got != LRCoefficient(3, 2) and got != LRCoefficient(2, 3)
    assert got != (3, 3) and (3, 3) != got  # a value of its own, not a tuple
    assert hash(got) == hash(LRCoefficient(3, 3))
    assert len({got, LRCoefficient(3, 3), LRCoefficient(0, 0)}) == 2
    assert repr(got) == "LRCoefficient(c=3, n_super=3)"
    with pytest.raises(AttributeError):
        got.c = 4
    with pytest.raises(AttributeError):
        got.extra = 1
    with pytest.raises(AttributeError):
        del got.n_super
    assert (got.c, got.n_super) == (3, 3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(got, protocol))
        assert back == got and hash(back) == hash(got)


@settings(max_examples=20)
@given(sts.partitions(max_size=4), sts.partitions(max_size=4))
def test_coefficient_symmetry(y, w):
    # c stays the same when the two tensor factors swap
    total = sum(y) + sum(w)
    for z in partitions_of(total):
        a = lr_coefficient(y, w, z, 4, 4)
        b = lr_coefficient(w, y, z, 4, 4)
        assert a.c == b.c == a.n_super == b.n_super


ORACLE_ORDERS = ("ME", "FE", "seed:5")


def test_both_families_match_their_oracles_on_every_small_triple():
    # every straight triple and every skew w inside a 3x3 box, |z| <= 5, under
    # three orders; the library lists members in the oracle's (row-major
    # lexicographic) order. The dual family on Z/Y grows W.inner into W.outer:
    # for a straight w it is also the content-and-lattice set
    triples = straight_triples(5) + [t for t in skew_w_triples(3, 3, 5, 5) if t[1].inner]
    for y, w, z in triples:
        sw = w if isinstance(w, SkewShape) else SkewShape(w)
        zy = SkewShape(z, y)
        for spec in ORACLE_ORDERS:
            order = resolve_order(spec, sw)
            ours = [filling_of(t) for t in glr_lr_tableaux(sw, y, z, order=order)]
            assert ours == glr_lr_oracle(sw, y, z, order, len(z)), (y, w, z, spec)
            order = resolve_order(spec, zy)
            ours = [filling_of(q) for q in glmn_lr_tableaux(y, w, z, order=order)]
            assert ours == glr_lr_oracle(zy, sw.inner, sw.outer, order, len(sw.outer)), (y, w, z, spec)
            if not sw.inner:
                assert ours == glmn_lr_oracle(y, w, z, order), (y, w, z, spec)


def test_large_hook_triple():
    # |z| = 23: the filling universes hold about a million fillings, the
    # families five members each
    y, w, z = (2, 1, 1, 1, 1, 1, 1), (5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1, 1, 1)
    got = lr_coefficient(y, w, z, 3, 3, verify=True)
    assert got.c == got.n_super == 5
    members = glmn_lr_tableaux(y, w, z)
    assert all(is_glmn_lr_tableau(q, y, w, z) for q in members)
    assert {companion_tableau(q) for q in members} == set(glr_lr_tableaux(SkewShape(w), y, z))


def test_one_row_of_2000_cells():
    # deeper than Python's default recursion limit of 1000
    y, w, z = (1,), (2000,), (2000, 1)
    (t,) = glr_lr_tableaux(SkewShape(w), y, z)
    assert t.rows == ((1,) * 1999 + (2,),)
    (q,) = glmn_lr_tableaux(y, w, z)
    assert q.rows == ((1,) * 1999, (1,))
    got = lr_coefficient(y, w, z, 2, 0, verify=True)
    assert got.c == got.n_super == 1
    # the checks of both maps compare neighbouring cells only, so they stay
    # linear, and the picture search keeps no table of cell pairs per order
    p = tableau_to_picture(t, y, verify=True)
    assert picture_to_tableau(p, verify=True) == t
    x, zy = SkewShape(w), SkewShape(z, y)
    tracemalloc.start()
    try:
        pictures = enumerate_pictures(x, zy, middle_eastern(zy), middle_eastern(x))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pictures == (p,)
    assert held < 10 * 2**20


def test_glmn_membership_on_shapes_that_do_not_nest():
    # y is not inside z, so no tableau is a member; the classical predicate
    # already answers False here
    t = from_rows([[1]])
    assert not is_glmn_lr_tableau(t, (3,), (1,), (2,))
    assert not is_glr_lr_tableau(t, (3,), (2,))


def test_membership_of_a_tableau_with_a_barred_entry():
    # a barred letter keeps a tableau out of both families: False, as for
    # shapes that do not nest, not the ValueError of is_semistandard
    t = from_rows([[1, -1]])
    assert not is_glr_lr_tableau(t, (), (2,))
    assert not is_glmn_lr_tableau(t, (), (2,), (2,))
    assert not is_glmn_lr_tableau(from_rows([[-1]], inner=(1,)), (1,), (1,), (2,))


def test_determinant_oracles_count_fillings():
    # the oracles below against brute force: s_{z/y}(1^r) counts the
    # semistandard fillings with entries 1..r, f^{z/y} the standard ones
    for z in partitions_up_to(5):
        for y in subdiagrams(z):
            zy = SkewShape(z, y)
            for r in (1, 2, 3):
                assert jacobi_trudi_oracle(z, y, r) == len(ssyt_oracle(zy, r))
                if not y:
                    assert hook_content_oracle(z, r) == jacobi_trudi_oracle(z, y, r)
            standard = [f for f in ssyt_oracle(zy, zy.size) if len(set(f.values())) == zy.size]
            assert aitken_oracle(z, y) == len(standard)


def test_lr_families_satisfy_the_determinant_identities():
    # tableau-free checks of every c with |z| <= 10, as group w of the free
    # search on (Z/Y, ()): summed over w, c f^w gives Aitken's f^{z/y}, and
    # c s_w(1^r) gives Jacobi-Trudi's s_{z/y}(1^r). f^w cannot tell w from
    # its conjugate; s_w(1^r) can
    pairs = 0
    for z in partitions_up_to(10):
        for y in subdiagrams(z):
            zy = SkewShape(z, y)
            c = {w: len(ts) for w, ts in lr_families(zy, (), middle_eastern(zy)).items()}
            assert sum(k * syt_count_oracle(w) for w, k in c.items()) == aitken_oracle(z, y), (z, y)
            for r in (len(z) + 1, len(z) + 2):
                s = sum(k * hook_content_oracle(w, r) for w, k in c.items())
                assert s == jacobi_trudi_oracle(z, y, r), (z, y, r)
            pairs += 1
    assert pairs == 2888
