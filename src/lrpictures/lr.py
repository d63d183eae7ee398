"""Littlewood-Richardson tableaux of both flavors and the maps between
tableaux and pictures.

The classical family for a triple (Y, W, Z) holds the semistandard fillings T
of shape W whose reading word, taken in an admissible order, grows Y into Z
one box at a time. The two-family (super) side holds the semistandard skew
fillings of Z/Y whose reading grows W.inner into W.outer (for a straight W:
content W and a lattice reading); one pruned search builds both, for W
straight or skew. It grows the start inside a ceiling partition and groups
its members by the partition each grows the start into; the public
functions cap it at Z, one triple at a time, and sweeps run it uncapped.
The maps below realize both as picture sets and carry one family to the
other; all of them are verified elementwise by brute-force enumeration in
the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from operator import lt
from types import MappingProxyType

from .diagram import (
    SkewShape, _add_boxes, _integer, _require_hooks, _shape_of, _skew, as_partition, partition_contains,
)
from .picture import Picture, is_admissible_picture, omega
from .reading import AdmissibleOrder, _on, far_eastern, middle_eastern
from .tableau import Tableau, _has_barred, _p_indices, _plain, content, is_semistandard


def _checked_order(shape: SkewShape, order: AdmissibleOrder | None) -> AdmissibleOrder:
    if order is None:
        return middle_eastern(shape)
    return _on(order, shape, "order is not admissible on the shape")


def is_glr_lr_tableau(t: Tableau, y, z, order: AdmissibleOrder | None = None) -> bool:
    """Membership in the classical family: semistandard, and the reading word
    grows ``y`` into ``z`` through valid diagrams at every step. A barred
    entry keeps ``t`` out of both LR families."""
    y, z = as_partition(y), as_partition(z)
    order = _checked_order(t.shape, order)
    if _has_barred(t) or not is_semistandard(t):
        return False
    return _add_boxes(y, order._reader(t.entries)) == z


def glr_lr_tableaux(
    w, y, z, order: AdmissibleOrder | None = None, max_entry: int | None = None
) -> tuple[Tableau, ...]:
    """All members of the classical family over shape ``w`` for the pair (y, z).

    Group z of the pruned search capped at z (``lr_families``). Every
    member has content z - y: it holds z_v - y_v entries v for each row v.
    So the family is empty, and nothing is searched, when |y| + |W| is not
    |z|; and ``max_entry`` keeps the whole family when no row of z/y past it
    holds a box, and empties it when one does.
    """
    shape = _shape_of(w)
    y, z = as_partition(y), as_partition(z)
    order = _checked_order(shape, order)
    if max_entry is not None:
        k = _integer(max_entry, "max_entry", 0)
        if sum(z[k:]) > sum(y[k:]):  # a box of z/y below row k needs an entry past k
            return ()
    return _family(shape, y, z, order)


def _family(shape: SkewShape, start, end, order: AdmissibleOrder) -> tuple[Tableau, ...]:
    """Group ``end`` of the search on (``shape``, ``start``) capped at ``end``;
    empty, and nothing searched, unless |start| + |shape| is |end|."""
    if sum(start) + shape.size != sum(end):
        return ()
    return lr_families(shape, start, order, end).get(end, ())


def is_glmn_lr_tableau(q: Tableau, y, w, z, order: AdmissibleOrder | None = None) -> bool:
    """Membership in the two-family LR set: shape Z/Y, classical semistandard
    condition, and a reading that grows W.inner into W.outer, which for a
    partition ``w`` means content ``w`` and a lattice reading word. Past the
    shape this is classical membership for (W.inner, W.outer)."""
    y, z = as_partition(y), as_partition(z)
    w = _shape_of(w)
    order = _checked_order(q.shape, order)
    if not partition_contains(z, y) or q.shape != _skew(z, y):
        return False
    return is_glr_lr_tableau(q, w.inner, w.outer, order)


def glmn_lr_tableaux(y, w, z, order: AdmissibleOrder | None = None) -> tuple[Tableau, ...]:
    """All two-family LR tableaux for the triple, or () on degenerate input.

    ``w`` is a partition or a skew shape. A member's reading grows W.inner
    into W.outer (for a partition ``w``: content ``w`` and a lattice word),
    so this is the classical search on Z/Y for that pair. It runs only when
    z contains y and |y| + |W| is |z|: a filling of Z/Y adds |Z/Y| boxes.
    """
    y, z = as_partition(y), as_partition(z)
    w = _shape_of(w)
    if not partition_contains(z, y):
        return ()
    shape = _skew(z, y)
    return _family(shape, w.inner, w.outer, _checked_order(shape, order))


def _lr_fillings(shape, start, ceiling, order):
    """The semistandard fillings of ``shape`` whose reading in ``order`` grows
    ``start`` inside ``ceiling``, as a read-only mapping from each partition
    some filling grows ``start`` into to those fillings, sorted by row-major
    entry vector. Entries name the rows that get a box, so they run up to
    ``len(ceiling)``, and no row grows past its row of ``ceiling``; a
    ``start`` outside ``ceiling`` has no fillings.

    A depth-first loop fills the cells along ``order``, which puts a cell's
    right and upper neighbours (``order._right``, ``order._up``) first: they
    bound its entry from above and below. Letter v is tried only if a box in
    row v keeps the grown diagram a partition inside ``ceiling``.
    """
    if not partition_contains(ceiling, start):
        return MappingProxyType({})
    top = len(ceiling)
    n = len(order)
    up, right, write = order._up, order._right, order._writer
    rows = list(start) + [0] * (top - len(start))
    e = [0] * n
    found = []
    k, v = 0, 1
    while True:
        if k == n:
            found.append((write(e), tuple(rows)))
        else:
            hi = e[right[k]] if right[k] >= 0 else top
            while v <= hi and (rows[v - 1] == ceiling[v - 1] or (v > 1 and rows[v - 2] == rows[v - 1])):
                v += 1
            if v <= hi:
                e[k] = v
                rows[v - 1] += 1
                k += 1
                v = e[up[k]] + 1 if k < n and up[k] >= 0 else 1
                continue
        k -= 1
        if k < 0:
            break
        v = e[k]
        rows[v - 1] -= 1
        v += 1
    found.sort()
    groups = {}
    for entries, end in found:
        groups.setdefault(end, []).append(Tableau._build(shape, entries))
    # an end is a partition padded to len(ceiling), so its zeros trail
    return MappingProxyType({end[: len(end) - end.count(0)]: tuple(ts) for end, ts in groups.items()})


# One cache for both families: a key they share names the same search. Both
# names stay, as perfbench/record_corpus.py clears the caches by name.
_glr_lr = _glmn_lr = lru_cache(maxsize=1 << 17)(_lr_fillings)


def lr_families(shape: SkewShape, start, order: AdmissibleOrder, ceiling=None) -> MappingProxyType:
    """Every LR family on ``shape`` from ``start`` whose end fits in ``ceiling``.

    Maps each partition Z inside ``ceiling`` that some filling's reading
    grows the canonical ``start`` into, under an ``order`` admissible on
    ``shape`` (not checked), to the members in the order ``_lr_fillings``
    sorts them. The classical family of (y, W, z) is group z on (W, y); the
    two-family set is group W.outer on (Z/Y, W.inner). With no ``ceiling``
    no row is capped: one search serves every triple on its (shape, start,
    order), as in a sweep. A ceiling of Z builds the one family of a triple,
    and one of r rows the families a decomposition check reads.
    """
    if ceiling is None:  # rows no growth fills
        ceiling = (sum(start) + shape.size + 1,) * (len(start) + shape.size)
    return _glmn_lr(shape, start, ceiling, order)


def _admissible_under_me_and_fe(p: Picture) -> bool:
    """``p`` is admissible under the ME pair of orders and under the FE pair."""
    return all(
        is_admissible_picture(p, make(p.codomain), make(p.domain)) for make in (middle_eastern, far_eastern)
    )


def picture_to_tableau(p: Picture, verify: bool = False) -> Tableau:
    """Entry of each domain cell = row coordinate of its image.

    Carries a picture into the LR family attached to its codomain: the result
    is a filling of the domain shape whose reading grows the codomain's inner
    shape into its outer shape. With ``verify``, the input must be an
    admissible picture and the output an LR member.
    """
    t = Tableau._build(p.domain, tuple([i for i, _ in p.images]))
    if verify:
        if not _admissible_under_me_and_fe(p):
            raise ValueError("picture_to_tableau input is not an admissible picture")
        if not is_glr_lr_tableau(t, p.codomain.inner, p.codomain.outer):
            raise ValueError("picture_to_tableau output is not an LR member for the codomain")
    return t


def tableau_to_picture(t: Tableau, base=(), verify: bool = False) -> Picture:
    """Send each cell to (its entry, base row length + same-entry cells to the right).

    ``base`` is the inner shape of the intended codomain; the outer shape is
    recovered by replaying the reading word. Inverse of picture_to_tableau on
    the LR families.
    """
    base, t = as_partition(base), _plain(t, "tableau_to_picture")
    outer = _add_boxes(base, middle_eastern(t.shape)._reader(t.entries))
    if outer is None:
        raise ValueError("reading word does not grow the base into a partition")
    # letter e's cells take distinct p-indices 1..(count of e), as
    # _p_indices refuses column repeats, so they fill row e of outer/base
    # exactly once: the map is a bijection by construction
    images = tuple(
        (e, (base[e - 1] if e <= len(base) else 0) + k)
        for (_, e), k in zip(t.items(), _p_indices(t, t.cells()))
    )
    p = Picture._build(t.shape, _skew(outer, base), images)
    if verify and not _admissible_under_me_and_fe(p):
        raise ValueError("tableau_to_picture output is not an admissible picture")
    return p


def companion_tableau(q: Tableau, verify: bool = False) -> Tableau:
    """The classical LR tableau paired with a two-family LR tableau.

    Built as the composite through pictures: ``tableau_to_picture`` over the
    empty base, ``omega``, then ``picture_to_tableau``. So the cell of ``q``
    at (i, j) with entry k puts the entry i at row k, column p(q; i, j) of the
    result. An input whose ME reading is not a lattice word is refused. With
    ``verify``, the input must be a two-family LR member, checked before the
    map runs, and the output a classical one.
    """
    if verify:
        # a barred entry has no content; a content that is no partition has no lattice reading
        c = None if _has_barred(q) else content(q)
        if c is None or any(map(lt, c, c[1:])) or not is_glmn_lr_tableau(q, q.shape.inner, c, q.shape.outer):
            raise ValueError("companion_tableau input is not a two-family LR member")
    t = picture_to_tableau(omega(tableau_to_picture(q)))
    if verify and not is_glr_lr_tableau(t, q.shape.inner, q.shape.outer):
        raise ValueError("companion_tableau output is not an LR member for the input's shape")
    return t


class _Value:
    """A result value. Its fields are the ``__slots__`` of its own class (so a
    result class is not subclassed further), which its ``__init__`` sets once
    with ``object.__setattr__``; nothing changes them after that. Equal to a
    value of the same class with equal fields and to nothing else, not even a
    tuple of them; hashed by its fields; pickled through the constructor;
    shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # rebuilt through the constructor, which alone may set fields
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__name__}({fields})"


class LRCoefficient(_Value):
    """Both counts for one triple: ``c`` classical tableaux and ``n_super``
    two-family tableaux."""

    __slots__ = ("c", "n_super")

    def __init__(self, c: int, n_super: int):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n_super", n_super)


def lr_coefficient(y, w, z, m: int, n: int, verify: bool = False) -> LRCoefficient:
    """Count both LR families for an (m, n)-hook triple.

    The counts agree (that equality is the point of the whole package); with
    ``verify`` they are asserted equal. A size mismatch gives (0, 0).
    """
    y, w, z = _require_hooks(m, n, y=y, w=w, z=z)
    c = len(glr_lr_tableaux(w, y, z))  # on a size mismatch both families are empty, unsearched
    n_super = len(glmn_lr_tableaux(y, w, z))
    if verify and c != n_super:
        raise ValueError(f"count mismatch for ({y}, {w}, {z}): {c} != {n_super}")
    return LRCoefficient(c, n_super)
