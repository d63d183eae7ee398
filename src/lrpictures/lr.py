"""Littlewood-Richardson tableaux of both flavors and the maps between
tableaux and pictures.

The classical family for a triple (Y, W, Z) holds the semistandard fillings T
of shape W whose reading word, taken in an admissible order, grows Y into Z
one box at a time. The two-family (super) side holds the semistandard skew
fillings of Z/Y with content W whose reading word is a lattice permutation.
The maps below realize both as picture sets and carry one family to the
other; all of them are verified elementwise by brute-force enumeration in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import SkewShape, _add_boxes, as_partition, is_hook, partition_contains
from .picture import Picture, is_admissible_picture, omega
from .reading import (
    AdmissibleOrder,
    _is_lattice,
    _reader,
    far_eastern,
    is_admissible,
    is_lattice_permutation,
    middle_eastern,
    reading,
)
from .tableau import (
    Tableau,
    _iter_fillings,
    _tableau_from_entries,
    content,
    is_semistandard,
    p_index,
)


def _checked_order(shape: SkewShape, order: AdmissibleOrder | None) -> AdmissibleOrder:
    if order is None:
        return middle_eastern(shape)
    if not is_admissible(order, shape):
        raise ValueError("order is not admissible on the shape")
    return order


def is_glr_lr_tableau(t: Tableau, y, z, order: AdmissibleOrder | None = None) -> bool:
    """Membership in the classical family: semistandard, and the reading word
    grows ``y`` into ``z`` through valid diagrams at every step."""
    y, z = as_partition(y), as_partition(z)
    order = _checked_order(t.shape, order)
    if not is_semistandard(t):
        return False
    return _add_boxes(y, reading(t, order)) == z


def glr_lr_tableaux(
    w, y, z, order: AdmissibleOrder | None = None, max_entry: int | None = None
) -> tuple[Tableau, ...]:
    """All members of the classical family over shape ``w`` for the pair (y, z).

    Brute force by construction: stream every semistandard filling with
    entries up to ``max_entry`` (defaulting to the larger row count of ``w``
    and ``z``, which is always enough) and keep those whose reading drives the
    box additions from ``y`` exactly to ``z``.
    """
    shape = w if isinstance(w, SkewShape) else SkewShape(w)
    y, z = as_partition(y), as_partition(z)
    order = _checked_order(shape, order)
    if max_entry is None:
        max_entry = max(len(shape.outer), len(z))
    if max_entry < 0:
        raise ValueError("max_entry must be nonnegative")
    return _glr_lr(shape, y, z, order, max_entry)


@lru_cache(maxsize=1 << 16)
def _glr_lr(shape, y, z, order, max_entry) -> tuple[Tableau, ...]:
    if shape.size + sum(y) != sum(z):
        return ()
    read = _reader(shape, order)
    return tuple(
        _tableau_from_entries(shape, e)
        for e in _iter_fillings(shape, max_entry, max_entry)
        if _add_boxes(y, read(e)) == z
    )


def is_glmn_lr_tableau(q: Tableau, y, w, z, order: AdmissibleOrder | None = None) -> bool:
    """Membership in the two-family LR set: shape Z/Y, classical semistandard
    condition, content ``w``, and a lattice reading word."""
    y, w, z = as_partition(y), as_partition(w), as_partition(z)
    order = _checked_order(q.shape, order)
    if q.shape != SkewShape(z, y):
        return False
    if not is_semistandard(q):
        return False
    if content(q) != w:
        return False
    return is_lattice_permutation(reading(q, order))


def glmn_lr_tableaux(y, w, z, order: AdmissibleOrder | None = None) -> tuple[Tableau, ...]:
    """All two-family LR tableaux for the triple, or () on degenerate input."""
    y, w, z = as_partition(y), as_partition(w), as_partition(z)
    if not partition_contains(z, y):
        return ()
    shape = SkewShape(z, y)
    order = _checked_order(shape, order)
    if sum(y) + sum(w) != sum(z):
        return ()
    return _glmn_lr(y, w, shape, order)


@lru_cache(maxsize=1 << 16)
def _glmn_lr(y, w, shape, order) -> tuple[Tableau, ...]:
    alphabet = range(1, len(w) + 1)
    read = _reader(shape, order)
    return tuple(
        _tableau_from_entries(shape, e)
        for e in _iter_fillings(shape, len(w), len(w))
        if tuple(map(e.count, alphabet)) == w and _is_lattice(read(e))
    )


def picture_to_tableau(p: Picture, verify: bool = False) -> Tableau:
    """Entry of each domain cell = row coordinate of its image.

    Carries a picture into the LR family attached to its codomain: the result
    is a filling of the domain shape whose reading grows the codomain's inner
    shape into its outer shape.
    """
    rows = []
    for i in range(1, len(p.domain.outer) + 1):
        lo = p.domain.inner_width(i)
        rows.append(tuple(p.forward[(i, j)][0] for j in range(lo + 1, p.domain.outer[i - 1] + 1)))
    t = Tableau(p.domain, tuple(rows))
    if verify:
        if not is_glr_lr_tableau(t, p.codomain.inner, p.codomain.outer):
            raise ValueError("picture_to_tableau output is not an LR member for the codomain")
    return t


def tableau_to_picture(t: Tableau, base=(), verify: bool = False) -> Picture:
    """Send each cell to (its entry, base row length + same-entry cells to the right).

    ``base`` is the inner shape of the intended codomain; the outer shape is
    recovered by replaying the reading word. Inverse of picture_to_tableau on
    the LR families.
    """
    base = as_partition(base)
    word = reading(t, middle_eastern(t.shape))
    if any(v < 1 for v in word):
        raise ValueError("tableau_to_picture expects plain (unbarred) entries")
    outer = _add_boxes(base, word)
    if outer is None:
        raise ValueError("reading word does not grow the base into a partition")
    codomain = SkewShape(outer, base)
    forward = {}
    for cell, e in t.items():
        offset = base[e - 1] if e <= len(base) else 0
        forward[cell] = (e, offset + p_index(t, cell))
    p = Picture(t.shape, codomain, forward)
    if verify:
        for make in (middle_eastern, far_eastern):
            if not is_admissible_picture(p, make(codomain), make(t.shape)):
                raise ValueError("tableau_to_picture output is not an admissible picture")
    return p


def companion_tableau(q: Tableau, verify: bool = False) -> Tableau:
    """The classical LR tableau paired with a two-family LR tableau.

    The cell of ``q`` at (i, j) with entry k contributes the entry i at row k,
    column p(q; i, j) of the result. Equals picture_to_tableau of the swapped
    tableau_to_picture over the empty base.
    """
    w = content(q)
    grid = {}
    for cell, e in q.items():
        target = (e, p_index(q, cell))
        if target in grid:
            raise ValueError(f"two cells of the input land on {target}")
        grid[target] = cell[0]
    shape = SkewShape(w)
    if set(grid) != set(shape.cells()):
        raise ValueError("input content is not a partition shape; not an LR tableau")
    rows = tuple(
        tuple(grid[(i, j)] for j in range(1, shape.outer[i - 1] + 1))
        for i in range(1, len(shape.outer) + 1)
    )
    t = Tableau(shape, rows)
    if verify:
        if not is_glr_lr_tableau(t, q.shape.inner, q.shape.outer):
            raise ValueError("companion_tableau output is not an LR member for the input's shape")
    return t


def companion_tableau_via_pictures(q: Tableau) -> Tableau:
    """The same map spelled as the composite swap: tableau -> picture -> swap -> tableau."""
    return picture_to_tableau(omega(tableau_to_picture(q, base=())))


@dataclass(frozen=True)
class LRCoefficient:
    """Both counts for one triple: classical tableaux and two-family tableaux."""

    c: int
    n_super: int


def lr_coefficient(y, w, z, m: int, n: int, verify: bool = False) -> LRCoefficient:
    """Count both LR families for an (m, n)-hook triple.

    The counts agree (that equality is the point of the whole package); with
    ``verify`` they are asserted equal. A size mismatch gives (0, 0).
    """
    y, w, z = as_partition(y), as_partition(w), as_partition(z)
    for name, p in (("y", y), ("w", w), ("z", z)):
        if not is_hook(p, m, n):
            raise ValueError(f"{name}={p} is not a ({m},{n})-hook diagram")
    if sum(y) + sum(w) != sum(z):
        return LRCoefficient(0, 0)
    r = max(len(w), len(z))
    c = len(glr_lr_tableaux(SkewShape(w), y, z, max_entry=r))
    n_super = len(glmn_lr_tableaux(y, w, z))
    if verify and c != n_super:
        raise ValueError(f"count mismatch for ({y}, {w}, {z}): {c} != {n_super}")
    return LRCoefficient(c, n_super)
