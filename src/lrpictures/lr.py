"""Littlewood-Richardson tableaux of both flavors and the maps between
tableaux and pictures.

The classical family for a triple (Y, W, Z) holds the semistandard fillings T
of shape W whose reading word, taken in an admissible order, grows Y into Z
one box at a time. The two-family (super) side holds the semistandard skew
fillings of Z/Y with content W whose reading word is a lattice permutation,
that is, whose reading grows the empty diagram into W; one pruned search
builds both. The maps below realize both as picture sets and carry one family
to the other; all of them are verified elementwise by brute-force enumeration
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import SkewShape, _add_boxes, as_partition, is_hook, partition_contains
from .picture import Picture, is_admissible_picture, omega
from .reading import (
    AdmissibleOrder,
    _neighbours,
    far_eastern,
    is_admissible,
    is_lattice_permutation,
    middle_eastern,
    reading,
)
from .tableau import Tableau, _p_indices, _tableau_from_entries, content, is_semistandard


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

    Built directly by the pruned search ``_lr_fillings``. Every entry of a
    member is a row of ``z``, so ``max_entry`` only matters below ``len(z)``,
    where it keeps the members whose entries stay at or under it.
    """
    shape = w if isinstance(w, SkewShape) else SkewShape(w)
    y, z = as_partition(y), as_partition(z)
    order = _checked_order(shape, order)
    top = len(z) if max_entry is None else max_entry
    if top < 0:
        raise ValueError("max_entry must be nonnegative")
    return _glr_lr(shape, y, z, order, min(top, len(z)))


def is_glmn_lr_tableau(q: Tableau, y, w, z, order: AdmissibleOrder | None = None) -> bool:
    """Membership in the two-family LR set: shape Z/Y, classical semistandard
    condition, content ``w``, and a lattice reading word."""
    y, w, z = as_partition(y), as_partition(w), as_partition(z)
    order = _checked_order(q.shape, order)
    if not partition_contains(z, y) or q.shape != SkewShape(z, y):
        return False
    if not is_semistandard(q) or content(q) != w:
        return False
    return is_lattice_permutation(reading(q, order))


def glmn_lr_tableaux(y, w, z, order: AdmissibleOrder | None = None) -> tuple[Tableau, ...]:
    """All two-family LR tableaux for the triple, or () on degenerate input.

    A reading word with content ``w`` is a lattice permutation exactly when
    it grows the empty diagram into ``w`` one box at a time, so this is the
    classical search on Z/Y for the pair ((), w).
    """
    y, w, z = as_partition(y), as_partition(w), as_partition(z)
    if not partition_contains(z, y):
        return ()
    shape = SkewShape(z, y)
    order = _checked_order(shape, order)
    return _glmn_lr(shape, (), w, order, len(w))


def _lr_fillings(shape, y, z, order, top) -> tuple[Tableau, ...]:
    """The semistandard fillings of ``shape`` with entries at most ``top`` (at
    most ``len(z)``) whose reading in ``order`` grows ``y`` into ``z``, sorted
    by row-major entry vector.

    A depth-first loop fills the cells along ``order``, which puts a cell's
    right and upper neighbours first: they bound its entry from above and
    below. Letter v is tried only if a box in row v keeps the grown diagram a
    partition inside ``z``.
    """
    if shape.size + sum(y) != sum(z) or not partition_contains(z, y):
        return ()
    n = len(order)
    up, right = _neighbours(order)
    row_major = [order._rank[c] for c in shape.cells()]
    rows = list(y) + [0] * (len(z) - len(y))
    e = [0] * n
    found = []
    k, v = 0, 1
    while True:
        if k == n:
            found.append(tuple(e[p] for p in row_major))
        else:
            hi = e[right[k]] if right[k] >= 0 else top
            while v <= hi and (rows[v - 1] == z[v - 1] or (v > 1 and rows[v - 2] == rows[v - 1])):
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
    return tuple(_tableau_from_entries(shape, entries) for entries in found)


# One cache for both families: a key they share names the same search. Both
# names stay, as perfbench/record_corpus.py clears the caches by name.
_glr_lr = _glmn_lr = lru_cache(maxsize=1 << 17)(_lr_fillings)


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
    for (cell, e), k in zip(t.items(), _p_indices(t, t.cells())):
        offset = base[e - 1] if e <= len(base) else 0
        forward[cell] = (e, offset + k)
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
    for (cell, e), k in zip(q.items(), _p_indices(q, q.cells())):
        target = (e, k)
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
    c = len(glr_lr_tableaux(SkewShape(w), y, z))
    n_super = len(glmn_lr_tableaux(y, w, z))
    if verify and c != n_super:
        raise ValueError(f"count mismatch for ({y}, {w}, {z}): {c} != {n_super}")
    return LRCoefficient(c, n_super)
