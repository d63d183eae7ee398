"""Young diagrams, skew shapes, and box addition.

Cells are 1-based ``(row, col)`` pairs; partitions are plain tuples of row
lengths, canonicalized so that no trailing zeros appear.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, le, lt

Cell = tuple[int, int]
Partition = tuple[int, ...]


def _integers(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints. Ints and int-likes (``operator.index``)
    pass unchanged; anything else, 2.7 or "1" say, raises ValueError rather
    than being truncated or parsed."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"expected integers, got {values!r}") from None


def _integer(value, name: str = "", low: int | None = None) -> int:
    """``value`` as an int, the one rule for a count, bound, index or seed: it
    passes as ``_integers`` lets it, and below ``low`` ValueError says "<name>
    must be nonnegative" for a floor of 0, else "<name> must be at least <low>"."""
    (value,) = _integers((value,))
    if low is not None and value < low:
        raise ValueError(f"{name} must be " + ("nonnegative" if low == 0 else f"at least {low}"))
    return value


def as_partition(rows) -> Partition:
    """Canonicalize ``rows`` to a weakly decreasing tuple without trailing zeros."""
    out = _integers(rows)
    while out and out[-1] == 0:
        out = out[:-1]
    # weakly decreasing down to a nonnegative last row means every row is
    # nonnegative; only a failing tuple pays for the loop that names the fault
    if out and (out[-1] < 0 or any(map(lt, out, out[1:]))):
        for i, r in enumerate(out):
            if r < 0:
                raise ValueError(f"negative row length in {rows!r}")
            if i and out[i - 1] < r:
                raise ValueError(f"row lengths must weakly decrease: {rows!r}")
    return out


def partition_contains(outer: Partition, inner: Partition) -> bool:
    """True when the diagram of ``inner`` sits inside the diagram of ``outer``."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def _hook(y: Partition, m: int, n: int) -> bool:
    """is_hook on a canonical partition and checked bounds."""
    return len(y) <= m or y[m] <= n


def is_hook(y, m: int, n: int) -> bool:
    """True when ``y`` has no box at position (m+1, n+1), i.e. row m+1 is at most n."""
    y = as_partition(y)
    return _hook(y, _integer(m, "m", 0), _integer(n, "n", 0))


def _require_hooks(m: int, n: int, **parts) -> list[Partition]:
    """Each of ``parts`` canonicalized, all of them before any is tested;
    ValueError naming the first that is not an (m, n)-hook diagram."""
    parts = {name: as_partition(p) for name, p in parts.items()}
    bounds = _integer(m, "m", 0), _integer(n, "n", 0)
    for name, p in parts.items():
        if not _hook(p, *bounds):
            raise ValueError(f"{name}={p} is not a ({m},{n})-hook diagram")
    return list(parts.values())


class SkewShape:
    """The cell set of ``outer`` with the cells of ``inner`` removed.

    ``SkewShape(outer, inner)`` checks: it canonicalizes both partitions with
    ``as_partition``, then ``_nested`` refuses an ``inner`` that does not fit
    in ``outer`` and returns ``_skew(outer, inner)``, so equal shapes are one
    object while the bounded table of ``_skew`` holds it. ``SkewShape._build``
    only builds, for pairs the library has made canonical and nested itself,
    so every shape stores the same fields: ``outer``, ``inner``, ``size``, its
    cell tuple, each row's ``(start, stop)`` span in that tuple, per cell the
    positions there of its left and upper neighbours (``_left``, ``_up``; -1
    if absent), and its hash. Shapes are values: nothing changes them after
    they are built.
    """

    __slots__ = ("outer", "inner", "size", "_row_major", "_spans", "_left", "_up", "_hash")

    def __new__(cls, outer, inner=()):
        return _nested(as_partition(outer), as_partition(inner))

    @classmethod
    def _build(cls, outer: Partition, inner: Partition = ()) -> SkewShape:
        self = object.__new__(cls)
        self.outer = outer
        self.inner = inner
        cells, spans, left, up = [], [], [], []
        shift, top = 0, outer[0] if outer else 0  # (i - 1, j) sits at shift + j when j > top
        for i, row in enumerate(outer, start=1):
            lo = inner[i - 1] if i <= len(inner) else 0
            start = len(cells)
            spans.append((start, start + row - lo))
            for j in range(lo + 1, row + 1):
                left.append(len(cells) - 1 if j > lo + 1 else -1)
                up.append(shift + j if j > top else -1)
                cells.append((i, j))
            shift, top = start - lo - 1, lo
        self.size = len(cells)
        self._row_major = tuple(cells)
        self._spans = tuple(spans)
        self._left = tuple(left)
        self._up = tuple(up)
        self._hash = hash((outer, inner))  # shapes key most caches, so hash them once
        return self

    def inner_width(self, i: int) -> int:
        """Boxes of row ``i`` occupied by the inner shape."""
        return self.inner[i - 1] if i <= len(self.inner) else 0

    def cells(self) -> tuple[Cell, ...]:
        """Present cells in row-major order."""
        return self._row_major

    def __contains__(self, cell) -> bool:
        try:
            i, j = _integers(cell)
        except ValueError:  # not a pair of integers
            return False
        if i < 1 or i > len(self.outer):
            return False
        return self.inner_width(i) < j <= self.outer[i - 1]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SkewShape)
            and self._hash == other._hash
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: a stored hash never crosses processes
        return SkewShape, (self.outer, self.inner)

    def __repr__(self):
        if not self.inner:
            return f"SkewShape({self.outer})"
        return f"SkewShape({self.outer}, {self.inner})"


@lru_cache(maxsize=1 << 14)
def _skew(outer: Partition, inner: Partition) -> SkewShape:
    """The one table of shapes: ``SkewShape._build(outer, inner)``, built once
    per pair. The constructor ends here, and so may callers whose pair is
    canonical and nested already, as the LR layer's Z/Y is."""
    return SkewShape._build(outer, inner)


def _nested(outer: Partition, inner: Partition) -> SkewShape:
    """``_skew(outer, inner)`` for canonical partitions, after the one
    containment test; ValueError when ``inner`` does not fit in ``outer``."""
    if not partition_contains(outer, inner):
        raise ValueError(f"inner shape {inner} not contained in outer {outer}")
    return _skew(outer, inner)


def _shape_of(w) -> SkewShape:
    """``w`` itself when it is a skew shape, else the straight shape of the
    partition ``w``: the one place a W given either way becomes a shape."""
    return w if isinstance(w, SkewShape) else _skew(as_partition(w), ())


def _grow(rows: list, word) -> int:
    """Append one box to row j of ``rows`` for each letter j of ``word``, in place.

    Returns the 1-based index of the first letter whose box breaks the
    weakly-decreasing row condition (``rows`` stops there), or 0.
    """
    for k, j in enumerate(word, start=1):
        n = len(rows)
        if j == n + 1:
            rows.append(1)
        elif 1 <= j <= n and (j == 1 or rows[j - 2] > rows[j - 1]):
            rows[j - 1] += 1
        else:
            return k
    return 0


def _add_boxes(y: Partition, word) -> Partition | None:
    """add_boxes on a partition that is already canonical."""
    rows = list(y)
    return None if _grow(rows, word) else tuple(rows)


def add_box(y, j: int) -> Partition | None:
    """Append one box to row ``j`` of ``y``; None when the result is not a partition."""
    return add_boxes(y, (j,))


def add_boxes(y, word) -> Partition | None:
    """Left fold of add_box over ``word``; None as soon as any step fails.
    A letter of 0 or below is a failed step; one that is not an integer (1.0,
    "1") raises ValueError."""
    return _add_boxes(as_partition(y), _integers(word))


def first_invalid_step(y, word) -> int | None:
    """1-based index of the first letter whose box addition fails, or None."""
    return _grow(list(as_partition(y)), _integers(word)) or None


@lru_cache(maxsize=1 << 10)
def partitions_of(n: int, max_rows: int | None = None, max_cols: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n``, in decreasing lexicographic order; ValueError
    for a negative bound on the rows or the columns, or for a size or bound
    that is not an integer."""
    n = _integer(n)
    rows = n if max_rows is None else _integer(max_rows, "max_rows", 0)
    cols = n if max_cols is None else _integer(max_cols, "max_cols", 0)
    if n < 0:
        return ()

    def rec(remaining, cap, left):
        if remaining == 0:
            yield ()
            return
        if left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, left - 1):
                yield (first,) + rest

    return tuple(rec(n, cols, rows))


def partitions_up_to(n: int, max_rows: int | None = None, max_cols: int | None = None) -> tuple[Partition, ...]:
    """All partitions of size 0..n, smaller sizes first."""
    return tuple(p for k in range(_integer(n) + 1) for p in partitions_of(k, max_rows, max_cols))


def subdiagrams(z) -> tuple[Partition, ...]:
    """All partitions whose diagram is contained in the diagram of ``z``, in
    ascending order. Each is generated once, depth first: row i runs from 0
    (the partition ends) to the smaller of z's row i and the row above."""
    z = as_partition(z)
    out = []
    stack = [()]
    while stack:
        rows = stack.pop()
        out.append(rows)
        i = len(rows)
        if i < len(z):
            top = min(z[i], rows[-1]) if rows else z[0]
            stack.extend(rows + (r,) for r in range(top, 0, -1))
    return tuple(out)


def hook_partitions_up_to(size: int, m: int, n: int) -> tuple[Partition, ...]:
    """All (m, n)-hook partitions of size 0..size."""
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    return tuple(p for p in partitions_up_to(size) if _hook(p, m, n))
