"""Semistandard tableaux over the classical and the two-family alphabets.

A tableau stores its entries as one tuple in the row-major order of its
shape's cells; its rows are sliced from that tuple when read. Entries are
nonzero ints: ``k`` is the plain letter k, ``-k`` is the barred letter. The
two-family alphabet is totally ordered as ``1 < ... < m < -1 < ... < -n``
(all barred letters above all plain ones).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .diagram import Cell, SkewShape, _integer, _integers, as_partition


def bar(k: int) -> int:
    """The barred letter over k, a positive integer."""
    return -_integer(k, "letter index", 1)


def entry_key(e: int):
    """Sort key realizing 1 < ... < m < bar(1) < ... < bar(n)."""
    if e == 0:
        raise ValueError("0 is not a tableau entry")
    return (1, -e) if e < 0 else (0, e)


def entry_str(e: int, unicode: bool = False) -> str:
    if e > 0:
        return str(e)
    return f"{-e}̄" if unicode else f"{-e}'"


class Tableau:
    """A filling of a skew shape, stored as ``entries``: one entry per cell,
    in the shape's row-major cell order.

    ``Tableau(shape, rows)`` checks: every entry must be a nonzero integer,
    and the rows must match the shape's row count and row widths; it then
    flattens the rows once. ``Tableau._build`` only builds, from a row-major
    entry tuple the library has laid out on the shape itself; the constructor
    ends in it, so every tableau stores the same fields: ``shape``,
    ``entries`` and its hash. ``rows``, the entries of each row, is sliced
    from ``entries`` each time it is read. Tableaux are values: nothing
    changes them after they are built.
    """

    __slots__ = ("shape", "entries", "_hash")

    def __new__(cls, shape: SkewShape, rows):
        rows = tuple(_integers(r) for r in rows)
        if len(rows) != len(shape.outer):
            raise ValueError("row count does not match the shape")
        for i, r in enumerate(rows, start=1):
            if len(r) != shape.outer[i - 1] - shape.inner_width(i):
                raise ValueError(f"row {i} has {len(r)} entries for shape {shape}")
            if any(e == 0 for e in r):
                raise ValueError("0 is not a tableau entry")
        return cls._build(shape, tuple(chain.from_iterable(rows)))

    @classmethod
    def _build(cls, shape: SkewShape, entries: tuple[int, ...]) -> Tableau:
        self = object.__new__(cls)
        self.shape = shape
        self.entries = entries
        self._hash = hash((shape, entries))
        return self

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        entries = self.entries
        return tuple([entries[a:b] for a, b in self.shape._spans])

    def entry(self, i: int, j: int) -> int:
        """The entry in cell (i, j); ValueError for a cell outside the shape."""
        if (i, j) not in self.shape:
            raise ValueError(f"{(i, j)} is not a cell of {self.shape}")
        return self.entries[self.shape._spans[i - 1][0] + j - self.shape.inner_width(i) - 1]

    def cells(self) -> tuple[Cell, ...]:
        return self.shape.cells()

    def items(self):
        """(cell, entry) pairs in row-major order."""
        return zip(self.shape.cells(), self.entries)

    @property
    def size(self) -> int:
        return self.shape.size

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Tableau)
            and self._hash == other._hash
            and self.entries == other.entries
            and self.shape == other.shape
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: a stored hash never crosses processes
        return Tableau, (self.shape, self.rows)

    def __repr__(self):
        body = ",".join("[" + ",".join(entry_str(e) for e in r) + "]" for r in self.rows)
        if self.shape.inner:
            return f"Tableau({self.shape.outer}/{self.shape.inner} {body})"
        return f"Tableau({body})"


def from_rows(rows, inner=()) -> Tableau:
    """Build a tableau from entry rows; the outer shape is inferred."""
    inner = as_partition(inner)
    rows = tuple(tuple(r) for r in rows)
    outer = tuple((inner[i] if i < len(inner) else 0) + len(r) for i, r in enumerate(rows))
    return Tableau(SkewShape(outer, inner), rows)


def _respects_bounds(t: Tableau, m: int) -> bool:
    """True when every entry of ``t``, the barred letter bar(k) read as m + k,
    meets the lower bound that ``_iter_fillings`` puts on it: letters up to m
    weak along rows and strict down columns, letters above m the other way."""
    e = [v if v > 0 else m - v for v in t.entries]
    left, up = t.shape._left, t.shape._up
    for k, v in enumerate(e):
        a, u = left[k], up[k]
        if a >= 0 and v < e[a] + (e[a] > m):
            return False
        if u >= 0 and v < e[u] + (e[u] <= m):
            return False
    return True


def is_semistandard(t: Tableau) -> bool:
    """Rows weakly increase, columns strictly increase. Entries must be plain letters."""
    if any(e < 0 for e in t.entries):
        raise ValueError("is_semistandard expects plain (unbarred) entries")
    return _respects_bounds(t, max(t.entries, default=0))


def is_glmn_semistandard(t: Tableau, m: int, n: int) -> bool:
    """Two-family condition: rows and columns weakly increase, plain letters are
    strict down columns, barred letters are strict along rows, and every entry
    lies in the alphabet 1..m, bar(1)..bar(n)."""
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    if any(e > m or -e > n for e in t.entries):
        return False
    return _respects_bounds(t, m)


def _letter_counts(letters, top: int) -> tuple[int, ...]:
    """How often each letter 1..top occurs in ``letters``, positive ints up to ``top``."""
    counts = [0] * (top + 1)
    for v in letters:
        counts[v] += 1
    return tuple(counts[1:])


def content(t: Tableau) -> tuple[int, ...]:
    """Counts of the letters 1..max, as a tuple. Entries must be plain letters."""
    if any(e < 0 for e in t.entries):
        raise ValueError("content expects plain (unbarred) entries")
    return _letter_counts(t.entries, max(t.entries, default=0))


def glmn_weight(t: Tableau, m: int, n: int) -> tuple[int, ...]:
    """Letter counts over the two-family alphabet, plain letters first."""
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    for e in t.entries:
        if e > m or -e > n:
            raise ValueError(f"entry {e} outside the ({m},{n}) alphabet")
    return _letter_counts([e if e > 0 else m - e for e in t.entries], m + n)


def p_index(t: Tableau, cell: Cell) -> int:
    """Number of cells holding the same entry as ``cell`` in its column or further right.

    Well-defined only when equal entries occupy distinct columns, which
    semistandardness of either flavor guarantees; repeats in a column are
    rejected loudly. ValueError for a cell outside the shape.
    """
    if cell not in t.shape:
        raise ValueError(f"{cell} is not a cell of {t.shape}")
    return _p_indices(t, (cell,))[0]


def _p_indices(t: Tableau, cells) -> list[int]:
    """The p-indices of ``cells``, from one right-to-left pass over the columns of ``t``."""
    found, repeats = {}, set()
    seen: dict[int, tuple] = {}  # entry -> (its cells so far, the column it was last in)
    for (i, j), e in sorted(t.items(), key=lambda item: -item[0][1]):
        k, last = seen.get(e, (0, 0))
        if last == j:
            repeats.add((e, j))
        seen[e] = (k + 1, j)
        found[i, j] = (e, k + 1)
    for cell in cells:
        e, _ = found[cell]
        if (e, cell[1]) in repeats:
            raise ValueError(f"entry {e} repeats in column {cell[1]}; the column index is ambiguous")
    return [found[cell][1] for cell in cells]


def _iter_fillings(shape: SkewShape, m: int, letters: int):
    """Yield the row-major entry vectors of every filling of ``shape`` over the
    alphabet 1..letters, in lexicographic order.

    Letters 1..m behave like unbarred entries (weak along rows, strict down
    columns), letters m+1..letters like barred ones (strict along rows, weak
    down columns); classical semistandard fillings are the m == letters case.
    A cell's lower bound comes from its left and upper neighbours, both
    earlier in row-major order.
    """
    left, up = shape._left, shape._up
    n = len(left)
    if n == 0:
        yield ()
        return
    e = [1] + [0] * (n - 1)
    k = 0
    while k >= 0:
        if e[k] > letters:
            k -= 1
            if k >= 0:
                e[k] += 1
            continue
        if k == n - 1:
            yield tuple(e)
            e[k] += 1
            continue
        k += 1
        lb = 1
        if left[k] >= 0:
            v = e[left[k]]
            lb = v + 1 if v > m else v
        if up[k] >= 0:
            v = e[up[k]]
            if v <= m:
                v += 1
            if v > lb:
                lb = v
        e[k] = lb


@lru_cache(maxsize=256)
def _fillings(shape: SkewShape, m: int, letters: int) -> tuple[tuple[int, ...], ...]:
    """Every entry vector of _iter_fillings, kept for callers that reread them."""
    return tuple(_iter_fillings(shape, m, letters))


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard fillings of ``shape`` with entries in 1..max_entry,
    in lexicographic order of the row-major entry vector."""
    max_entry = _integer(max_entry, "max_entry", 0)
    return tuple(Tableau._build(shape, e) for e in _iter_fillings(shape, max_entry, max_entry))


def enumerate_glmn(shape: SkewShape, m: int, n: int) -> tuple[Tableau, ...]:
    """All two-family semistandard fillings of ``shape`` over the (m, n) alphabet.

    For straight shapes this is nonempty exactly when the shape is an
    (m, n)-hook diagram.
    """
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    return tuple(
        Tableau._build(shape, tuple([e if e <= m else m - e for e in entries]))
        for entries in _iter_fillings(shape, m, m + n)
    )
