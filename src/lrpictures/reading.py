"""Admissible cell orders and reading words.

A total order on a cell set is admissible when every cell weakly northeast of
another (row at most, column at least) comes first. The two classical examples
scan rows top to bottom reading each right to left, and columns right to left
reading each top to bottom. An ``AdmissibleOrder`` is checked once, when it
is built (the constructors below are memoized), and ``is_admissible`` only
asks whether it lists the cells of a given shape.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import itemgetter

from .diagram import Cell, SkewShape
from .tableau import Tableau


class AdmissibleOrder:
    """An admissible order on a finite cell set, stored as the explicit sequence;
    building one from a sequence that is not admissible raises ValueError."""

    __slots__ = ("cells", "_rank", "_row_major")

    def __init__(self, cells):
        cells = tuple((int(i), int(j)) for i, j in cells)
        if len(set(cells)) != len(cells):
            raise ValueError("order repeats a cell")
        # (i, j) is out of order when a later cell lies weakly northeast of it
        rightmost: dict[int, int] = {}  # row -> largest column among the later cells
        for i, j in reversed(cells):
            for row, col in rightmost.items():
                if row <= i and col >= j:
                    raise ValueError(f"order is not admissible: {(row, col)} must come before {(i, j)}")
            rightmost[i] = j  # the later cells of row i all lie left of column j
        self.cells = cells
        self._rank = {c: k for k, c in enumerate(cells)}
        self._row_major = tuple(sorted(cells))

    def rank(self, cell: Cell) -> int:
        return self._rank[cell]

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __eq__(self, other):
        return isinstance(other, AdmissibleOrder) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"AdmissibleOrder({list(self.cells)})"


@lru_cache(maxsize=1 << 12)
def middle_eastern(shape: SkewShape) -> AdmissibleOrder:
    """Rows top to bottom, each row right to left."""
    return AdmissibleOrder(sorted(shape.cells(), key=lambda c: (c[0], -c[1])))


@lru_cache(maxsize=1 << 12)
def far_eastern(shape: SkewShape) -> AdmissibleOrder:
    """Columns right to left, each column top to bottom."""
    return AdmissibleOrder(sorted(shape.cells(), key=lambda c: (-c[1], c[0])))


def is_admissible(order: AdmissibleOrder, shape: SkewShape) -> bool:
    """True when ``order`` lists exactly the cells of ``shape``; the order
    itself is admissible by construction."""
    return order._row_major == shape.cells()


@lru_cache(maxsize=1 << 12)
def random_admissible_order(shape: SkewShape, seed: int) -> AdmissibleOrder:
    """A random admissible order, drawn by repeatedly picking uniformly among
    the cells that no remaining cell is forced to precede. Deterministic in
    ``seed``. The remaining cells of a row form a left segment; its last cell
    qualifies when it lies right of every remaining cell in the rows above."""
    rng = random.Random(seed)
    lefts = [shape.inner_width(i) for i in range(1, len(shape.outer) + 1)]
    ends = list(shape.outer)  # per row, the rightmost remaining column
    out = []
    for _ in range(shape.size):
        minimal = []
        reach = 0  # the rightmost remaining column in the rows above
        for i, (left, end) in enumerate(zip(lefts, ends), start=1):
            if end > left and end > reach:
                minimal.append((i, end))
                reach = end
        pick = rng.choice(minimal)
        ends[pick[0] - 1] -= 1
        out.append(pick)
    return AdmissibleOrder(out)


@lru_cache(maxsize=1 << 12)
def _neighbours(order: AdmissibleOrder) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per position of ``order``, the positions of its cell's upper and right
    neighbours (-1 if absent), which come first, lying weakly northeast."""
    rank = order._rank
    up = tuple(rank.get((i - 1, j), -1) for i, j in order.cells)
    right = tuple(rank.get((i, j + 1), -1) for i, j in order.cells)
    return up, right


def reading(t: Tableau, order: AdmissibleOrder) -> tuple[int, ...]:
    """The entries of ``t`` listed in ``order``."""
    if not is_admissible(order, t.shape):
        raise ValueError("order does not cover the cells of the tableau")
    return tuple(t.entry(i, j) for (i, j) in order.cells)


def _reader(shape: SkewShape, order: AdmissibleOrder):
    """A function taking a row-major entry vector of ``shape`` to its reading word in ``order``."""
    index = {c: k for k, c in enumerate(shape.cells())}
    picks = [index[c] for c in order.cells]
    if len(picks) < 2:  # itemgetter returns a bare item for one index
        return lambda entries: tuple(entries[k] for k in picks)
    return itemgetter(*picks)


def _check_word(word) -> tuple[int, ...]:
    """``word`` as a tuple of ints; ValueError unless every letter is positive."""
    word = tuple(int(v) for v in word)
    if any(v < 1 for v in word):
        raise ValueError("letters must be positive")
    return word


def is_lattice_permutation(word) -> bool:
    """Every prefix holds at least as many letters i as i+1, for every i >= 1."""
    word = _check_word(word)
    counts = [0] * (max(word, default=0) + 1)
    for v in word:
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True
