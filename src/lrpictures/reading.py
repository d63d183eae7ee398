"""Admissible cell orders and reading words.

A total order on a cell set is admissible when every cell weakly northeast of
another (row at most, column at least) comes first. The two classical examples
scan rows top to bottom reading each right to left, and columns right to left
reading each top to bottom. An ``AdmissibleOrder`` built from outside input is
checked once, when it is built; the constructors below make admissible
sequences and skip the checks. Every constructor calls ``_orders``, the one
bounded table keyed by the cell sequence, so equal orders are one object
while the table holds it, and the caches keyed by orders match them by
identity. ``is_admissible`` only asks whether a value is an order listing the
cells of a given shape, and ``_on`` is the one refusal of an order that does
not. When it is built, an order lays out all that the searches and the reading
word walk; no other module derives it from the cells. A seeded draw reads its
seed's table of 32-bit words, shared by every draw under that seed, and picks
as ``random.Random(seed).choice`` would; a seed and its negative draw alike.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import itemgetter

from .diagram import SkewShape, _grow, _integer, _integers
from .tableau import Tableau


class AdmissibleOrder:
    """An admissible order on a finite cell set, stored as the explicit sequence.

    ``AdmissibleOrder(cells)`` checks outside input, raising ValueError on
    cells that are not integer pairs, a repeat or an inadmissible sequence,
    then returns the entry for the sequence in ``_orders``, the bounded table
    that every constructor calls directly with a sequence it made admissible
    itself; the order is laid out (``_lay_out``) only on a miss. So equal
    orders are one object while that table holds them; one built after its
    entry was dropped is another object, equal and with the same hash. Per
    position, ``_up`` and ``_right`` hold the positions of the upper and
    right neighbours (-1 if absent). Two readers go both ways between
    row-major order and the order: ``_reader`` takes a row-major entry vector
    to the reading word, and ``_writer``, its inverse, takes a vector indexed
    by position to the row-major tuple. For the picture search, ``_succs``
    pairs each cell's right and lower neighbours with the position of that
    neighbour's other left or upper neighbour (-1 if none), ``_roots`` is the
    bitset of the cells with neither, and ``_pairs`` counts the upper plus the
    right neighbours."""

    __slots__ = ("cells", "_row_major", "_up", "_right", "_reader", "_writer", "_succs", "_roots", "_pairs", "_hash")

    def __new__(cls, cells):
        cells = tuple(_integers((i, j)) for i, j in cells)
        if len(set(cells)) != len(cells):
            raise ValueError("order repeats a cell")
        # (i, j) is out of order when a later cell lies weakly northeast of it
        rightmost: dict[int, int] = {}  # row -> largest column among the later cells
        for i, j in reversed(cells):
            for row, col in rightmost.items():
                if row <= i and col >= j:
                    raise ValueError(f"order is not admissible: {(row, col)} must come before {(i, j)}")
            rightmost[i] = j  # the later cells of row i all lie left of column j
        return _orders(cells)

    @classmethod
    def _lay_out(cls, cells: tuple) -> AdmissibleOrder:
        self = object.__new__(cls)
        self.cells = cells
        rank = {c: k for k, c in enumerate(cells)}
        self._row_major = tuple(sorted(cells))
        self._up = up = tuple([rank.get((i - 1, j), -1) for i, j in cells])
        self._right = right = tuple([rank.get((i, j + 1), -1) for i, j in cells])
        at = [rank[c] for c in self._row_major]  # per row-major cell, its position
        picks = [0] * len(at)  # per position, the row-major index of its cell
        for r, k in enumerate(at):
            picks[k] = r
        # itemgetter returns a bare item for one index; up to one cell, both directions keep the order
        self._reader = itemgetter(*picks) if len(picks) > 1 else tuple
        self._writer = itemgetter(*at) if len(at) > 1 else tuple
        succs = [[] for _ in cells]
        roots = 0
        for d, ((i, j), u) in enumerate(zip(cells, up)):
            v = rank.get((i, j - 1), -1)  # u lies above d, v left of it
            if u >= 0:
                succs[u].append((d, v))
            if v >= 0:
                succs[v].append((d, u))
            elif u < 0:
                roots |= 1 << d
        self._succs = tuple(map(tuple, succs))
        self._roots = roots
        self._pairs = 2 * len(cells) - up.count(-1) - right.count(-1)
        self._hash = hash(cells)  # orders key the search caches, so hash them once
        return self

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AdmissibleOrder) and self._hash == other._hash and self.cells == other.cells
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: a stored hash never crosses processes
        return AdmissibleOrder, (self.cells,)

    def __repr__(self):
        return f"AdmissibleOrder({list(self.cells)})"


@lru_cache(maxsize=1 << 12)
def _orders(cells: tuple) -> AdmissibleOrder:
    """The one table of orders: ``AdmissibleOrder._lay_out(cells)``, laid out
    once per cell sequence. Every constructor calls it."""
    return AdmissibleOrder._lay_out(cells)


@lru_cache(maxsize=1 << 12)  # the maps read it once per tableau, so it keeps its own table
def middle_eastern(shape: SkewShape) -> AdmissibleOrder:
    """Rows top to bottom, each row right to left."""
    return _orders(tuple(sorted(shape.cells(), key=lambda c: (c[0], -c[1]))))


def far_eastern(shape: SkewShape) -> AdmissibleOrder:  # no table: sweeps resolve it once per shape
    """Columns right to left, each column top to bottom."""
    return _orders(tuple(sorted(shape.cells(), key=lambda c: (-c[1], c[0]))))


def is_admissible(order, shape: SkewShape) -> bool:
    """True when ``order`` is an ``AdmissibleOrder`` listing exactly the cells
    of ``shape``, False for anything else; an order is admissible by
    construction."""
    return isinstance(order, AdmissibleOrder) and order._row_major == shape.cells()


def _on(order, shape: SkewShape, message: str) -> AdmissibleOrder:
    """``order`` if ``is_admissible(order, shape)``, else ValueError(message)."""
    if not is_admissible(order, shape):
        raise ValueError(message)
    return order


def _draw_seed(seed) -> int:
    """The seed a draw for ``seed`` reads: ``seed`` as ``_integer`` takes it,
    then its absolute value, as ``random.Random`` seeds an int by it. So a
    seed and its negative draw alike; ``sweeps.parse_order_spec`` names
    seeded specs by this."""
    return abs(_integer(seed))


@lru_cache(maxsize=256)
def _words(seed: int, count: int) -> tuple[int, ...]:
    """The first ``count`` 32-bit words of ``random.Random(seed)``, each one
    ``getrandbits(32)``; a longer table of a seed starts with every shorter one.
    Draws share the tables and never change them."""
    bits = random.Random(seed).getrandbits
    return tuple([bits(32) for _ in range(count)])


_BLOCK = 32  # the words a draw asks for first; it asks for twice as many when they run out


def random_admissible_order(shape: SkewShape, seed: int) -> AdmissibleOrder:
    """A random admissible order, drawn by repeatedly picking uniformly among
    the cells that no remaining cell is forced to precede. Deterministic in
    ``seed``, an integer (ValueError otherwise); a seed and its negative draw
    alike. The remaining cells of a row form a left segment; its last cell
    qualifies when it lies right of every remaining cell in the rows above.
    Each draw reads the seed's table of words (``_words``) from the start:
    a pick among k cells takes the top ``k.bit_length()`` bits of the next
    word until they fall below k, which is ``random.Random(seed).choice``'s
    pick, word for word. Each call draws again (a sweep reads its draws
    through its own table); the draw then finds its order in the table of
    orders."""
    seed = _draw_seed(seed)
    words = _words(seed, _BLOCK)
    t = 0  # the next word to read
    outer, inner = shape.outer, shape.inner
    lefts = inner + (0,) * (len(outer) - len(inner))  # per row, the last column left of the shape
    ends = list(outer)  # per row, the rightmost remaining column
    rows = [i for i, (left, end) in enumerate(zip(lefts, ends)) if end > left]  # the rows with cells left
    out = []
    for _ in range(shape.size):
        minimal = []  # the rows whose last remaining cell qualifies, top to bottom
        reach = 0  # the rightmost remaining column in the rows above
        for i in rows:
            if ends[i] > reach:
                minimal.append(i)
                reach = ends[i]
        k = r = len(minimal)
        shift = 32 - k.bit_length()
        while r >= k:
            if t == len(words):
                words = _words(seed, 2 * t)
            r = words[t] >> shift
            t += 1
        i = minimal[r]
        out.append((i + 1, ends[i]))
        ends[i] -= 1
        if ends[i] == lefts[i]:
            rows.remove(i)
    return _orders(tuple(out))


def reading(t: Tableau, order: AdmissibleOrder) -> tuple[int, ...]:
    """The entries of ``t`` listed in ``order``."""
    return _on(order, t.shape, "order does not cover the cells of the tableau")._reader(t.entries)


def _check_word(word) -> tuple[int, ...]:
    """``word`` as a tuple of ints; ValueError unless every letter is a positive integer."""
    word = _integers(word)
    if any(v < 1 for v in word):
        raise ValueError("letters must be positive")
    return word


def is_lattice_permutation(word) -> bool:
    """Every prefix holds at least as many letters i as i+1, for every i >= 1:
    that is, the word grows the empty diagram one box at a time."""
    return not _grow([], _check_word(word))
