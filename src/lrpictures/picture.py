"""Pictures: bijections between skew cell sets respecting both order structures.

A map is order-standard into a target order when componentwise-comparable
cells land on compatibly ranked images. A picture for a pair of admissible
orders is a bijection that is order-standard forward and whose inverse is
order-standard into the second order.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import Cell, SkewShape
from .reading import AdmissibleOrder, _neighbours, is_admissible


class Picture:
    """A bijection between the cells of two skew shapes."""

    __slots__ = ("domain", "codomain", "forward", "backward")

    def __init__(self, domain: SkewShape, codomain: SkewShape, forward):
        forward = {
            (int(a), int(b)): (int(c), int(d)) for (a, b), (c, d) in dict(forward).items()
        }
        if set(forward) != set(domain.cells()):
            raise ValueError("map keys differ from the domain cells")
        backward = {v: k for k, v in forward.items()}
        if len(backward) != len(forward) or set(backward) != set(codomain.cells()):
            raise ValueError("map values must cover the codomain cells exactly once")
        self.domain = domain
        self.codomain = codomain
        self.forward = forward
        self.backward = backward

    def __call__(self, cell: Cell) -> Cell:
        return self.forward[cell]

    def _key(self):
        return (self.domain, self.codomain, tuple(sorted(self.forward.items())))

    def __eq__(self, other):
        return isinstance(other, Picture) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        pairs = ", ".join(f"{u}->{v}" for u, v in sorted(self.forward.items()))
        return f"Picture({pairs})"


def omega(p: Picture) -> Picture:
    """Swap a picture for its inverse."""
    return Picture(p.codomain, p.domain, dict(p.backward))


def is_pa_standard(mapping, target: AdmissibleOrder) -> bool:
    """True when every componentwise-comparable pair of keys maps to images
    ranked compatibly in ``target``. The keys must form a skew shape: it is
    convex, so comparable keys are joined by right and down steps through
    keys, and as rank order is transitive, comparing each key with its right
    and lower neighbours suffices."""
    mapping = dict(mapping)
    rank = target._rank
    for (i, j), image in mapping.items():
        r = rank[image]
        for v in ((i, j + 1), (i + 1, j)):
            if v in mapping and r > rank[mapping[v]]:
                return False
    return True


def is_admissible_picture(p: Picture, a: AdmissibleOrder, a_prime: AdmissibleOrder) -> bool:
    """``a`` orders the codomain cells, ``a_prime`` the domain cells."""
    if not (is_admissible(a, p.codomain) and is_admissible(a_prime, p.domain)):
        raise ValueError("orders do not match the picture's shapes")
    return is_pa_standard(p.forward, a) and is_pa_standard(p.backward, a_prime)


@lru_cache(maxsize=1 << 12)
def _codomain_tables(a: AdmissibleOrder):
    """Over ``a``'s cells in row-major order: ranks in ``a``, bitsets ``preds`` of
    the left and upper neighbours, indices ``succs`` of the right and lower ones,
    bitsets ``rank_lt[r]`` of the cells ranked below r, and of the cells with neither."""
    cells = a._row_major
    index = {c: k for k, c in enumerate(cells)}
    rank = tuple(a._rank[c] for c in cells)
    preds = tuple(sum(1 << index[v] for v in ((i, j - 1), (i - 1, j)) if v in index) for i, j in cells)
    succs = tuple(tuple(index[v] for v in ((i, j + 1), (i + 1, j)) if v in index) for i, j in cells)
    rank_lt = [0]
    for c in a.cells:
        rank_lt.append(rank_lt[-1] | 1 << index[c])
    return rank, preds, succs, tuple(rank_lt), sum(1 << c for c, p in enumerate(preds) if not p)


def _bijections(a: AdmissibleOrder, a_prime: AdmissibleOrder) -> list[tuple[int, ...]]:
    """All bijections from ``a_prime``'s cells onto ``a``'s cells, both skew
    shapes, that respect both orders, found by a depth-first loop.

    Position i is the cell u = ``a_prime.cells[i]``; its image is an index c
    into ``a``'s cells in row-major order.  The loop reads tables built once
    per order (``_neighbours``, ``_codomain_tables``).  c survives when:

    * componentwise-comparable domain cells map to order-compatible ranks.
      The earlier cells already do, so the images of u's upper and right
      neighbours, which come first, bound rank[c]: an earlier v <= u lies in
      a higher row, so v <= up(u), and an earlier v >= u in a column further
      right, so v >= right(u), both neighbours being cells by convexity; and
    * every codomain cell componentwise below c is already an image, so the
      partial inverse respects assignment order; by convexity, that holds once
      c's left and upper neighbours are images, which an int bitset tracks.
    """
    n = len(a)
    if n == 0:
        return [()]
    up, right = _neighbours(a_prime)
    rank, preds, succs, rank_lt, roots = _codomain_tables(a)
    perm = [0] * n
    ranks = [0] * n  # rank[perm[j]]
    # at position i: candidates not tried yet, images so far, cells that qualify
    free = [0] * n
    placed = [0] * n
    ready = [0] * n
    ready[0] = free[0] = roots
    out = []
    i = 0
    while i >= 0:
        left = free[i]
        if not left:
            i -= 1
            continue
        bit = left & -left
        free[i] = left ^ bit
        c = bit.bit_length() - 1
        perm[i] = c
        if i == n - 1:
            out.append(tuple(perm))
            continue
        ranks[i] = rank[c]
        now = placed[i] | bit
        avail = ready[i] ^ bit
        for d in succs[c]:
            if not preds[d] & ~now:
                avail |= 1 << d
        i += 1
        placed[i] = now
        ready[i] = avail
        lo = ranks[up[i]] if up[i] >= 0 else -1
        hi = ranks[right[i]] if right[i] >= 0 else n
        free[i] = rank_lt[hi] & ~rank_lt[lo + 1] & avail
    return out


def enumerate_pictures(
    x: SkewShape, y: SkewShape, a: AdmissibleOrder, a_prime: AdmissibleOrder
) -> tuple[Picture, ...]:
    """All pictures from ``x`` to ``y`` for the order pair (``a`` on ``y``,
    ``a_prime`` on ``x``), sorted by the image sequence over the row-major
    domain cells.

    Images are assigned to domain cells along ``a_prime``, pruning as soon as
    either the partial forward map or the partial inverse violates
    order-standardness; both conditions are pairwise and monotone, so no
    completion of a pruned branch survives.  The search's tables are cached
    per order, so an order that recurs, as a sweep's orders do, is set up once.
    """
    if not is_admissible(a, y):
        raise ValueError("a is not an admissible order on the codomain")
    if not is_admissible(a_prime, x):
        raise ValueError("a_prime is not an admissible order on the domain")
    if x.size != y.size:
        return ()
    dom_cells = a_prime.cells
    cod_cells = y.cells()  # a's cells in row-major order, as just checked
    perms = _bijections(a, a_prime)
    position = [a_prime._rank[c] for c in x.cells()]
    perms.sort(key=lambda perm: [perm[i] for i in position])
    return tuple(
        Picture(x, y, {dom_cells[i]: cod_cells[c] for i, c in enumerate(perm)}) for perm in perms
    )
