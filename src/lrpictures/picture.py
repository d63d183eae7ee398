"""Pictures: bijections between skew cell sets respecting both order structures.

A map is order-standard into a target order when componentwise-comparable
cells land on compatibly ranked images. A picture for a pair of admissible
orders is a bijection that is order-standard forward and whose inverse is
order-standard into the second order.
"""

from __future__ import annotations

from .diagram import Cell, SkewShape
from .reading import AdmissibleOrder, is_admissible


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


def _leq_p(u: Cell, v: Cell) -> bool:
    return u[0] <= v[0] and u[1] <= v[1]


def is_pa_standard(mapping, target: AdmissibleOrder) -> bool:
    """True when every componentwise-comparable pair of keys maps to images
    ranked compatibly in ``target``."""
    items = list(dict(mapping).items())
    for u, fu in items:
        for v, fv in items:
            if u != v and _leq_p(u, v) and target.rank(fu) > target.rank(fv):
                return False
    return True


def is_admissible_picture(p: Picture, a: AdmissibleOrder, a_prime: AdmissibleOrder) -> bool:
    """``a`` orders the codomain cells, ``a_prime`` the domain cells."""
    if not (is_admissible(a, p.codomain) and is_admissible(a_prime, p.domain)):
        raise ValueError("orders do not match the picture's shapes")
    return is_pa_standard(p.forward, a) and is_pa_standard(p.backward, a_prime)


def _bijections(dom_cells, cod_cells, rank) -> list[tuple[int, ...]]:
    """All bijections between two equal-size cell lists that respect both orders.

    Position i of an assignment is ``dom_cells[i]``; its image is an index into
    ``cod_cells``, whose ranks in the forward-side order are ``rank``.  A
    candidate image c at position i survives when, against every earlier
    assignment (j, c'):

    * componentwise-comparable domain cells map to order-compatible ranks,
      which confines rank[c] to a window set by the earlier images, and
    * c is not componentwise below c' (the partial inverse must respect
      assignment order), which an int bitset of blocked cells tracks.

    Both conditions are pairwise and only ever get harder, so pruning on them
    is exact.
    """
    n = len(cod_cells)
    # below[c]: bitset of the codomain cells componentwise below c, c included
    below = [sum(1 << d for d, v in enumerate(cod_cells) if _leq_p(v, u)) for u in cod_cells]
    # rank_lt[r]: bitset of the codomain cells ranked below r
    rank_lt = [sum(1 << c for c, r in enumerate(rank) if r < s) for s in range(n + 1)]
    # earlier positions whose domain cell lies below / above the one at i
    under = [[j for j in range(i) if _leq_p(dom_cells[j], dom_cells[i])] for i in range(n)]
    over = [[j for j in range(i) if _leq_p(dom_cells[i], dom_cells[j])] for i in range(n)]
    perm = [0] * n
    out = []

    def extend(i, blocked):
        if i == n:
            out.append(tuple(perm))
            return
        lo = max((rank[perm[j]] for j in under[i]), default=-1)
        hi = min((rank[perm[j]] for j in over[i]), default=n)
        free = rank_lt[hi] & ~rank_lt[lo + 1] & ~blocked
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            perm[i] = c
            extend(i + 1, blocked | below[c])

    extend(0, 0)
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
    completion of a pruned branch survives.
    """
    if not is_admissible(a, y):
        raise ValueError("a is not an admissible order on the codomain")
    if not is_admissible(a_prime, x):
        raise ValueError("a_prime is not an admissible order on the domain")
    if x.size != y.size:
        return ()
    dom_cells = a_prime.cells
    cod_cells = y.cells()
    perms = _bijections(dom_cells, cod_cells, [a.rank(c) for c in cod_cells])
    position = [dom_cells.index(c) for c in x.cells()]
    perms.sort(key=lambda perm: [perm[i] for i in position])
    return tuple(
        Picture(x, y, {dom_cells[i]: cod_cells[c] for i, c in enumerate(perm)}) for perm in perms
    )
