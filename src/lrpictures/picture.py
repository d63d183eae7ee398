"""Pictures: bijections between skew cell sets respecting both order structures.

A map is order-standard into a target order when componentwise-comparable
cells land on compatibly ranked images. A picture for a pair of admissible
orders is a bijection that is order-standard forward and whose inverse is
order-standard into the second order.
"""

from __future__ import annotations

from .diagram import SkewShape, _integers
from .reading import AdmissibleOrder, _on


class Picture:
    """A bijection between the cells of two skew shapes.

    ``Picture(domain, codomain, forward)`` checks: the cells must be integer
    pairs, the keys of ``forward`` exactly the domain cells, and its values
    the codomain cells, each once. ``Picture._build`` only builds, from an
    image tuple that the library made as a bijection itself; the constructor
    ends in it, so every picture stores the same fields: ``domain``,
    ``codomain``, ``images``, the image of each domain cell in row-major
    domain order, and a hash slot, filled on first use as most pictures are
    never hashed. ``forward`` and ``backward``, the map and its inverse as
    dicts, are built from ``images`` each time they are read. Pictures are
    values: nothing changes them after they are built.
    """

    __slots__ = ("domain", "codomain", "images", "_hash")

    def __new__(cls, domain: SkewShape, codomain: SkewShape, forward):
        forward = {_integers(u): _integers(v) for u, v in dict(forward).items()}
        if set(forward) != set(domain.cells()):
            raise ValueError("map keys differ from the domain cells")
        images = tuple([forward[u] for u in domain.cells()])
        if len(set(images)) != len(images) or set(images) != set(codomain.cells()):
            raise ValueError("map values must cover the codomain cells exactly once")
        return cls._build(domain, codomain, images)

    @classmethod
    def _build(cls, domain: SkewShape, codomain: SkewShape, images: tuple) -> Picture:
        self = object.__new__(cls)
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self._hash = None
        return self

    @property
    def forward(self) -> dict:
        return dict(zip(self.domain.cells(), self.images))

    @property
    def backward(self) -> dict:
        return dict(zip(self.images, self.domain.cells()))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Picture)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain, self.codomain, self.images))
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: a stored hash never crosses processes
        return Picture, (self.domain, self.codomain, self.forward)

    def __repr__(self):
        pairs = ", ".join(f"{u}->{v}" for u, v in zip(self.domain.cells(), self.images))
        return f"Picture({pairs})"


def omega(p: Picture) -> Picture:
    """Swap a picture for its inverse."""
    backward = p.backward
    return Picture._build(p.codomain, p.domain, tuple([backward[v] for v in p.codomain.cells()]))


def is_pa_standard(mapping, target: AdmissibleOrder) -> bool:
    """True when every componentwise-comparable pair of keys maps to images
    ranked compatibly in ``target``. The keys must form a skew shape: it is
    convex, so comparable keys are joined by right and down steps through
    keys, and as rank order is transitive, comparing each key with its right
    and lower neighbours suffices. ``target``'s cells are ranked here, per call."""
    mapping = dict(mapping)
    rank = {c: k for k, c in enumerate(target.cells)}
    for (i, j), image in mapping.items():
        r = rank[image]
        for v in ((i, j + 1), (i + 1, j)):
            if v in mapping and r > rank[mapping[v]]:
                return False
    return True


def is_admissible_picture(p: Picture, a: AdmissibleOrder, a_prime: AdmissibleOrder) -> bool:
    """``a`` orders the codomain cells, ``a_prime`` the domain cells."""
    _on(a, p.codomain, "orders do not match the picture's shapes")
    _on(a_prime, p.domain, "orders do not match the picture's shapes")
    return is_pa_standard(p.forward, a) and is_pa_standard(p.backward, a_prime)


def _bijections(a: AdmissibleOrder, a_prime: AdmissibleOrder, turned: bool) -> list[tuple]:
    """The image tuples of all bijections from ``a_prime``'s cells onto
    ``a``'s cells, both skew shapes, that respect both orders, listed as a
    depth-first loop finds them: each tuple holds the images of the domain
    cells in row-major order.

    The loop gives each position i, in turn, a rank c.  It runs from the
    domain, position i naming the cell u = ``a_prime.cells[i]`` and rank c
    ``a.cells[c]``, or, when ``turned``, from the codomain, where it finds
    the inverses: u = ``a.cells[i]`` and c names ``a_prime.cells[c]``.  The
    loop reads the positions' ``_up`` and ``_right`` and the ranks'
    ``_succs`` and ``_roots``, all laid out by the orders.  c survives when:

    * componentwise-comparable cells of the positions get order-compatible
      ranks.  The earlier cells already do, so the ranks of u's upper and
      right neighbours, which come first, bound c: an earlier v <= u lies in
      a higher row, so v <= up(u), and an earlier v >= u in a column further
      right, so v >= right(u), both neighbours being cells by convexity; so c
      lies above the rank of up(u) and below that of right(u); and
    * every rank cell componentwise below c is already taken, so the partial
      inverse respects assignment order; by convexity, that holds once c's
      left and upper neighbours are taken, which an int bitset tracks.

    The loop works out the window of position i + 1, ranks lo..hi-1, before
    it moves there, and tries the next rank at i instead when the window has
    no rank that qualifies; so it never steps onto a position with nothing
    to try.  The last position is forced: once n - 1 ranks are placed, one
    rank is left, and it qualifies, as every other rank, its left and upper
    neighbours among them, is taken.  So only that rank's place in the last
    window is tested, and the map is emitted at once, with no step down.
    With fewer than two cells there is nothing to choose: the one map is
    the only bijection, and both orders respect it.

    As it places c at i, the loop stores the codomain cell in the list of
    images by domain position, ``img[i] = a.cells[c]``, or, turned,
    ``img[c] = a.cells[i]``; a path from the root sets every slot, so at a
    leaf the list is whole and ``a_prime._writer`` puts it in row-major order.
    """
    n = len(a)
    if n < 2:  # none or one cell: the one map, whatever the orders
        return [a_prime._writer(a.cells)]
    cod, write = a.cells, a_prime._writer
    positions, ranks = (a, a_prime) if turned else (a_prime, a)
    up, right = positions._up, positions._right
    succs, roots = ranks._succs, ranks._roots
    perm = [0] * n
    img = [None] * n
    # at position i: candidates not tried yet, ranks taken so far, ranks that qualify
    free = [0] * n
    placed = [0] * n
    ready = [0] * n
    ready[0] = free[0] = roots
    out = []
    last, full = n - 1, (1 << n) - 1
    i = 0
    while i >= 0:
        left = free[i]
        if not left:
            i -= 1
            continue
        bit = left & -left
        free[i] = left ^ bit
        perm[i] = c = bit.bit_length() - 1
        if turned:
            img[c] = cod[i]
        else:
            img[i] = cod[c]
        now = placed[i] | bit
        j = i + 1
        lo = perm[up[j]] + 1 if up[j] >= 0 else 0  # j's window: ranks lo..hi-1
        hi = perm[right[j]] if right[j] >= 0 else n
        if j == last:  # one rank is left, and it qualifies, as every other rank is taken
            r = (full ^ now).bit_length() - 1
            if lo <= r < hi:
                if turned:
                    img[r] = cod[j]
                else:
                    img[j] = cod[r]
                out.append(write(img))
            continue
        if lo >= hi:
            continue
        avail = ready[i] ^ bit
        for d, other in succs[c]:
            if other < 0 or now >> other & 1:
                avail |= 1 << d
        window = avail & ((1 << hi) - (1 << lo))
        if window:
            i = j
            placed[i] = now
            ready[i] = avail
            free[i] = window
    return out


def enumerate_pictures(
    x: SkewShape, y: SkewShape, a: AdmissibleOrder, a_prime: AdmissibleOrder
) -> tuple[Picture, ...]:
    """All pictures from ``x`` to ``y`` for the order pair (``a`` on ``y``,
    ``a_prime`` on ``x``), sorted by the image sequence over the row-major
    domain cells.

    ``_bijections`` assigns ranks to the cells of one shape, pruning as soon
    as either the partial map or its partial inverse violates
    order-standardness; both conditions are pairwise and monotone, so no
    completion of a pruned branch survives.  A branch dies only at a cell
    whose upper or right neighbour narrows its rank window: some untaken rank
    always has its left and upper neighbours taken, so a window nothing
    narrows is never empty.  At the last cell one rank is left, and it
    qualifies, so that cell costs one test of its window and no step.  The
    other shape's neighbours bound no window.
    So the search runs from whichever shape has fewer neighbour pairs
    (``_pairs``), from ``x`` on a tie; run from ``y`` (turned), it finds the
    inverses of the pictures.  Onto an antichain, which has no pairs, that
    takes about a quarter of the tries.  Each order lays out all the search
    reads when it is built, so an order that recurs, as a sweep's orders do,
    is set up once, and the search derives nothing from the orders.

    From either side, the loop writes each map it finds straight into its
    picture's image tuple, the codomain cells over the row-major domain
    cells, so no result is turned round after the search.  The sort runs on
    those plain tuples, as cells order as their row-major indices, and the
    pictures are built last; no dict is made per picture.
    """
    _on(a, y, "a is not an admissible order on the codomain")
    _on(a_prime, x, "a_prime is not an admissible order on the domain")
    if x.size != y.size:
        return ()
    found = _bijections(a, a_prime, a._pairs < a_prime._pairs)
    found.sort()  # cell tuples order as their row-major indices
    build = Picture._build
    return tuple([build(x, y, images) for images in found])
