"""Signature-rule word operators and brute-force decomposition checks.

Words are tuples of positive letters, read left to right as tensor factors.
For the letter pair (i, i+1), scan the word marking i as an opening sign and
i+1 as a closing one; a closing sign cancels the nearest open i on its left.
Lowering flips the leftmost surviving i to i+1, raising flips the rightmost
surviving i+1 back. Highest-weight words (no raising applies) are exactly the
lattice permutations, a fact the test suite checks three ways.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add

from .diagram import (
    Partition,
    SkewShape,
    _hook,
    _integer,
    _require_hooks,
    _skew,
    as_partition,
    partition_contains,
    partitions_of,
)
from .lr import _Value, lr_families
from .reading import _check_word, far_eastern, middle_eastern
from .tableau import _fillings, _iter_fillings, _letter_counts


def _signature(word, i):
    """Positions of the surviving open and closing signs for the pair (i, i+1)."""
    plus: list[int] = []
    minus: list[int] = []
    for pos, v in enumerate(word):
        if v == i:
            plus.append(pos)
        elif v == i + 1:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
    return plus, minus


def lower(word, i: int) -> tuple[int, ...] | None:
    """Flip the leftmost surviving i to i+1; None when every i is cancelled."""
    word, i = _check_word(word), _integer(i, "operator index", 1)
    plus, _ = _signature(word, i)
    if not plus:
        return None
    k = plus[0]
    return word[:k] + (i + 1,) + word[k + 1 :]


def raise_(word, i: int) -> tuple[int, ...] | None:
    """Flip the rightmost surviving i+1 to i; None when every i+1 is cancelled.

    Exact inverse of lower wherever either is defined.
    """
    word, i = _check_word(word), _integer(i, "operator index", 1)
    _, minus = _signature(word, i)
    if not minus:
        return None
    k = minus[-1]
    return word[:k] + (i,) + word[k + 1 :]


def is_highest_weight(word) -> bool:
    """No raising operator applies: every i+1 is cancelled, for every i."""
    word = _check_word(word)
    return not any(_signature(word, i)[1] for i in range(1, max(word, default=1)))


def weight(word) -> tuple[int, ...]:
    """Letter counts 1..max."""
    word = _check_word(word)
    return _letter_counts(word, max(word, default=0))


class DecompositionReport(_Value):
    """Outcome of a product-decomposition check: ``per_shape`` maps each
    summand shape to its multiplicity, ``lhs_card`` and ``rhs_card`` count the
    elements (or weight vectors) on the two sides, and ``passed`` is the
    verdict. Its ``per_shape`` dict leaves it unhashable."""

    __slots__ = ("lhs_card", "rhs_card", "per_shape", "passed")

    def __init__(self, lhs_card: int, rhs_card: int, per_shape: dict[Partition, int], passed: bool):
        object.__setattr__(self, "lhs_card", lhs_card)
        object.__setattr__(self, "rhs_card", rhs_card)
        object.__setattr__(self, "per_shape", per_shape)
        object.__setattr__(self, "passed", passed)

    def to_obj(self) -> dict:
        return {
            "lhs_card": self.lhs_card,
            "rhs_card": self.rhs_card,
            "per_shape": {",".join(map(str, z)): k for z, k in sorted(self.per_shape.items())},
            "pass": self.passed,
        }


def _reading_words(shape: SkewShape, max_entry: int, order) -> list[tuple[int, ...]]:
    return list(map(order._reader, _fillings(shape, max_entry, max_entry)))


def verify_decomposition_glr(y, w, r: int) -> DecompositionReport:
    """Check the classical product decomposition three ways.

    Route one, per reading direction: each shape z with at most ``r`` rows
    counts the fillings of ``w`` with entries up to ``r`` whose reading grows
    ``y`` into z, group z of ``lr_families(w, y, order, ceiling)`` under a
    ceiling of ``r`` rows, so the search grows no z it would not read.
    Route two: concatenate the readings of every pair of fillings of ``y`` and
    ``w`` and collect the weights of the words no raising operator touches.
    Passes when all three multisets agree and the total cardinalities match.
    """
    y, w, r = as_partition(y), as_partition(w), _integer(r, "r", 0)
    if len(y) > r or len(w) > r:
        raise ValueError("shapes must have at most r rows")
    sy, sw = _skew(y, ()), _skew(w, ())
    ceiling = (sum(y) + sw.size,) * r

    grown_me, grown_fe = (
        {z: len(ts) for z, ts in lr_families(sw, y, make(sw), ceiling).items()}
        for make in (middle_eastern, far_eastern)
    )

    s_words = _reading_words(sy, r, middle_eastern(sy))
    t_words = _reading_words(sw, r, middle_eastern(sw))
    pairs = (s + t for s in s_words for t in t_words)
    from_highest = Counter(weight(word) for word in pairs if is_highest_weight(word))

    lhs_card = len(s_words) * len(t_words)
    rhs_card = sum(mult * len(_fillings(_skew(shape, ()), r, r)) for shape, mult in grown_me.items())
    passed = grown_me == grown_fe == from_highest and lhs_card == rhs_card
    return DecompositionReport(lhs_card, rhs_card, grown_me, passed)


@lru_cache(maxsize=256)
def _glmn_weights(shape: SkewShape, m: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The weight multiset of the (m, n) fillings of ``shape``, as (weight, count)
    pairs, built once per shape: a decomposition sweep meets each shape again
    and again, as a factor and as a summand. A filling's letter m + k is the
    barred letter k, which the weight counts in place m + k, so the raw
    vectors of ``_iter_fillings`` are counted as they are."""
    return tuple(Counter(_letter_counts(e, m + n) for e in _iter_fillings(shape, m, m + n)).items())


def verify_decomposition_glmn(y, w, m: int, n: int) -> DecompositionReport:
    """Check the two-family product decomposition at the level of weights.

    The weight multiset of all pairs of fillings of ``y`` and ``w`` must match
    the union, over hook shapes ``z`` of the right size, of ``N`` copies of the
    weight multiset of the fillings of ``z``, where ``N`` counts the two-family
    LR tableaux of the triple: group ``w`` of the uncapped search on (Z/Y, ()),
    so one cached ``lr_families`` call per ``z`` that contains ``y`` serves
    every ``w``.
    """
    y, w = _require_hooks(m, n, y=y, w=w)
    ww = _glmn_weights(_skew(w, ()), m, n)
    lhs: Counter = Counter()
    for u, a in _glmn_weights(_skew(y, ()), m, n):
        for v, b in ww:
            lhs[tuple(map(add, u, v))] += a * b

    total = sum(y) + sum(w)
    rhs: Counter = Counter()
    per_shape: dict[Partition, int] = {}
    for z in partitions_of(total):
        if not (partition_contains(z, y) and _hook(z, m, n)):  # the LR set is empty unless y fits in z
            continue
        zy = _skew(z, y)
        mult = len(lr_families(zy, (), middle_eastern(zy)).get(w, ()))
        if mult == 0:
            continue
        per_shape[z] = mult
        for vec, k in _glmn_weights(_skew(z, ()), m, n):
            rhs[vec] += mult * k
    lhs_card = sum(lhs.values())
    rhs_card = sum(rhs.values())
    passed = lhs == rhs
    return DecompositionReport(lhs_card, rhs_card, per_shape, passed)


__all__ = [
    "DecompositionReport",
    "is_highest_weight",
    "lower",
    "raise_",
    "verify_decomposition_glr",
    "verify_decomposition_glmn",
    "weight",
]
