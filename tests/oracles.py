"""Slow, independent reimplementations used to cross-check the library.

Everything here is written straight from the defining conditions as
filter-the-universe searches, sharing no logic with the package enumerators
(only the plain data containers), so agreement between the two routes is
evidence, not tautology. The counting formulas (hook length, hook content,
the Aitken and Jacobi-Trudi determinants, and Berele and Regev's sum for the
(m|n) fillings) list nothing, so they reach sizes no filter can.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from lrpictures.diagram import SkewShape


def _neighbors(shape, cell):
    i, j = cell
    left = (i, j - 1) if (i, j - 1) in shape else None
    up = (i - 1, j) if (i - 1, j) in shape else None
    return left, up


def ssyt_oracle(shape, max_entry):
    """All cell -> entry dicts with weakly increasing rows and strict columns."""
    cells = shape.cells()
    out = []
    for combo in product(range(1, max_entry + 1), repeat=len(cells)):
        filling = dict(zip(cells, combo))
        ok = True
        for cell, e in filling.items():
            left, up = _neighbors(shape, cell)
            if left is not None and filling[left] > e:
                ok = False
            if up is not None and filling[up] >= e:
                ok = False
        if ok:
            out.append(filling)
    return out


def glmn_oracle(shape, m, n):
    """Two-alphabet fillings: rows and columns weakly increase, plain letters
    are strict down columns, barred letters (negative ints) strict along rows."""
    alphabet = list(range(1, m + 1)) + [-k for k in range(1, n + 1)]
    pos = {a: k for k, a in enumerate(alphabet)}
    cells = shape.cells()
    out = []
    for combo in product(alphabet, repeat=len(cells)):
        filling = dict(zip(cells, combo))
        ok = True
        for cell, e in filling.items():
            left, up = _neighbors(shape, cell)
            if left is not None:
                a = filling[left]
                if pos[a] > pos[e] or (a == e and e < 0):
                    ok = False
            if up is not None:
                a = filling[up]
                if pos[a] > pos[e] or (a == e and e > 0):
                    ok = False
        if ok:
            out.append(filling)
    return out


def admissible_oracle(cells):
    """No cell comes after a different cell weakly northeast of it (row at
    most, column at least), checked over every pair."""
    cells = list(cells)
    for a, u in enumerate(cells):
        for v in cells[a + 1 :]:
            if v != u and v[0] <= u[0] and v[1] >= u[1]:
                return False
    return True


def random_order_oracle(shape, seed):
    """A random admissible order as a cell tuple, drawn by testing every
    remaining pair for a cell that must come first and picking uniformly
    among the cells nothing precedes. Deterministic in ``seed``."""
    rng = random.Random(seed)
    remaining = set(shape.cells())
    out = []
    while remaining:
        minimal = sorted(
            u for u in remaining
            if not any(v != u and v[0] <= u[0] and v[1] >= u[1] for v in remaining)
        )
        pick = rng.choice(minimal)
        remaining.remove(pick)
        out.append(pick)
    return tuple(out)


def p_index_oracle(filling, cell):
    """Cells holding ``cell``'s entry in its column or further right."""
    e = filling[cell]
    return sum(1 for (_, b), v in filling.items() if v == e and b >= cell[1])


def standard_oracle(mapping, rank):
    """Componentwise-comparable keys must map to compatibly ranked values."""
    for u, fu in mapping.items():
        for v, fv in mapping.items():
            if u != v and u[0] <= v[0] and u[1] <= v[1] and rank[fu] > rank[fv]:
                return False
    return True


def pictures_oracle(x, y, a, a_prime):
    """Filter every bijection between the cell sets by both conditions."""
    dom = x.cells()
    cod = y.cells()
    if len(dom) != len(cod):
        return []
    rank_a = {c: k for k, c in enumerate(a.cells)}
    rank_ap = {c: k for k, c in enumerate(a_prime.cells)}
    found = []
    for images in permutations(cod):
        f = dict(zip(dom, images))
        inv = {v: k for k, v in f.items()}
        if standard_oracle(f, rank_a) and standard_oracle(inv, rank_ap):
            found.append(f)
    return found


def syt_count_oracle(shape):
    """f^λ, the number of standard tableaux of the partition ``shape`` (a tuple
    of row lengths), by the hook-length formula n! / prod of the hook lengths."""
    rows = [r for r in shape if r]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    hooks = 1
    for i, r in enumerate(rows):
        for j in range(r):
            hooks *= (r - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(rows)) // hooks


def hook_content_oracle(shape, r):
    """s_λ(1^r), the semistandard fillings of the partition ``shape`` with
    entries 1..r, by the hook-content formula: the product over the cells
    (i, j) of (r + j - i) / (hook length)."""
    rows = [x for x in shape if x]
    cols = [sum(1 for x in rows if x > j) for j in range(rows[0])] if rows else []
    out = Fraction(1)
    for i, x in enumerate(rows):
        for j in range(x):
            out *= Fraction(r + j - i, (x - j - 1) + (cols[j] - i - 1) + 1)
    return out


def _det(matrix):
    """The determinant of a square matrix, by exact Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, len(m)):
                    m[i][j] -= f * m[k][j]
    return det


def _skew_determinant(z, y, entry):
    """det[entry(z_i - y_j - i + j)] over the rows of ``z``, ``y`` padded with 0s."""
    y = tuple(y) + (0,) * (len(z) - len(y))
    return _det([[entry(z[i] - y[j] - i + j) for j in range(len(z))] for i in range(len(z))])


def aitken_oracle(z, y):
    """f^{z/y}, the standard fillings of z/y, by Aitken's determinant:
    |z/y|! det[1/(z_i - y_j - i + j)!], with 1/k! = 0 for k < 0."""
    det = _skew_determinant(z, y, lambda k: Fraction(1, factorial(k)) if k >= 0 else 0)
    return factorial(sum(z) - sum(y)) * det


def jacobi_trudi_oracle(z, y, r):
    """s_{z/y}(1^r), the semistandard fillings of z/y with entries 1..r
    (r >= 1), by Jacobi-Trudi: det[h_k(1^r)] with k = z_i - y_j - i + j,
    where h_k(1^r) = C(r + k - 1, k), and 0 for k < 0."""
    return _skew_determinant(z, y, lambda k: comb(r + k - 1, k) if k >= 0 else 0)


def conjugate_oracle(p):
    """The conjugate partition: the column lengths of the rows ``p``."""
    return tuple(sum(1 for r in p if r > j) for j in range(max(p, default=0)))


def hook_fillings_oracle(z, y, m, n):
    """The (m|n)-semistandard fillings of z/y (m, n >= 1), by Berele and
    Regev (1987): the plain letters fill some v/y with y inside v inside z as
    a semistandard tableau, and the barred ones fill z/v with a transpose
    that is semistandard, so the count is the sum over v of
    s_{v/y}(1^m) s_{z'/v'}(1^n)."""
    y, zc = tuple(y), conjugate_oracle(z)
    return sum(
        jacobi_trudi_oracle(v, y, m) * jacobi_trudi_oracle(zc, conjugate_oracle(v), n)
        for v in subdiagrams_oracle(z)
        if len(y) <= len(v) and all(a <= b for a, b in zip(y, v))
    )


def subdiagrams_oracle(z):
    """Every tuple of row lengths bounded by ``z`` that is a partition, sorted."""
    z = tuple(z)
    out = set()
    for rows in product(*(range(r + 1) for r in z)):
        if all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
            while rows and rows[-1] == 0:
                rows = rows[:-1]
            out.add(rows)
    return sorted(out)


def lattice_oracle(word):
    counts = Counter()
    for v in word:
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True


def grow_oracle(start, word):
    """Replay one box per letter; validity checked by re-sorting after each step."""
    rows = list(start)
    for j in word:
        if j == len(rows) + 1:
            rows.append(1)
        elif 1 <= j <= len(rows):
            rows[j - 1] += 1
        else:
            return None
        if sorted(rows, reverse=True) != rows:
            return None
    return tuple(rows)


def glr_lr_oracle(shape, y, z, order, max_entry):
    """Classical family by filtering: semistandard and the reading grows y to z."""
    out = []
    for filling in ssyt_oracle(shape, max_entry):
        word = [filling[c] for c in order.cells]
        if grow_oracle(y, word) == tuple(z):
            out.append(filling)
    return out


def glmn_lr_oracle(y, w, z, order):
    """Two-family LR set by filtering: content w and a lattice reading word."""
    shape = SkewShape(tuple(z), tuple(y))
    w = tuple(w)
    out = []
    for filling in ssyt_oracle(shape, max(len(w), 1) if shape.size else 0):
        counts = Counter(filling.values())
        if tuple(counts.get(k, 0) for k in range(1, len(w) + 1)) != w:
            continue
        if sum(counts.values()) != sum(w):
            continue
        word = [filling[c] for c in order.cells]
        if lattice_oracle(word):
            out.append(filling)
    return out


def tensor_phi(word, i):
    """Number of times the lowering move applies, by the recursive pair rule."""
    if not word:
        return 0
    if len(word) == 1:
        return 1 if word[0] == i else 0
    u, v = word[:-1], word[-1:]
    return tensor_phi(v, i) + max(0, tensor_phi(u, i) - tensor_eps(v, i))


def tensor_eps(word, i):
    if not word:
        return 0
    if len(word) == 1:
        return 1 if word[0] == i + 1 else 0
    u, v = word[:-1], word[-1:]
    return tensor_eps(u, i) + max(0, tensor_eps(v, i) - tensor_phi(u, i))


def tensor_lower(word, i):
    """Lowering on a word of single-letter factors, via the recursive pair rule."""
    if not word:
        return None
    if len(word) == 1:
        return (i + 1,) if word[0] == i else None
    u, v = word[:-1], word[-1:]
    if tensor_phi(u, i) > tensor_eps(v, i):
        fu = tensor_lower(u, i)
        return None if fu is None else fu + v
    fv = tensor_lower(v, i)
    return None if fv is None else u + fv


def tensor_raise(word, i):
    if not word:
        return None
    if len(word) == 1:
        return (i,) if word[0] == i + 1 else None
    u, v = word[:-1], word[-1:]
    if tensor_phi(u, i) >= tensor_eps(v, i):
        eu = tensor_raise(u, i)
        return None if eu is None else eu + v
    ev = tensor_raise(v, i)
    return None if ev is None else u + ev


def companion_oracle(filling):
    """The companion of a two-family LR filling, as a cell -> entry dict: the
    cell (i, j) holding k puts i at (k, p(i, j))."""
    return {(k, p_index_oracle(filling, cell)): cell[0] for cell, k in filling.items()}


def filling_of(tableau):
    """cell -> entry dict of a library tableau, for comparing with oracle output."""
    return dict(tableau.items())
