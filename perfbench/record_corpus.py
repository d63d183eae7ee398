"""Rebuild ``corpus.json``: the coefficient pools and the recorded outputs.

    PYTHONPATH=src python3 perfbench/record_corpus.py

The coefficient pool holds (3,3)-hook triples whose fillings universe is
large while the answer is small but nonzero.  The universe size is counted
with the Jacobi-Trudi determinant, independently of the library, and no two
pool triples share a universe, so the library's caches never help within a
pass.  The eligible triples are timed once while they are recorded; the
pool drops the fastest tenth and the slowest fifth of them and takes the
rest evenly by rank, so no large gap between neighbouring op costs makes
the median or the tail of a run jump.  Recorded values are taken at seed 0
and refused unless every seed-independent identity of the workload holds.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from math import comb

import workloads

POOL_SIZE = {"full": 60, "tiny": 6}
# (sizes of z, lowest and highest cost proxy) of the pool candidates
POOL_BAND = {"full": ((12, 13), 10_000, 20_000), "tiny": ((5,), 0, 10**9)}


def ssyt_count(outer, inner, k: int) -> int:
    """Semistandard fillings of outer/inner with entries 1..k (Jacobi-Trudi)."""
    n = len(outer)
    inner = tuple(inner) + (0,) * (n - len(inner))

    def h(m):
        return 0 if m < 0 else comb(m + k - 1, m)

    rows = [[Fraction(h(outer[i] - inner[j] - i + j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            for cc in range(c, n):
                rows[r][cc] -= f * rows[c][cc]
    return int(det)


def coefficient_pool(size: str) -> dict[str, int]:
    from lrpictures import lr, lr_coefficient
    from lrpictures.diagram import is_hook, partition_contains, partitions_of, subdiagrams
    from lrpictures.tableau import _fillings

    totals, lo, hi = POOL_BAND[size]
    m, n = workloads.HOOK
    candidates = []
    for z in (z for total in totals for z in partitions_of(total)):
        for y in subdiagrams(z):
            for w in partitions_of(sum(z) - sum(y)):
                if not (y and w and is_hook(z, m, n) and is_hook(w, m, n) and partition_contains(z, w)):
                    continue
                r = max(len(w), len(z))
                u_w, u_zy = ssyt_count(w, (), r), ssyt_count(z, y, len(w))
                # the two-family side costs about three times as much per filling
                proxy = u_w + 3 * u_zy
                if lo <= proxy <= hi:
                    candidates.append((proxy, y, w, z))
    candidates.sort()
    chosen, seen = [], set()
    for proxy, y, w, z in candidates:
        universes = ((w, max(len(w), len(z))), (z, y, len(w)))
        if seen.intersection(universes):
            continue
        for cache in (_fillings, lr._glr_lr, lr._glmn_lr):  # time it cold, as a pass runs it
            cache.cache_clear()
        t0 = time.perf_counter()
        res = lr_coefficient(y, w, z, m, n, verify=True)
        if res.c >= 1:
            seen.update(universes)
            chosen.append((time.perf_counter() - t0, y, w, z, res.c))
    chosen.sort()
    chosen = chosen[len(chosen) // 10 : len(chosen) - len(chosen) // 5]
    print(f"{size}: {len(chosen)} eligible triples, {POOL_SIZE[size]} kept", file=sys.stderr)
    step = len(chosen) / POOL_SIZE[size]
    picked = [chosen[int(k * step)][1:] for k in range(POOL_SIZE[size])]
    return {workloads._coeff_key((y, w, z)): c for y, w, z, c in picked}


def recorded(name: str) -> dict:
    work = workloads.WORKLOADS[name]
    values = {}
    for size in ("full", "tiny"):
        inputs = work.inputs(0, 0, size)
        outputs = []
        for inp in inputs:
            outputs.append(work.run(inp, outputs)[0])
        if not all(work.identity(inputs, outputs)):
            raise SystemExit(f"{name}/{size}: an identity fails; refusing to record")
        for inp, out in zip(inputs, outputs):
            values[work.key(inp)] = work.digest(inp, out)
    return values


def main() -> int:
    corpus = {"coeff_large": {}, "golden": {"coeff_large": {}}}
    for size in ("full", "tiny"):
        pool = coefficient_pool(size)
        corpus["coeff_large"][size] = sorted(pool)
        corpus["golden"]["coeff_large"].update(pool)
    corpus["golden"]["pictures_large"] = recorded("pictures_large")
    corpus["golden"]["cli_mix"] = recorded("cli_mix")
    with open(workloads.CORPUS_PATH, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
