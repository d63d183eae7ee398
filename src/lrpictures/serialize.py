"""JSON object forms for every value the command line reads or writes.

Partitions are arrays of row lengths, skew shapes are ``{"outer", "inner"}``,
cells are ``[row, col]`` pairs, tableaux carry their shape plus entry rows
(barred letters as negative ints), pictures list their cell pairs sorted by
domain cell.

``tableau_lines`` and ``picture_lines`` give the compact JSON line of
``tableau_to_obj`` and ``picture_to_obj``, byte for byte, from a ``%``
template built once per shape (or shape pair) and kept for that call only.
"""

from __future__ import annotations

from itertools import chain

from .diagram import Partition, SkewShape, as_partition
from .picture import Picture
from .reading import AdmissibleOrder
from .tableau import Tableau


def _is_int(v) -> bool:
    """A JSON integer; ``true``/``false`` load as bools, which Python counts as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def partition_from_obj(obj) -> Partition:
    if not isinstance(obj, list) or not all(_is_int(v) for v in obj):
        raise ValueError(f"a partition must be an array of ints, got {obj!r}")
    return as_partition(obj)


def shape_to_obj(s: SkewShape) -> dict:
    return {"outer": list(s.outer), "inner": list(s.inner)}


def shape_from_obj(obj) -> SkewShape:
    if not isinstance(obj, dict) or "outer" not in obj:
        raise ValueError(f"a shape must be an object with an 'outer' array, got {obj!r}")
    return SkewShape(
        partition_from_obj(obj["outer"]), partition_from_obj(obj.get("inner", []))
    )


def tableau_to_obj(t: Tableau) -> dict:
    return {"shape": shape_to_obj(t.shape), "rows": [list(r) for r in t.rows]}


def _shape_text(s: SkewShape) -> str:
    return '{"outer":[%s],"inner":[%s]}' % (",".join(map(str, s.outer)), ",".join(map(str, s.inner)))


def tableau_lines(tableaux):
    """Per tableau, its ``tableau_to_obj`` as one compact JSON line; the
    template takes the row-major ``entries`` as they are."""
    templates = {}
    for t in tableaux:
        fmt = templates.get(t.shape)
        if fmt is None:
            rows = ",".join("[" + ",".join(["%d"] * (b - a)) + "]" for a, b in t.shape._spans)
            fmt = templates[t.shape] = '{"shape":%s,"rows":[%s]}\n' % (_shape_text(t.shape), rows)
        yield fmt % t.entries


def tableau_from_obj(obj) -> Tableau:
    if not isinstance(obj, dict) or "shape" not in obj or "rows" not in obj:
        raise ValueError("a tableau must be an object with 'shape' and 'rows'")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(_is_int(e) for e in r) for r in rows
    ):
        raise ValueError("'rows' must be an array of int arrays")
    return Tableau(shape_from_obj(obj["shape"]), tuple(tuple(r) for r in rows))


def cell_from_obj(obj) -> tuple[int, int]:
    if not (isinstance(obj, list) and len(obj) == 2 and all(_is_int(v) for v in obj)):
        raise ValueError(f"a cell must be a [row, col] pair, got {obj!r}")
    return (obj[0], obj[1])


def picture_to_obj(p: Picture) -> dict:
    return {
        "domain": shape_to_obj(p.domain),
        "codomain": shape_to_obj(p.codomain),
        "map": [[list(u), list(v)] for u, v in zip(p.domain.cells(), p.images)],  # row-major: sorted
    }


def picture_lines(pictures):
    """Per picture, its ``picture_to_obj`` as one compact JSON line; the
    template takes the images, flattened, in row-major domain order."""
    templates = {}
    for p in pictures:
        key = (p.domain, p.codomain)
        fmt = templates.get(key)
        if fmt is None:
            pairs = ",".join("[[%d,%d],[%%d,%%d]]" % u for u in p.domain.cells())
            fmt = templates[key] = '{"domain":%s,"codomain":%s,"map":[%s]}\n' % (*map(_shape_text, key), pairs)
        yield fmt % tuple(chain.from_iterable(p.images))


def picture_from_obj(obj) -> Picture:
    if not isinstance(obj, dict) or not {"domain", "codomain", "map"} <= set(obj):
        raise ValueError("a picture must be an object with 'domain', 'codomain' and 'map'")
    pairs = obj["map"]
    if not isinstance(pairs, list):
        raise ValueError("'map' must be an array of cell pairs")
    forward = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"each map item must be a [cell, cell] pair, got {pair!r}")
        u = cell_from_obj(pair[0])
        if u in forward:
            raise ValueError(f"'map' lists the domain cell {list(u)} twice")
        forward[u] = cell_from_obj(pair[1])
    return Picture(shape_from_obj(obj["domain"]), shape_from_obj(obj["codomain"]), forward)


def order_from_obj(obj) -> AdmissibleOrder:
    if not isinstance(obj, list):
        raise ValueError("an order must be an array of cells")
    return AdmissibleOrder(cell_from_obj(c) for c in obj)
