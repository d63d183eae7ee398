"""Plain-text drawings of shapes, tableaux, and pictures."""

from __future__ import annotations

from .diagram import SkewShape
from .picture import Picture
from .tableau import Tableau, entry_str


def _grid(shape: SkewShape, text_at, unicode: bool) -> str:
    outer = shape.outer
    if not outer:
        return "(empty shape)"
    texts = {}
    width = 1
    for i in range(1, len(outer) + 1):
        for j in range(1, outer[i - 1] + 1):
            s = text_at(i, j) if (i, j) in shape else ""
            texts[(i, j)] = s
            width = max(width, len(s))
    h, v, x = ("─", "│", "┼") if unicode else ("-", "|", "+")
    seg = h * (width + 2)
    lines = []
    prev = 0
    for i in range(1, len(outer) + 2):
        cur = outer[i - 1] if i <= len(outer) else 0
        border = max(prev, cur)
        if border:
            lines.append(x + x.join([seg] * border) + x)
        if i <= len(outer):
            cells = [f" {texts[(i, j)].rjust(width)} " for j in range(1, cur + 1)]
            lines.append(v + v.join(cells) + v)
        prev = cur
    return "\n".join(lines)


def render_shape(shape: SkewShape, style: str = "ascii") -> str:
    return _grid(shape, lambda i, j: "", style == "unicode")


def render_tableau(t: Tableau, style: str = "ascii") -> str:
    unicode = style == "unicode"
    return _grid(t.shape, lambda i, j: entry_str(t.entry(i, j), unicode), unicode)


def render_picture(p: Picture, style: str = "ascii") -> str:
    arrow = " → " if style == "unicode" else " -> "
    lines = ["domain:", render_shape(p.domain, style), "codomain:", render_shape(p.codomain, style), "map:"]
    for u, v in zip(p.domain.cells(), p.images):  # row-major: sorted
        lines.append(f"  ({u[0]},{u[1]}){arrow}({v[0]},{v[1]})")
    return "\n".join(lines)
