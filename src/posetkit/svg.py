"""Tiny deterministic SVG writer for dominance drawings.

One circle per point on a unit grid scaled by a pixel factor, one line
per cover relation, fixed styling.  One writer, _svg, works on integer
ranks: a sorted point list and sorted index pairs into it, with each
point's text formatted once.  The CLI calls it with the downsets' ranks;
dominance_svg adapts a downset -> coordinates map onto it.  Output is
byte-stable: segments and circles follow coordinate order and all numbers
are plain integers.
"""

from __future__ import annotations


def _svg(points: list, lines: list, scale: int) -> str:
    """points: sorted (x, y) pairs; lines: sorted (a, b) index pairs into
    points, each drawn as a segment from points[a] to points[b]."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    side = (len(points) + 1) * scale
    r = max(2, scale // 6)
    at = [(f'"{x * scale}"', f'"{y * scale}"') for x, y in points]
    head = [f"<line x1={x} y1={y} " for x, y in at]
    tail = [f"x2={x} y2={y}/>" for x, y in at]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {side} {side}" width="{side}" height="{side}">',
        '<g stroke="#555555" stroke-width="1">',
        *[head[a] + tail[b] for a, b in lines],
        "</g>",
        '<g fill="#111111">',
        *[f'<circle cx={x} cy={y} r="{r}"/>' for x, y in at],
        "</g>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def dominance_svg(coords: dict, covers: list, scale: int = 24) -> str:
    """coords: downset -> (x rank, y rank), both 1-based; covers: pairs of
    downsets to join with a segment."""
    points = sorted(coords.values())
    first = {p: i for i, p in reversed(list(enumerate(points)))}
    at = {d: first[p] for d, p in coords.items()}
    return _svg(points, sorted((at[a], at[b]) for a, b in covers), scale)
