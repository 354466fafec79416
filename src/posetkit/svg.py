"""Tiny deterministic SVG writer for dominance drawings.

One circle per point on a unit grid scaled by a pixel factor, one line
per cover relation, fixed styling.  One writer, _svg, works on integer
ranks: a sorted point list and, for each point, the points its segments
go to, with each point's text formatted once.  It yields the drawing in
pieces, so a caller can write them out as they come and never holds the
whole text.  The CLI calls it with the downsets' ranks and their covers;
dominance_svg adapts a downset -> coordinates map onto it.  Output is
byte-stable: segments and circles follow coordinate order and all numbers
are plain integers.
"""

from __future__ import annotations


def _svg(points: list, above: list, scale: int):
    """The drawing's text in pieces: the header (yielded once the scale is
    checked, so the first next() raises a bad one), one piece per point
    with its segments, the circles, the footer.  points: sorted (x, y)
    pairs; above[a]: the sorted indices b into points that get a segment
    from points[a] to points[b]."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    side = (len(points) + 1) * scale
    r = max(2, scale // 6)
    head, tail, dots = [], [], []
    for x, y in points:
        x, y = f'"{x * scale}"', f'"{y * scale}"'
        head.append(f"<line x1={x} y1={y} ")
        tail.append(f"x2={x} y2={y}/>\n")
        dots.append(f'<circle cx={x} cy={y} r="{r}"/>\n')
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {side} {side}" width="{side}" height="{side}">\n'
           '<g stroke="#555555" stroke-width="1">\n')
    for h, ups in zip(head, above):
        yield "".join([h + tail[b] for b in ups])
    yield '</g>\n<g fill="#111111">\n' + "".join(dots)
    yield "</g>\n</svg>\n"


def dominance_svg(coords: dict, covers: list, scale: int = 24) -> str:
    """coords: downset -> (x rank, y rank), both 1-based; covers: pairs of
    downsets to join with a segment."""
    points = sorted(coords.values())
    first = {p: i for i, p in reversed(list(enumerate(points)))}
    at = {d: first[p] for d, p in coords.items()}
    above = [[] for _ in points]
    for a, b in sorted((at[a], at[b]) for a, b in covers):
        above[a].append(b)
    return "".join(_svg(points, above, scale))
