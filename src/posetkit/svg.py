"""Tiny deterministic SVG writer for dominance drawings.

One circle per point on a unit grid scaled by a pixel factor, one line
per cover relation, fixed styling.  The one writer works on the sorted
distinct coordinate values and each point as an index pair into them, in
two steps: _ends checks the scale, makes each value's text once for both
axes and each point's segment end once; the caller lists, for each point,
the ends of its segments, and _svg yields the drawing in pieces, so a
caller can write them out as they come.  The CLI calls it with the ranks
1..N and the downsets' covers; dominance_svg adapts a downset ->
coordinates map onto it.  Output is byte-stable: segments and circles
follow coordinate order and all numbers are plain integers.
"""

from __future__ import annotations


def _ends(values, xs, ys, scale: int) -> tuple:
    """(q, ends) for the points (values[xs[i]], values[ys[i]]), given in
    sorted order: q[v] is values[v] scaled, as a quoted attribute value,
    and ends[i] ends a segment at point i.  A scale below 1 raises here,
    before any drawing is begun."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    q = [f'"{v * scale}"' for v in values]
    return q, [f"x2={q[x]} y2={q[y]}/>\n" for x, y in zip(xs, ys)]


def _svg(q, xs, ys, above: list, scale: int):
    """The drawing's text in pieces: the header, one piece per point with
    segments, the circles, the footer.  q, xs, ys as for _ends; above[a]:
    the ends of the segments from point a, in the order of their points."""
    side = (len(xs) + 1) * scale
    r = max(2, scale // 6)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {side} {side}" width="{side}" height="{side}">\n'
           '<g stroke="#555555" stroke-width="1">\n')
    for x, y, ups in zip(xs, ys, above):
        if ups:
            h = f"<line x1={q[x]} y1={q[y]} "
            yield h + h.join(ups)
    yield '</g>\n<g fill="#111111">\n' + "".join(
        [f'<circle cx={q[x]} cy={q[y]} r="{r}"/>\n' for x, y in zip(xs, ys)])
    yield "</g>\n</svg>\n"


def dominance_svg(coords: dict, covers: list, scale: int = 24) -> str:
    """coords: downset -> (x rank, y rank), both 1-based; covers: pairs of
    downsets to join with a segment."""
    points = sorted(coords.values())
    values = sorted({v for p in points for v in p})
    index = {v: i for i, v in enumerate(values)}
    xs = [index[x] for x, _ in points]
    ys = [index[y] for _, y in points]
    q, ends = _ends(values, xs, ys, scale)
    first = {p: i for i, p in reversed(list(enumerate(points)))}
    at = {d: first[p] for d, p in coords.items()}
    above = [[] for _ in points]
    for a, b in sorted((at[a], at[b]) for a, b in covers):
        above[a].append(ends[b])
    return "".join(_svg(q, xs, ys, above, scale))
