"""The dominance drawing as the single-pass writer made it before the SVG
output moved onto integer ranks: the reference that posetkit.dominance_svg
is pinned to, byte for byte.  Tests only."""


def dominance_svg(coords: dict, covers: list, scale: int = 24) -> str:
    """coords: downset -> (x rank, y rank), both 1-based; covers: pairs of
    downsets to join with a segment."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    side = (len(coords) + 1) * scale
    r = max(2, scale // 6)
    lines = []
    for (x1, y1), (x2, y2) in sorted((coords[a], coords[b]) for a, b in covers):
        lines.append(
            f'<line x1="{x1 * scale}" y1="{y1 * scale}" '
            f'x2="{x2 * scale}" y2="{y2 * scale}"/>'
        )
    dots = [
        f'<circle cx="{x * scale}" cy="{y * scale}" r="{r}"/>'
        for x, y in sorted(coords.values())
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {side} {side}" width="{side}" height="{side}">',
        '<g stroke="#555555" stroke-width="1">',
        *lines,
        "</g>",
        '<g fill="#111111">',
        *dots,
        "</g>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
