"""Two-dimensionality: transitive orientation of the incomparability graph
and the realizer pair (sigma, sigma_bar) it induces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolation, NotALinearExtension, NotTwoDimensional
from .poset import Poset, _bits


def is_linear_extension(P: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(P.elements()):
        return False
    pos = {e: k for k, e in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in P.relation_pairs())


def _require_extension(P: Poset, order: Sequence[int]) -> None:
    if not is_linear_extension(P, order):
        raise NotALinearExtension(f"{tuple(order)} does not extend the poset")


def transitive_orientation(P: Poset) -> list:
    """Orient every incomparable pair so the orientation is transitive.

    Implication-class forcing: orienting one edge forces all edges reachable
    through vertices that lack the closing chord, the forced class is removed,
    and the next seed is the lexicographically least surviving edge, oriented
    low to high.  A class that forces some edge both ways proves there is no
    transitive orientation at all.  Returns ordered pairs sorted
    lexicographically.
    """
    n = P.n
    adj = list(P.inc_masks)
    oriented = {}

    def force(seed) -> None:
        queue = [seed]
        cls = {seed}
        while queue:
            a, b = queue.pop()
            # edge {a,c} present, chord {b,c} absent: a->b forces a->c
            for c in _bits(adj[a] & ~adj[b] & ~(1 << b)):
                arc = (a, c)
                if arc not in cls:
                    cls.add(arc)
                    queue.append(arc)
            # edge {c,b} present, chord {a,c} absent: a->b forces c->b
            for c in _bits(adj[b] & ~adj[a] & ~(1 << a)):
                arc = (c, b)
                if arc not in cls:
                    cls.add(arc)
                    queue.append(arc)
        for a, b in cls:
            if (b, a) in cls:
                raise NotTwoDimensional(
                    f"edge {a + 1},{b + 1} is forced in both directions"
                )
        for a, b in cls:
            oriented[(a, b)] = True
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1:
                force((i, j))

    out = sorted((a + 1, b + 1) for a, b in oriented)
    # the union of forced classes is transitive whenever every class is
    # proper; keep a cheap certificate of that fact
    arc = [0] * n
    for a, b in out:
        arc[a - 1] |= 1 << (b - 1)
    for a in range(n):
        for b in _bits(arc[a]):
            if arc[b] & ~arc[a]:
                raise ContractViolation("orientation not transitive")
    return out


def is_two_dimensional(P: Poset) -> bool:
    try:
        transitive_orientation(P)
    except NotTwoDimensional:
        return False
    return True


@dataclass(frozen=True)
class Realizer2D:
    sigma: tuple
    sigma_bar: tuple


def _total_order_sort(P: Poset, arcs, flip: bool) -> tuple:
    """Sort elements by the strict total order (poset relation plus the
    orientation, reversed when flip is set)."""
    n = P.n
    below = list(P.down_masks)
    for a, b in arcs:
        if flip:
            a, b = b, a
        below[b - 1] |= 1 << (a - 1)
    order = sorted(P.elements(), key=lambda e: bin(below[e - 1]).count("1"))
    # a total order gives pairwise distinct predecessor counts 0..n-1
    if [bin(below[e - 1]).count("1") for e in order] != list(range(n)):
        raise ContractViolation("orientation does not give a total order")
    return tuple(order)


def realizer(P: Poset) -> Realizer2D:
    """A realizer by two linear extensions: intersecting their orders gives
    back exactly the poset relation."""
    arcs = transitive_orientation(P)
    sigma = _total_order_sort(P, arcs, flip=False)
    sigma_bar = _total_order_sort(P, arcs, flip=True)
    pos = {e: k for k, e in enumerate(sigma)}
    pos_bar = {e: k for k, e in enumerate(sigma_bar)}
    for a in P.elements():
        for b in range(a + 1, P.n + 1):
            both = pos[a] < pos[b] and pos_bar[a] < pos_bar[b]
            both_rev = pos[a] > pos[b] and pos_bar[a] > pos_bar[b]
            agree = both or both_rev
            if agree != (P.less(a, b) or P.less(b, a)):
                raise ContractViolation("realizer mismatch")
    return Realizer2D(sigma, sigma_bar)


def is_non_separating(P: Poset, pi: Sequence[int]) -> bool:
    """No comparable pair u < v may straddle an element incomparable to both:
    u before x before v in pi with x || u and x || v is forbidden."""
    _require_extension(P, pi)
    seen = 0
    for x in pi:
        ix = x - 1
        inc = P.inc_masks[ix]
        before = seen & inc
        if before:
            after = inc & ~seen & ~(1 << ix)
            for v in _bits(after):
                if P.down_masks[v] & before:
                    return False
        seen |= 1 << ix
    return True
