"""Two-dimensionality: transitive orientation of the incomparability graph
and the realizer pair (sigma, sigma_bar) it induces."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ContractViolation, NotALinearExtension, NotTwoDimensional
from .poset import Poset, _bits


def is_linear_extension(P: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(P.elements()):
        return False
    seen, down = 0, P.down_masks
    for e in order:  # every element must follow all that lie below it
        if down[e - 1] & ~seen:
            return False
        seen |= 1 << (e - 1)
    return True


def _require_extension(P: Poset, order: Sequence[int]) -> None:
    if not is_linear_extension(P, order):
        raise NotALinearExtension(f"{tuple(order)} does not extend the poset")


def _arc_masks(P: Poset) -> list:
    """Arc masks of a transitive orientation of the incomparability graph:
    b in arcs[a] when the edge {a, b} is oriented a -> b (0-based).

    Implication-class forcing (Golumbic, ch. 5): orienting one edge forces
    all edges reachable through vertices that lack the closing chord; the
    class is removed and the next seed is the lexicographically least
    surviving edge, oriented low to high.  Forcing is batched per vertex:
    new out-arcs a -> S force a -> c for every c in adj[a] outside the AND
    of adj[b] over S, and new in-arcs S -> b likewise force c -> b, so one
    loop body serves both sides.  Forcing reaches the same fixpoint in any
    order.  A class is kept as arc masks; one forcing some edge both ways
    (out[a] & into[a] not empty) proves there is no transitive orientation.
    Nothing else is checked here: `_certified` checks the masks for
    `transitive_orientation`, `is_two_dimensional` and `realizer`.
    """
    n = P.n
    adj = list(P.inc_masks)       # edges not yet in any class
    arcs = [0] * n
    out, into = [0] * n, [0] * n  # the class being forced
    # its arcs not yet propagated, by tail and by head; all 0 between classes
    new_out, new_in = [0] * n, [0] * n
    # side 0 propagates out-arcs, side 1 in-arcs, each feeding the other
    sides = ((out, into, new_out, new_in), (into, out, new_in, new_out))
    for i in range(n):
        while rest := adj[i] & -(2 << i):
            low = rest & -rest
            j = low.bit_length() - 1
            bit_i = 1 << i
            out[i] = new_out[i] = low
            into[j] = new_in[j] = bit_i
            touched = low | bit_i
            pending = [bit_i, low]    # vertices with new out-, in-arcs
            d = 0
            # after the first pass only the side just fed has pending vertices
            while verts := pending[d]:
                pending[d] = 0
                mine, theirs, new_mine, new_theirs = sides[d]
                reached = 0           # the other ends of the forced arcs
                while verts:
                    bit_a = verts & -verts
                    verts ^= bit_a
                    a = bit_a.bit_length() - 1
                    adj_a = adj[a]
                    fresh = new_mine[a]
                    new_mine[a] = 0
                    # S = fresh; the arcs it forces are the next S
                    while fresh:
                        open_ = adj_a & ~mine[a]
                        keep = open_      # stays unforced: adjacent to all of S
                        while fresh and keep:
                            low = fresh & -fresh
                            keep &= adj[low.bit_length() - 1]
                            fresh ^= low
                        fresh = open_ & ~keep
                        mine[a] |= fresh
                        reached |= fresh
                        m = fresh
                        while m:
                            low = m & -m
                            c = low.bit_length() - 1
                            theirs[c] |= bit_a
                            new_theirs[c] |= bit_a
                            m ^= low
                touched |= reached
                d ^= 1
                pending[d] |= reached
            while touched:
                bit_a = touched & -touched
                touched ^= bit_a
                a = bit_a.bit_length() - 1
                if out[a] & into[a]:
                    b = (out[a] & into[a]).bit_length()
                    raise NotTwoDimensional(
                        f"edge {a + 1},{b} is forced in both directions")
                arcs[a] |= out[a]
                adj[a] &= ~(out[a] | into[a])
                out[a] = into[a] = 0
    return arcs


class Realizer2D(NamedTuple):
    sigma: tuple
    sigma_bar: tuple


def _placed(ranks: list) -> tuple:
    """The order with each element at its rank, and at index e - 1 the mask
    of the elements before e.  A strict total order has ranks 0..n-1."""
    n = len(ranks)
    if sorted(ranks) != list(range(n)):
        raise ContractViolation("orientation does not give a total order")
    order, ahead, seen = [0] * n, [0] * n, 0
    for e, r in enumerate(ranks, start=1):
        order[r] = e
    for e in order:
        ahead[e - 1] = seen
        seen |= 1 << (e - 1)
    return tuple(order), ahead


def _certified(P: Poset) -> tuple:
    """The arc masks of `_arc_masks` with the realizer (sigma, sigma_bar)
    they induce, certified by the rank checks alone.

    sigma puts a before b for each arc a -> b of the orientation, sigma_bar
    puts b first.  Every incomparable pair is oriented exactly once, so e
    has |up + arcs out| elements after it in sigma and |down + arcs out|
    before it in sigma_bar; these ranks place both orders.

    The arc masks come from `_arc_masks` unchecked.  P plus the arcs and P
    plus their reverse are tournaments, and a tournament is a linear order
    iff its ranks are 0..n-1, which `_placed` checks for both.  That holds
    exactly when the orientation is transitive: a -> b -> c puts a before c
    in sigma and after it in sigma_bar, so a || c and a -> c.  The last
    check is that the two orders intersect to P.
    """
    n = P.n
    out = _arc_masks(P)
    sigma, a1 = _placed([n - 1 - (u | m).bit_count() for u, m in zip(P.up_masks, out)])
    sigma_bar, a2 = _placed([(d | m).bit_count() for d, m in zip(P.down_masks, out)])
    # x is ahead of e in both orders exactly when x < e: both orders
    # extend P and their intersection is P
    if any(s & t != d for s, t, d in zip(a1, a2, P.down_masks)):
        raise ContractViolation("realizer mismatch")
    return out, sigma, sigma_bar


def transitive_orientation(P: Poset) -> list:
    """Orient every incomparable pair so the orientation is transitive:
    the sorted 1-based pairs (a, b), a -> b, of the certified arc masks."""
    arcs = _certified(P)[0]
    return [(a + 1, b + 1) for a in range(P.n) for b in _bits(arcs[a])]


def is_two_dimensional(P: Poset) -> bool:
    try:
        _certified(P)
    except NotTwoDimensional:
        return False
    return True


def realizer(P: Poset) -> Realizer2D:
    """A realizer by two linear extensions: intersecting their orders gives
    back exactly the poset relation."""
    return Realizer2D(*_certified(P)[1:])


def _conjugate_ranks(P: Poset, order: Sequence[int]) -> list:
    """For each position p, the rank |down| + |inc after p| of order[p] in
    the conjugate of order: P, plus order reversed on incomparable pairs."""
    _require_extension(P, order)
    ranks, seen = [], 0
    for e in order:
        ranks.append(P.down_masks[e - 1].bit_count()
                     + (P.inc_masks[e - 1] & ~seen).bit_count())
        seen |= 1 << (e - 1)
    return ranks


def is_non_separating(P: Poset, pi: Sequence[int]) -> bool:
    """No comparable pair u < v may straddle an element incomparable to both:
    u before x before v in pi with x || u and x || v is forbidden.

    Such a triple is a 3-cycle v, x, u of the conjugate tournament and every
    3-cycle comes from one, so pi passes iff the conjugate ranks are 0..n-1."""
    return sorted(_conjugate_ranks(P, pi)) == list(range(P.n))
