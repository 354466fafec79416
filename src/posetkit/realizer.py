"""Two-dimensionality: transitive orientation of the incomparability graph
and the realizer pair (sigma, sigma_bar) it induces."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ContractViolation, NotALinearExtension, NotTwoDimensional
from .poset import Poset, incomparable_pairs


def is_linear_extension(P: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(P.elements()):
        return False
    seen, down = 0, P.down_masks
    for e in order:  # every element must follow all that lie below it
        if (d := down[e - 1]) & seen != d:
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
    Nothing else is checked here: `_certified` checks the order the masks
    induce for `transitive_orientation`, `is_two_dimensional` and `realizer`.
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
    """The order of 1..n with i at rank ranks[i - 1].  A strict total order
    has ranks 0..n-1."""
    n = len(ranks)
    if sorted(ranks) != list(range(n)):
        raise ContractViolation("orientation does not give a total order")
    order = [0] * n
    for i, r in enumerate(ranks, start=1):
        order[r] = i
    return tuple(order)


def _certified(P: Poset) -> tuple:
    """The realizer (sigma, sigma_bar) that the arc masks of `_arc_masks`
    induce, certified by an extension check and two rank checks alone.

    sigma puts a before b for each arc a -> b: e has |up + arcs out|
    elements after it.  P plus the unchecked arcs is a tournament, a linear
    order iff its ranks are 0..n-1, which `_placed` checks, and it must
    extend P.  sigma_bar is the conjugate of sigma (P, plus sigma reversed
    on incomparable pairs), so the two intersect to P by construction.  Its
    ranks are 0..n-1 exactly when the orientation is transitive: a -> b ->
    c puts a before c in sigma and after it in sigma_bar, so a || c and a
    -> c.
    """
    n = P.n
    out = _arc_masks(P)
    sigma = _placed([n - 1 - (u | m).bit_count() for u, m in zip(P.up_masks, out)])
    if not is_linear_extension(P, sigma):
        raise ContractViolation("realizer mismatch")
    sigma_bar = tuple([sigma[p - 1] for p in _placed(_conjugate_ranks(P, sigma))])
    return sigma, sigma_bar


def transitive_orientation(P: Poset) -> list:
    """Orient every incomparable pair so the orientation is transitive:
    the sorted 1-based pairs (a, b), a -> b, with a before b in the
    certified sigma, which orients them as the arcs of `_arc_masks` do."""
    at = {e: p for p, e in enumerate(_certified(P)[0])}
    return sorted((a, b) if at[a] < at[b] else (b, a) for a, b in incomparable_pairs(P))


def is_two_dimensional(P: Poset) -> bool:
    try:
        _certified(P)
    except NotTwoDimensional:
        return False
    return True


def realizer(P: Poset) -> Realizer2D:
    """A realizer by two linear extensions: intersecting their orders gives
    back exactly the poset relation."""
    return Realizer2D(*_certified(P))


def _conjugate_ranks(P: Poset, order: Sequence[int]) -> list:
    """For each position p, the rank |down| + |inc after p| = n - 1 - |up| -
    |inc before p| of order[p] in the conjugate of order: P, plus order
    reversed on incomparable pairs.  Callers check first that order extends P."""
    up, inc, top = P.up_masks, P.inc_masks, P.n - 1
    ranks, seen = [], 0
    for e in order:
        ranks.append(top - up[e - 1].bit_count() - (inc[e - 1] & seen).bit_count())
        seen |= 1 << (e - 1)
    return ranks


def is_non_separating(P: Poset, pi: Sequence[int]) -> bool:
    """No comparable pair u < v may straddle an element incomparable to both:
    u before x before v in pi with x || u and x || v is forbidden.

    Such a triple is a 3-cycle v, x, u of the conjugate tournament and every
    3-cycle comes from one, so pi passes iff the conjugate ranks are 0..n-1."""
    _require_extension(P, pi)
    return sorted(_conjugate_ranks(P, pi)) == list(range(P.n))
