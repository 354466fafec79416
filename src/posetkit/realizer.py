"""Two-dimensionality: transitive orientation of the incomparability graph
and the realizer pair (sigma, sigma_bar) it induces."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ContractViolation, NotALinearExtension, NotTwoDimensional
from .poset import Poset, _bits, _components, component_masks, incomparable_pairs


def _conjugate_ranks(P: Poset, order: Sequence[int]) -> list:
    """For each position p, the rank of order[p] in the conjugate of order
    (P, plus order reversed on incomparable pairs), from the one walk that
    checks order against P: NotALinearExtension unless order is a
    permutation in which each element follows all below it.  The n - 1 - p
    after position p are then up and inc after p, so the rank |down| + |inc
    after p| is n - 1 - p - |up| + |down|."""
    if sorted(order) != list(P.elements()):
        raise NotALinearExtension(f"{tuple(order)} does not extend the poset")
    up, down, top = P.up_masks, P.down_masks, P.n - 1
    ranks, seen = [], 0
    for p, e in enumerate(order):
        if (d := down[e - 1]) & seen != d:
            raise NotALinearExtension(f"{tuple(order)} does not extend the poset")
        ranks.append(top - p - up[e - 1].bit_count() + d.bit_count())
        seen |= 1 << (e - 1)
    return ranks


def is_linear_extension(P: Poset, order: Sequence[int]) -> bool:
    try:
        _conjugate_ranks(P, order)
    except NotALinearExtension:
        return False
    return True


def _arc_masks(P: Poset) -> list:
    """Arc masks of a transitive orientation of the incomparability graph:
    b in arcs[a] when the edge {a, b} is oriented a -> b (0-based).

    P is first split, part by part.  Where the comparability graph falls
    apart (a disjoint union), the components are taken by smallest member
    and each gets arcs to every later one, as forcing the whole would
    orient them; where the incomparability graph does (an ordinal sum), no
    edge crosses.  Only prime parts, both graphs connected, keep their
    edges for forcing: each is a module, which no implication class crosses.

    Implication-class forcing (Golumbic, ch. 5): orienting one edge forces
    all edges reachable through vertices that lack the closing chord; the
    class is removed and the next seed is the lexicographically least
    surviving edge, oriented low to high.  Each arc a -> b taken off a queue
    forces a -> c for every c in adj[a] outside adj[b], and c -> b for every
    c in adj[b] outside adj[a]; forcing reaches the same fixpoint in any
    order.  A class is kept as arc masks; one forcing some edge both ways
    (out[a] & into[a] not empty) proves there is no transitive orientation.
    Nothing else is checked here: `_certified` checks the order the masks
    induce for `transitive_orientation`, `is_two_dimensional` and `realizer`.
    """
    n, inc = P.n, P.inc_masks
    adj = [0] * n                 # prime-part edges not yet in any class
    arcs = [0] * n
    parts = [(1 << n) - 1]
    while parts:
        part = parts.pop()
        if not part & (part - 1):     # a point has no edges
            continue
        if len(split := component_masks(P, part)) > 1:
            later = 0                 # a disjoint union
            for comp in reversed(split):
                for a in _bits(comp):
                    arcs[a] |= later
                later |= comp
        elif len(split := _components(part, inc)) == 1:
            for a in _bits(part):     # a prime part
                adj[a] = inc[a] & part
            continue
        parts += split
    out, into = [0] * n, [0] * n  # the class being forced
    for i in range(n):
        while rest := adj[i] & -(2 << i):
            low = rest & -rest
            j = low.bit_length() - 1
            out[i], into[j] = low, 1 << i
            touched = low | 1 << i
            queue = [(i, j)]          # arcs whose forcing is not yet followed
            while queue:
                a, b = queue.pop()
                if fresh := adj[a] & ~adj[b] & ~out[a]:  # a -> b forces a -> c
                    out[a] |= fresh
                    touched |= fresh
                    bit = 1 << a
                    while fresh:
                        low = fresh & -fresh
                        c = low.bit_length() - 1
                        into[c] |= bit
                        queue.append((a, c))
                        fresh ^= low
                if fresh := adj[b] & ~adj[a] & ~into[b]:  # and c -> b
                    into[b] |= fresh
                    touched |= fresh
                    bit = 1 << b
                    while fresh:
                        low = fresh & -fresh
                        c = low.bit_length() - 1
                        out[c] |= bit
                        queue.append((c, b))
                        fresh ^= low
            for a in _bits(touched):
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
    induce, certified by one walk over sigma and two rank checks alone.

    sigma puts a before b for each arc a -> b: e has |up + arcs out|
    elements after it.  P plus the unchecked arcs is a tournament, a linear
    order iff its ranks are 0..n-1, which `_placed` checks, and it must
    extend P, which the walk of `_conjugate_ranks` checks while it ranks
    sigma_bar, the conjugate of sigma (P, plus sigma reversed on
    incomparable pairs): the two intersect to P by construction.  Its
    ranks are 0..n-1 exactly when the orientation is transitive: a -> b ->
    c puts a before c in sigma and after it in sigma_bar, so a || c and a
    -> c.
    """
    n = P.n
    out = _arc_masks(P)
    sigma = _placed([n - 1 - (u | m).bit_count() for u, m in zip(P.up_masks, out)])
    try:
        ranks = _conjugate_ranks(P, sigma)
    except NotALinearExtension:
        raise ContractViolation("realizer mismatch") from None
    return sigma, tuple([sigma[p - 1] for p in _placed(ranks)])


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


def is_non_separating(P: Poset, pi: Sequence[int]) -> bool:
    """No comparable pair u < v may straddle an element incomparable to both:
    u before x before v in pi with x || u and x || v is forbidden.

    Such a triple is a 3-cycle v, x, u of the conjugate tournament and every
    3-cycle comes from one, so pi passes iff the conjugate ranks are 0..n-1."""
    return sorted(_conjugate_ranks(P, pi)) == list(range(P.n))
