"""Brute-force ground truth at desk scale.

Nothing here is polynomial: extensions are enumerated outright, diameters
come from scanning all pairs, classes from grouping all ordered antichain
pairs.  The point is to have an independent check for every counting
formula in the package.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded, ContractViolation, MismatchedGroundSets
from .poset import (
    DEFAULT_CAP,
    Poset,
    _bits,
    _mask_of,
    component_masks,
    downset_lattice,
    downset_of,
    enumerate_antichains,
    incomparable_pairs,
    max_of,
    min_of,
)
from .revlex import LatticeExtension, _common_ground

_BFS_ALL_SOURCES_LIMIT = 256


def _check(ok: bool, what: str) -> None:
    """A contract check that, unlike assert, survives python -O."""
    if not ok:
        raise ContractViolation(what)


def all_linear_extensions(P: Poset, cap: int = DEFAULT_CAP) -> list:
    """Every linear extension as a tuple, in lexicographic element order
    (backtracking always places the smallest available minimal element
    first)."""
    n = P.n
    down = P.down_masks
    out = []
    order = []

    def rec(placed: int) -> None:
        if len(order) == n:
            if len(out) >= cap:
                raise CapExceeded(f"more than {cap} linear extensions")
            out.append(tuple(order))
            return
        for i in range(n):
            if placed >> i & 1 or down[i] & ~placed:
                continue
            order.append(i + 1)
            rec(placed | 1 << i)
            order.pop()

    rec(0)
    return out


def _reversal_masks(P: Poset, exts: list) -> list:
    """Bit per unordered incomparable pair, set when the pair appears in
    descending element order; XOR popcount of two masks is the reversal
    distance."""
    pairs = incomparable_pairs(P)
    masks = []
    for ext in exts:
        pos = {e: p for p, e in enumerate(ext)}
        m = 0
        for t, (a, b) in enumerate(pairs):
            if pos[a] > pos[b]:
                m |= 1 << t
        masks.append(m)
    return masks


def _neighbors(P: Poset, ext: tuple):
    for p in range(len(ext) - 1):
        if P.incomparable(ext[p], ext[p + 1]):
            yield ext[:p] + (ext[p + 1], ext[p]) + ext[p + 2:]


def _bfs(P: Poset, exts: list, index: dict, src: int) -> list:
    dist = [-1] * len(exts)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for nb in _neighbors(P, exts[u]):
                v = index[nb]
                if dist[v] < 0:
                    dist[v] = du + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def le_graph_diameter(P: Poset, cap: int = DEFAULT_CAP) -> tuple:
    """Diameter of the graph on all linear extensions where adjacency is one
    adjacent transposition, with every unordered diametral pair.

    The diameter is taken as the maximum pairwise reversal distance, which
    classically equals the graph distance; breadth-first search re-derives
    it from adjacency alone as a consistency check (from every vertex up to
    256 vertices, from the diametral endpoints beyond that).  cap bounds
    the V extensions listed and 16 * cap the V(V-1)/2 pairs scanned: a pair
    costs about a thirtieth of an extension listed, and the 8.8 million
    pairs of the chevron's downset lattice fit the default cap.
    """
    exts = all_linear_extensions(P, cap)
    V = len(exts)
    if (pairs := V * (V - 1) // 2) > 16 * cap:
        raise CapExceeded(f"{pairs} pairs of linear extensions, more than 16 * {cap}")
    if V == 1:
        return 0, []
    masks = _reversal_masks(P, exts)
    diam = 0
    census = []
    for i in range(V):
        mi = masks[i]
        for j in range(i + 1, V):
            d = (mi ^ masks[j]).bit_count()
            if d > diam:
                diam = d
                census = [(i, j)]
            elif d == diam:
                census.append((i, j))

    index = {e: k for k, e in enumerate(exts)}
    if V <= _BFS_ALL_SOURCES_LIMIT:
        sources = range(V)
    else:
        sources = sorted({i for ij in census for i in ij})[:8]
    reached_all = False
    for s in sources:
        dist = _bfs(P, exts, index, s)
        _check(min(dist) >= 0, "linear extension graph must be connected")
        reached_all = True
        _check(max(dist) <= diam, "graph distance exceeds reversal distance")
        for j, d in enumerate(dist):
            _check(d == (masks[s] ^ masks[j]).bit_count(),
                   "graph distance must equal reversal distance")
    _check(reached_all, "no breadth-first search ran")
    return diam, [(exts[i], exts[j]) for i, j in census]


def brute_led_downset(P: Poset, cap: int = DEFAULT_CAP) -> tuple:
    """led of the downset lattice by brute force: build the lattice, take
    the diameter of its linear extension graph, and report the diametral
    pairs as sequences of downsets."""
    dl = downset_lattice(P, cap)
    diam, pairs = le_graph_diameter(dl.lattice, cap)
    as_downs = [
        (
            tuple(dl.downsets[e - 1] for e in e1),
            tuple(dl.downsets[e - 1] for e in e2),
        )
        for e1, e2 in pairs
    ]
    return diam, as_downs


class EquivalenceClass(NamedTuple):
    """All ordered antichain pairs (A, B) sharing A - B union B - A = D and
    A intersect B = I, generated through the subset bijection: K a set of
    components of the subposet on D, X_K collecting Max of the chosen
    components and Min of the unchosen ones of size above one."""

    D: tuple
    I: tuple
    components: tuple        # components of P[D], each a sorted tuple
    pairs: tuple             # ordered (A, B) per subset K, K = bitmask order
    downset_pairs: tuple     # the same pairs as downsets


def enumerate_classes(P: Poset, cap: int = DEFAULT_CAP) -> list:
    """Every class, sorted by (D, I).  The scan stores every ordered pair
    of antichains, so more than cap pairs raise CapExceeded before it."""
    chains = enumerate_antichains(P, cap)
    if len(chains) ** 2 > cap:
        raise CapExceeded(f"more than {cap} antichain pairs")
    grouped = {}
    for A in chains:
        sa = set(A)
        for B in chains:
            sb = set(B)
            key = (tuple(sorted(sa ^ sb)), tuple(sorted(sa & sb)))
            grouped.setdefault(key, set()).add((A, B))

    out = []
    for (D, I) in sorted(grouped):
        members = grouped[(D, I)]
        _check(not set(D) & set(I), "D and I must be disjoint")
        for x in I:
            for y in D:
                _check(P.incomparable(x, y), "I must be incomparable to D")
        dmask = _mask_of(P.n, D)
        comps = [tuple(j + 1 for j in _bits(c)) for c in component_masks(P, dmask)]
        d = len(comps)
        _check(len(members) == 1 << d, "class size must be 2^components")
        pairs = []
        downs = []
        for K in range(1 << d):
            X = set()
            for t, comp in enumerate(comps):
                if K >> t & 1:
                    X.update(max_of(P, comp))
                elif len(comp) > 1:
                    X.update(min_of(P, comp))
            A = tuple(sorted(X | set(I)))
            B = tuple(sorted((set(D) - X) | set(I)))
            _check((A, B) in members, "bijection must hit the class")
            pairs.append((A, B))
            downs.append((downset_of(P, A), downset_of(P, B)))
        _check(len(set(pairs)) == len(members), "bijection must be onto")
        out.append(EquivalenceClass(D, I, tuple(comps), tuple(pairs), tuple(downs)))
    return out


def _positions_of(C: EquivalenceClass, L: LatticeExtension) -> list:
    try:
        return [(L.index[a], L.index[b]) for a, b in C.downset_pairs]
    except KeyError as missing:
        raise MismatchedGroundSets(f"downset {missing} not in the extension")


def class_reversals(C: EquivalenceClass, L1: LatticeExtension,
                    L2: LatticeExtension) -> int:
    """Unordered downset pairs of the class ordered oppositely by L1, L2."""
    _common_ground(L1, L2)
    p1 = _positions_of(C, L1)
    p2 = _positions_of(C, L2)
    seen = set()
    count = 0
    for (a1, b1), (a2, b2) in zip(p1, p2):
        key = frozenset((a1, b1))
        if len(key) < 2 or key in seen:
            continue
        seen.add(key)
        if (a1 < b1) != (a2 < b2):
            count += 1
    return count


def kleitman_families(C: EquivalenceClass, L1: LatticeExtension,
                      L2: LatticeExtension) -> tuple:
    """F_i = the subsets K with the K-side downset before its partner in
    L_i.  Both families come out downward closed with 2^(d-1) members, and
    |F1| * |F2| <= 2^d * |F1 and F2| (the counting inequality behind the
    class contribution bound); all three facts are checked."""
    _common_ground(L1, L2)
    d = len(C.components)
    pos = [_positions_of(C, L) for L in (L1, L2)]
    fams = (set(), set())
    for K in range(1 << d):
        members = frozenset(t for t in range(d) if K >> t & 1)
        for f, p in zip(fams, pos):
            a, b = p[K]
            if a < b:
                f.add(members)
    for f in fams:
        if d:
            _check(len(f) == 1 << (d - 1), "exactly one of K, complement is down")
        for K in f:
            for t in K:
                _check(K - {t} in f, "family must be downward closed")
    _check(len(fams[0]) * len(fams[1]) <= (1 << d) * len(fams[0] & fams[1]),
           "Kleitman's inequality fails")
    return fams


class CriticalPair(NamedTuple):
    x: int
    y: int


def critical_pairs(P: Poset) -> list:
    """Ordered incomparable pairs (x, y) with everything below x below y and
    everything above y above x; swapping such a pair keeps extendability."""
    down, up = P.down_masks, P.up_masks
    return [CriticalPair(x + 1, y + 1) for x in range(P.n) for y in _bits(P.inc_masks[x])
            if not down[x] & ~down[y] and not up[y] & ~up[x]]


def is_diametrally_reversing(P: Poset, cap: int = DEFAULT_CAP) -> bool:
    """Does every extension occurring in a diametral pair reverse some
    critical pair?  Vacuously true when the graph has a single vertex."""
    _, pairs = le_graph_diameter(P, cap)
    if not pairs:
        return True
    crits = critical_pairs(P)
    for pair in pairs:
        for ext in pair:
            pos = {e: p for p, e in enumerate(ext)}
            if not any(pos[c.x] > pos[c.y] for c in crits):
                return False
    return True
