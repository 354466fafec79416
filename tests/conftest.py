"""Shared generators for the test suite: exhaustive small posets up to
isomorphism, random 2-dimensional posets, and brute-force baselines."""

import itertools
import random

import posetkit as pk


def closed_relation_subsets(n):
    """All subsets of the numerically increasing pairs on 1..n that are
    transitively closed.  Every poset is isomorphic to one of these, since
    any linear extension can be relabeled to the identity."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for sub in range(1 << len(pairs)):
        rel = {pairs[t] for t in range(len(pairs)) if sub >> t & 1}
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b2 == b and a != c
        ):
            yield sorted(rel)


def canonical_relations(P):
    best = None
    rels = P.relation_pairs()
    for perm in itertools.permutations(range(1, P.n + 1)):
        key = tuple(sorted((perm[a - 1], perm[b - 1]) for a, b in rels))
        if best is None or key < best:
            best = key
    return best


def all_posets_upto_iso(n):
    seen = set()
    out = []
    for rel in closed_relation_subsets(n):
        P = pk.poset_from_relations(n, rel)
        key = canonical_relations(P)
        if key not in seen:
            seen.add(key)
            out.append(P)
    return out


def two_dim_orders(n):
    """(tau, P_tau) for every permutation tau of 1..n: a < b in P_tau iff
    a < b as integers and a comes before b in tau.  A 2D order is the
    intersection of two linear orders; numbering the points along the
    first makes it one of these, so they run over every order of dimension
    at most two on n points, up to isomorphism."""
    for tau in itertools.permutations(range(1, n + 1)):
        yield tau, pk.poset_from_relations(
            n, [(a, b) for i, a in enumerate(tau) for b in tau[i + 1:] if a < b])


def random_two_dim(n, rng):
    """Intersection of two random permutation orders: 2-dimensional (or
    less) by construction."""
    p1 = list(range(1, n + 1))
    p2 = list(range(1, n + 1))
    rng.shuffle(p1)
    rng.shuffle(p2)
    r1 = {e: i for i, e in enumerate(p1)}
    r2 = {e: i for i, e in enumerate(p2)}
    rel = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b and r1[a] < r1[b] and r2[a] < r2[b]
    ]
    return pk.poset_from_relations(n, rel)


def random_not_two_dim(n, rng):
    """A random order on n points, drawn until it is not two-dimensional.
    Every order on at most 5 points is two-dimensional, so n < 6 is
    refused instead of drawn forever."""
    if n < 6:
        raise ValueError(f"every order on {n} < 6 points is two-dimensional")
    while True:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.4]
        P = pk.poset_from_relations(n, pairs)
        if not pk.is_two_dimensional(P):
            return P


def shuffled_chain_union(lengths, rng):
    """Disjoint chains of the given lengths on randomly assigned ids."""
    ids = list(range(1, sum(lengths) + 1))
    rng.shuffle(ids)
    covers, base = [], 0
    for length in lengths:
        chain = ids[base:base + length]
        covers.extend(zip(chain, chain[1:]))
        base += length
    return pk.poset_from_relations(len(ids), covers)


def random_series_parallel(n, rng):
    """A random series-parallel order on n points with shuffled ids, built
    from a random series/parallel tree, never by decomposing a poset.  Each
    inner node cuts its points into 2-4 subtrees and puts them side by side
    (a disjoint union) or one above the other (an ordinal sum), the kinds
    alternating down the tree, so unions nest inside sums and sums inside
    unions.  The leaves are single points."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    pairs = []

    def build(points, series):
        if len(points) == 1:
            return
        cuts = sorted(rng.sample(range(1, len(points)), rng.randint(1, min(3, len(points) - 1))))
        parts = [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]
        for part in parts:
            build(part, not series)
        if series:
            pairs.extend((a, b) for lo, hi in zip(parts, parts[1:]) for a in lo for b in hi)

    build(ids, rng.random() < 0.5)
    return pk.poset_from_relations(n, pairs)


def separates(P, order):
    """The literal definition: some u < v has an x between them in order
    that is incomparable to both."""
    return any(
        P.less(u, v) and P.incomparable(x, u) and P.incomparable(x, v)
        for u, x, v in itertools.combinations(order, 3)
    )


def downset_covers(P, downsets):
    """The covering pairs (D, D + x) of the downset lattice, literally: each
    listed D with each x outside it for which D + x is listed.  downsets
    must be every downset of P, as tuples; the pairs hold those tuples."""
    listed = {D: D for D in downsets}
    return [(D, listed[E]) for D in listed for x in P.elements()
            if x not in D and (E := tuple(sorted(D + (x,)))) in listed]


def dual(P):
    """P^op: the same ground set with every relation reversed."""
    return pk.poset_from_relations(P.n, [(y, x) for x, y in P.relation_pairs()])


def random_extension(P, rng):
    placed = 0
    order = []
    down = P.down_masks
    while len(order) < P.n:
        avail = [
            i + 1
            for i in range(P.n)
            if not placed >> i & 1 and not down[i] & ~placed
        ]
        pick = rng.choice(avail)
        order.append(pick)
        placed |= 1 << (pick - 1)
    return tuple(order)


def brute_antichains(P):
    """Subset filter baseline for the antichain-count DP."""
    out = []
    for r in range(P.n + 1):
        for sub in itertools.combinations(P.elements(), r):
            if not any(P.less(a, b) for a in sub for b in sub):
                out.append(sub)
    return out


def as_lattice_extension(dl, ext):
    """Wrap a linear extension of the lattice poset (element ids) as an
    extension listing the downsets themselves."""
    order = tuple(dl.downsets[e - 1] for e in ext)
    return pk.LatticeExtension(order, {d: p for p, d in enumerate(order, 1)})


def validate_lattice_extension(P, L, cap=pk.DEFAULT_CAP):
    """The order must list every downset exactly once and respect inclusion."""
    downs = [tuple(j + 1 for j in pk.poset._bits(m))
             for m in pk.all_downsets(P, cap)]
    assert sorted(L.order) == sorted(downs)
    for p, early in enumerate(L.order):
        s = set(early)
        for late in L.order[p + 1:]:
            assert not s > set(late), (early, late)
