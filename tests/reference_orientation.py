"""Transitive orientation by implication-class forcing on sets of arc
tuples, and the realizer orders sorted by predecessor counts: the reference
the bitmask forcing and the rank placement in posetkit.realizer are pinned
to.

Same seeds in the same order as the library, so on a two-dimensional poset
the two must agree arc for arc and position for position.
"""

from posetkit.poset import _bits


def reference_orientation(P):
    """Sorted 1-based arcs, or None when some class forces an edge both
    ways (the poset is not two-dimensional)."""
    n = P.n
    adj = list(P.inc_masks)
    oriented = set()

    def force(seed):
        queue = [seed]
        cls = {seed}
        while queue:
            a, b = queue.pop()
            for c in _bits(adj[a] & ~adj[b] & ~(1 << b)):
                if (a, c) not in cls:
                    cls.add((a, c))
                    queue.append((a, c))
            for c in _bits(adj[b] & ~adj[a] & ~(1 << a)):
                if (c, b) not in cls:
                    cls.add((c, b))
                    queue.append((c, b))
        if any((b, a) in cls for a, b in cls):
            return False
        for a, b in cls:
            oriented.add((a, b))
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
        return True

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1 and not force((i, j)):
                return None
    return sorted((a + 1, b + 1) for a, b in oriented)


def reference_realizer(P):
    """(sigma, sigma_bar): the elements sorted by their number of
    predecessors in P plus the orientation, and plus its reverse."""
    arcs = reference_orientation(P)
    if arcs is None:
        return None
    orders = []
    for flip in (False, True):
        below = list(P.down_masks)
        for a, b in arcs:
            if flip:
                a, b = b, a
            below[b - 1] |= 1 << (a - 1)
        order = sorted(P.elements(), key=lambda e: bin(below[e - 1]).count("1"))
        if [bin(below[e - 1]).count("1") for e in order] != list(range(P.n)):
            raise ValueError("P plus the orientation is not a linear order")
        orders.append(tuple(order))
    return tuple(orders)
