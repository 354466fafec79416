"""Series-parallel orders drawn as series/parallel trees, with the antichain
count a, gamma and led of each computed bottom-up from its tree: the
reference that the split in posetkit.led._led_sums and the whole-order
engine behind led_downset are pinned to, at sizes no brute force reaches.

Nothing here decomposes a poset.  The ids are shuffled before the tree is
drawn, a leaf's values are known, and an inner node's follow from its
children's by the rules behind the closed forms of B_n and of chain unions
(Felsner & Massow):

- a point has a = 2, gamma = 2 and led = 0;
- the N order (1 < 3, 2 < 3, 2 < 4), which is prime, has 8, 20 and 5
  (its led from the brute-force oracle, which a test re-checks);
- over an ordinal sum, a - 1, gamma and led add;
- over a disjoint union, a multiplies, gamma is a(P)gamma(Q) +
  a(Q)gamma(P), and led is a(P)led(Q) + a(Q)led(P) + C(a(P), 2)C(a(Q), 2).
"""

from functools import reduce
from math import comb
from typing import NamedTuple

import posetkit as pk

POINT = (2, 2, 0)
N_ORDER = (8, 20, 5)
N_COVERS = ((0, 2), (1, 2), (1, 3))


def ordinal_sum(lower, upper):
    (a, g, led), (a2, g2, led2) = lower, upper
    return a + a2 - 1, g + g2, led + led2


def disjoint_union(left, right):
    (a, g, led), (a2, g2, led2) = left, right
    return a * a2, a * g2 + a2 * g, a * led2 + a2 * led + comb(a, 2) * comb(a2, 2)


def breakdown(values):
    """alpha, beta, gamma, delta and led from (a, gamma, led): alpha = a^2
    ordered antichain pairs, beta = a on the diagonal, and delta what the
    other three leave of alpha - 4 led."""
    a, g, led = values
    return a * a, a, g, a * a - a - g - 4 * led, led


class Drawn(NamedTuple):
    poset: object
    values: tuple            # (a, gamma, led)
    prime_leaves: int        # N orders among the leaves


def random_series_parallel(n, rng, deep=False, prime_leaves=False):
    """A random series/parallel tree on n points with shuffled ids.  Each
    inner node cuts its points into 2-4 runs, or with deep into a run of
    1-3 points and the rest, so that the tree is about n/2 levels deep.
    Kinds alternate down the tree, the root's drawn at random.  With
    prime_leaves, half of the 4-point runs become N orders."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    pairs, primes = [], []

    def build(points, series):
        m = len(points)
        if m == 1:
            return POINT
        if prime_leaves and m == 4 and rng.random() < 0.5:
            pairs.extend((points[i], points[j]) for i, j in N_COVERS)
            primes.append(points)
            return N_ORDER
        if deep:
            small = rng.randint(1, min(3, m - 1))
            cuts = [small if rng.random() < 0.5 else m - small]
        else:
            cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(3, m - 1))))
        parts = [points[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
        values = [build(part, not series) for part in parts]
        if series:
            pairs.extend((a, b) for lo, hi in zip(parts, parts[1:]) for a in lo for b in hi)
        return reduce(ordinal_sum if series else disjoint_union, values)

    values = build(ids, rng.random() < 0.5)
    return Drawn(pk.poset_from_relations(n, pairs), values, len(primes))


def zigzag(n, rng):
    """(P, sigma, (a, gamma, led)) for the order built point by point on
    shuffled ids, each new point put above all before it (an ordinal sum)
    and beside them (a disjoint union) in turn, so the tree is n levels
    deep.  P is given by its covers, and sigma, the order the points came
    in, is a non-separating linear extension: each point comes after all
    below it, and one beside all before it straddles no pair."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    covers, tops, values = [], [ids[0]], POINT
    for k, x in enumerate(ids[1:]):
        if k % 2 == 0:
            covers += [(t, x) for t in tops]
            tops, values = [x], ordinal_sum(values, POINT)
        else:
            tops.append(x)
            values = disjoint_union(values, POINT)
    return pk.poset_from_relations(n, covers), ids, values
