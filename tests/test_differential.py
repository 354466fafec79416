"""led_downset against independent routes to the same number.

Differential: on small random 2D orders, the engine (for several
non-separating sigmas), the class-sum bound (tight in dimension two) and
the reversal distance of the revlex diametral pair must agree.

Metamorphic: at sizes no oracle reaches, the diameter is invariant under
duality (D_{P^op} is D_P turned upside down), additive over ordinal sums
(D_{P+Q} is D_P stacked on D_Q), and fixed by the antichain counts over
disjoint unions (D_{P+Q} is the product of D_P and D_Q).
"""

import random
from math import comb

import posetkit as pk

from conftest import dual, random_extension, random_two_dim


def disjoint_union(P, Q):
    """P beside Q: Q renumbered after P, nothing of P comparable to Q."""
    m = P.n
    pairs = P.relation_pairs() + [(m + x, m + y) for x, y in Q.relation_pairs()]
    return pk.poset_from_relations(m + Q.n, pairs)


def ordinal_sum(P, Q):
    """P below Q: every element of P precedes every element of Q."""
    S = disjoint_union(P, Q)
    pairs = [(x, P.n + y) for x in P.elements() for y in Q.elements()]
    return pk.poset_from_relations(S.n, S.relation_pairs() + pairs)


def test_engine_bound_and_diametral_pair_agree():
    rng = random.Random(31)
    checked = others = 0
    for _ in range(150):
        P = random_two_dim(rng.randint(5, 11), rng)
        r = pk.realizer(P)
        # led_upper_bound enumerates antichain pairs; keep it quick
        if pk.count_antichains(P, r.sigma).total > 400:
            continue
        led = pk.led_downset(P).led
        assert pk.led_upper_bound(P) == led
        assert pk.reversal_distance(*pk.diametral_pair(P)) == led
        assert pk.led_downset(P, r.sigma_bar).led == led
        for _ in range(3):
            sigma = random_extension(P, rng)
            if pk.is_non_separating(P, sigma):
                assert pk.led_downset(P, sigma).led == led
                others += 1
        checked += 1
    assert checked >= 100 and others >= 50


def test_dual_has_the_same_diameter():
    rng = random.Random(37)
    for n in (40, 60, 80, 100):
        P = random_two_dim(n, rng)
        assert pk.led_downset(dual(P)).led == pk.led_downset(P).led


def test_ordinal_sum_adds_diameters():
    rng = random.Random(41)
    for n, m in ((40, 45), (50, 70), (60, 40)):
        P = random_two_dim(n, rng)
        Q = random_two_dim(m, rng)
        S = ordinal_sum(P, Q)
        assert pk.led_downset(S).led == pk.led_downset(P).led + pk.led_downset(Q).led


def _antichain_count(P):
    return pk.count_antichains(P, pk.realizer(P).sigma).total


def _union_diameter(P, Q):
    """led(P + Q) from the parts: a(P) led(Q) + a(Q) led(P) + C(a(P), 2) C(a(Q), 2),
    a(.) the antichain count, which is the downset count."""
    a, b = _antichain_count(P), _antichain_count(Q)
    return a * pk.led_downset(Q).led + b * pk.led_downset(P).led + comb(a, 2) * comb(b, 2)


def test_disjoint_union_diameter_from_the_parts():
    rng = random.Random(43)
    for n, m in ((30, 25), (40, 40), (25, 35)):
        P, Q = random_two_dim(n, rng), random_two_dim(m, rng)
        assert pk.led_downset(disjoint_union(P, Q)).led == _union_diameter(P, Q)
    # and the reversal distance of the diametral pair: 11 points give at
    # most 2^11 downsets
    for n, m in ((6, 5), (4, 7)) * 4:
        P, Q = random_two_dim(n, rng), random_two_dim(m, rng)
        S = disjoint_union(P, Q)
        assert pk.reversal_distance(*pk.diametral_pair(S)) == _union_diameter(P, Q)
