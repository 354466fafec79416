"""led_downset against independent routes to the same number.

Differential: on small random 2D orders, the engine (for several
non-separating sigmas), the class-sum bound (tight in dimension two) and
the reversal distance of the revlex diametral pair must agree.

Pinned: on prime orders of width 2 to 4 and hundreds of points, the
engine's led equals the reversal distance of the two revlex walks.

Metamorphic: at sizes no oracle reaches, the diameter is invariant under
duality (D_{P^op} is D_P turned upside down), additive over ordinal sums
(D_{P+Q} is D_P stacked on D_Q), and fixed by the antichain counts over
disjoint unions (D_{P+Q} is the product of D_P and D_Q).
"""

import random
from math import comb

import posetkit as pk
from posetkit import led as led_module
from posetkit.led import _led_sums
from posetkit.revlex import _inversions, _revlex_pair

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


def runs_order(n, w, rng):
    """The 2D order of a permutation made of w increasing runs: the values
    0..n-1 are dealt to w runs at random, each run is written increasing
    and the runs one after another.  a < b iff a comes first and has the
    smaller value, so the width is at most w (a decreasing subsequence
    takes one value per run), and the antichains are few enough to list."""
    run = [rng.randrange(w) for _ in range(n)]
    pi = [v for g in range(w) for v in range(n) if run[v] == g]
    return pk.poset_from_relations(n, [(a + 1, b + 1) for a in range(n)
                                       for b in range(a + 1, n) if pi[a] < pi[b]])


def test_engine_matches_the_revlex_walks_on_prime_orders_of_hundreds(monkeypatch):
    # the paper's diametral construction: the revlex orders of sigma and
    # sigma_bar, listed by the antichain walk, whose reversal distance is
    # counted by the Fenwick tree; it shares with the engine only `ends`
    # (the downset count that _revlex_pair checks against its cap) and the
    # realizer
    blocks = []
    engine_sums = led_module._engine_sums
    monkeypatch.setattr(led_module, "_engine_sums",
                        lambda sbar: blocks.append(len(sbar)) or engine_sums(sbar))
    rng = random.Random(14)
    for w, n in ((2, 200), (2, 400), (3, 200), (3, 300), (4, 150)):
        P = runs_order(n, w, rng)
        r = pk.realizer(P)
        w1, w2 = _revlex_pair(P, 10 ** 6, r)
        at = {D: i + 1 for i, (_, D) in enumerate(w1)}
        distance = _inversions([at[D] for _, D in w2])
        blocks.clear()
        Q = dual(P)
        leds = [_led_sums(P, r.sigma)[4], _led_sums(P, r.sigma_bar)[4],
                _led_sums(Q, pk.realizer(Q).sigma)[4]]
        assert leds == [distance] * 3, (w, n)
        # the engine ran on one prime block of nearly every point
        assert len(blocks) == 3 and min(blocks) > 0.9 * n > 100, (w, n, blocks)


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
