"""Every 2D order up to n = 7, not a seeded sample.

P_tau runs over every order of dimension at most two on n points, up to
isomorphism, as tau runs over S_n (conftest.two_dim_orders): 5913 orders
for n = 1..7.  On each, the engine, the split sums, the revlex pair, the
dual, the antichain DP and the realizer must agree with each other and
with brute counts; a failure names tau.  n = 8 (40 320 orders, about 40 s)
runs in CI, from the tests directory on the path:

    python -c "import test_census; test_census.test_every_two_dimensional_order(8)"
"""

import pytest

import posetkit as pk
from posetkit.led import _led_sums

from conftest import two_dim_orders


def _brute_antichain_count(P):
    """Every antichain listed, one element at a time: those without the
    element, and those with it that hold nothing comparable to it."""
    antichains = [0]
    for i, (up, down) in enumerate(zip(P.up_masks, P.down_masks)):
        antichains += [A | 1 << i for A in antichains if not A & (up | down)]
    return len(antichains)


def _after(order):
    """Element -> the mask of the elements after it in order."""
    after, seen = {}, 0
    for e in reversed(order):
        after[e] = seen
        seen |= 1 << (e - 1)
    return after


def _check(P):
    r = pk.realizer(P)
    b, bar = pk.led_downset(P, r.sigma), pk.led_downset(P, r.sigma_bar)
    led = b.led
    assert (*bar[:4], bar.led) == (*b[:4], led)
    assert _led_sums(P, r.sigma) == (b.alpha, b.beta, b.gamma, b.delta, led)
    assert pk.reversal_distance(*pk.diametral_pair(P, r=r)) == led
    # P^op has the rows of P's downsets, and the realizer of P reversed
    assert pk.led_downset(pk.Poset(P.n, P.down_masks), r.sigma[::-1]).led == led
    assert pk.count_antichains(P, r.sigma).total == _brute_antichain_count(P)
    first, second = _after(r.sigma), _after(r.sigma_bar)
    assert [first[e] & second[e] for e in P.elements()] == list(P.up_masks)
    # a < b in P_tau only if a < b as integers: a part is a chain in that order
    parts = pk.components(P)
    if all(P.less(x, y) for part in parts for x, y in zip(part, part[1:])):
        assert pk.led_chain_union([len(part) for part in parts]) == led


@pytest.mark.parametrize("n", range(1, 8))
def test_every_two_dimensional_order(n):
    for tau, P in two_dim_orders(n):
        try:
            _check(P)
        except Exception as exc:  # a contract check that raises is named too
            raise AssertionError(f"tau = {tau}") from exc

