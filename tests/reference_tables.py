"""The delta tables by the direct quadruple loop, every a(mask) evaluated
from scratch: the reference the engine's sweep-based tables are pinned to.

Works on position-space masks that `position_masks` reads off P and sigma
one pair at a time, so nothing here comes from the engine, and returns
dicts keyed by 0-based position pairs (k, l), one entry for every x_k below
x_l.
"""

from posetkit.poset import _bits


def position_masks(P, sigma):
    """down[p] and inc[p]: the positions whose element is below, and
    incomparable to, x_p = sigma[p], as bitmasks over 0-based positions."""
    down = [sum(1 << q for q, f in enumerate(sigma) if P.less(f, e)) for e in sigma]
    inc = [sum(1 << q for q, f in enumerate(sigma) if P.incomparable(f, e)) for e in sigma]
    return down, inc


def antichain_count(inc, mask):
    """Antichains (empty one included) of the subposet on the positions in
    mask, by the DP along sigma."""
    vals = {}
    total = 1
    for p in _bits(mask):
        s = 1
        for q in _bits(inc[p] & mask & ((1 << p) - 1)):
            s += vals[q]
        vals[p] = s
        total += s
    return total


def reference_tables(down, inc):
    n = len(inc)
    memo = {}

    def a(mask):
        if mask not in memo:
            memo[mask] = antichain_count(inc, mask)
        return memo[mask]

    d1 = {}
    d2 = {}
    dd = {}
    for l in range(n):
        dmask = down[l]
        incl = inc[l]
        for k in _bits(dmask):
            below_k = (1 << k) - 1
            s1 = 0
            for i in _bits((below_k | 1 << k) & (inc[k] | 1 << k) & dmask):
                mid = below_k & ~((1 << (i + 1)) - 1)
                p_ikl = mid & inc[i] & inc[k] & dmask
                left = ((1 << i) - 1) & incl
                s1 += a(p_ikl) * a(left)
            s2 = 0
            between_kl = ((1 << l) - 1) & ~(below_k | 1 << k)
            for lp in _bits(between_kl & incl):
                s2 += dd.get((k, lp), 0)
            for lp in _bits(below_k & incl):
                below_lp = (1 << lp) - 1
                for kp in _bits(below_lp & down[lp] & dmask & inc[k]):
                    val = dd.get((kp, lp), 0)
                    if val:
                        w = below_k & ~(below_lp | 1 << lp)
                        w &= dmask & inc[k] & inc[kp]
                        s2 += val * a(w)
            d1[(k, l)] = s1
            d2[(k, l)] = s2
            dd[(k, l)] = s1 + s2
    return d1, d2, dd


def reference_delta(inc, dd):
    """2 * sum of dd(k, l) * a(inc[k] after l): the final delta sum."""
    total = 0
    for (k, l), v in dd.items():
        total += v * antichain_count(inc, inc[k] & ~((1 << (l + 1)) - 1))
    return 2 * total
