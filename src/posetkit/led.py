"""Exact linear extension diameters of downset lattices, in polynomial time.

Everything here works in sigma-position space: a non-separating linear
extension sigma of P is fixed, elements are addressed by their 1-based
position in sigma, and the order is kept as their ranks in the conjugate
of sigma alone.  The counting recurrences need sigma to be non-separating;
_ranks checks that once, by those ranks, and raises SeparatingExtension
otherwise.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import accumulate, combinations, islice
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ContractViolation, SeparatingExtension
from .poset import Poset, _antichains, _check_index, component_masks, induced
from .realizer import _conjugate_ranks, realizer


def _quarter(num: int) -> int:
    """num / 4 for a count that the theory makes divisible by 4."""
    if num % 4:
        raise ContractViolation(f"count {num} is not divisible by 4")
    return num // 4


def led_boolean(n: int) -> int:
    """Diameter of the linear extension graph of the lattice of all subsets
    of an n-element set: 2^(2n-2) - (n+1) * 2^(n-2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _quarter((1 << (2 * n)) - (n + 1) * (1 << n))


def led_chain_union(lengths: Sequence[int]) -> int:
    """Closed form for the downset lattice of a disjoint union of chains
    with the given lengths."""
    if not lengths:
        raise ValueError("need at least one chain")
    if any(l < 1 for l in lengths):
        raise ValueError("chain lengths must be at least 1")
    # prod antichains, of which l_k * prod ordered pairs differ in chain k alone
    prod = math.prod(l + 1 for l in lengths)
    return _quarter(prod * (prod - sum(lengths) - 1))


def _ranks(P: Poset, sigma: Sequence[int]) -> list:
    """The ranks of the sigma positions in sigma_bar, the conjugate of
    sigma, once sigma is checked to be a non-separating extension of P."""
    sbar = _conjugate_ranks(P, sigma)
    if sorted(sbar) != list(range(P.n)):
        raise SeparatingExtension(f"{tuple(sigma)} separates a comparable pair")
    return sbar


class _Engine:
    """Per-order context, from the ranks of a non-separating sigma alone:
    the antichain-count sweeps along sigma, and the delta table rows."""

    def __init__(self, sbar: list):
        # sbar[p]: the rank of x_p in sigma_bar (see _ranks and tables, fact 1)
        self.sbar = sbar
        self.n = len(sbar)
        # ends[p] = a(inc[p] before p): the antichains whose sigma-last
        # member is x_p; 1 + sum(ends) counts all antichains of P
        self.ends = self.sweep(range(self.n))

    def sweep(self, positions: Sequence[int], backward: bool = False) -> list:
        """One pass of the antichain DP over the increasing positions given.

        vals[p] counts the antichains of the subposet on positions whose
        sigma-last member (sigma-first when backward) is x_p, so a(positions)
        is 1 + sum(vals); vals is 0 off positions.  Summing vals over a
        prefix (suffix when backward) of positions counts the antichains of
        that prefix (suffix).  The swept x_q || x_p are those ranked after
        x_p in sigma_bar, before it when backward (fact 1 of tables): vals[p]
        is 1 plus the swept values kept by rank, summed over one slice that
        ends at the last rank swept, so it is empty on a chain."""
        n = self.n
        vals = [0] * n
        by_rank = [0] * n          # vals of the swept positions, by rank
        top = 0                    # the swept ranks lie below top
        for p in reversed(positions) if backward else positions:
            r = n - 1 - self.sbar[p] if backward else self.sbar[p]
            vals[p] = by_rank[r] = 1 + sum(by_rank[r + 1:top])
            if r >= top:
                top = r + 1
        return vals

    @cached_property
    def after(self) -> list:
        """after[p] = a(inc[p] after p): the backward sweep over all of P."""
        return self.sweep(range(self.n), backward=True)

    @property
    def gamma(self) -> int:
        return 2 * sum(map(mul, self.ends, self.after))

    def sums(self, rows) -> tuple:
        """(a, gamma, led) of the order, from the rows of `tables`."""
        a, gam = 1 + sum(self.ends), self.gamma
        return a, gam, _quarter(a * a - a - gam - 2 * sum(term for _, _, term in rows))

    def tables(self):
        """Yields, for k = 0, 1, ..., n - 1, the rows d1[k] and dd[k] of
        delta1 and delta1 + delta2 at 0-based (k, l), 0 unless x_k < x_l,
        and row k's term of the final delta sum, dd(k, l) * a(inc[k] after
        l) over l.  Case B keeps the dd rows; d1 rows are the caller's.

        delta1(k, l) counts the configurations whose only maximum is x_l:
        pick the sigma-least minimum x_i (i == k or x_i || x_k), fill in
        further minima between x_i and x_k from P_{i,k,l}, and attach a side
        antichain left of x_i that is incomparable to x_l.

        delta2(k, l) handles configurations with extra maxima besides x_l.
        Dropping x_l together with the minima that sit sigma-after the
        second-largest maximum x_l' leaves a smaller configuration of the
        same shape.  Two cases by the position of x_l': after x_k (case A),
        the smaller configuration keeps the same k, giving dd(k, l'); before
        x_k (case B), it ends at some k' < l' and the dropped minima are x_k
        itself plus any antichain of W, the part of P_{k',k,l} past x_l',
        giving dd(k', l') * a(W).

        Every a(.) comes from a sweep (see `sweep`), by four facts that
        follow from sigma being non-separating:

        1. The conjugate order sigma_bar (P, plus sigma reversed on
           incomparable pairs) is a linear extension, as __init__ checks:
           x_p has rank sbar[p] = |down[p]| + |inc[p] after p| in it (the
           positions below and incomparable to x_p).  For p before q in
           sigma, x_p < x_q iff p comes first in sigma_bar, and x_p || x_q
           iff p comes last: the engine keeps no sets, only these ranks.
        2. W = (l', k) & inc[k] & inc[k'] & down[l] loses its down[l]: an
           x_j sigma-between x_k' < x_l with x_j || x_k' is below x_l.  So
           a(W) does not depend on l, and for fixed (k', k) one backward
           sweep over S = (k', k) & inc[k] & inc[k'] gives it for every l'
           as a suffix sum.  The sweep's counts depend on k alone (a later
           member of an antichain starting in S stays in S), so one sweep
           over inc[k] before k, from the lowest k' on, serves every k'.
        3. Likewise P_{i,k,l} = (i, k) & inc[i] & inc[k]: it is the part of
           S after x_i that is incomparable to x_i, so its count is
           starts[i], the value of fact 2's sweep at i (starts[k] = 1 for
           the empty P_{k,k,l}).  An x_l' above x_k' before x_k lies in S,
           so case B's walk for k' goes down S from x_k to x_k' and adds up
           the sweep on S & inc[k'] (ranked below sbar[k']); past the lowest
           x_l' above x_k' no term reads that sum.  Every x_i and x_k' read
           lies in S below an x_l above x_k, so it ranks below the highest
           rank after k: the sweep starts at the lowest (none on two
           chains), and delta1 reads x_k and the prefix of them in rank
           order below sbar[l].  The side count a(prefix(i) & inc[l]) is a
           prefix sum of the forward sweep over all of P, `ends` (an
           antichain ending in inc[l] before x_l lies there), one pass per
           l; the final sum's a(inc[k] after l) is 1 plus the backward sweep
           `after` summed after l on the positions before k in sigma_bar
           (fact 1), the ones row k skips.  The two full sweeps also give
           gamma: ends[p] = a(inc[p] before p) and the backward value
           a(inc[p] after p), no member of the one set is comparable to a
           member of the other, so their product counts the antichains
           through x_p.
        4. Case B's filters x_l' || x_l and x_k' < x_l read, by fact 1,
           sbar(k') < sbar(l) < sbar(l'); so for fixed k each (k', l')
           term adds to one interval of sigma_bar ranks, and one
           difference array gives case B for the whole row.  Case A's x_l'
           are the filled entries of row k ranked above sbar[l], one slice.
           Rows are filled in increasing k and, within a row, increasing l,
           so every dd they read is final.

        The sweep of fact 2 costs one slice per position and nothing below
        where fact 3 starts it, case B's walk at most O(k - k') list steps
        per pair, delta1 O(|inc[k]|) and case A one slice per (k, l): the
        tables take O(n^3) big-integer additions and multiplications in
        all, and one n x n table of memory.
        """
        n = self.n
        sbar, ends, after = self.sbar, self.ends, self.after
        # left[l][i] = a(prefix(i) & inc[l]) for i < l
        left = []
        for l in range(n):
            row = []
            acc = 1
            sl = sbar[l]
            for i in range(l):
                row.append(acc)
                if sbar[i] > sl:
                    acc += ends[i]
            left.append(row)
        dd = []
        for k in range(n):
            left[k] = None  # rows k and on read only left[l] for l > k
            r1, rd = [0] * n, [0] * n
            dd.append(rd)
            sk = sbar[k]
            # nothing is above x_k unless the highest rank after k, hi, is
            if k == n - 1 or (hi := max(sbar[k + 1:])) < sk:
                yield r1, rd, 0
                continue
            # the k' of fact 3, and the position the sweep starts at
            kps = [q for q in range(k) if sk < sbar[q] < hi]
            lo = kps[0] if kps else k
            side = [p for p in range(lo, k) if sbar[p] > sk]
            starts = self.sweep(side, backward=True)
            starts[k] = 1
            # S from x_k down to x_lo, with each position's rank and count
            walk = [(p, sbar[p], starts[p]) for p in reversed(side)]
            diff = [0] * (n + 1)
            for kp in kps:
                row, skp = dd[kp], sbar[kp]
                acc, total = 1, 0
                for p, r, st in walk:
                    if p <= kp:
                        break
                    if r < skp:
                        acc += st
                    else:
                        t = row[p] * acc
                        total += t
                        diff[r] -= t
                diff[skp + 1] += total
            case_b = list(accumulate(diff))
            ranked = sorted([k, *kps], key=sbar.__getitem__)
            by_rank = [0] * n      # rd[l'] at sbar[l'] for the l' filled so far,
            top = 0                # whose ranks all lie below top
            term = filled = 0      # rd[l] weighs 1 + the sum of after[q] over skipped q > l
            for l in range(k + 1, n):
                sl = sbar[l]
                if sl < sk:
                    term += filled * after[l]
                    continue
                lrow = left[l]
                s1 = 0
                for i in ranked:
                    if sbar[i] >= sl:
                        break
                    s1 += starts[i] * lrow[i]
                s2 = case_b[sl]
                if sl + 1 < top:
                    s2 += sum(by_rank[sl + 1:top])
                r1[l] = s1
                rd[l] = by_rank[sl] = v = s1 + s2
                filled += v
                if sl >= top:
                    top = sl + 1
            yield r1, rd, term + filled


class AntichainCountTable(NamedTuple):
    per_element: dict        # element id -> antichains with that sigma-max
    total: int               # 1 + sum of the above (the empty antichain)


def count_antichains(P: Poset, sigma: Sequence[int]) -> AntichainCountTable:
    eng = _Engine(_ranks(P, sigma))
    return AntichainCountTable(dict(zip(sigma, eng.ends)), 1 + sum(eng.ends))


class SizeVector(NamedTuple):
    s: dict                  # (element id, cardinality r) -> count


def size_vectors(P: Poset, sigma: Sequence[int]) -> SizeVector:
    """The antichain DP graded by size: s[(x_p, r)] counts the r-element
    antichains whose sigma-last member is x_p, so summing over r gives
    count_antichains.  Weighting by r gives gamma / 2, which led_downset
    reads off the ungraded sweeps instead (see gamma)."""
    sbar = _ranks(P, sigma)
    rows = []
    for p in range(len(sbar)):
        row = [1]
        for q in [q for q in range(p) if sbar[q] > sbar[p]]:  # x_q || x_p
            other = rows[q]
            row.extend([0] * (len(other) + 1 - len(row)))
            for r, v in enumerate(other, start=1):
                row[r] += v
        rows.append(row)
    return SizeVector({(sigma[p], r): v for p, row in enumerate(rows)
                       for r, v in enumerate(row, start=1)})


def gamma(P: Poset, sigma: Sequence[int]) -> int:
    """Twice the number of ordered pairs (A, A - x): each antichain counted
    with multiplicity its cardinality, doubled.

    The antichains through x_p are x_p plus an antichain of inc[p] before
    p and one of inc[p] after p; sigma being non-separating, any two such
    halves are incomparable, so there are ends[p] * after[p] of them,
    from the forward and the backward sweep over all of P."""
    return _Engine(_ranks(P, sigma)).gamma


def restricted_subposets(P: Poset, sigma: Sequence[int], i: int, k: int, l: int):
    """The three side posets of the counting recurrences, for 1-based sigma
    positions i, k, l:

    - middle: positions strictly between i and k whose element is below x_l
      and forms an antichain with x_i and x_k;
    - left: positions before i whose element is incomparable to x_l;
    - right: positions after l whose element is incomparable to x_k.
    """
    _conjugate_ranks(P, sigma)  # raises unless sigma extends P
    for p in (i, k, l):
        _check_index(P.n, p, "sigma position")
    sig = tuple(sigma)
    xi, xk, xl = sig[i - 1], sig[k - 1], sig[l - 1]
    mid = []
    if i == k or P.incomparable(xi, xk):
        for p in range(i + 1, k):
            xj = sig[p - 1]
            if P.less(xj, xl) and P.incomparable(xj, xi) and P.incomparable(xj, xk):
                mid.append(xj)
    left = [sig[p - 1] for p in range(1, i) if P.incomparable(sig[p - 1], xl)]
    right = [sig[p - 1] for p in range(l + 1, P.n + 1) if P.incomparable(sig[p - 1], xk)]
    return induced(P, mid)[0], induced(P, left)[0], induced(P, right)[0]


def _row(P: Poset, sigma: Sequence[int], k: int, l: int) -> tuple:
    """Rows d1[k - 1] and dd[k - 1], k and l checked; the tables stop there."""
    eng = _Engine(_ranks(P, sigma))
    for p in (k, l):
        _check_index(eng.n, p, "sigma position")
    return next(islice(eng.tables(), k - 1, None))[:2]


def delta1(P: Poset, sigma: Sequence[int], k: int, l: int) -> int:
    return _row(P, sigma, k, l)[0][l - 1]


def delta2(P: Poset, sigma: Sequence[int], k: int, l: int) -> int:
    r1, rd = _row(P, sigma, k, l)
    return rd[l - 1] - r1[l - 1]


class LedBreakdown(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int
    delta1: dict             # (k, l) 1-based sigma positions -> count
    delta2: dict
    led: int


def _engine_sums(sbar: list) -> tuple:
    """(a, gamma, led) of the order with these ranks; no row is kept."""
    return (eng := _Engine(sbar)).sums(eng.tables())


def _sums(a: int, gam: int, led: int) -> tuple:
    """alpha, beta, gamma, delta and led from the antichain count a, gamma
    and led."""
    return a * a, a, gam, a * a - a - gam - 4 * led, led


def _led_sums(P: Poset, sigma: Sequence[int]) -> tuple:
    """alpha, beta, gamma, delta and led as led_downset defines them, with
    the engine run only on the prime blocks of sigma.

    (a, gamma, led), a the antichain count, compose as in the closed forms
    of B_n and of chain unions: a point has (2, 2, 0); over an ordinal sum
    a - 1, gamma and led add; over a disjoint union P + Q, a multiplies,
    gamma is a(P)gamma(Q) + a(Q)gamma(P) and led is a(P)led(Q) + a(Q)led(P)
    + C(a(P), 2)C(a(Q), 2).  sigma being non-separating, each part is a
    run of sigma positions (a part below the rest comes first, and one
    that is connected has a comparable pair around any position between
    its ends), so a block splits after its first or before its last i
    positions when their ranks are its lowest or highest i.  It is scanned
    from both ends, so a split costs its smaller side.
    """
    sbar = _ranks(P, sigma)
    done = []                 # (a, gamma, led) of the blocks folded so far
    # blocks (positions lo..hi - 1, ranks from base) and, under the two
    # parts of each split, its kind: True for a disjoint union
    todo = [(0, P.n, 0)]
    while todo:
        if isinstance(item := todo.pop(), bool):
            (a, gam, led), (a2, gam2, led2) = done.pop(), done.pop()
            pairs = (a * (a - 1) // 2) * (a2 * (a2 - 1) // 2)
            done.append((a * a2, a * gam2 + a2 * gam, a * led2 + a2 * led + pairs) if item
                        else (a + a2 - 1, gam + gam2, led + led2))
            continue
        lo, hi, base = item
        m, top = hi - lo, base + hi - lo - 1
        # rank sums of the first and last i + 1 positions, and of the lowest
        # and highest i + 1 ranks, which distinct ranks match only as those
        left = right = low = high = 0
        for i in range(m // 2):
            left, right = left + sbar[lo + i], right + sbar[hi - 1 - i]
            low, high = low + base + i, high + top - i
            if left in (low, high) or right in (low, high):
                break
        else:
            done.append((2, 2, 0) if m == 1 else _engine_sums([r - base for r in sbar[lo:hi]]))
            continue
        cut = lo + i + 1 if left in (low, high) else hi - 1 - i
        union = sbar[lo] > sbar[hi - 1]     # the first part ranks above the last
        todo += [union, (lo, cut, base + hi - cut if union else base),
                 (cut, hi, base if union else base + cut - lo)]
    return _sums(*done[0])


def led_downset(P: Poset, sigma: Sequence[int] | None = None) -> LedBreakdown:
    """Linear extension diameter of the lattice of downsets of P.

    alpha counts ordered antichain pairs, beta the diagonal, gamma the
    pairs differing by one element, delta the ordered pairs whose symmetric
    difference is connected with more than one element; the diameter is a
    quarter of alpha - beta - gamma - delta.  The delta dicts take the
    engine's tables over all of P.
    """
    if sigma is None:
        sigma = realizer(P).sigma
    sbar = _ranks(P, sigma)  # x_k < x_l for k < l iff sbar[k] < sbar[l] (fact 1 of tables)
    eng = _Engine(sbar)
    a, gam, led = eng.sums(rows := list(eng.tables()))
    pairs = [(k, l) for l in range(P.n) for k in range(l) if sbar[k] < sbar[l]]
    d1 = {(k + 1, l + 1): rows[k][0][l] for k, l in pairs}
    d2 = {(k + 1, l + 1): rows[k][1][l] - rows[k][0][l] for k, l in pairs}
    return LedBreakdown(*_sums(a, gam, led)[:4], d1, d2, led)


def led_upper_bound(P: Poset, cap: int = 1 << 10) -> int:
    """Quarter-count bound valid for any poset: each family of ordered
    antichain pairs sharing symmetric difference D and intersection I can
    contribute at most 2^(d-2) reversals to any pair of lattice extensions,
    d the number of components of the subposet on D.  Such a family holds
    2^(d-1) unordered pairs, so the bound is half the number of unordered
    pairs whose D has two or more components.  Needs no realizer, so it
    also covers posets of dimension three and more."""
    masks = [A for A, _, _ in _antichains(P, cap)]
    pairs = Counter(a ^ b for a, b in combinations(masks, 2))
    return sum(k for d, k in pairs.items() if len(component_masks(P, d)) >= 2) // 2
