"""Reverse-lexicographic orders on downsets, and reversal distance.

For a fixed linear extension sigma, a set S precedes T exactly if the
sigma-largest element of the symmetric difference lies in T.  All downsets
of P in this order, which the antichain walk lists directly, form a linear
extension of the downset lattice.  The walk for sigma also gives the order
for sigma_bar, sorted by the downsets' masks over sigma_bar positions.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceeded, EqualSets, IndexOutOfRange, MismatchedGroundSets
from .led import _Engine, _ranks
from .poset import DEFAULT_CAP, Poset, _antichains, _bits
from .realizer import Realizer2D, _conjugate_ranks, _placed, realizer


def revlex_less(sigma: Sequence[int], S: Iterable[int], T: Iterable[int]) -> bool:
    pos = {e: p for p, e in enumerate(sigma)}
    s, t = set(S), set(T)
    if s == t:
        raise EqualSets("sets must differ")
    for e in s | t:
        if e not in pos:
            raise IndexOutOfRange(f"element {e!r} does not occur in sigma")
    return max(s ^ t, key=pos.__getitem__) in t


class LatticeExtension(NamedTuple):
    order: tuple             # downsets as sorted tuples, smallest first
    index: dict              # downset tuple -> 1-based position

    def __len__(self) -> int:  # the number of downsets, not of fields
        return len(self.order)


def _downsets(walk: list) -> tuple:  # an antichain walk's D as sorted tuples
    return tuple(tuple(j + 1 for j in _bits(D)) for _, D, _ in walk)


def _extension(order: tuple) -> LatticeExtension:
    return LatticeExtension(order, {d: p for p, d in enumerate(order, start=1)})


def build_revlex_extension(
    P: Poset, sigma: Sequence[int], cap: int = DEFAULT_CAP
) -> LatticeExtension:
    """All downsets of P in the order revlex_less gives for sigma."""
    _conjugate_ranks(P, sigma)  # raises unless sigma extends P
    return _extension(_downsets(list(_antichains(P, cap, sigma))))


def _common_ground(L1: LatticeExtension, L2: LatticeExtension) -> None:
    if set(L1.order) != set(L2.order):
        raise MismatchedGroundSets("extensions order different downset families")


def _inversions(seq: list) -> int:
    """Pairs i < j with seq[i] > seq[j], for seq distinct non-negative
    integers (the 0-based or the 1-based positions of an order).

    The values fall into blocks of 4096 by their high bits.  A pair across
    two blocks is counted, when its later member comes, from the counts of
    the values seen so far in each higher block; a pair inside a block is
    counted from that block's bitset of the offsets seen so far, whose bits
    above the later member's offset are the earlier, larger values."""
    top = max(seq, default=0) >> 12
    inv, parts = 0, [seq]
    if top:
        counts, parts = [0] * (top + 1), [[] for _ in range(top + 1)]
        for x in seq:
            b = x >> 12
            inv += sum(counts[b + 1:])
            counts[b] += 1
            parts[b].append(x & 4095)
    for part in parts:
        seen = 0
        for r in part:
            inv += (seen >> r).bit_count()
            seen |= 1 << r
    return inv


def reversal_distance(L1: LatticeExtension, L2: LatticeExtension) -> int:
    """Number of unordered downset pairs appearing in opposite orders."""
    _common_ground(L1, L2)
    seq = [L2.index[d] for d in L1.order]
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise MismatchedGroundSets("index is not the 1-based positions of order")
    return _inversions(seq)


def _revlex_pair(P: Poset, cap: int, r: Realizer2D) -> tuple:
    """L_sigma and L_sigma_bar from one antichain walk in r.sigma order: the
    walk as a list of (A, D, K), each downset D of L_sigma with its maxima A
    and K, D as a mask over sigma_bar positions, and the walk's indices in
    the order L_sigma_bar, which is the numeric order of K (revlex: the
    sigma_bar-last element of a symmetric difference decides).  The
    downset count is checked against cap before any enumeration."""
    _conjugate_ranks(P, r.sigma_bar)  # raises unless sigma_bar extends P
    eng = _Engine(_ranks(P, r.sigma))  # sbar[p]: the conjugate rank of x_p
    if [r.sigma[p - 1] for p in _placed(eng.sbar)] != list(r.sigma_bar):
        raise ValueError("sigma_bar is not the conjugate of sigma")
    if 1 + sum(eng.ends) > cap:
        raise CapExceeded(f"more than {cap} downsets")
    # kclose[p]: x_p's down-closure over sigma_bar positions, from one sweep:
    # sigma and sigma_bar realize P, so x_q <= x_p iff q <= p, sbar[q] <= sbar[p]
    kclose, seen = [], 0
    for s in eng.sbar:
        kclose.append(seen & (1 << s) - 1 | 1 << s)
        seen |= 1 << s
    walk = list(_antichains(P, cap, r.sigma, kclose))
    masks = [K for _, _, K in walk]
    return walk, sorted(range(len(walk)), key=masks.__getitem__)


def diametral_pair(P: Poset, cap: int = DEFAULT_CAP,
                   r: Realizer2D | None = None) -> tuple:
    """The pair (L_sigma, L_sigma_bar) for the realizer r (by default
    realizer(P)); its reversal distance is the diameter of the linear
    extension graph of the downset lattice.  More than cap downsets raise
    CapExceeded before any is listed; an r that is not a realizer of P
    raises NotALinearExtension, SeparatingExtension or ValueError."""
    walk, xs = _revlex_pair(P, cap, realizer(P) if r is None else r)
    order = _downsets(walk)
    return _extension(order), _extension(tuple(order[x] for x in xs))


def dominance_coordinates(L1: LatticeExtension, L2: LatticeExtension) -> dict:
    """Downset -> (position in L1, position in L2), 1-based; drawing the
    lattice at these coordinates puts comparable downsets in dominance
    position."""
    _common_ground(L1, L2)
    return {d: (p, L2.index[d]) for p, d in enumerate(L1.order, start=1)}
