"""Reverse-lexicographic orders on downsets, and reversal distance.

For a fixed linear extension sigma, a set S precedes T exactly if the
sigma-largest element of the symmetric difference lies in T.  All downsets
of P in this order, which the antichain walk lists directly, form a linear
extension of the downset lattice.
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


def _as_tuples(walk: list) -> dict:  # mask -> sorted tuple, once per downset
    return {D: tuple(j + 1 for j in _bits(D)) for _, D in walk}


def _extension(walk: list, tuples: dict) -> LatticeExtension:
    """The LatticeExtension of the downsets of an antichain walk's (A, D)
    pairs, read through a mask -> tuple map."""
    order = tuple(tuples[D] for _, D in walk)
    return LatticeExtension(order, {d: p for p, d in enumerate(order, start=1)})


def build_revlex_extension(
    P: Poset, sigma: Sequence[int], cap: int = DEFAULT_CAP
) -> LatticeExtension:
    """All downsets of P in the order revlex_less gives for sigma."""
    _conjugate_ranks(P, sigma)  # raises unless sigma extends P
    walk = list(_antichains(P, cap, sigma))
    return _extension(walk, _as_tuples(walk))


def _common_ground(L1: LatticeExtension, L2: LatticeExtension) -> None:
    if set(L1.order) != set(L2.order):
        raise MismatchedGroundSets("extensions order different downset families")


def _inversions(seq: list) -> int:
    """Pairs i < j with seq[i] > seq[j], for seq a permutation of 1..len(seq),
    counted with a Fenwick tree over the values seen so far."""
    n = len(seq)
    tree = [0] * (n + 1)
    inv = 0
    for seen, x in enumerate(seq):
        inv += seen
        j = x
        while j:  # less the earlier values at most x
            inv -= tree[j]
            j &= j - 1
        while x <= n:
            tree[x] += 1
            x += x & -x
    return inv


def reversal_distance(L1: LatticeExtension, L2: LatticeExtension) -> int:
    """Number of unordered downset pairs appearing in opposite orders."""
    _common_ground(L1, L2)
    seq = [L2.index[d] for d in L1.order]
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise MismatchedGroundSets("index is not the 1-based positions of order")
    return _inversions(seq)


def _revlex_pair(P: Poset, cap: int, r: Realizer2D) -> tuple:
    """The antichain walks of r.sigma and r.sigma_bar as lists of (A, D)
    masks: the downsets D in the orders L_sigma and L_sigma_bar, each with
    its maxima A.  The antichain count, which is the downset count, is
    checked against cap before any enumeration."""
    _conjugate_ranks(P, r.sigma_bar)  # raises unless sigma_bar extends P
    eng = _Engine(_ranks(P, r.sigma))  # sbar[p]: the conjugate rank of x_p
    if [r.sigma[p - 1] for p in _placed(eng.sbar)] != list(r.sigma_bar):
        raise ValueError("sigma_bar is not the conjugate of sigma")
    if 1 + sum(eng.ends) > cap:
        raise CapExceeded(f"more than {cap} downsets")
    return list(_antichains(P, cap, r.sigma)), list(_antichains(P, cap, r.sigma_bar))


def diametral_pair(P: Poset, cap: int = DEFAULT_CAP,
                   r: Realizer2D | None = None) -> tuple:
    """The pair (L_sigma, L_sigma_bar) for the realizer r (by default
    realizer(P)); its reversal distance is the diameter of the linear
    extension graph of the downset lattice.  More than cap downsets raise
    CapExceeded before any is listed; an r that is not a realizer of P
    raises NotALinearExtension, SeparatingExtension or ValueError."""
    w1, w2 = _revlex_pair(P, cap, realizer(P) if r is None else r)
    tuples = _as_tuples(w1)
    return _extension(w1, tuples), _extension(w2, tuples)


def dominance_coordinates(L1: LatticeExtension, L2: LatticeExtension) -> dict:
    """Downset -> (position in L1, position in L2), 1-based; drawing the
    lattice at these coordinates puts comparable downsets in dominance
    position."""
    _common_ground(L1, L2)
    return {d: (p, L2.index[d]) for p, d in enumerate(L1.order, start=1)}
