"""Reverse-lexicographic orders on downsets, and reversal distance.

For a fixed linear extension sigma, a set S precedes T exactly if the
sigma-largest element of the symmetric difference lies in T.  Sorting all
downsets of P this way yields a linear extension of the downset lattice.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceeded, EqualSets, IndexOutOfRange, MismatchedGroundSets
from .led import count_antichains
from .poset import DEFAULT_CAP, Poset, _bits, all_downsets
from .realizer import Realizer2D, _require_extension, realizer


def _positions(sigma: Sequence[int]) -> dict:
    return {e: p for p, e in enumerate(sigma)}


def revlex_less(sigma: Sequence[int], S: Iterable[int], T: Iterable[int]) -> bool:
    pos = _positions(sigma)
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


def _as_tuples(masks: list) -> dict:  # mask -> sorted tuple, once per downset
    return {m: tuple(j + 1 for j in _bits(m)) for m in masks}


def _sorted_for(tuples: dict, sigma: Sequence[int]) -> LatticeExtension:
    """The downsets (a mask -> tuple map) sorted by revlex_less for sigma.

    Mapping a downset to the bitmask of the sigma positions of its members
    turns the comparator into plain integer less-than (the highest bit of
    the XOR of two masks is the sigma-largest element of the symmetric
    difference), so an integer sort key realizes exactly that order.
    """
    pos = _positions(sigma)

    def key(mask: int) -> int:
        k = 0
        for j in _bits(mask):
            k |= 1 << pos[j + 1]
        return k

    order = tuple(map(tuples.__getitem__, sorted(tuples, key=key)))
    return LatticeExtension(order, {d: p for p, d in enumerate(order, start=1)})


def build_revlex_extension(
    P: Poset, sigma: Sequence[int], cap: int = DEFAULT_CAP
) -> LatticeExtension:
    """All downsets of P sorted by revlex_less for sigma."""
    _require_extension(P, sigma)
    return _sorted_for(_as_tuples(all_downsets(P, cap)), sigma)


def _common_ground(L1: LatticeExtension, L2: LatticeExtension) -> None:
    if set(L1.order) != set(L2.order):
        raise MismatchedGroundSets("extensions order different downset families")


def reversal_distance(L1: LatticeExtension, L2: LatticeExtension) -> int:
    """Number of unordered downset pairs appearing in opposite orders."""
    _common_ground(L1, L2)
    seq = [L2.index[d] for d in L1.order]

    def count(lo: int, hi: int) -> int:
        if hi - lo < 2:
            return 0
        mid = (lo + hi) // 2
        inv = count(lo, mid) + count(mid, hi)
        merged = []
        i, j = lo, mid
        while i < mid and j < hi:
            if seq[i] <= seq[j]:
                merged.append(seq[i])
                i += 1
            else:
                inv += mid - i
                merged.append(seq[j])
                j += 1
        merged.extend(seq[i:mid])
        merged.extend(seq[j:hi])
        seq[lo:hi] = merged
        return inv

    return count(0, len(seq))


def diametral_pair(P: Poset, cap: int = DEFAULT_CAP,
                   r: Realizer2D | None = None) -> tuple:
    """The pair (L_sigma, L_sigma_bar) for the realizer r (by default
    realizer(P)); its reversal distance is the diameter of the linear
    extension graph of the downset lattice.  The antichain count, which is
    the downset count, is checked against cap before any enumeration."""
    r = realizer(P) if r is None else r
    _require_extension(P, r.sigma_bar)  # count_antichains checks sigma
    if count_antichains(P, r.sigma).total > cap:
        raise CapExceeded(f"more than {cap} downsets")
    tuples = _as_tuples(all_downsets(P, cap))
    return _sorted_for(tuples, r.sigma), _sorted_for(tuples, r.sigma_bar)


def dominance_coordinates(L1: LatticeExtension, L2: LatticeExtension) -> dict:
    """Downset -> (position in L1, position in L2), 1-based; drawing the
    lattice at these coordinates puts comparable downsets in dominance
    position."""
    _common_ground(L1, L2)
    return {d: (p, L2.index[d]) for p, d in enumerate(L1.order, start=1)}
