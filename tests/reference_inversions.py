"""The reversal distance as posetkit counted it before the bitset count:
the number of inversions of a permutation by a Fenwick tree over the
values seen so far.  The reference that revlex._inversions is pinned to.
Tests only."""


def inversions(seq: list) -> int:
    """Pairs i < j with seq[i] > seq[j], for seq a permutation of
    1..len(seq)."""
    n = len(seq)
    if sorted(seq) != list(range(1, n + 1)):
        raise ValueError("seq is not a permutation of 1..len(seq)")
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
