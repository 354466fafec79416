"""The Warshall closure and the per-relation order check that
posetkit.poset used before its depth-first closure and row check: the
reference those are pinned to.

reference_closure(n, pairs) returns the up masks of the transitive closure;
reference_check(n, up_masks) returns the down masks.  Both raise the same
errors, with the same messages, as the library did.
"""

from posetkit.errors import CycleDetected, IndexOutOfRange
from posetkit.poset import _bits, _check_index


def reference_closure(n, pairs):
    succ = [0] * n
    for a, b in pairs:
        _check_index(n, a)
        _check_index(n, b)
        if a == b:
            raise CycleDetected(f"{a} < {a} is not irreflexive")
        succ[a - 1] |= 1 << (b - 1)
    # Warshall: step k adds every arc of a path whose inner elements are <= k
    for k in range(n):
        row = succ[k]
        if row:
            bit = 1 << k
            for i, m in enumerate(succ):
                if m & bit:
                    succ[i] = m | row
    for i in range(n):
        if succ[i] >> i & 1:
            raise CycleDetected("relations contain a cycle")
    return succ


def reference_check(n, up_masks):
    if n < 0:
        raise IndexOutOfRange(f"negative size {n}")
    if len(up_masks) != n:
        raise IndexOutOfRange("relation size does not match n")
    full = (1 << n) - 1
    up = tuple(up_masks)
    for i, m in enumerate(up):
        if m & ~full:
            raise IndexOutOfRange("relation mentions element beyond n")
        if m >> i & 1:
            raise CycleDetected(f"element {i + 1} is below itself")
    down = [0] * n
    for i, m in enumerate(up):
        for j in _bits(m):
            if up[j] >> i & 1:
                raise CycleDetected(f"{i + 1} and {j + 1} are below each other")
            # transitivity: everything above j must already be above i
            if up[j] & ~m:
                raise ValueError("relation is not transitively closed")
            down[j] |= 1 << i
    return down
