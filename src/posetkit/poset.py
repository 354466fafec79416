"""Finite strict partial orders on elements 1..n.

The relation is kept transitively closed at all times and is stored as
bitmask rows, bit j standing for element j+1.  All values are immutable
after construction, so everything in here is safe to share across threads.
"""

from __future__ import annotations

import re
from codecs import utf_8_decode as _utf_8_decode
from itertools import chain as _chain
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    CycleDetected,
    IndexOutOfRange,
    NotADownset,
    NotAnAntichain,
    PosetFormatError,
)

# hashlib loads OpenSSL, a few MB and a few ms at every CLI start; the
# interpreter's own SHA-256 gives the same digest (as random.py does for SHA-512)
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

DEFAULT_CAP = 1 << 20

# Largest ground set accepted: the n-bit up, down and incomparable rows take
# about 6 MB at 4096 (count_antichains: 2.5 s, 6.6 MB tracemalloc peak).
# Building them costs O(log n) big-int steps per cover: 0.03-0.05 s for a
# 4096-element chain under any labelling, about 0.2 s for a random 2D order.
MAX_ELEMENTS = 4096


def _check_index(n: int, e: int) -> None:
    if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
        raise IndexOutOfRange(f"element {e!r} not in 1..{n}")


def _mask_of(n: int, elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        _check_index(n, e)
        m |= 1 << (e - 1)
    return m


def _bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Strict order on {1..n}; construct via poset_from_relations or the
    factory functions below rather than passing raw masks."""

    __slots__ = ("n", "_up", "_down", "_inc")

    def __init__(self, n: int, up_masks: Sequence[int]):
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
        # Rows in ascending order of |up|.  Row i checks the element j of
        # what is left of up[i] that comes last in that order, and drops j
        # and up[j].  Then up[j] lies inside up[i] without j, so it is
        # smaller: row j was checked before, and all of up[j] passes row i's
        # checks with j.  Nothing left lies below j, so the j are the covers
        # of i.  later[p] holds the elements from position p on.  A binary
        # search keeps later[lo] & rest != 0 (later[0] holds every element)
        # and later[hi] & rest == 0; j sits at lo, so the next one ends there.
        size = [m.bit_count() for m in up]
        order = sorted(range(n), key=size.__getitem__)
        later = [0] * (n + 1)
        for p in range(n - 1, -1, -1):
            later[p] = later[p + 1] | 1 << order[p]
        covers = [0] * n
        for i in order:
            m = rest = up[i]
            hi = n
            while rest:
                lo = 0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if later[mid] & rest:
                        lo = mid
                    else:
                        hi = mid
                j = order[lo]
                if up[j] >> i & 1:
                    raise CycleDetected(f"{i + 1} and {j + 1} are below each other")
                if up[j] & ~m:
                    raise ValueError("relation is not transitively closed")
                covers[i] |= 1 << j
                rest &= ~(up[j] | 1 << j)
                hi = lo
        # bottom up, each row's down set is complete before its covers read it
        down = [0] * n
        for i in reversed(order):
            below = down[i] | 1 << i
            for j in _bits(covers[i]):
                down[j] |= below
        self.n = n
        self._up = up
        self._down = tuple(down)
        self._inc = tuple(full & ~(up[i] | down[i] | (1 << i)) for i in range(n))

    # raw bitmask views, used heavily by the counting code
    @property
    def up_masks(self) -> tuple:
        return self._up

    @property
    def down_masks(self) -> tuple:
        return self._down

    @property
    def inc_masks(self) -> tuple:
        return self._inc

    def elements(self) -> range:
        return range(1, self.n + 1)

    def less(self, a: int, b: int) -> bool:
        _check_index(self.n, a)
        _check_index(self.n, b)
        return bool(self._up[a - 1] >> (b - 1) & 1)

    def incomparable(self, a: int, b: int) -> bool:
        _check_index(self.n, a)
        _check_index(self.n, b)
        return bool(self._inc[a - 1] >> (b - 1) & 1)

    def relation_pairs(self) -> list:
        """All ordered pairs (a, b) with a < b in the poset."""
        return [(i + 1, j + 1) for i in range(self.n) for j in _bits(self._up[i])]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.n, self._up))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, relations={self.relation_pairs()!r})"


def poset_from_relations(n: int, pairs: Iterable[tuple]) -> Poset:
    """Build the transitive closure of the given strict relations.

    Input pairs may be covers or arbitrary relations; cycles (including
    a < a) are rejected.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative size {n}")
    if n > MAX_ELEMENTS:
        raise CapExceeded(f"{n} elements, more than {MAX_ELEMENTS}")
    succ = [0] * n
    for a, b in pairs:
        if not (type(a) is int and type(b) is int and 0 < a <= n and 0 < b <= n):
            _check_index(n, a)
            _check_index(n, b)
        if a == b:
            raise CycleDetected(f"{a} < {a} is not irreflexive")
        succ[a - 1] |= 1 << (b - 1)
    # Depth-first closure.  A frame is an element, its closure so far and
    # its successors not yet inside it: a successor inside a finished
    # closure was reached through it, and one still on the stack closes a
    # cycle.
    up = [0] * n
    state = bytearray(n)  # 0 unseen, 1 on the stack, 2 finished
    for s in range(n):
        if state[s]:
            continue
        state[s] = 1
        stack = [(s, 0, succ[s])]
        while stack:
            v, clo, rest = stack[-1]
            if not rest:
                stack.pop()
                up[v], state[v] = clo, 2
                continue
            w = (rest & -rest).bit_length() - 1
            if state[w] == 2:
                clo |= up[w] | 1 << w
                stack[-1] = (v, clo, rest & ~clo)
            elif state[w]:
                raise CycleDetected("relations contain a cycle")
            else:
                state[w] = 1
                stack.append((w, 0, succ[w]))
    return Poset(n, up)


def incomparable_pairs(P: Poset) -> list:
    """Unordered incomparable pairs as (a, b) tuples with a < b numerically."""
    out = []
    for i in range(P.n):
        m = P._inc[i] >> (i + 1) << (i + 1)
        out.extend((i + 1, j + 1) for j in _bits(m))
    return out


def induced(P: Poset, S: Iterable[int]) -> tuple:
    """Subposet on S.  Returns (Q, ids) where ids[k] is the original id of
    element k+1 of Q; ids is sorted so the remapping is stable."""
    mask = _mask_of(P.n, S)
    ids = tuple(j + 1 for j in _bits(mask))
    pos = {e: k for k, e in enumerate(ids)}
    up = [0] * len(ids)
    for k, e in enumerate(ids):
        for j in _bits(P._up[e - 1] & mask):
            up[k] |= 1 << pos[j + 1]
    return Poset(len(ids), up), ids


def _components(mask: int, rows: Sequence[int], flip: int = 0) -> list:
    """Connected components of the graph on mask in which j is adjacent to
    the bits of rows[j] ^ flip, as bitmasks ordered by smallest member: one
    breadth-first search per component.  flip = -1 takes the complement
    graph; j's own bit is then set, but j is in its component already."""
    out = []
    rest = mask
    while rest:
        comp = 0
        frontier = rest & -rest
        while frontier:
            comp |= frontier
            nxt = 0
            for j in _bits(frontier):
                nxt |= rows[j] ^ flip
            frontier = nxt & mask & ~comp
        out.append(comp)
        rest &= ~comp
    return out


def component_masks(P: Poset, mask: int) -> list:
    """Components of the comparability graph of the subposet on mask, the
    complement of its incomparability graph, as bitmasks ordered by
    smallest member: the parts of its disjoint-union split."""
    return _components(mask, P._inc, -1)


def components(P: Poset) -> list:
    """Connected components of the comparability graph, each a sorted tuple,
    ordered by smallest member."""
    return [tuple(j + 1 for j in _bits(c)) for c in component_masks(P, (1 << P.n) - 1)]


def max_of(P: Poset, S: Iterable[int]) -> tuple:
    """Maximal elements of the subposet induced by S, sorted."""
    mask = _mask_of(P.n, S)
    return tuple(j + 1 for j in _bits(mask) if not P._up[j] & mask)


def min_of(P: Poset, S: Iterable[int]) -> tuple:
    """Minimal elements of the subposet induced by S, sorted."""
    mask = _mask_of(P.n, S)
    return tuple(j + 1 for j in _bits(mask) if not P._down[j] & mask)


def downset_of(P: Poset, A: Iterable[int]) -> tuple:
    """Downset generated by an antichain, as a sorted tuple."""
    mask = _mask_of(P.n, A)
    if any(P._up[j] & mask for j in _bits(mask)):
        raise NotAnAntichain(f"{tuple(j + 1 for j in _bits(mask))} contains a comparable pair")
    closed = mask
    for j in _bits(mask):
        closed |= P._down[j]
    return tuple(j + 1 for j in _bits(closed))


def maxima_of_downset(P: Poset, S: Iterable[int]) -> tuple:
    """Inverse of downset_of: the antichain of maxima of a downset."""
    mask = _mask_of(P.n, S)
    for j in _bits(mask):
        if P._down[j] & ~mask:
            raise NotADownset(f"{j + 1} is included without all elements below it")
    return tuple(j + 1 for j in _bits(mask) if not P._up[j] & mask)


def _antichains(P: Poset, cap: int, order: Sequence[int] = ()):
    """Yield (A, D) for every antichain A, the empty one first, in colex
    order of its members' positions in order (1..n by default): A as an
    element bitmask and D its down-closure.  Raises CapExceeded past cap.

    For a linear extension sigma this is revlex order of the D: for D != D'
    take z the sigma-last element of D ^ D', say z in D'.  What is above z
    comes after it, so lies in both or neither, and not in D, a downset
    without z.  So z is a maximum of D' but not of D, and both have the same
    maxima after z: D is before D' iff max(D) is before max(D') in colex."""
    # the minimal (or the maximal) elements form an antichain: k give 2^k
    if P.n and 1 << max(sum(not m for m in P._down), sum(not m for m in P._up)) > cap:
        raise CapExceeded(f"more than {cap} antichains")
    yield 0, 0
    # x_p is element ids[p] + 1, bit[p] its mask and close[p] the mask of its
    # down-closure; inc[p]: the positions incomparable to x_p
    ids, inc = [e - 1 for e in order] or range(P.n), P._inc
    if order:  # relabelled once per walk, O(incomparable pairs)
        at = {j: 1 << p for p, j in enumerate(ids)}
        inc = [sum(at[q] for q in _bits(inc[j])) for j in ids]
    bit, close = [1 << j for j in ids], [1 << j | P._down[j] for j in ids]
    count = 1
    # depth-first; a frame is an antichain, its closure, and the positions listed
    # (tried) and to list (untried, never 0) below its members, incomparable to it
    stack = [(0, 0, 0, (1 << P.n) - 1)] if P.n else []
    while stack:
        A, D, tried, untried = stack.pop()
        if count >= cap:
            raise CapExceeded(f"more than {cap} antichains")
        count += 1
        low = untried & -untried
        p = low.bit_length() - 1
        A2, D2 = A | bit[p], D | close[p]
        yield A2, D2
        if untried := untried ^ low:
            stack.append((A, D, tried | low, untried))
        if tried := tried & inc[p]:
            stack.append((A2, D2, 0, tried))


def enumerate_antichains(P: Poset, cap: int = DEFAULT_CAP) -> list:
    """All antichains as sorted tuples (the empty one first) in
    lexicographic order.  Raises CapExceeded past cap."""
    # tuples only once the listing is under cap: then each has <= log2(cap) members
    masks = [A for A, _ in _antichains(P, cap)]
    return sorted(tuple(j + 1 for j in _bits(A)) for A in masks)


def all_downsets(P: Poset, cap: int = DEFAULT_CAP) -> list:
    """Every downset as a bitmask, sorted by numeric mask value: the
    down-closures of the antichains, one per antichain (Birkhoff)."""
    return sorted(D for _, D in _antichains(P, cap))


class DownsetLattice(NamedTuple):
    lattice: Poset           # the downsets ordered by inclusion
    downsets: tuple          # lattice element i+1 <-> downsets[i], a sorted tuple
    index: dict              # downset tuple -> lattice element id


def downset_lattice(P: Poset, cap: int = DEFAULT_CAP) -> DownsetLattice:
    """The downsets of P ordered by inclusion, by a scan of all downset
    pairs: more than cap pairs raise CapExceeded before it."""
    masks = all_downsets(P, cap)
    if len(masks) ** 2 > cap:
        raise CapExceeded(f"more than {cap} downset pairs")
    up = [sum(1 << j for j, b in enumerate(masks) if a != b and a & b == a) for a in masks]
    downs = tuple(tuple(j + 1 for j in _bits(m)) for m in masks)
    index = {d: i + 1 for i, d in enumerate(downs)}
    return DownsetLattice(Poset(len(masks), up), downs, index)


def cover_pairs(P: Poset) -> list:
    """Covering relations (a, b): a < b with nothing strictly between."""
    out = []
    for i in range(P.n):
        m = P._up[i]
        for j in _bits(m):
            if not m & P._down[j]:
                out.append((i + 1, j + 1))
    return out


def chain(n: int) -> Poset:
    return poset_from_relations(n, [(i, i + 1) for i in range(1, n)])


def antichain_poset(n: int) -> Poset:
    return poset_from_relations(n, [])


def chain_union(lengths: Sequence[int]) -> Poset:
    """Disjoint union of chains, numbered consecutively chain by chain."""
    if any(l < 1 for l in lengths):
        raise ValueError("chain lengths must be at least 1")
    pairs = []
    base = 0
    for l in lengths:
        pairs.extend((base + i, base + i + 1) for i in range(1, l))
        base += l
    return poset_from_relations(base, pairs)


def chevron() -> Poset:
    """Two 3-chains 1<3<5 and 2<4<5 sharing their top, plus 6 above both
    feet.  Seven incomparable pairs, two maximal elements, dimension three,
    linear extension graph diameter six."""
    return poset_from_relations(
        6, [(1, 3), (2, 4), (3, 5), (4, 5), (1, 6), (2, 6)]
    )


def parse_poset(text: str) -> Poset:
    """Parse the line-based poset format.

    Comment lines start with '#'.  The first significant line is
    'poset <n>', every following line '<i> < <j>' with 1-based ids, lines
    broken as by str.splitlines.  The text is cut at each "\n", which ends a
    line whatever follows, as the parse reads on: an oversized n is refused first."""
    return _parse(m[0].splitlines() for m in re.finditer("[^\n]*\n?", text))


def _parse(blocks: Iterable[list]) -> Poset:
    """The poset of the format's lines, given in lists taken one at a time."""
    numbered = enumerate(_chain.from_iterable(blocks), start=1)
    for lineno, line in numbered:
        if (tokens := line.split()) and not tokens[0].startswith("#"):
            break
    else:
        raise PosetFormatError("missing 'poset <n>' header")
    if len(tokens) != 2 or tokens[0] != "poset":
        raise PosetFormatError(f"line {lineno}: expected 'poset <n>'")
    try:
        n = int(tokens[1])
    except ValueError:
        raise PosetFormatError(f"line {lineno}: bad element count {tokens[1]!r}")
    if n < 0:
        raise PosetFormatError(f"line {lineno}: negative element count")
    return poset_from_relations(n, _relations(numbered))


def _relations(numbered):
    """The pairs (i, j) of the numbered lines '<i> < <j>'."""
    for lineno, line in numbered:
        if not (tokens := line.split()) or tokens[0].startswith("#"):
            continue
        if len(tokens) != 3 or tokens[1] != "<":
            raise PosetFormatError(f"line {lineno}: expected '<i> < <j>'")
        try:
            a, b = int(tokens[0]), int(tokens[2])
        except ValueError:
            raise PosetFormatError(f"line {lineno}: non-integer element id")
        yield a, b


def format_poset(P: Poset) -> str:
    """Canonical text form: header plus the covering relations."""
    lines = [f"poset {P.n}"]
    lines.extend(f"{a} < {b}" for a, b in cover_pairs(P))
    return "\n".join(lines) + "\n"


def _load(path) -> tuple:
    """The poset of the file at path and the sha256 hex digest of its text as
    text mode reads it, in one pass: blocks of bytes are decoded and split by
    str.splitlines, the line left open held over, so memory follows the poset,
    not the file.  On a byte that is not UTF-8 it hands over every line that
    ends before it, then raises the whole file's decode error."""
    digest = _sha256()

    def blocks(fh):
        size, data, head = 1 << 10, b"", []  # reads double to 64 KiB
        while True:
            new = fh.read(size)
            data += new
            try:  # a sequence cut off at the block's end is decoded with the next one
                text, used = _utf_8_decode(data, None, not new)
            except UnicodeDecodeError as exc:
                # the lines that end before the bad byte: "#" puts what follows
                # the last line end on a piece of its own, left out
                yield ("".join(head) + data[:exc.start].decode() + "#").splitlines(True)[:-1]
                at = fh.tell() - len(data) + exc.start  # the bad byte's offset in the file
                raise UnicodeDecodeError(exc.encoding, bytes(at) + data[exc.start:exc.end], at,
                                         at + exc.end - exc.start, exc.reason)
            if new and text[-1:] == "\r":  # so is a "\r" that may begin a "\r\n"
                text, used = text[:-1], used - 1
            digest.update(text.replace("\r\n", "\n").replace("\r", "\n").encode())
            *lines, last = (text + "#").splitlines(True)  # last: what is held over
            if lines:  # the line held over ends in this block
                lines[0], head = "".join([*head, lines[0]]), []
            head.append(last[:-1])  # joined once, when its line ends: time follows the file
            yield lines if new else [*lines, "".join(head)]
            if not new:
                return
            data, size = data[used:], min(2 * size, 1 << 16)

    with open(path, "rb") as fh:
        return _parse(blocks(fh)), digest.hexdigest()


def load_poset(path) -> Poset:
    return _load(path)[0]
