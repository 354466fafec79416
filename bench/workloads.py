"""Seeded inputs for the posetkit benchmark.

Every workload is a fixed list of operations built from the seed alone: one
poset file and one CLI command line per operation.  The posets are made here
from permutations, chains and antichains, without calling posetkit, so the
program under test only ever receives the generated text.  Sizes are fixed
per workload and only the structure varies with the seed, so totals stay
comparable from seed to seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str                # file stem, unique within the workload
    command: list            # CLI words before the file path
    flags: list              # CLI words after the file path; "{svg}" is filled in
    n: int
    relations: frozenset     # the closed strict order, pairs (a, b) with a < b
    text: str                # the poset file as written
    partner: int = -1        # index of the op on the dual poset, if any
    lengths: tuple = ()      # chain lengths, for chain unions


def _text(n: int, lines) -> str:
    return "".join([f"poset {n}\n", *(f"{a} < {b}\n" for a, b in lines)])


def _ranks(p1: list, p2: list) -> list:
    """Each element's position in p2, listed in p1's order: the
    intersection of the two orders puts p1[i] below p1[j] exactly when
    i < j and ranks[i] < ranks[j]."""
    r2 = {e: i for i, e in enumerate(p2)}
    return [r2[e] for e in p1]


def comparable_pairs(ranks: list) -> int:
    """The number of comparable pairs: increasing pairs of ranks."""
    seen, count = [], 0
    for r in ranks:
        k = bisect.bisect_left(seen, r)
        count += k
        seen.insert(k, r)
    return count


def antichain_count(ranks: list) -> int:
    """The number of antichains, the empty one included: an antichain is a
    decreasing subsequence of ranks.  Those ending at each position are
    summed over the earlier, larger ranks with a Fenwick tree."""
    n = len(ranks)
    tree = [0] * (n + 1)
    total = 0
    for r in ranks:
        i, at_most_r = r + 1, 0
        while i:
            at_most_r += tree[i]
            i -= i & -i
        ending = 1 + total - at_most_r
        i = r + 1
        while i <= n:
            tree[i] += ending
            i += i & -i
        total += ending
    return 1 + total


def relation(p1: list, ranks: list) -> frozenset:
    """The closed relation of the intersection of the two orders."""
    n = len(p1)
    return frozenset((p1[i], p1[j]) for i in range(n) for j in range(i + 1, n)
                     if ranks[i] < ranks[j])


def two_dim(p1: list, p2: list) -> tuple:
    """The intersection of two linear orders given as element lists: its
    closed relation and its number of antichains."""
    ranks = _ranks(p1, p2)
    return relation(p1, ranks), antichain_count(ranks)


def wide_two_dim(n: int, swaps: int, rng: random.Random) -> tuple:
    """A low-height 2D order: the second linear order is the reverse of the
    first with a few random adjacent transpositions, so most pairs stay
    incomparable."""
    p1 = list(range(1, n + 1))
    rng.shuffle(p1)
    p2 = p1[::-1]
    for _ in range(swaps):
        i = rng.randrange(n - 1)
        p2[i], p2[i + 1] = p2[i + 1], p2[i]
    return two_dim(p1, p2)


def chain_union(lengths, rng: random.Random) -> tuple:
    """Disjoint chains with randomly assigned element ids; returns the
    closed relation and the cover lines in random order."""
    n = sum(lengths)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    rel, covers, base = set(), [], 0
    for length in lengths:
        chain = ids[base:base + length]
        base += length
        covers.extend(zip(chain, chain[1:]))
        rel.update((chain[i], chain[j]) for i in range(length) for j in range(i + 1, length))
    rng.shuffle(covers)
    return frozenset(rel), covers


def brute_subset_count(n: int, relations: frozenset) -> int:
    """Antichains counted over all 2^n subsets: a set is an antichain when
    it is without its lowest member and that member is comparable to no
    other member."""
    comp = [0] * n
    for a, b in relations:
        comp[a - 1] |= 1 << (b - 1)
        comp[b - 1] |= 1 << (a - 1)
    anti = bytearray(1 << n)
    anti[0] = 1
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        anti[s] = anti[s & (s - 1)] and not comp[low] & s
    return sum(anti)


def _dual_pair(ops: list, name: str, command: list, flags: list, n: int,
               rel: frozenset) -> None:
    """Append an op on P and one on its dual P^op, each naming the other."""
    i = len(ops)
    dual = frozenset((b, a) for a, b in rel)
    ops.append(Op(name, command, flags, n, rel, _text(n, sorted(rel)), i + 1))
    ops.append(Op(f"{name}-op", command, flags, n, dual, _text(n, sorted(dual)), i))


def _distinct_two_dim(n: int, rng: random.Random, seen: set, band=(1, 1 << 64),
                      pairs=(1, 1 << 64)) -> frozenset:
    """A random 2D order with its number of antichains within band and of
    comparable pairs within pairs (at least one by default), different
    from every order already drawn and from their duals, so no engine is
    reused.  Both counts are taken from the permutations, and the relation
    is built only for a draw that passes."""
    while True:
        p1 = list(range(1, n + 1))
        p2 = list(range(1, n + 1))
        rng.shuffle(p1)
        rng.shuffle(p2)
        ranks = _ranks(p1, p2)
        if not pairs[0] <= comparable_pairs(ranks) <= pairs[1]:
            continue
        if not band[0] <= antichain_count(ranks) <= band[1]:
            continue
        rel = relation(p1, ranks)
        dual = frozenset((b, a) for a, b in rel)
        if (n, rel) not in seen:
            seen.update({(n, rel), (n, dual)})
            return rel


def two_dim_band(n: int) -> tuple:
    """About the middle half of the antichain counts of random 2D orders of
    n >= 60 points: log10 of the count has its quartiles near 5.1..5.5 at
    n = 60, 6.1..6.5 at n = 80 and 6.9..7.4 at n = 100 (200 draws each)."""
    mid = 5.32 + 0.047 * (n - 60)
    return 10 ** (mid - 0.2), 10 ** (mid + 0.2)


def _typical_two_dim(n: int, rng: random.Random, seen: set) -> frozenset:
    """A random 2D order whose antichain count lies in two_dim_band and
    whose number of comparable pairs is within 3% of its mean n(n-1)/4.
    The engine's time follows both, so orders drawn this way cost about
    the same whatever the seed."""
    mean = n * (n - 1) / 4
    return _distinct_two_dim(n, rng, seen, two_dim_band(n), (0.97 * mean, 1.03 * mean))


def random2d(rng: random.Random) -> list:
    """led-downset --breakdown on random 2D orders: ten at n = 84, three
    at n = 100 (for the fitted exponent and the peak memory), and two with
    their duals at n = 11 (checked against the bound and the revlex pair)
    and n = 60.  The median and the tail both fall inside the n = 84 block,
    so they rest on ten independent orders, and the peak memory on
    three."""
    ops, seen = [], set()
    _dual_pair(ops, "r11", ["led-downset"], ["--breakdown"], 11,
               _distinct_two_dim(11, rng, seen))
    _dual_pair(ops, "r60", ["led-downset"], ["--breakdown"], 60,
               _typical_two_dim(60, rng, seen))
    for i, n in enumerate([84] * 10 + [100] * 3):
        rel = _typical_two_dim(n, rng, seen)
        ops.append(Op(f"r{n}-{i}", ["led-downset"], ["--breakdown"], n, rel,
                      _text(n, sorted(rel))))
    return ops


def chains(rng: random.Random) -> list:
    """led-downset --breakdown on disjoint unions of two or three chains
    with shuffled element ids: eight unions of two chains of 52..58 points
    (n = 110) and four of three chains of about 32 points (n = 96), so every
    union has about 3000 incomparable pairs.  The three-chain unions are
    the cheaper ones, so the median falls inside the two-chain block.  Its incomparability graph is
    nearly complete multipartite, which makes the transitive orientation
    the largest layer."""
    ops = []
    for i in range(12):
        if i % 3 == 2:
            a, b = rng.randrange(30, 35), rng.randrange(30, 35)
            lengths = [a, b, 96 - a - b]
        else:
            a = rng.randrange(52, 59)
            lengths = [a, 110 - a]
        n = sum(lengths)
        rel, covers = chain_union(lengths, rng)
        ops.append(Op(f"c{i}", ["led-downset"], ["--breakdown"], n, rel, _text(n, covers),
                      lengths=tuple(lengths)))
    return ops


def diametral(rng: random.Random) -> list:
    """diametral --svg on wide orders, five chain unions and five low-height
    2D orders with 900..1000 downsets plus the 10- and 11-point antichains
    (1024 and 2048 downsets): the dominance drawing needs the downset
    lattice and its covers."""
    ops = []
    flags = ["--svg", "{svg}"]
    for k in (10, 11):
        ops.append(Op(f"a{k}", ["diametral"], flags, k, frozenset(), _text(k, [])))
    while len(ops) < 7:
        lengths = [rng.choice((1, 2, 3)) for _ in range(rng.randrange(5, 10))]
        size = 1
        for length in lengths:
            size *= length + 1
        if 900 <= size <= 1000:
            n = sum(lengths)
            rel, covers = chain_union(lengths, rng)
            ops.append(Op(f"s{len(ops)}", ["diametral"], flags, n, rel,
                          _text(n, covers), lengths=tuple(lengths)))
    while len(ops) < 12:
        n = rng.randrange(13, 19)
        rel, antichains = wide_two_dim(n, rng.randrange(n, 3 * n), rng)
        if 900 <= antichains <= 1000:
            ops.append(Op(f"w{len(ops)}", ["diametral"], flags, n, rel, _text(n, sorted(rel))))
    return ops


def mixed_cli(rng: random.Random) -> list:
    """A shuffled stream of 24 small inputs through four commands, sizes
    stepping over fixed ranges: 3 dual pairs for led-downset (n = 12, 16,
    20), 8 count-antichains (n = 8..15), 6 diametral without a drawing
    (n = 14..19, 240..280 downsets) and 4 led-downset --upper-bound-only
    (n = 6..9).  Two thirds of the in-process calls take about the fixed
    cost of one `cli.main` call, so the in-process median lies among them
    and the tail among the diametral calls."""
    ops, seen = [], set()
    for n in (12, 16, 20):
        _dual_pair(ops, f"l{n}", ["led-downset"], [], n, _distinct_two_dim(n, rng, seen))
    anything = (1, 1 << 64)
    singles = [("count-antichains", [], 8 + i, anything) for i in range(8)]
    singles += [("diametral", [], 14 + i, (240, 280)) for i in range(6)]
    singles += [("led-downset", ["--upper-bound-only"], 6 + i, anything) for i in range(4)]
    for i, (command, flags, n, band) in enumerate(singles):
        rel = _distinct_two_dim(n, rng, seen, band)
        ops.append(Op(f"m{i}", [command], flags, n, rel, _text(n, sorted(rel))))
    order = list(range(len(ops)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return [
        Op(op.name, op.command, op.flags, op.n, op.relations, op.text,
           where[op.partner] if op.partner >= 0 else -1, op.lengths)
        for op in (ops[i] for i in order)
    ]


# Seconds one round of each workload takes at the reference speed of run.py,
# both paths and the reference timings included; run.py makes
# --seconds / ROUND_SECONDS rounds.
ROUND_SECONDS = {"random2d": 12.0, "chains": 10.5, "diametral": 11.0, "mixed_cli": 8.0}


WORKLOADS = {
    "random2d": random2d,
    "chains": chains,
    "diametral": diametral,
    "mixed_cli": mixed_cli,
}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
