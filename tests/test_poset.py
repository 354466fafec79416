import importlib
import itertools
import random
import re
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

import posetkit as pk
from posetkit.poset import _antichains, _bits, _mask_of

from conftest import all_posets_upto_iso, brute_antichains, random_extension, random_two_dim
from reference_poset import reference_check, reference_closure


def _reachability(n, pairs):
    """Reference closure: breadth-first search from every element."""
    succ = {a: [] for a in range(1, n + 1)}
    for a, b in pairs:
        succ[a].append(b)
    reach = {}
    for a in succ:
        seen, frontier = set(), [a]
        while frontier:
            frontier = [b for x in frontier for b in succ[x] if b not in seen]
            seen.update(frontier)
        reach[a] = seen
    return reach


def test_from_relations_takes_closure():
    P = pk.poset_from_relations(3, [(1, 2), (2, 3)])
    assert P.less(1, 3)
    assert P.relation_pairs() == [(1, 2), (1, 3), (2, 3)]
    rng = random.Random(41)
    cases = []
    for _ in range(40):
        # the covers of a long chain, relabeled and shuffled
        n = rng.randint(2, 80)
        labels = rng.sample(range(1, n + 1), n)
        covers = list(zip(labels, labels[1:]))
        rng.shuffle(covers)
        cases.append((n, covers))
        # random arcs along a hidden order, and random arcs in any direction
        n = rng.randint(2, 20)
        labels = rng.sample(range(1, n + 1), n)
        arcs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
        cases.append((n, [(labels[i], labels[j]) for i, j in arcs]))
        cases.append((n, [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(0, 2 * n))]))
    cycles = 0
    for n, pairs in cases:
        reach = _reachability(n, pairs)
        if any(a in reach[a] for a in reach):
            cycles += 1
            with pytest.raises(pk.CycleDetected):
                pk.poset_from_relations(n, pairs)
        else:
            want = sorted((a, b) for a in reach for b in reach[a])
            assert pk.poset_from_relations(n, pairs).relation_pairs() == want
    assert 0 < cycles < len(cases)


def _exactly(message):
    return "^" + re.escape(message) + "$"


def test_rejects_cycles_and_bad_ids():
    with pytest.raises(pk.CycleDetected, match=_exactly("relations contain a cycle")):
        pk.poset_from_relations(2, [(1, 2), (2, 1)])
    with pytest.raises(pk.CycleDetected, match=_exactly("1 < 1 is not irreflexive")):
        pk.poset_from_relations(1, [(1, 1)])
    with pytest.raises(pk.IndexOutOfRange, match=_exactly("element 3 not in 1..2")):
        pk.poset_from_relations(2, [(1, 3)])
    with pytest.raises(pk.IndexOutOfRange, match=_exactly("element 0 not in 1..2")):
        pk.poset_from_relations(2, [(0, 1)])
    # a pair whose ids are not both plain ints in 1..n is checked id by id,
    # so an int subclass passes and the first bad id is the one reported
    class Id(int):
        pass

    P = pk.poset_from_relations(3, [(Id(1), Id(2)), (2, 3)])
    assert P.relation_pairs() == [(1, 2), (1, 3), (2, 3)]
    for pairs, bad in (([(True, 2)], "True"), ([(1, 2.0)], "2.0"), ([(4, 0)], "4"),
                       ([(1, 2), (2, "3")], "'3'"), ([(Id(0), 1)], "0")):
        with pytest.raises(pk.IndexOutOfRange, match=_exactly(f"element {bad} not in 1..3")):
            pk.poset_from_relations(3, pairs)


_GUARDS = [
    (lambda: pk.Poset(-1, []), pk.IndexOutOfRange, "negative size -1"),
    (lambda: pk.Poset(2, [0]), pk.IndexOutOfRange, "relation size does not match n"),
    (lambda: pk.Poset(2, [0b100, 0]), pk.IndexOutOfRange, "relation mentions element beyond n"),
    (lambda: pk.Poset(2, [0b01, 0]), pk.CycleDetected, "element 1 is below itself"),
    (lambda: pk.Poset(2, [0b10, 0b01]), pk.CycleDetected, "1 and 2 are below each other"),
    (lambda: pk.Poset(3, [0b010, 0b100, 0]), ValueError, "relation is not transitively closed"),
    (lambda: pk.poset_from_relations(-1, []), pk.IndexOutOfRange, "negative size -1"),
    (lambda: pk.poset_from_relations(5000, []), pk.CapExceeded, "5000 elements, more than 4096"),
]


# the message is looked up, not passed, so the test ids stay <lambda>-<error>
@pytest.mark.parametrize("build, error", [case[:2] for case in _GUARDS])
def test_poset_guards(build, error):
    message = next(m for b, _, m in _GUARDS if b is build)
    with pytest.raises(error, match=_exactly(message)):
        build()


def _outcome(build):
    """What build returns, or the (class, message) of the error it raises."""
    try:
        return build()
    except (ValueError, pk.PosetkitError) as exc:
        return type(exc), str(exc)


def _masks(P):
    return P._up, P._down, P._inc


def _reference_masks(n, up):
    down = reference_check(n, up)
    full = (1 << n) - 1
    return tuple(up), tuple(down), tuple(full & ~(up[i] | down[i] | 1 << i) for i in range(n))


def _check_against_reference(n, up):
    """Poset(n, up) accepts exactly what the reference accepts, with the
    same masks.  When the only faults are in a row (its range or a loop
    on itself) the message is the reference's; a fault between rows may be
    found at another pair, so its message must name a real fault.  Returns
    whether up was rejected."""
    want = _outcome(lambda: _reference_masks(n, up))
    got = _outcome(lambda: _masks(pk.Poset(n, up)))
    if not isinstance(want[0], type):
        assert got == want
    elif want[0] is pk.IndexOutOfRange or want[1].endswith("is below itself"):
        assert got == want
    elif got[0] is pk.CycleDetected:
        a, b = map(int, re.fullmatch(r"(\d+) and (\d+) are below each other", got[1]).groups())
        assert up[a - 1] >> (b - 1) & 1 and up[b - 1] >> (a - 1) & 1
    else:
        assert got == (ValueError, "relation is not transitively closed")
        assert any(up[j] & ~up[i] for i in range(n) for j in _bits(up[i]))
    return isinstance(want[0], type)


def test_order_check_matches_the_reference_on_every_small_mask_tuple():
    rejected = 0
    for n in range(5):
        for up in itertools.product(range(1 << n), repeat=n):
            rejected += _check_against_reference(n, up)
    # all but the labelled posets on 0..4 points: 1, 1, 3, 19 and 219 of them
    assert rejected == sum(2 ** (n * n) for n in range(5)) - (1 + 1 + 3 + 19 + 219)


def test_construction_matches_the_reference_on_random_input():
    rng = random.Random(18)
    flipped, cycles = 0, 0
    for _ in range(1500):
        n = rng.randint(1, 9)
        # arcs along a hidden order, now and then one against it (a cycle
        # if the order already has it), a loop or an odd id
        labels = rng.sample(range(1, n + 1), n)
        arcs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
        if arcs and rng.random() < 0.4:
            arcs.insert(rng.randint(0, len(arcs)), rng.choice(arcs)[::-1])
        pairs = [(labels[i], labels[j]) for i, j in arcs]
        if rng.random() < 0.05:
            odd = rng.choice([0, n + 1, True, 1.0, "1"])
            pairs.insert(rng.randint(0, len(pairs)), rng.choice([(odd, 1), (1, odd), (n, n)]))
        want = _outcome(lambda: reference_closure(n, pairs))
        got = _outcome(lambda: pk.poset_from_relations(n, pairs))
        if isinstance(want[0], type):
            assert got == want
            cycles += want == (pk.CycleDetected, "relations contain a cycle")
            continue
        assert _masks(got) == _reference_masks(n, want)
        # the closure with one bit flipped: mostly not an order any more
        i, j = rng.randrange(n), rng.randrange(n)
        up = list(want)
        up[i] ^= 1 << j
        flipped += _check_against_reference(n, up)
    assert 300 < flipped < 1500
    assert 100 < cycles < 1000


@pytest.mark.parametrize("ids", ["natural", "reversed", "shuffled", "zigzag", "chain"])
def test_a_4096_element_chain_builds_in_under_two_seconds(ids):
    labels = list(range(1, 4097))
    if ids == "reversed":
        labels.reverse()
    elif ids == "shuffled":
        random.Random(4096).shuffle(labels)
    elif ids == "zigzag":
        # top down 4096, 1, 4095, 2, ...: the lowest and the highest id
        # left above an element are always the two topmost
        labels = [e for k in range(1, 2049) for e in (4097 - k, k)][::-1]
    text = "poset 4096\n" + "".join(f"{a} < {b}\n" for a, b in zip(labels, labels[1:]))
    started = time.perf_counter()
    P = pk.chain(4096) if ids == "chain" else pk.parse_poset(text)
    assert time.perf_counter() - started < 2.0
    assert P.up_masks[labels[0] - 1] == (1 << 4096) - 1 ^ 1 << (labels[0] - 1)
    # the check keeps a mask per row, not a record per step
    tracemalloc.start()
    try:
        Q = pk.Poset(4096, P.up_masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _masks(Q) == _masks(P)
    assert peak < 16 << 20


def test_a_dense_4096_element_order_builds_in_under_two_seconds():
    # a random 2D order straight from two seeded permutations: e < f iff
    # x[e] < x[f] and y[e] < y[f].  Its ~4.2 M relations are too many to
    # write as text, and each row has many covers to find
    n, rng = 4096, random.Random(4096)
    x, y = rng.sample(range(n), n), rng.sample(range(n), n)
    above_x, above_y = [0] * (n + 1), [0] * (n + 1)
    for e in range(n):
        above_x[x[e]] |= 1 << e
        above_y[y[e]] |= 1 << e
    for r in range(n - 1, -1, -1):
        above_x[r] |= above_x[r + 1]
        above_y[r] |= above_y[r + 1]
    rows = [above_x[x[e] + 1] & above_y[y[e] + 1] for e in range(n)]
    assert 4_000_000 < sum(m.bit_count() for m in rows) < 4_400_000
    started = time.perf_counter()
    P = pk.Poset(n, rows)
    assert time.perf_counter() - started < 2.0
    # |down[e]| counts the f with x[f] < x[e] and y[f] < y[e]: a Fenwick tree
    # over y, filled in increasing x
    tree, below = [0] * (n + 1), [0] * n
    for e in sorted(range(n), key=x.__getitem__):
        r = y[e]
        while r:
            below[e] += tree[r]
            r &= r - 1
        r = y[e] + 1
        while r <= n:
            tree[r] += 1
            r += r & -r
    assert [m.bit_count() for m in P.down_masks] == below
    for e in rng.sample(range(n), 8):
        want = sum(1 << f for f in range(n) if x[f] < x[e] and y[f] < y[e])
        assert P.down_masks[e] == want
        assert P.inc_masks[e] == (1 << n) - 1 ^ (1 << e | want | rows[e])


def test_poset_hash_agrees_with_equality():
    P = pk.Poset(3, [0b110, 0b100, 0])
    assert P == pk.chain(3) and hash(P) == hash(pk.chain(3))
    assert P != pk.antichain_poset(3) and P != P.up_masks
    assert len({P, pk.chain(3), pk.chain_union([2, 1])}) == 2
    assert repr(P) == "Poset(n=3, relations=[(1, 2), (1, 3), (2, 3)])"


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_order_axioms_random(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=12,
        )
    )
    P = pk.poset_from_relations(n, pairs)
    for a in P.elements():
        assert not P.less(a, a)
        for b in P.elements():
            assert not (P.less(a, b) and P.less(b, a))
            assert P.incomparable(a, b) == (a != b and not P.less(a, b) and not P.less(b, a))
            for c in P.elements():
                if P.less(a, b) and P.less(b, c):
                    assert P.less(a, c)


def test_order_axioms_constructors_n64():
    for P in (pk.chain(64), pk.antichain_poset(64), pk.chain_union([16] * 4)):
        up = P.up_masks
        for i in range(P.n):
            assert not up[i] >> i & 1
            for j in _bits(up[i]):
                assert not up[j] >> i & 1
                assert not up[j] & ~up[i]


def test_incomparable_pairs():
    assert pk.incomparable_pairs(pk.chain(3)) == []
    assert pk.incomparable_pairs(pk.antichain_poset(3)) == [(1, 2), (1, 3), (2, 3)]
    assert len(pk.incomparable_pairs(pk.chevron())) == 7


def test_induced():
    P = pk.chain(3)
    Q, ids = pk.induced(P, {1, 3})
    assert ids == (1, 3)
    assert Q.relation_pairs() == [(1, 2)]
    E, ids = pk.induced(P, set())
    assert E.n == 0 and ids == ()
    M, _ = pk.induced(pk.chevron(), pk.max_of(pk.chevron(), range(1, 7)))
    assert M.relation_pairs() == []


def test_components():
    P = pk.chain_union([2, 1, 3])
    assert pk.components(P) == [(1, 2), (3,), (4, 5, 6)]
    assert pk.components(pk.antichain_poset(3)) == [(1,), (2,), (3,)]


def test_max_min():
    P = pk.chain(3)
    assert pk.max_of(P, P.elements()) == (3,)
    assert pk.min_of(P, P.elements()) == (1,)
    assert pk.min_of(P, ()) == ()
    assert pk.max_of(pk.chevron(), range(1, 7)) == (5, 6)


def test_downset_roundtrip_small_posets():
    for P in all_posets_upto_iso(4) + all_posets_upto_iso(5)[:20]:
        for A in brute_antichains(P):
            S = pk.downset_of(P, A)
            assert pk.maxima_of_downset(P, S) == tuple(sorted(A))


def test_downset_errors():
    P = pk.chain(2)
    for A in ({1, 2}, iter([2, 1])):
        with pytest.raises(pk.NotAnAntichain, match=_exactly("(1, 2) contains a comparable pair")):
            pk.downset_of(P, A)
    with pytest.raises(pk.NotADownset):
        pk.maxima_of_downset(P, {2})


def test_symmetric_difference_of_antichains_has_height_two():
    for P in all_posets_upto_iso(4):
        chains = brute_antichains(P)
        for A, B in itertools.product(chains, repeat=2):
            D = set(A) ^ set(B)
            Q, _ = pk.induced(P, D)
            for a in Q.elements():
                for b in Q.elements():
                    for c in Q.elements():
                        assert not (Q.less(a, b) and Q.less(b, c)), (A, B)


def test_enumerate_antichains():
    assert pk.enumerate_antichains(pk.antichain_poset(3)) == [
        (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,),
    ]
    assert len(pk.enumerate_antichains(pk.chain(5))) == 6
    with pytest.raises(pk.CapExceeded):
        pk.enumerate_antichains(pk.antichain_poset(8), cap=100)


def test_enumerate_antichains_is_lexicographic_and_capped_exactly():
    for P in all_posets_upto_iso(4) + [pk.chain_union([2, 2]), pk.chevron()]:
        chains = pk.enumerate_antichains(P)
        assert chains == sorted(brute_antichains(P))
        assert pk.enumerate_antichains(P, cap=len(chains)) == chains
        with pytest.raises(pk.CapExceeded):
            pk.enumerate_antichains(P, cap=len(chains) - 1)
    assert pk.enumerate_antichains(pk.antichain_poset(0), cap=0) == [()]


def test_enumerate_antichains_on_wide_and_deep_posets():
    # 1100 incomparable elements: refused without listing anything
    for cap in (1 << 10, pk.DEFAULT_CAP):
        with pytest.raises(pk.CapExceeded):
            pk.enumerate_antichains(pk.antichain_poset(1100), cap=cap)
    # one bottom and one top around 1100 incomparable elements: the width
    # check passes and the walk itself stops at the cap
    n = 1102
    P = pk.poset_from_relations(n, [(1, j) for j in range(2, n)] + [(j, n) for j in range(2, n)])
    with pytest.raises(pk.CapExceeded):
        pk.enumerate_antichains(P, cap=2000)


def test_antichain_walk_in_any_order_lists_each_antichain_once():
    # the colex walk needs no linear extension to be complete
    rng = random.Random(29)
    posets = all_posets_upto_iso(4) + [pk.chevron()]
    posets += [random_two_dim(rng.randint(5, 9), rng) for _ in range(20)]
    tried = 0
    for P in posets:
        want = sorted(_mask_of(P.n, A) for A in brute_antichains(P))
        order = list(P.elements())
        rng.shuffle(order)
        if any(P.less(b, a) for a, b in itertools.combinations(order, 2)):
            tried += 1
        walk = list(_antichains(P, len(want), order))
        assert sorted(A for A, _ in walk) == want
        for A, D in walk:
            assert D == _mask_of(P.n, pk.downset_of(P, [j + 1 for j in _bits(A)]))
        with pytest.raises(pk.CapExceeded):
            list(_antichains(P, len(want) - 1, order))
    assert tried > 20


def test_antichain_walk_in_realizer_order_is_colex_and_capped_exactly():
    # in either order of a realizer, the walk yields every antichain with
    # its closure in colex order of the members' positions, and a cap of
    # one less than the count stops it
    rng = random.Random(30)
    posets = [P for n in range(1, 5) for P in all_posets_upto_iso(n)]
    posets += [random_two_dim(rng.randint(1, 12), rng) for _ in range(40)]
    for P in posets:
        r = pk.realizer(P)
        for order in (r.sigma, r.sigma_bar):
            pos = {e: p for p, e in enumerate(order)}
            colex = sorted(brute_antichains(P), key=lambda A: sum(1 << pos[e] for e in A))
            want = [(_mask_of(P.n, A), _mask_of(P.n, pk.downset_of(P, A))) for A in colex]
            assert list(_antichains(P, len(want), order)) == want
            with pytest.raises(pk.CapExceeded):
                list(_antichains(P, len(want) - 1, order))


def test_antichain_count_matches_subset_filter():
    for P in all_posets_upto_iso(4):
        assert len(pk.enumerate_antichains(P)) == len(brute_antichains(P))


def _downsets_by_subset_filter(P):
    full = (1 << P.n) - 1
    return [m for m in range(full + 1)
            if all(not P.down_masks[j] & ~m for j in _bits(m))]


def test_all_downsets_match_subset_filter():
    posets = all_posets_upto_iso(4) + [pk.chevron()]
    rng = random.Random(43)
    posets += [random_two_dim(rng.randint(1, 10), rng) for _ in range(40)]
    for P in posets:
        downsets = pk.all_downsets(P)
        assert downsets == _downsets_by_subset_filter(P)
        # the cap is exact
        assert pk.all_downsets(P, cap=len(downsets)) == downsets
        with pytest.raises(pk.CapExceeded):
            pk.all_downsets(P, cap=len(downsets) - 1)


def test_all_downsets_refuses_a_wide_poset_before_listing():
    # 2^40 downsets: the width check refuses at once
    with pytest.raises(pk.CapExceeded):
        pk.all_downsets(pk.antichain_poset(40))


def test_downset_lattice_of_antichain_is_boolean():
    dl = pk.downset_lattice(pk.antichain_poset(3))
    assert dl.lattice.n == 8
    assert dl.downsets[0] == ()
    assert dl.index[(1, 2, 3)] == 8
    # inclusion order: element for {1} below element for {1,3}
    assert dl.lattice.less(dl.index[(1,)], dl.index[(1, 3)])
    assert not dl.lattice.less(dl.index[(1,)], dl.index[(2, 3)])


def test_downset_lattice_cap():
    with pytest.raises(pk.CapExceeded):
        pk.downset_lattice(pk.antichain_poset(10), cap=100)
    # 2048 downsets fit under the default cap, their 4.2 M pairs do not
    with pytest.raises(pk.CapExceeded, match="downset pairs"):
        pk.downset_lattice(pk.antichain_poset(11))
    assert pk.downset_lattice(pk.antichain_poset(10)).lattice.n == 1024


def test_cover_pairs():
    assert pk.cover_pairs(pk.chain(3)) == [(1, 2), (2, 3)]
    P = pk.poset_from_relations(3, [(1, 2), (2, 3), (1, 3)])
    assert pk.cover_pairs(P) == [(1, 2), (2, 3)]


def test_downset_covers_match_the_lattice_covers():
    # the pairs (D - a, D) for each maximum a the walk lists with D are the
    # covers of the full inclusion order, also off two dimensions (the
    # chevron); walked along a linear extension, D - a comes before D
    posets = [pk.chain(3), pk.antichain_poset(4), pk.chain_union([2, 3]), pk.chevron()]
    posets += [pk.chain_union([3, 1, 2]), pk.chain_union([4, 4])]
    posets += all_posets_upto_iso(4)
    rng = random.Random(31)
    posets += [random_two_dim(rng.randint(1, 10), rng) for _ in range(30)]
    for P in posets:
        dl = pk.downset_lattice(P)
        want = sorted((dl.downsets[a - 1], dl.downsets[b - 1])
                      for a, b in pk.cover_pairs(dl.lattice))
        walk = list(_antichains(P, pk.DEFAULT_CAP, random_extension(P, rng)))
        at = {D: i for i, (_, D) in enumerate(walk)}
        covers = [(D ^ 1 << a, D) for A, D in walk for a in _bits(A)]
        assert all(at[C] < at[D] for C, D in covers)
        tuples = {D: tuple(j + 1 for j in _bits(D)) for D in at}
        assert sorted((tuples[C], tuples[D]) for C, D in covers) == want


def test_chain_union_numbering():
    P = pk.chain_union([2, 3])
    assert P.relation_pairs() == [(1, 2), (3, 4), (3, 5), (4, 5)]
    with pytest.raises(ValueError):
        pk.chain_union([0])


def test_chevron_shape():
    C = pk.chevron()
    assert C.n == 6
    assert len(pk.incomparable_pairs(C)) == 7
    assert pk.max_of(C, C.elements()) == (5, 6)
    assert len(pk.min_of(C, C.elements())) == 2


def test_parse_and_format_roundtrip():
    text = "# a comment\nposet 4\n1 < 2\n\n2 < 4\n3 < 4\n"
    P = pk.parse_poset(text)
    assert P.less(1, 4)
    again = pk.parse_poset(pk.format_poset(P))
    assert again == P


def test_parse_errors():
    for bad in ("", "poset x\n", "1 < 2\n", "poset 2\n1 <\n", "poset 2\n1 2\n",
                "poset 2\na < b\n", "poset -1\n"):
        with pytest.raises(pk.PosetFormatError):
            pk.parse_poset(bad)
    with pytest.raises(pk.CycleDetected):
        pk.parse_poset("poset 2\n1 < 2\n2 < 1\n")


def test_oversized_header_is_refused_before_allocating():
    with pytest.raises(pk.CapExceeded):
        pk.parse_poset("poset 1000000000\n")
    # refused at the header: the malformed relation line is never read
    with pytest.raises(pk.CapExceeded, match=_exactly("5000 elements, more than 4096")):
        pk.parse_poset("poset 5000\n1 2 3 4\n")
    with pytest.raises(pk.CapExceeded):
        pk.antichain_poset(pk.poset.MAX_ELEMENTS + 1)
    assert pk.antichain_poset(pk.poset.MAX_ELEMENTS).n == pk.poset.MAX_ELEMENTS


def test_refused_header_splits_no_further_line():
    # a 5.7 MB file whose header is over the cap: refused without splitting
    # the relation lines, which took about 60 MB when they were split first
    text = "poset 5000\n" + "1 < 2\n" * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(pk.CapExceeded):
            pk.parse_poset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# every line break of str.splitlines, "\r\n" counting as one
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def test_parse_numbers_lines_as_splitlines_does(tmp_path):
    # and load_poset reads each text, written to a file, the same way
    path = tmp_path / "P.poset"
    comments = "".join(f"# {i}{b}" for i, b in enumerate(LINE_BREAKS))
    relations = "".join(f"1 < 2{b}" for b in LINE_BREAKS)
    for text in (comments + "poset x\n",
                 comments + "poset 3\r\n" + relations + "1 2\n",
                 "".join(f" {b}" for b in LINE_BREAKS) + "poset -1\n"):
        want = f"line {len(text.splitlines())}: "
        path.write_bytes(text.encode())
        for read in (lambda: pk.parse_poset(text), lambda: pk.load_poset(path)):
            with pytest.raises(pk.PosetFormatError, match="^" + re.escape(want)):
                read()
    text = comments + "poset 3\r" + relations + "2 < 3"
    path.write_bytes(text.encode())
    P = pk.parse_poset(text)
    assert P.relation_pairs() == [(1, 2), (1, 3), (2, 3)]
    assert pk.load_poset(path) == P


def test_load_poset(tmp_path):
    p = tmp_path / "p.poset"
    p.write_text(pk.format_poset(pk.chevron()), encoding="utf-8")
    assert pk.load_poset(p) == pk.chevron()


@given(st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_downset_of_inverse_property(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=10,
        )
    ) if n else []
    P = pk.poset_from_relations(n, pairs)
    subset = data.draw(st.sets(st.integers(1, n), max_size=n)) if n else set()
    if not any(P.less(a, b) for a in subset for b in subset):
        assert pk.maxima_of_downset(P, pk.downset_of(P, subset)) == tuple(sorted(subset))


def test_all_is_the_public_names_the_package_imports():
    star = {}
    exec("from posetkit import *", star)
    del star["__builtins__"]
    assert sorted(star) == pk.__all__
    assert pk.__all__ == sorted(set(pk.__all__))
    assert "realizer" in pk.__all__ and "cli" not in pk.__all__
    homes = [importlib.import_module("posetkit." + m)
             for m in ("errors", "poset", "realizer", "revlex", "led", "oracle", "svg")]
    for name in pk.__all__:
        obj = getattr(pk, name)
        assert not isinstance(obj, types.ModuleType), name
        # defined in the package, not a typing or types name a submodule imports
        assert getattr(obj, "__module__", "posetkit.").startswith("posetkit."), name
        assert any(getattr(m, name, None) is obj for m in homes), name
