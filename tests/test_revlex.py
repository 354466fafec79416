"""Tests for the set comparator and the two sorted downset orders."""

import functools
import importlib
import itertools
import random
import re
import tracemalloc

import pytest

import posetkit as pk
from posetkit.poset import _bits
from posetkit.revlex import _revlex_pair

from conftest import (
    all_posets_upto_iso,
    as_lattice_extension,
    downset_covers,
    random_two_dim,
    validate_lattice_extension,
)


# ---------------------------------------------------------------------------
# revlex_less


def test_revlex_less_examples():
    assert pk.revlex_less((1, 2), {1}, {2})
    assert not pk.revlex_less((1, 2), {2}, {1})
    # reversing sigma flips the verdict for this pair
    assert pk.revlex_less((2, 1), {2}, {1})
    assert not pk.revlex_less((2, 1), {1}, {2})
    # the element placed last decides, regardless of the rest
    assert pk.revlex_less((1, 2, 3), {1, 2}, {3})
    assert pk.revlex_less((3, 2, 1), {3, 2}, {1})


def test_revlex_less_inclusion_implies_less():
    sigma = (3, 1, 4, 2)
    universe = [1, 2, 3, 4]
    for r in range(len(universe) + 1):
        for sub in itertools.combinations(universe, r):
            for extra in universe:
                if extra in sub:
                    continue
                assert pk.revlex_less(sigma, set(sub), set(sub) | {extra})


def test_revlex_less_errors():
    with pytest.raises(pk.EqualSets):
        pk.revlex_less((1, 2), {1}, {1})
    with pytest.raises(pk.IndexOutOfRange):
        pk.revlex_less((1, 2), {1}, {7})
    with pytest.raises(pk.IndexOutOfRange):
        pk.revlex_less((1, 2), {0}, {1})


def test_revlex_less_is_strict_total_order():
    # antisymmetry and transitivity, checked exhaustively on small ground sets
    for n in (2, 3, 4):
        universe = list(range(1, n + 1))
        subsets = [
            frozenset(c)
            for r in range(n + 1)
            for c in itertools.combinations(universe, r)
        ]
        for sigma in (tuple(universe), tuple(reversed(universe))):
            for S, T in itertools.permutations(subsets, 2):
                assert pk.revlex_less(sigma, S, T) != pk.revlex_less(sigma, T, S)
            for S, T, U in itertools.permutations(subsets, 3):
                if pk.revlex_less(sigma, S, T) and pk.revlex_less(sigma, T, U):
                    assert pk.revlex_less(sigma, S, U)


# ---------------------------------------------------------------------------
# build_revlex_extension


def test_build_extension_square():
    P = pk.antichain_poset(2)
    L = pk.build_revlex_extension(P, (1, 2))
    assert L.order == ((), (1,), (2,), (1, 2))
    M = pk.build_revlex_extension(P, (2, 1))
    assert M.order == ((), (2,), (1,), (1, 2))
    assert len(L) == 4
    assert L.index[()] == 1
    assert L.index[(1, 2)] == 4


def test_build_extension_chain_is_forced():
    P = pk.chain(3)
    expected = ((), (1,), (1, 2), (1, 2, 3))
    for sigma in itertools.permutations((1, 2, 3)):
        if not pk.is_linear_extension(P, sigma):
            continue
        assert pk.build_revlex_extension(P, sigma).order == expected


def test_build_extension_cube_frozen():
    # all 16 subsets of {1..4} in the binary-counter order the identity gives
    P = pk.antichain_poset(4)
    L = pk.build_revlex_extension(P, (1, 2, 3, 4))
    expected = tuple(
        tuple(i + 1 for i in range(4) if m >> i & 1) for m in range(16)
    )
    assert L.order == expected


def test_build_extension_is_lattice_extension():
    rng = random.Random(11)
    posets = [pk.chain_union([2, 1]), pk.antichain_poset(3), pk.chain(4)]
    posets += [random_two_dim(5, rng) for _ in range(5)]
    for P in posets:
        r = pk.realizer(P)
        for ext in (r.sigma, r.sigma_bar):
            L = pk.build_revlex_extension(P, ext)
            validate_lattice_extension(P, L)


def test_build_extension_rejects_non_extension():
    P = pk.chain(2)
    with pytest.raises(pk.NotALinearExtension):
        pk.build_revlex_extension(P, (2, 1))


# ---------------------------------------------------------------------------
# reversal_distance


def test_reversal_distance_basics():
    P = pk.antichain_poset(2)
    L1 = pk.build_revlex_extension(P, (1, 2))
    L2 = pk.build_revlex_extension(P, (2, 1))
    assert pk.reversal_distance(L1, L1) == 0
    assert pk.reversal_distance(L1, L2) == 1
    assert pk.reversal_distance(L2, L1) == 1


def test_reversal_distance_cube():
    P = pk.antichain_poset(3)
    L1 = pk.build_revlex_extension(P, (1, 2, 3))
    L2 = pk.build_revlex_extension(P, (3, 2, 1))
    assert pk.reversal_distance(L1, L2) == 8


def test_reversal_distance_bounded_by_incomparable_pairs():
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        P = random_two_dim(5, rng)
        dl = pk.downset_lattice(P)
        try:
            exts = pk.all_linear_extensions(dl.lattice, cap=4000)
        except pk.CapExceeded:
            continue
        bound = len(pk.incomparable_pairs(dl.lattice))
        a = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        b = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        assert 0 <= pk.reversal_distance(a, b) <= bound
        checked += 1


def test_reversal_distance_mismatch():
    L1 = pk.build_revlex_extension(pk.antichain_poset(2), (1, 2))
    L2 = pk.build_revlex_extension(pk.chain(2), (1, 2))
    with pytest.raises(pk.MismatchedGroundSets):
        pk.reversal_distance(L1, L2)
    # the same downsets, but an index that is not the positions 1..N
    for index in ({d: 1 for d in L1.order}, {d: p for p, d in enumerate(L1.order)}):
        with pytest.raises(pk.MismatchedGroundSets, match="positions"):
            pk.reversal_distance(L1, pk.LatticeExtension(L1.order, index))


# ---------------------------------------------------------------------------
# diametral_pair


def test_diametral_pair_chain():
    for k in (1, 2, 4):
        L1, L2 = pk.diametral_pair(pk.chain(k))
        assert L1.order == L2.order
        assert pk.reversal_distance(L1, L2) == 0


def test_diametral_pair_matches_brute_diameter():
    posets = [
        pk.antichain_poset(2),
        pk.antichain_poset(3),
        pk.chain_union([1, 1, 1]),
        pk.chain_union([2, 2]),
    ]
    for P in posets:
        L1, L2 = pk.diametral_pair(P)
        diam, _ = pk.brute_led_downset(P)
        assert pk.reversal_distance(L1, L2) == diam


def test_diametral_pair_walks_once_per_order(monkeypatch):
    rng = random.Random(12)
    posets = [pk.antichain_poset(4), pk.chain_union([3, 2])]
    posets += [random_two_dim(n, rng) for n in range(1, 10)]
    expected = []
    for P in posets:
        r = pk.realizer(P)
        expected.append((pk.build_revlex_extension(P, r.sigma),
                         pk.build_revlex_extension(P, r.sigma_bar)))
    revlex = importlib.import_module("posetkit.revlex")
    walk, calls = revlex._antichains, []
    monkeypatch.setattr(revlex, "_antichains",
                        lambda P, cap, order: calls.append(tuple(order)) or walk(P, cap, order))
    for P, pair in zip(posets, expected):
        r = pk.realizer(P)
        for given in (None, r):
            assert pk.diametral_pair(P, r=given) == pair
            assert calls == [r.sigma, r.sigma_bar]
            calls.clear()


def _linear_extensions(P, placed=0, prefix=()):
    """Every linear extension of P, lazily, smallest available element first."""
    if len(prefix) == P.n:
        yield prefix
    for i in range(P.n):
        if not placed >> i & 1 and not P.down_masks[i] & ~placed:
            yield from _linear_extensions(P, placed | 1 << i, prefix + (i + 1,))


def _comparator_sort(sigma, downsets):
    before = functools.cmp_to_key(lambda S, T: -1 if pk.revlex_less(sigma, S, T) else 1)
    return tuple(sorted(downsets, key=before))


def test_revlex_orders_equal_a_comparator_sort():
    # the walk's colex order of maxima against revlex_less itself, for
    # every linear extension (up to 200 a poset), separating ones included
    rng = random.Random(41)
    posets = [P for n in range(6) for P in all_posets_upto_iso(n)] + [pk.chevron()]
    posets += [random_two_dim(n, rng) for n in range(6, 10) for _ in range(5)]
    pairs = 0
    for P in posets:
        downsets = [tuple(j + 1 for j in _bits(m)) for m in pk.all_downsets(P)]
        rng.shuffle(downsets)
        for sigma in itertools.islice(_linear_extensions(P), 200):
            assert pk.build_revlex_extension(P, sigma).order == _comparator_sort(sigma, downsets)
            pairs += 1
    assert pairs > 3000
    # both orders of diametral_pair, also on wider orders
    posets = [random_two_dim(n, rng) for n in (0, 1, 7, 8, 9, 16, 17)]
    posets.append(pk.antichain_poset(11))
    for P in posets:
        r = pk.realizer(P)
        L1, L2 = pk.diametral_pair(P, r=r)
        downsets = list(L1.order)
        rng.shuffle(downsets)
        for sigma, L in ((r.sigma, L1), (r.sigma_bar, L2)):
            assert L.order == _comparator_sort(sigma, downsets)


def test_diametral_pair_stays_small_on_a_long_chain():
    # 4097 downsets of 4096 bits: each order is one walk and no table, so
    # the peak is the two listings and the engine, not per-byte tables
    P = pk.chain(4096)
    r = pk.Realizer2D(tuple(P.elements()), tuple(P.elements()))
    tracemalloc.start()
    try:
        w1, w2 = _revlex_pair(P, pk.DEFAULT_CAP, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [D for _, D in w1] == [(1 << k) - 1 for k in range(4097)] == [D for _, D in w2]
    assert peak < 16 << 20


def test_diametral_pair_shares_one_tuple_per_downset():
    # both orders and the covers hold the very tuple objects of one listing
    rng = random.Random(23)
    posets = [pk.chain(3), pk.antichain_poset(4), pk.chain_union([2, 3])]
    posets += [random_two_dim(n, rng) for n in range(1, 11)]
    for P in posets:
        L1, L2 = pk.diametral_pair(P)
        same = {d: d for d in L1.order}
        assert len(same) == len(L1) == len(L2)
        assert all(same[d] is d for d in L2.order)
        covers = downset_covers(P, L1.order)
        assert covers
        assert all(same[a] is a and same[b] is b for a, b in covers)


def test_records_are_read_only_tuples():
    P = pk.chain_union([2, 1])
    r = pk.realizer(P)
    L1, L2 = pk.diametral_pair(P, r=r)
    C = pk.enumerate_classes(P)[-1]
    assert len(L1) == len(L1.order) == 6
    assert tuple(r) == (r.sigma, r.sigma_bar)
    for record in (r, L1, C):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    sigma, sigma_bar = r
    order, index = L1
    assert (sigma, sigma_bar, order, index) == (r.sigma, r.sigma_bar, L1.order, L1.index)
    assert L1 == pk.build_revlex_extension(P, r.sigma) != L2


def test_diametral_pair_checks_the_lattice_size_first(monkeypatch):
    revlex = importlib.import_module("posetkit.revlex")
    monkeypatch.setattr(revlex, "_antichains", None)
    with pytest.raises(pk.CapExceeded):
        pk.diametral_pair(pk.antichain_poset(5), cap=31)
    with pytest.raises(pk.CapExceeded):
        pk.diametral_pair(pk.antichain_poset(40))
    monkeypatch.undo()
    assert len(pk.diametral_pair(pk.antichain_poset(5), cap=32)[0]) == 32


def test_diametral_pair_rejects_orders_that_do_not_extend_the_poset():
    P = pk.chain_union([2, 1])
    with pytest.raises(pk.NotALinearExtension):
        pk.diametral_pair(P, r=pk.Realizer2D((1, 2, 3), (3, 2, 1)))
    with pytest.raises(pk.NotALinearExtension):
        pk.diametral_pair(P, r=pk.Realizer2D((2, 1, 3), (1, 2, 3)))


def test_diametral_pair_rejects_a_sigma_bar_that_is_not_the_conjugate():
    P = pk.chain_union([2, 1])
    assert pk.realizer(P) == pk.Realizer2D((1, 2, 3), (3, 1, 2))
    # both orders extend P, but their intersection also orders 3 after 1
    for sigma_bar in ((1, 2, 3), (1, 3, 2)):
        with pytest.raises(ValueError, match="not the conjugate"):
            pk.diametral_pair(P, r=pk.Realizer2D((1, 2, 3), sigma_bar))
    L1, L2 = pk.diametral_pair(P, r=pk.Realizer2D((1, 2, 3), (3, 1, 2)))
    assert pk.reversal_distance(L1, L2) == pk.led_downset(P).led == 3


def test_diametral_pair_rejects_chevron():
    with pytest.raises(pk.NotTwoDimensional):
        pk.diametral_pair(pk.chevron())


# ---------------------------------------------------------------------------
# dominance_coordinates


def test_dominance_coordinates_corners():
    P = pk.antichain_poset(2)
    L1, L2 = pk.diametral_pair(P)
    coords = pk.dominance_coordinates(L1, L2)
    assert coords[()] == (1, 1)
    full = tuple(sorted(P.elements()))
    assert coords[full] == (len(L1), len(L2))


def test_dominance_coordinates_orders_and_count():
    # comparable downsets dominate in both axes; among incomparable ones the
    # number of dominance-comparable pairs is exactly inc(D_P) minus the
    # reversal distance of the two orders
    rng = random.Random(7)
    posets = [pk.antichain_poset(3), pk.chain_union([2, 1])]
    posets += [random_two_dim(4, rng) for _ in range(4)]
    for P in posets:
        L1, L2 = pk.diametral_pair(P)
        coords = pk.dominance_coordinates(L1, L2)
        dl = pk.downset_lattice(P)
        led = pk.led_downset(P).led
        inc = pk.incomparable_pairs(dl.lattice)
        dominated = 0
        for i, j in itertools.combinations(range(len(dl.downsets)), 2):
            a = coords[dl.downsets[i]]
            b = coords[dl.downsets[j]]
            same_dir = (a[0] < b[0]) == (a[1] < b[1])
            if dl.lattice.less(i + 1, j + 1) or dl.lattice.less(j + 1, i + 1):
                assert same_dir
            elif same_dir:
                dominated += 1
        assert dominated == len(inc) - led


def test_dominance_svg_does_not_depend_on_the_cover_order():
    # the segments are drawn in order of their coordinate pairs, whatever
    # order the covers come in
    rng = random.Random(47)
    posets = [pk.antichain_poset(5), pk.chain_union([2, 3])]
    posets += [random_two_dim(n, rng) for n in (6, 9, 12)]
    for P in posets:
        L1, L2 = pk.diametral_pair(P)
        coords = pk.dominance_coordinates(L1, L2)
        covers = downset_covers(P, L1.order)
        want = pk.dominance_svg(coords, covers, 10)
        segments = [tuple(map(int, m)) for m in re.findall(
            r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"/>', want)]
        assert len(segments) == len(covers)
        assert segments == sorted(segments)
        for _ in range(3):
            rng.shuffle(covers)
            assert pk.dominance_svg(coords, covers, 10) == want
