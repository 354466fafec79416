"""Tests for the brute-force reference machinery."""

import importlib
import random

import pytest

import posetkit as pk

from conftest import as_lattice_extension, random_two_dim


def _cube_lattice(n):
    return pk.downset_lattice(pk.antichain_poset(n))


# ---------------------------------------------------------------------------
# all_linear_extensions


def test_all_linear_extensions_counts():
    assert pk.all_linear_extensions(pk.chain(4)) == [(1, 2, 3, 4)]
    exts = pk.all_linear_extensions(pk.antichain_poset(3))
    assert len(exts) == 6
    assert exts == sorted(exts)
    assert len(pk.all_linear_extensions(_cube_lattice(3).lattice)) == 48


def test_all_linear_extensions_cap():
    with pytest.raises(pk.CapExceeded):
        pk.all_linear_extensions(pk.antichain_poset(5), cap=10)


def test_all_linear_extensions_are_extensions():
    rng = random.Random(1)
    P = random_two_dim(5, rng)
    exts = pk.all_linear_extensions(P)
    assert all(pk.is_linear_extension(P, e) for e in exts)
    assert len(set(exts)) == len(exts)


# ---------------------------------------------------------------------------
# le_graph_diameter


def test_le_graph_diameter_trivial():
    diam, census = pk.le_graph_diameter(pk.chain(3))
    assert diam == 0
    assert census == []


def test_le_graph_diameter_single_edge():
    diam, census = pk.le_graph_diameter(pk.antichain_poset(2))
    assert diam == 1
    assert census == [((1, 2), (2, 1))]


def test_le_graph_diameter_chevron():
    diam, census = pk.le_graph_diameter(pk.chevron())
    assert diam == 6
    assert census
    assert len(pk.incomparable_pairs(pk.chevron())) == 7


# ---------------------------------------------------------------------------
# brute_led_downset


def test_brute_led_downset_values():
    assert pk.brute_led_downset(pk.antichain_poset(2))[0] == 1
    diam, pairs = pk.brute_led_downset(pk.antichain_poset(3))
    assert diam == 8
    assert len(pairs) == 3
    assert pk.brute_led_downset(pk.chain_union([2, 1]))[0] == pk.led_chain_union([2, 1])


def test_brute_led_downset_pairs_are_downset_orders():
    _, pairs = pk.brute_led_downset(pk.antichain_poset(2))
    downs = set(pk.downset_lattice(pk.antichain_poset(2)).downsets)
    for e1, e2 in pairs:
        assert set(e1) == downs
        assert set(e2) == downs
        assert e1[0] == () and e2[0] == ()


# ---------------------------------------------------------------------------
# enumerate_classes


def test_enumerate_classes_partitions_pairs():
    rng = random.Random(3)
    for P in [pk.antichain_poset(3), pk.chain_union([2, 1]), random_two_dim(5, rng)]:
        classes = pk.enumerate_classes(P)
        a = pk.count_antichains(P, pk.realizer(P).sigma).total
        assert sum(len(C.pairs) for C in classes) == a * a
        seen = set()
        for C in classes:
            assert len(C.pairs) == 1 << len(C.components)
            for ab in C.pairs:
                assert ab not in seen
                seen.add(ab)


def test_enumerate_classes_square():
    classes = pk.enumerate_classes(pk.antichain_poset(2))
    big = [C for C in classes if C.D == (1, 2) and C.I == ()]
    assert len(big) == 1
    assert len(big[0].pairs) == 4
    assert len(big[0].components) == 2


# ---------------------------------------------------------------------------
# class_reversals


def _diametral_extensions(P):
    r = pk.realizer(P)
    return (
        pk.build_revlex_extension(P, r.sigma),
        pk.build_revlex_extension(P, r.sigma_bar),
    )


def test_class_reversals_small_classes_never_flip():
    rng = random.Random(7)
    P = pk.antichain_poset(3)
    dl = pk.downset_lattice(P)
    exts = pk.all_linear_extensions(dl.lattice)
    classes = pk.enumerate_classes(P)
    for _ in range(10):
        L1 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        L2 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        for C in classes:
            if len(C.components) <= 1:
                assert pk.class_reversals(C, L1, L2) == 0


def test_class_reversals_diametral_hits_bound():
    for P in [pk.antichain_poset(2), pk.antichain_poset(3), pk.chain_union([2, 2])]:
        L1, L2 = _diametral_extensions(P)
        total = 0
        for C in pk.enumerate_classes(P):
            d = len(C.components)
            flips = pk.class_reversals(C, L1, L2)
            if d <= 1:
                assert flips == 0
            else:
                assert flips == 1 << (d - 2)
            total += flips
        assert total == pk.led_downset(P).led


def test_class_reversals_random_pairs_bounded():
    rng = random.Random(9)
    P = pk.antichain_poset(3)
    dl = pk.downset_lattice(P)
    exts = pk.all_linear_extensions(dl.lattice)
    classes = pk.enumerate_classes(P)
    for _ in range(15):
        L1 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        L2 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        for C in classes:
            d = len(C.components)
            cap = 0 if d <= 1 else 1 << (d - 2)
            assert pk.class_reversals(C, L1, L2) <= cap


def test_class_reversals_mismatch():
    P = pk.antichain_poset(2)
    Q = pk.chain(2)
    C = pk.enumerate_classes(P)[0]
    L1, _ = _diametral_extensions(P)
    M1, _ = _diametral_extensions(Q)
    with pytest.raises(pk.MismatchedGroundSets):
        pk.class_reversals(C, L1, M1)
    # both extensions order one family, but not the class's downsets
    order = tuple(d + (9,) for d in L1.order)
    L = pk.LatticeExtension(order, {d: p for p, d in enumerate(order, start=1)})
    with pytest.raises(pk.MismatchedGroundSets, match="not in the extension"):
        pk.class_reversals(C, L, L)


# ---------------------------------------------------------------------------
# kleitman_families


def test_kleitman_families_degenerate():
    P = pk.antichain_poset(2)
    L1, L2 = _diametral_extensions(P)
    empty = [C for C in pk.enumerate_classes(P) if C.D == ()]
    assert empty
    for C in empty:
        f1, f2 = pk.kleitman_families(C, L1, L2)
        assert f1 == set() and f2 == set()


def test_kleitman_families_diametral_components_differ():
    P = pk.antichain_poset(2)
    L1, L2 = _diametral_extensions(P)
    C = next(C for C in pk.enumerate_classes(P) if len(C.components) == 2)
    f1, f2 = pk.kleitman_families(C, L1, L2)
    assert len(f1) == 2 and len(f2) == 2
    assert len(f1 ^ f2) == 2


def test_kleitman_families_random_pairs():
    # the size and closure guarantees are asserted inside the call
    rng = random.Random(11)
    P = pk.antichain_poset(3)
    dl = pk.downset_lattice(P)
    exts = pk.all_linear_extensions(dl.lattice)
    classes = pk.enumerate_classes(P)
    for _ in range(15):
        L1 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        L2 = as_lattice_extension(dl, exts[rng.randrange(len(exts))])
        for C in classes:
            pk.kleitman_families(C, L1, L2)


# ---------------------------------------------------------------------------
# critical_pairs


def test_critical_pairs_examples():
    assert pk.critical_pairs(pk.chain(4)) == []
    assert set(pk.critical_pairs(pk.antichain_poset(2))) == {(1, 2), (2, 1)}


def test_critical_pairs_cube_atoms_vs_coatoms():
    for n in (2, 3, 4):
        dl = _cube_lattice(n)
        ground = tuple(range(1, n + 1))
        expected = set()
        for i in ground:
            atom = (i,)
            coatom = tuple(e for e in ground if e != i)
            expected.add((dl.index[atom], dl.index[coatom]))
        assert set(pk.critical_pairs(dl.lattice)) == expected


# ---------------------------------------------------------------------------
# is_diametrally_reversing


def test_is_diametrally_reversing_cubes():
    assert pk.is_diametrally_reversing(_cube_lattice(2).lattice)
    assert pk.is_diametrally_reversing(_cube_lattice(3).lattice)


def test_is_diametrally_reversing_vacuous_on_chain():
    assert pk.is_diametrally_reversing(pk.chain(5))


def test_is_diametrally_reversing_chevron_runs():
    assert pk.is_diametrally_reversing(pk.chevron()) is True


def test_is_diametrally_reversing_false_without_critical_pairs(monkeypatch):
    # no critical pair to reverse: an extension of a diametral pair fails
    monkeypatch.setattr(importlib.import_module("posetkit.oracle"), "critical_pairs",
                        lambda P: [])
    assert pk.is_diametrally_reversing(pk.antichain_poset(2)) is False
