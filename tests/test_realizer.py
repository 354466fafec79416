import importlib
import itertools
import random

import pytest

import posetkit as pk
from posetkit import cli
from posetkit.poset import _bits, _components, component_masks
from posetkit.realizer import _arc_masks, _conjugate_ranks

from conftest import (
    all_posets_upto_iso,
    random_extension,
    random_not_two_dim,
    random_two_dim,
    separates,
    shuffled_chain_union,
)
from reference_orientation import reference_orientation, reference_realizer
from reference_series_parallel import random_series_parallel


def brute_has_transitive_orientation(P):
    """Try all orientations of the incomparability graph."""
    inc = pk.incomparable_pairs(P)
    for choice in range(1 << len(inc)):
        arcs = set()
        for t, (a, b) in enumerate(inc):
            arcs.add((a, b) if choice >> t & 1 else (b, a))
        if all(
            (a, c) in arcs
            for (a, b) in arcs
            for (b2, c) in arcs
            if b2 == b and a != c
        ):
            return True
    return False


def test_orientation_simple_cases():
    assert pk.transitive_orientation(pk.chain(4)) == []
    assert pk.transitive_orientation(pk.antichain_poset(3)) == [(1, 2), (1, 3), (2, 3)]


def test_orientation_is_transitive_and_complete():
    for P in all_posets_upto_iso(5):
        if not pk.is_two_dimensional(P):
            continue
        arcs = pk.transitive_orientation(P)
        assert sorted(tuple(sorted(a)) for a in arcs) == pk.incomparable_pairs(P)
        s = set(arcs)
        for (a, b) in s:
            for (b2, c) in s:
                if b2 == b and a != c:
                    assert (a, c) in s


def test_chevron_not_two_dimensional():
    with pytest.raises(pk.NotTwoDimensional) as exc:
        pk.transitive_orientation(pk.chevron())
    assert str(exc.value) == "edge 1,4 is forced in both directions"
    assert not pk.is_two_dimensional(pk.chevron())


def test_orientation_agrees_with_brute_search():
    for P in all_posets_upto_iso(5):
        assert pk.is_two_dimensional(P) == brute_has_transitive_orientation(P)
    rng = random.Random(3)
    sample = [pk.chevron()]
    while len(sample) < 30:
        pairs = [
            (a, b)
            for a in range(1, 7)
            for b in range(a + 1, 7)
            if rng.random() < 0.3
        ]
        sample.append(pk.poset_from_relations(6, pairs))
    for P in sample:
        assert pk.is_two_dimensional(P) == brute_has_transitive_orientation(P)


def test_realizer_examples():
    r = pk.realizer(pk.antichain_poset(2))
    assert r.sigma == (1, 2) and r.sigma_bar == (2, 1)
    r = pk.realizer(pk.chain(3))
    assert r.sigma == r.sigma_bar == (1, 2, 3)
    r = pk.realizer(pk.chain_union([2, 1]))
    assert pk.is_linear_extension(pk.chain_union([2, 1]), r.sigma)


def test_is_linear_extension_matches_the_pairwise_definition():
    rng = random.Random(31)
    posets = [P for n in range(5) for P in all_posets_upto_iso(n)] + [pk.chevron()]
    posets += [random_two_dim(6, rng) for _ in range(4)]
    outcomes = set()
    for P in posets:
        for _ in range(12):
            order = list(P.elements())
            rng.shuffle(order)
            pos = {e: k for k, e in enumerate(order)}
            want = all(pos[a] < pos[b] for a, b in P.relation_pairs())
            assert pk.is_linear_extension(P, order) == want
            outcomes.add(want)
        if P.n:
            assert not pk.is_linear_extension(P, order[1:])
            assert not pk.is_linear_extension(P, order + order[:1])
    assert outcomes == {False, True}


def test_conjugate_ranks_check_and_rank_in_one_walk():
    # the walk raises exactly on orders that are no permutation or put some
    # b ahead of an a < b, and otherwise ranks x at position p as in the
    # conjugate: |{y < x}| + |{y || x after p}|, counted with P.less alone
    outcomes = set()
    for n in range(6):
        for P in all_posets_upto_iso(n):
            for order in itertools.permutations(P.elements()):
                pos = {e: k for k, e in enumerate(order)}
                if any(pos[a] > pos[b] for a, b in P.relation_pairs()):
                    with pytest.raises(pk.NotALinearExtension, match="does not extend"):
                        _conjugate_ranks(P, order)
                    outcomes.add(False)
                    continue
                want = [sum(P.less(y, x) for y in P.elements())
                        + sum(not P.less(x, y) and not P.less(y, x) for y in order[p + 1:])
                        for p, x in enumerate(order)]
                assert _conjugate_ranks(P, order) == want, (P.relation_pairs(), order)
                outcomes.add(True)
            ids = list(P.elements())
            bad = [ids + [n + 1], [0] + ids[1:], ids[:-1] + [n + 1]]
            if n:
                bad += [ids[1:], ids + ids[:1]]
            if n > 1:
                bad.append(ids[:-1] + ids[:1])
            for order in bad:
                with pytest.raises(pk.NotALinearExtension, match="does not extend"):
                    _conjugate_ranks(P, order)
    assert outcomes == {False, True}


def test_realizer_intersection_is_poset():
    for P in all_posets_upto_iso(5):
        if not pk.is_two_dimensional(P):
            continue
        r = pk.realizer(P)
        pos1 = {e: i for i, e in enumerate(r.sigma)}
        pos2 = {e: i for i, e in enumerate(r.sigma_bar)}
        reversed_pairs = 0
        for a, b in itertools.combinations(P.elements(), 2):
            agree = (pos1[a] < pos1[b]) == (pos2[a] < pos2[b])
            assert agree == (P.less(a, b) or P.less(b, a))
            reversed_pairs += not agree
        assert reversed_pairs == len(pk.incomparable_pairs(P))
        assert pk.is_non_separating(P, r.sigma)
        assert pk.is_non_separating(P, r.sigma_bar)


def test_realizer_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        P = random_two_dim(8, rng)
        assert pk.realizer(P) == pk.realizer(P)


def arc_masks(n, arcs):
    """The 0-based arc masks of 1-based arcs, as realizer reads them."""
    out = [0] * n
    for a, b in arcs:
        out[a - 1] |= 1 << (b - 1)
    return out


def test_realizer_rejects_a_non_transitive_orientation(monkeypatch):
    # a cyclic orientation of the antichain's three edges gives no total
    # order; the check must raise, also under python -O
    module = importlib.import_module("posetkit.realizer")
    monkeypatch.setattr(module, "_arc_masks",
                        lambda P: arc_masks(3, [(1, 2), (2, 3), (3, 1)]))
    with pytest.raises(pk.ContractViolation):
        pk.realizer(pk.antichain_poset(3))


def test_realizer_rejects_orders_that_do_not_intersect_to_the_poset(monkeypatch):
    # these arcs give each order distinct ranks, but sigma = (2, 1, 3) puts
    # 2 ahead of 1 although 1 < 2
    module = importlib.import_module("posetkit.realizer")
    monkeypatch.setattr(module, "_arc_masks",
                        lambda P: arc_masks(3, [(1, 2), (2, 1), (2, 3)]))
    with pytest.raises(pk.ContractViolation, match="mismatch"):
        pk.realizer(pk.poset_from_relations(3, [(1, 2)]))


def test_realizer_raises_exactly_on_non_transitive_orientations(monkeypatch):
    # realizer certifies the masks it is given by its own checks alone:
    # every orientation of the incomparability graph, up to 5 points.  The
    # same certificate guards transitive_orientation and is_two_dimensional,
    # and is_two_dimensional must pass its failure on, not answer False
    module = importlib.import_module("posetkit.realizer")
    outcomes = set()
    for n in range(6):
        for P in all_posets_upto_iso(n):
            inc = pk.incomparable_pairs(P)
            for choice in range(1 << len(inc)):
                arcs = {(a, b) if choice >> t & 1 else (b, a)
                        for t, (a, b) in enumerate(inc)}
                transitive = all((a, c) in arcs for a, b in arcs
                                 for b2, c in arcs if b2 == b)
                monkeypatch.setattr(module, "_arc_masks",
                                    lambda P, masks=arc_masks(n, arcs): masks)
                try:
                    pk.realizer(P)
                    raised = False
                except pk.ContractViolation:
                    raised = True
                assert raised == (not transitive), (P.relation_pairs(), arcs)
                outcomes.add(raised)
                if transitive:
                    assert pk.transitive_orientation(P) == sorted(arcs)
                    assert pk.is_two_dimensional(P)
                else:
                    for check in (pk.transitive_orientation, pk.is_two_dimensional):
                        with pytest.raises(pk.ContractViolation):
                            check(P)
    assert outcomes == {False, True}


def _assert_matches_reference(P):
    assert pk.transitive_orientation(P) == reference_orientation(P)
    r = pk.realizer(P)
    assert (r.sigma, r.sigma_bar) == reference_realizer(P)


def test_realizer_matches_reference_on_random_two_dim():
    rng = random.Random(2024)
    for n in range(2, 101, 2):
        _assert_matches_reference(random_two_dim(n, rng))


def test_realizer_matches_reference_on_chain_unions():
    # complete multipartite incomparability graphs, up to n = 110
    for lengths in ([1, 1], [2, 3], [5, 5, 5], [30, 20], [70, 1],
                    [40, 30, 26], [37, 37, 36], [55, 55]):
        _assert_matches_reference(pk.chain_union(lengths))


def test_orientation_matches_reference_where_batching_differs_most():
    # every edge of an antichain is its own class; in a chain union one
    # class spans each pair of chains
    rng = random.Random(57)
    posets = [pk.antichain_poset(40)]
    posets += [shuffled_chain_union(lengths, rng)
               for lengths in ([55, 55], [55, 55], [32, 32, 32], [32, 32, 32])]
    for P in posets:
        _assert_matches_reference(P)


def test_realizer_matches_reference_on_series_parallel_orders():
    # split at every level, unions nested in sums and sums in unions; the
    # reference forces the whole incomparability graph
    rng = random.Random(23)
    for n in (20, 30, 40, 50, 60, 80, 100, 120, 150, 180, 240, 300):
        _assert_matches_reference(random_series_parallel(n, rng).poset)


def test_realizer_on_the_widest_and_tallest_inputs():
    # every part of the split is a single point: nothing is forced
    n = 2048
    r = pk.realizer(pk.antichain_poset(n))
    assert r.sigma == tuple(range(1, n + 1))
    assert r.sigma_bar == tuple(range(n, 0, -1))
    r = pk.realizer(pk.chain(n))
    assert r.sigma == r.sigma_bar == tuple(range(1, n + 1))


def _shuffled(n, pairs, rng):
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return pk.poset_from_relations(n, [(ids[a - 1], ids[b - 1]) for a, b in pairs])


def test_not_two_dimensional_part_inside_a_split(tmp_path, capsys):
    # the chevron beside a 3-chain, and below a 2-antichain; the edge named
    # is the one forcing the whole poset names, pinned
    rng = random.Random(61)
    chevron = pk.chevron().relation_pairs()
    union = _shuffled(9, chevron + [(7, 8), (8, 9)], rng)
    ordinal_sum = _shuffled(8, chevron + [(a, b) for a in range(1, 7) for b in (7, 8)], rng)
    assert len(pk.components(union)) == 2
    for P, b in ((union, 6), (ordinal_sum, 7)):
        with pytest.raises(pk.NotTwoDimensional) as exc:
            pk.realizer(P)
        assert str(exc.value) == f"edge 1,{b} is forced in both directions"
        assert P.incomparable(1, b)
        path = tmp_path / "input.poset"
        path.write_text(pk.format_poset(P), encoding="utf-8")
        assert cli.main(["led-downset", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not two-dimensional" in err


def _substituted(n, pairs, x, m, inner, rng):
    """The order on 1..n with point x blown up into an m-point module, whose
    own relations are inner on 1..m, ids shuffled."""
    module = [x, *range(n + 1, n + m)]
    grown = lambda e: module if e == x else [e]
    relations = [(u, v) for a, b in pairs for u in grown(a) for v in grown(b)]
    relations += [(module[a - 1], module[b - 1]) for a, b in inner]
    return _shuffled(n + m - 1, relations, rng)


def _wide_order(n, rng):
    """The reversed permutation with n // 8 random transpositions, as the
    second order of a 2D order, ids shuffled: few comparable pairs, and
    most points in one prime part."""
    second = list(range(n, 0, -1))
    for _ in range(n // 8):
        i, j = rng.sample(range(n), 2)
        second[i], second[j] = second[j], second[i]
    rank = {e: r for r, e in enumerate(second)}
    return _shuffled(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if rank[a] < rank[b]], rng)


def test_forcing_matches_reference_inside_one_prime_part():
    # the split leaves a prime part of most points, on which every class
    # is forced: the N (1 < 3, 2 < 3, 2 < 4) with one point blown up into an
    # antichain or a chain union gives hundreds of classes, the wide order
    # one big one
    rng = random.Random(71)
    N = [(1, 3), (2, 3), (2, 4)]
    posets = [_wide_order(120, rng) for _ in range(2)]
    for m, x in zip(range(20, 81, 20), (3, 1, 4, 2)):
        lengths = [m // 4, m // 4, m - m // 4 * 2]
        posets.append(_substituted(4, N, x, m, [], rng))
        posets.append(_substituted(4, N, x, m, shuffled_chain_union(
            lengths, rng).relation_pairs(), rng))
    for P in posets:
        prime = max(component_masks(P, (1 << P.n) - 1), key=int.bit_count)
        assert _components(prime, P.inc_masks) == [prime]
        assert 4 * prime.bit_count() > 3 * P.n
        masks = _arc_masks(P)
        arcs = sorted((a + 1, b + 1) for a in range(P.n) for b in _bits(masks[a]))
        assert arcs == reference_orientation(P)
        _assert_matches_reference(P)


def test_not_two_dimensional_with_an_antichain_module():
    # the chevron's point 5 blown up into 30 points is still not 2D; the
    # edge named, pinned, must not depend on the order of forcing
    P = _substituted(6, pk.chevron().relation_pairs(), 5, 30, [], random.Random(73))
    assert reference_orientation(P) is None and P.incomparable(1, 27)
    for check in (_arc_masks, pk.realizer):
        with pytest.raises(pk.NotTwoDimensional) as exc:
            check(P)
        assert str(exc.value) == "edge 1,27 is forced in both directions"


def test_realizer_matches_reference_on_small_posets():
    for n in range(1, 6):
        for P in all_posets_upto_iso(n):
            _assert_matches_reference(P)


def test_not_two_dimensional_names_an_incomparable_edge():
    rng = random.Random(9)
    sample = [pk.chevron()]
    while len(sample) < 30:
        n = rng.randint(6, 9)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.3]
        P = pk.poset_from_relations(n, pairs)
        if reference_orientation(P) is None:
            sample.append(P)
    # the edge named for each sample, pinned: it must not depend on the
    # order in which a class is forced
    named = [4, 8, 6, 8, 2, 7, 7, 7, 9, 7, 3, 8, 4, 2, 7,
             5, 9, 4, 4, 8, 8, 5, 4, 9, 7, 8, 9, 9, 9, 4]
    for P, b in zip(sample, named, strict=True):
        with pytest.raises(pk.NotTwoDimensional) as exc:
            pk.transitive_orientation(P)
        assert str(exc.value) == f"edge 1,{b} is forced in both directions"
        assert P.incomparable(1, b)
        with pytest.raises(pk.NotTwoDimensional):
            pk.realizer(P)


def test_random_not_two_dim_refuses_sizes_where_every_order_is_two_dim():
    # every order on at most 5 points is 2D, so a draw there never ends
    for n in range(6):
        with pytest.raises(ValueError):
            random_not_two_dim(n, random.Random(n))
    assert not pk.is_two_dimensional(random_not_two_dim(6, random.Random(0)))


def test_non_separating():
    P = pk.poset_from_relations(3, [(1, 3)])
    assert not pk.is_non_separating(P, (1, 2, 3))
    assert pk.is_non_separating(P, (2, 1, 3))
    assert pk.is_non_separating(P, (1, 3, 2))
    for pi in itertools.permutations(range(1, 4)):
        assert pk.is_non_separating(pk.antichain_poset(3), pi)
    with pytest.raises(pk.NotALinearExtension):
        pk.is_non_separating(P, (3, 2, 1))
    with pytest.raises(pk.NotALinearExtension):
        pk.is_non_separating(P, (1, 2))


def test_is_non_separating_matches_the_triple_definition():
    # every extension of every poset up to 5 points, then seeded random
    # orders up to 40 points: realizer orders, adjacent swaps of them and
    # random extensions (all separating off two dimensions)
    cases = [(P, s) for n in range(6) for P in all_posets_upto_iso(n)
             for s in pk.all_linear_extensions(P)]
    rng = random.Random(43)
    for _ in range(12):
        P = random_two_dim(rng.randint(6, 40), rng)
        r = pk.realizer(P)
        cases += [(P, r.sigma), (P, r.sigma_bar)]
        for sigma in (r.sigma, r.sigma_bar):
            swaps = [p for p in range(P.n - 1) if P.incomparable(sigma[p], sigma[p + 1])]
            for p in rng.sample(swaps, min(3, len(swaps))):
                cases.append((P, sigma[:p] + (sigma[p + 1], sigma[p]) + sigma[p + 2:]))
        cases += [(P, random_extension(P, rng)) for _ in range(2)]
    for _ in range(6):
        P = random_not_two_dim(rng.randint(6, 40), rng)
        cases += [(P, random_extension(P, rng)) for _ in range(3)]
    verdicts = set()
    for P, sigma in cases:
        verdict = pk.is_non_separating(P, sigma)
        assert verdict == (not separates(P, sigma)), (P, sigma)
        verdicts.add((P.n > 5, verdict))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
