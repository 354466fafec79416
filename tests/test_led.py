"""Tests for the counting engine behind led_downset."""

import itertools
import random
import tracemalloc

import pytest

import posetkit as pk

from conftest import (
    all_posets_upto_iso,
    brute_antichains,
    dual,
    random_not_two_dim,
    random_two_dim,
    separates,
    shuffled_chain_union,
)
from reference_tables import position_masks, reference_delta, reference_tables


REGRESSION = pk.poset_from_relations(5, [(1, 3), (1, 5), (2, 3), (2, 5), (4, 5)])
REG_SIGMA = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# led_boolean


def test_led_boolean_small_values():
    assert [pk.led_boolean(n) for n in range(6)] == [0, 0, 1, 8, 44, 208]


def test_led_boolean_closed_form():
    for n in range(1, 65):
        assert 4 * pk.led_boolean(n) == 4 ** n - (n + 1) * 2 ** n


def test_led_boolean_rejects_negative():
    with pytest.raises(ValueError):
        pk.led_boolean(-1)


# ---------------------------------------------------------------------------
# count_antichains


def test_count_antichains_closed_forms():
    for n in range(1, 9):
        ident = tuple(range(1, n + 1))
        assert pk.count_antichains(pk.antichain_poset(n), ident).total == 2 ** n
        assert pk.count_antichains(pk.chain(n), ident).total == n + 1


def test_count_antichains_matches_brute():
    for P in all_posets_upto_iso(4):
        if not pk.is_two_dimensional(P):
            continue
        sigma = pk.realizer(P).sigma
        assert pk.count_antichains(P, sigma).total == len(brute_antichains(P))
    rng = random.Random(2)
    for _ in range(20):
        P = random_two_dim(8, rng)
        sigma = pk.realizer(P).sigma
        assert pk.count_antichains(P, sigma).total == len(brute_antichains(P))


def test_count_antichains_per_element():
    # entry for x counts the antichains whose last element under sigma is x
    P = pk.antichain_poset(3)
    table = pk.count_antichains(P, (1, 2, 3))
    assert table.per_element == {1: 1, 2: 2, 3: 4}
    assert table.total == 1 + sum(table.per_element.values())


def test_count_antichains_sigma_independent():
    rng = random.Random(9)
    for _ in range(10):
        P = random_two_dim(6, rng)
        r = pk.realizer(P)
        assert (
            pk.count_antichains(P, r.sigma).total
            == pk.count_antichains(P, r.sigma_bar).total
        )


def test_count_antichains_rejects_separating_extension():
    # u < v with x incomparable to both; u, x, v puts x strictly between them
    P = pk.poset_from_relations(3, [(1, 3)])
    assert not pk.is_non_separating(P, (1, 2, 3))
    with pytest.raises(pk.SeparatingExtension):
        pk.count_antichains(P, (1, 2, 3))


# ---------------------------------------------------------------------------
# size_vectors


def test_size_vectors_antichain():
    P = pk.antichain_poset(3)
    vec = pk.size_vectors(P, (1, 2, 3))
    assert vec.s[(3, 2)] == 2
    assert vec.s[(3, 1)] == 1
    assert vec.s[(3, 3)] == 1
    assert (1, 2) not in vec.s


def test_size_vectors_chain_has_no_large_antichains():
    P = pk.chain(4)
    vec = pk.size_vectors(P, (1, 2, 3, 4))
    assert all(r == 1 for (_, r) in vec.s)


def test_size_vectors_sum_to_antichain_counts():
    rng = random.Random(4)
    for _ in range(10):
        P = random_two_dim(6, rng)
        sigma = pk.realizer(P).sigma
        table = pk.count_antichains(P, sigma)
        vec = pk.size_vectors(P, sigma)
        for x in P.elements():
            total = sum(v for (y, _), v in vec.s.items() if y == x)
            assert total == table.per_element[x]


def test_size_vectors_weighted_sum_counts_memberships():
    # sum of r * s_r over everything = total antichain element incidences
    rng = random.Random(6)
    for _ in range(10):
        P = random_two_dim(6, rng)
        sigma = pk.realizer(P).sigma
        vec = pk.size_vectors(P, sigma)
        weighted = sum(r * v for (_, r), v in vec.s.items())
        assert weighted == sum(len(A) for A in brute_antichains(P))


# ---------------------------------------------------------------------------
# gamma


def test_gamma_examples():
    assert pk.gamma(pk.antichain_poset(2), (1, 2)) == 8
    assert pk.gamma(pk.chain(2), (1, 2)) == 4


def _non_separating_sigmas(P):
    """sigma and sigma_bar of the realizer, and for small P every other
    non-separating extension."""
    r = pk.realizer(P)
    sigmas = [r.sigma, r.sigma_bar]
    if P.n <= 6:
        sigmas += [s for s in pk.all_linear_extensions(P) if pk.is_non_separating(P, s)]
    return sigmas


def test_gamma_is_twice_the_antichain_memberships():
    # gamma = 2 * sum over antichains of |A|, from the product of the two
    # sweeps; the graded size_vectors weigh the same sum by size
    rng = random.Random(29)
    checked = 0
    for _ in range(60):
        P = random_two_dim(rng.randint(1, 9), rng)
        want = 2 * sum(len(A) for A in brute_antichains(P))
        for sigma in _non_separating_sigmas(P):
            assert pk.gamma(P, sigma) == want
            weighted = sum(r * v for (_, r), v in pk.size_vectors(P, sigma).s.items())
            assert 2 * weighted == want
            assert pk.led_downset(P, sigma).gamma == want
            checked += 1
    assert checked > 200


def test_led_downset_runs_two_full_sweeps(monkeypatch):
    # the forward and the backward sweep over all of P, nothing graded
    full_sweeps = []
    sweep = pk.led._Engine.sweep

    def spy(self, positions, backward=False):
        if list(positions) == list(range(self.n)):
            full_sweeps.append(backward)
        return sweep(self, positions, backward)

    monkeypatch.setattr(pk.led._Engine, "sweep", spy)
    P = random_two_dim(12, random.Random(3))
    pk.led_downset(P)
    assert sorted(full_sweeps) == [False, True]


def literal_sweep(inc, positions, backward):
    """vals[p] = 1 + the vals[q] of the q in positions on the swept side of
    p that lie in inc[p], read straight off the masks."""
    order = positions[::-1] if backward else positions
    vals = [0] * len(inc)
    for j, p in enumerate(order):
        vals[p] = 1 + sum(vals[q] for q in order[:j] if inc[p] >> q & 1)
    return vals


def test_sweep_matches_the_literal_dp_on_submasks():
    # the sweep sums slices of the ranks swept so far, which off the full
    # list have gaps: random sublists, the empty list and single positions
    rng = random.Random(37)
    cases = []
    posets = [random_two_dim(rng.randint(1, 40), rng) for _ in range(12)]
    posets += [shuffled_chain_union(L, rng) for L in ([5, 7], [3, 4, 6], [1, 1, 9], [12])]
    for P in posets:
        r = pk.realizer(P)
        cases += [(P, r.sigma), (P, r.sigma_bar)]
    cases += [(pk.antichain_poset(n), tuple(range(1, n + 1))) for n in (1, 6, 13)]
    for P, sigma in cases:
        eng = pk.led._Engine(pk.led._ranks(P, sigma))
        inc = position_masks(P, sigma)[1]
        full = (1 << eng.n) - 1
        masks = [0, full, *(1 << p for p in range(eng.n))]
        masks += [rng.getrandbits(eng.n) for _ in range(6)]
        masks += [rng.getrandbits(eng.n) & rng.getrandbits(eng.n) for _ in range(6)]
        for mask in masks:
            positions = [p for p in range(eng.n) if mask >> p & 1]
            for backward in (False, True):
                want = literal_sweep(inc, positions, backward)
                assert eng.sweep(positions, backward) == want, (sigma, mask, backward)


# ---------------------------------------------------------------------------
# restricted subposets


def test_restricted_subposets_chain():
    P = pk.chain(2)
    middle, left, right = pk.restricted_subposets(P, (1, 2), 1, 1, 2)
    assert middle.n == 0 and left.n == 0 and right.n == 0


def test_restricted_subposets_antichain():
    P = pk.antichain_poset(3)
    middle, left, right = pk.restricted_subposets(P, (1, 2, 3), 1, 1, 2)
    assert middle.n == 0
    assert left.n == 0
    assert right.n == 1


def test_restricted_subposets_regression():
    # i == k == 4, l == 5: only element 3 sits before position 4 and is
    # incomparable to element 5
    middle, left, right = pk.restricted_subposets(REGRESSION, REG_SIGMA, 4, 4, 5)
    assert middle.n == 0
    assert left.n == 1
    assert right.n == 0
    # i == 1, k == 4: element 2 lies between them, below 5, clear of both
    middle, left, right = pk.restricted_subposets(REGRESSION, REG_SIGMA, 1, 4, 5)
    assert middle.n == 1
    assert left.n == 0
    assert right.n == 0
    # after position 3 only element 4 avoids comparability with element 1
    middle, left, right = pk.restricted_subposets(REGRESSION, REG_SIGMA, 1, 1, 3)
    assert middle.n == 0
    assert left.n == 0
    assert right.n == 1


def test_restricted_subposets_bad_positions():
    P = pk.chain(2)
    with pytest.raises(pk.IndexOutOfRange):
        pk.restricted_subposets(P, (1, 2), 0, 1, 2)
    with pytest.raises(pk.IndexOutOfRange):
        pk.restricted_subposets(P, (1, 2), 1, 1, 3)


def test_sigma_positions_are_checked_like_element_ids():
    # a float, a bool or a string is refused as a position, as Poset.less
    # refuses it as an element: not used as an index, compared or taken as 1
    P, sigma = pk.chain(2), (1, 2)
    for bad in (1.0, 1.5, True, "1"):
        for k, l in ((bad, 2), (1, bad)):
            for delta in (pk.delta1, pk.delta2):
                with pytest.raises(pk.IndexOutOfRange, match="sigma position"):
                    delta(P, sigma, k, l)
        for i, k, l in ((bad, 1, 2), (1, bad, 2), (1, 1, bad)):
            with pytest.raises(pk.IndexOutOfRange, match="sigma position"):
                pk.restricted_subposets(P, sigma, i, k, l)
    with pytest.raises(pk.IndexOutOfRange, match=r"^sigma position 3 not in 1\.\.2$"):
        pk.delta1(P, sigma, 1, 3)


# ---------------------------------------------------------------------------
# delta tables


def test_delta_regression_pins():
    assert pk.delta1(REGRESSION, REG_SIGMA, 4, 5) == 5
    assert pk.delta2(REGRESSION, REG_SIGMA, 4, 5) == 3
    pins = {(1, 3): 1, (2, 3): 2, (1, 5): 2, (2, 5): 4, (4, 5): 8}
    for (k, l), want in pins.items():
        got = pk.delta1(REGRESSION, REG_SIGMA, k, l) + pk.delta2(
            REGRESSION, REG_SIGMA, k, l
        )
        assert got == want, (k, l)


def test_delta_zero_when_not_comparable():
    assert pk.delta1(REGRESSION, REG_SIGMA, 1, 4) == 0
    assert pk.delta2(REGRESSION, REG_SIGMA, 1, 4) == 0
    P = pk.antichain_poset(3)
    for k, l in itertools.combinations((1, 2, 3), 2):
        assert pk.delta1(P, (1, 2, 3), k, l) == 0
        assert pk.delta2(P, (1, 2, 3), k, l) == 0


def test_delta_two_chain():
    P = pk.chain(2)
    assert pk.delta1(P, (1, 2), 1, 2) == 1
    assert pk.delta2(P, (1, 2), 1, 2) == 0


def _reference_cases(rng):
    """The chain unions and antichains of the reference tests, through both
    realizer orders, and 20 random 2D orders with n <= 10."""
    cases = []
    for lengths in ([1], [5], [2, 1], [3, 3], [4, 1, 2], [2, 2, 2, 1]):
        P = pk.chain_union(lengths)
        r = pk.realizer(P)
        cases += [(P, r.sigma), (P, r.sigma_bar)]
    cases += [(pk.antichain_poset(n), tuple(range(1, n + 1))) for n in (1, 4, 7)]
    for _ in range(20):
        P = random_two_dim(rng.randint(1, 10), rng)
        r = pk.realizer(P)
        cases += [(P, r.sigma), (P, r.sigma_bar)]
    return cases


def test_delta1_and_delta2_match_reference_cell_by_cell():
    # the public entry points, which stop the tables at row k, at every
    # 1-based (k, l), the zero cells included
    for P, sigma in _reference_cases(random.Random(41)):
        r1, r2, _ = reference_tables(*position_masks(P, sigma))
        for k, l in itertools.product(range(1, P.n + 1), repeat=2):
            key = (k - 1, l - 1)
            assert pk.delta1(P, sigma, k, l) == r1.get(key, 0), (sigma, k, l)
            assert pk.delta2(P, sigma, k, l) == r2.get(key, 0), (sigma, k, l)


def test_delta_checks_sigma_before_the_positions():
    # 1 < 3 with 2 apart: (1, 2, 3) separates, (1, 3, 2) does not
    P = pk.poset_from_relations(3, [(1, 3)])
    for delta in (pk.delta1, pk.delta2):
        for k, l in ((0, 1), (1, 4), (0, 4), (2, 2)):
            with pytest.raises(pk.SeparatingExtension):
                delta(P, (1, 2, 3), k, l)
        for (k, l), bad in (((0, 1), 0), ((1, 4), 4), ((0, 4), 0), ((4, 1), 4)):
            with pytest.raises(pk.IndexOutOfRange, match=rf"^sigma position {bad} not in 1\.\.3$"):
                delta(P, (1, 3, 2), k, l)


def assert_tables_match_reference(P, sigma):
    rows = list(pk.led._Engine(pk.led._ranks(P, sigma)).tables())
    down, inc = position_masks(P, sigma)
    r1, r2, rd = reference_tables(down, inc)
    assert len(rows) == P.n
    for k, (d1, dd, _) in enumerate(rows):
        for l in range(P.n):
            key = (k, l)
            assert (d1[l], dd[l] - d1[l], dd[l]) == (
                r1.get(key, 0), r2.get(key, 0), rd.get(key, 0)
            ), (sigma, key)
    # each row's term of the final delta sum, folded in as the row finishes
    assert 2 * sum(term for _, _, term in rows) == reference_delta(inc, rd)
    # the breakdown's dicts: one entry per x_k below x_l, by l and then k
    b = pk.led_downset(P, sigma)
    assert list(b.delta1.items()) == [((k + 1, l + 1), v) for (k, l), v in r1.items()]
    assert list(b.delta2.items()) == [((k + 1, l + 1), v) for (k, l), v in r2.items()]
    assert b.delta == reference_delta(inc, rd)


def test_tables_match_reference_on_random_two_dim():
    # both realizer orders, of P and of its dual
    rng = random.Random(21)
    for _ in range(200):
        P = random_two_dim(rng.randint(1, 16), rng)
        for Q in (P, dual(P)):
            r = pk.realizer(Q)
            assert_tables_match_reference(Q, r.sigma)
            assert_tables_match_reference(Q, r.sigma_bar)


def test_tables_match_reference_on_every_non_separating_extension():
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        P = random_two_dim(rng.randint(2, 7), rng)
        for sigma in pk.all_linear_extensions(P):
            if pk.is_non_separating(P, sigma):
                assert_tables_match_reference(P, sigma)
                checked += 1
    assert checked > 400


def test_tables_match_reference_on_chain_unions_and_antichains():
    for lengths in ([1], [5], [2, 1], [3, 3], [4, 1, 2], [2, 2, 2, 1]):
        P = pk.chain_union(lengths)
        r = pk.realizer(P)
        assert_tables_match_reference(P, r.sigma)
        assert_tables_match_reference(P, r.sigma_bar)
    for n in (1, 4, 7):
        assert_tables_match_reference(pk.antichain_poset(n), tuple(range(1, n + 1)))


def test_tables_match_reference_at_benchmark_size():
    # the sizes led-downset is timed at: random 2D orders with n = 84 and
    # n = 100 through both realizer orders, two chains of 55, and three
    # chains of 32, where the per-k sweep starts partway through inc[k]
    rng = random.Random(29)
    posets = [random_two_dim(n, rng) for n in (84, 84, 100, 100)]
    posets.append(shuffled_chain_union([55, 55], rng))
    posets += [shuffled_chain_union([32, 32, 32], rng) for _ in range(2)]
    for P in posets:
        r = pk.realizer(P)
        assert_tables_match_reference(P, r.sigma)
        assert_tables_match_reference(P, r.sigma_bar)


def assert_engine_ranks_order_the_poset(P, sigma):
    # fact 1 of tables, the only form of the order the engine keeps: for p
    # before q in sigma, x_p < x_q iff p ranks first in sigma_bar, and
    # x_p || x_q iff it ranks last; here checked against P pair by pair
    sbar = pk.led._Engine(pk.led._ranks(P, sigma)).sbar
    for p, q in itertools.combinations(range(P.n), 2):
        a, b = sigma[p], sigma[q]
        assert P.less(a, b) == (sbar[p] < sbar[q]), (sigma, p, q)
        assert P.incomparable(a, b) == (sbar[p] > sbar[q]), (sigma, p, q)


def test_engine_ranks_order_the_poset_on_every_non_separating_extension():
    checked = 0
    for n in range(6):
        for P in all_posets_upto_iso(n):
            for sigma in pk.all_linear_extensions(P):
                if not separates(P, sigma):
                    assert_engine_ranks_order_the_poset(P, sigma)
                    checked += 1
    assert checked > 200


def test_engine_ranks_order_the_poset_at_benchmark_size():
    rng = random.Random(31)
    posets = [random_two_dim(n, rng) for n in (84, 100)]
    posets += [shuffled_chain_union(L, rng) for L in ([55, 55], [32, 32, 32])]
    for P in posets:
        r = pk.realizer(P)
        assert_engine_ranks_order_the_poset(P, r.sigma)
        assert_engine_ranks_order_the_poset(P, r.sigma_bar)


def test_engine_setup_memory_is_linear_in_the_masks():
    # the engine keeps ranks, with no per-byte relabelling table: a
    # 1024-chain's set-up stays well under the ~3.6 MB such a table took
    P = pk.chain(1024)
    tracemalloc.start()
    try:
        pk.led._Engine(pk.led._ranks(P, range(1, 1025)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_led_sums_keeps_no_delta1_table():
    # the CLI's sums drop every delta1 row as it comes and fold the final
    # delta sum into the rows.  On this prime order (one engine run, on all
    # 200 elements) the dd table fits under the bound, and a kept delta1
    # table with a weight list for the final sum would not (about 1.8 MB)
    P = random_two_dim(200, random.Random(7))
    sigma = pk.realizer(P).sigma
    tracemalloc.start()
    try:
        pk.led._led_sums(P, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_engine_releases_each_left_row_before_its_row():
    # row k reads left[l] only for l > k, so the engine drops left[k] as
    # row k starts and the dd table grows into the room the left rows
    # free.  Keeping the whole left table to the end peaked at about
    # 1.14 MB here, with the dd table alone about 0.8 MB
    P = random_two_dim(200, random.Random(7))
    sbar = pk.led._ranks(P, pk.realizer(P).sigma)
    tracemalloc.start()
    try:
        pk.led._engine_sums(sbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_conjugate_rank_check_raises():
    # the engine's guard, _ranks, is a conjugate-rank check: it refuses
    # exactly the extensions with a separating triple, on every poset up to
    # 5 points
    refused = 0
    for n in range(6):
        for P in all_posets_upto_iso(n):
            for sigma in pk.all_linear_extensions(P):
                if separates(P, sigma):
                    refused += 1
                    with pytest.raises(pk.SeparatingExtension):
                        pk.led._ranks(P, sigma)
                else:
                    assert sorted(pk.led._ranks(P, sigma)) == list(range(n))
    assert refused


def test_quarter_rejects_counts_not_divisible_by_four():
    assert pk.led._quarter(12) == 3
    with pytest.raises(pk.ContractViolation):
        pk.led._quarter(6)


# ---------------------------------------------------------------------------
# led_downset


def test_led_downset_two_chain_breakdown():
    b = pk.led_downset(pk.chain(2))
    assert (b.alpha, b.beta, b.gamma, b.delta, b.led) == (9, 3, 4, 2, 0)


def test_led_downset_regression_breakdown():
    b = pk.led_downset(REGRESSION, REG_SIGMA)
    assert (b.alpha, b.beta, b.gamma, b.delta, b.led) == (144, 12, 36, 40, 14)
    diam, _ = pk.brute_led_downset(REGRESSION)
    assert b.led == diam


def test_led_downset_antichain_matches_closed_form():
    for n in range(1, 11):
        assert pk.led_downset(pk.antichain_poset(n)).led == pk.led_boolean(n)


def test_led_downset_invariants():
    rng = random.Random(13)
    for _ in range(10):
        P = random_two_dim(6, rng)
        r = pk.realizer(P)
        led = pk.led_downset(P, r.sigma).led
        assert pk.led_downset(P, r.sigma_bar).led == led
        assert pk.led_downset(P).led == led
        # relabeling the ground set does not change the answer
        perm = list(P.elements())
        rng.shuffle(perm)
        relabeled = pk.poset_from_relations(
            P.n, [(perm[x - 1], perm[y - 1]) for x, y in P.relation_pairs()]
        )
        assert pk.led_downset(relabeled).led == led


def test_led_downset_rejects_chevron():
    with pytest.raises(pk.NotTwoDimensional):
        pk.led_downset(pk.chevron())


# ---------------------------------------------------------------------------
# led_chain_union


def test_led_chain_union_values():
    for k in (1, 3, 7):
        assert pk.led_chain_union([k]) == 0
    assert pk.led_chain_union([1, 1]) == 1
    for n in range(1, 9):
        assert pk.led_chain_union([1] * n) == pk.led_boolean(n)


def test_led_chain_union_matches_engine():
    parts = [[2, 1], [3, 2], [2, 2, 2], [4, 1, 1], [1, 2, 3]]
    for lengths in parts:
        assert pk.led_chain_union(lengths) == pk.led_downset(pk.chain_union(lengths)).led


def test_led_chain_union_rejects_bad_input():
    with pytest.raises(ValueError):
        pk.led_chain_union([])
    with pytest.raises(ValueError):
        pk.led_chain_union([2, 0])


# ---------------------------------------------------------------------------
# led_upper_bound


def test_led_upper_bound_chevron_pin():
    assert pk.led_upper_bound(pk.chevron()) == 24


def test_led_upper_bound_tight_on_two_dimensional():
    rng = random.Random(17)
    posets = [pk.antichain_poset(3), pk.chain_union([2, 1]), pk.chain(4)]
    posets += [random_two_dim(5, rng) for _ in range(5)]
    for P in posets:
        assert pk.led_upper_bound(P) == pk.led_downset(P).led


def test_led_upper_bound_is_the_oracle_class_sum():
    # one 2^(d-2) per class of the independent oracle with d >= 2 components
    rng = random.Random(29)
    posets = [P for n in range(5) for P in all_posets_upto_iso(n)] + [pk.chevron()]
    posets += [random_not_two_dim(7, rng) for _ in range(6)]
    for P in posets:
        sizes = [len(c.components) for c in pk.enumerate_classes(P)]
        assert pk.led_upper_bound(P) == sum(1 << (d - 2) for d in sizes if d >= 2)


def test_led_upper_bound_dominates_brute():
    # the chevron is not two-dimensional and the bound is strict there
    diam, _ = pk.brute_led_downset(pk.chevron())
    assert diam == 22
    assert pk.led_upper_bound(pk.chevron()) == 24


def test_led_upper_bound_counts_pairs_without_keeping_them():
    # 1024 antichains, so 523 776 pairs: a count per symmetric difference
    # stays small, a set of (A xor B, A and B) keys takes several MB
    P = pk.antichain_poset(10)
    tracemalloc.start()
    try:
        bound = pk.led_upper_bound(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == pk.led_downset(P).led == pk.led_boolean(10)
    assert peak < 1 << 20
