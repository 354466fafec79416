"""The led sums of the CLI, composed over disjoint unions and ordinal sums:
led._led_sums against the series-parallel reference, the paper's closed
forms and the whole-order engine, and where the engine runs."""

import itertools
import json
import random
import sys
import time

import pytest

import posetkit as pk
from posetkit import cli
from conftest import all_posets_upto_iso, random_two_dim, shuffled_chain_union
from reference_series_parallel import N_COVERS, N_ORDER, breakdown, random_series_parallel, zigzag


def _whole_order_sums(P, sigma):
    b = pk.led_downset(P, sigma)
    return b.alpha, b.beta, b.gamma, b.delta, b.led


def _cli_breakdown(tmp_path, capsys, P):
    path = tmp_path / "P.poset"
    path.write_text(pk.format_poset(P), encoding="utf-8")
    assert cli.main(["led-downset", str(path), "--breakdown"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    return tuple(int(result[k]) for k in ("alpha", "beta", "gamma", "delta", "led"))


def test_reference_leaf_values_by_brute_force():
    # the N order's (a, gamma, led), which the reference takes as known
    N = pk.poset_from_relations(4, [(a + 1, b + 1) for a, b in N_COVERS])
    antichains = [A for r in range(5) for A in itertools.combinations(N.elements(), r)
                  if not any(N.less(x, y) for x in A for y in A)]
    led = pk.oracle.brute_led_downset(N)[0]
    assert (len(antichains), 2 * sum(map(len, antichains)), led) == N_ORDER
    # N is prime: both its comparability and its incomparability graph
    # are connected, so no split applies
    assert len(pk.components(N)) == 1
    assert pk.incomparable_pairs(N) == [(1, 2), (1, 4), (3, 4)]


def test_series_parallel_reference_pins_every_route(tmp_path, capsys):
    # 20 trees, n = 50..300: balanced and deep (about n/2 levels), with
    # point leaves and with prime N leaves; the CLI, the split, the whole
    # order engine and the antichain count all agree with the tree
    rng = random.Random(2024)
    for t in range(20):
        n = 50 + 250 * t // 19
        drawn = random_series_parallel(n, rng, deep=t % 2 == 1, prime_leaves=t % 4 >= 2)
        P, want = drawn.poset, breakdown(drawn.values)
        sigma = pk.realizer(P).sigma
        assert pk.led._led_sums(P, sigma) == want, (t, n)
        assert _whole_order_sums(P, sigma) == want, (t, n)
        assert pk.count_antichains(P, sigma).total == drawn.values[0]
        assert _cli_breakdown(tmp_path, capsys, P) == want
    assert want[4].bit_length() > 100


def test_zigzag_deeper_than_the_recursion_limit():
    # n nested splits: the split folds on a stack, and scans each block
    # from both ends, so peeling one point a level costs O(1) a level
    n = 2048
    assert n > sys.getrecursionlimit()
    P, sigma, values = zigzag(n, random.Random(11))
    started = time.perf_counter()
    sums = pk.led._led_sums(P, sigma)
    assert time.perf_counter() - started < 2
    assert sums == breakdown(values)


def test_antichains_match_the_boolean_closed_form():
    # D of an n-antichain is B_n: alpha = 4^n, beta = 2^n, gamma = n 2^n
    rng = random.Random(13)
    for n in range(65):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        led = pk.led_boolean(n)
        alpha, beta, gamma = 4 ** n, 2 ** n, n * 2 ** n
        assert pk.led._led_sums(pk.antichain_poset(n), sigma) == (
            alpha, beta, gamma, alpha - beta - gamma - 4 * led, led)


def test_shuffled_chain_unions_match_the_closed_form():
    rng = random.Random(17)
    for lengths in ([1], [7], [1, 1], [3, 5], [2, 2, 2], [9, 1, 4, 6], [55, 55], [32, 32, 32]):
        P = shuffled_chain_union(lengths, rng)
        r = pk.realizer(P)
        for sigma in (r.sigma, r.sigma_bar):
            sums = pk.led._led_sums(P, sigma)
            assert sums[4] == pk.led_chain_union(lengths)
            assert sums == _whole_order_sums(P, sigma)


def _incomparability_connected(P):
    seen, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for y in P.elements():
            if y not in seen and P.incomparable(x, y):
                seen.add(y)
                frontier.append(y)
    return len(seen) == P.n


def test_engine_runs_only_on_prime_blocks(monkeypatch):
    calls = []
    tables = pk.led._Engine.tables

    def spy(self):
        calls.append(self.n)
        return tables(self)

    monkeypatch.setattr(pk.led._Engine, "tables", spy)
    rng = random.Random(19)
    for lengths in ([40], [30, 30], [5, 1, 9, 2]):
        P = shuffled_chain_union(lengths, rng)
        pk.led._led_sums(P, pk.realizer(P).sigma)
    pk.led._led_sums(pk.antichain_poset(300), range(1, 301))
    for t in range(6):
        P = random_series_parallel(40 + 20 * t, rng, deep=t % 2 == 1).poset
        pk.led._led_sums(P, pk.realizer(P).sigma)
    assert calls == []
    # N leaves inside a tree: one engine run each, on four ranks
    leaves = 0
    for n in (60, 90, 120, 150):
        drawn = random_series_parallel(n, rng, prime_leaves=True)
        pk.led._led_sums(drawn.poset, pk.realizer(drawn.poset).sigma)
        assert calls == [4] * drawn.prime_leaves
        calls.clear()
        leaves += drawn.prime_leaves
    assert leaves > 10
    # a prime random 2D order: one run, on all of it
    P = random_two_dim(60, random.Random(23))
    assert len(pk.components(P)) == 1 and _incomparability_connected(P)
    pk.led._led_sums(P, pk.realizer(P).sigma)
    assert calls == [60]


def test_split_sums_equal_the_whole_order_engine_on_every_order():
    # every permutation of every poset with at most 5 points: the same
    # five sums as the engine on all of P under each non-separating sigma,
    # and the same exception, message included, under every other order
    checked = 0
    for n in range(6):
        for P in all_posets_upto_iso(n):
            for sigma in itertools.permutations(range(1, n + 1)):
                try:
                    want = _whole_order_sums(P, sigma)
                except (pk.NotALinearExtension, pk.SeparatingExtension) as exc:
                    with pytest.raises(type(exc)) as got:
                        pk.led._led_sums(P, sigma)
                    assert str(got.value) == str(exc)
                    continue
                assert pk.led._led_sums(P, sigma) == want, (P.relation_pairs(), sigma)
                checked += 1
    assert checked > 500
