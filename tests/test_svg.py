"""The SVG writer against the single-pass reference writer it replaced."""

import random

import pytest

import posetkit as pk

from conftest import downset_covers, random_two_dim
from reference_svg import dominance_svg as reference_svg

SCALES = (1, 7, 24)


def _random_coords(rng, size, span):
    # keys of mixed kinds; values drawn from a small range, so they repeat,
    # and from outside 1..size, so they are not ranks
    keys = rng.sample(range(10 * size + 10), size)
    keys = [k if k % 3 else (k,) if k % 2 else frozenset({k}) for k in keys]
    return {k: (rng.randint(-2, span), rng.randint(0, span)) for k in keys}


def test_dominance_svg_matches_the_reference_on_random_coordinates():
    rng = random.Random(2024)
    for trial in range(300):
        size = rng.randint(0, 30)
        coords = _random_coords(rng, size, rng.choice((1, 3, size + 5, 60)))
        keys = list(coords)
        covers = [(rng.choice(keys), rng.choice(keys))
                  for _ in range(rng.randint(0, 3 * size))] if keys else []
        covers += rng.sample(covers, min(len(covers), 5))  # repeats
        rng.shuffle(covers)
        for scale in SCALES:
            assert pk.dominance_svg(coords, covers, scale) == reference_svg(coords, covers, scale)
    assert pk.dominance_svg({}, [], 7) == reference_svg({}, [], 7)


def test_dominance_svg_matches_the_reference_on_dominance_drawings():
    rng = random.Random(61)
    posets = [pk.poset_from_relations(0, []), pk.chain(1), pk.antichain_poset(4),
              pk.chain_union([2, 3])]
    posets += [random_two_dim(n, rng) for n in (5, 8, 11, 14)]
    for P in posets:
        L1, L2 = pk.diametral_pair(P)
        coords = pk.dominance_coordinates(L1, L2)
        covers = downset_covers(P, L1.order)
        for scale in SCALES:
            want = reference_svg(coords, covers, scale)
            assert pk.dominance_svg(coords, covers, scale) == want
            rng.shuffle(covers)
            assert pk.dominance_svg(coords, covers + covers[:3], scale) == \
                reference_svg(coords, covers + covers[:3], scale)


def test_dominance_svg_refuses_a_scale_below_one():
    coords = {(): (1, 1), (1,): (2, 2)}
    for scale in (0, -3):
        with pytest.raises(ValueError, match="scale"):
            pk.dominance_svg(coords, [((), (1,))], scale)
