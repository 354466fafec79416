"""The command line at scale: orders at MAX_ELEMENTS, a file far larger than
its poset, drawings of 2^12 and 2^15 downsets, forcing inside a 1000-point
module, and one engine on a 400-element prime order with its dual.  Each
runs through `python -m posetkit.cli` in a child process with a time bound
and, where the test is about memory, a cap on the child's address space (as
`ulimit -v` sets it)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetkit as pk

from conftest import downset_covers
from reference_svg import dominance_svg as reference_svg


def _cli(argv, timeout=10, address_space=None):
    """The finished child `python -m posetkit.cli *argv`; address_space caps
    its address space, in bytes, in the child only."""
    limit = None
    if address_space:
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(pk.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "posetkit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, preexec_fn=limit, timeout=timeout)


def _result(done):
    assert done.returncode == 0, done.stderr[-400:]
    return json.loads(done.stdout)["result"]


def test_chain_at_max_elements(tmp_path):
    # a chain at MAX_ELEMENTS given by its covers, ids shuffled: a parse
    # that is far from linear in the covers does not finish in time
    ids = random.Random(4096).sample(range(1, 4097), 4096)
    path = tmp_path / "chain.poset"
    path.write_text("poset 4096\n" + "".join(f"{a} < {b}\n" for a, b in zip(ids, ids[1:])))
    assert _result(_cli(["count-antichains", str(path)]))["total"] == "4097"


def test_wide_antichain(tmp_path):
    # the widest input: every sweep slice is as long as it gets
    path = tmp_path / "antichain.poset"
    path.write_text("poset 2048\n")
    assert _result(_cli(["count-antichains", str(path)]))["total"] == str(2**2048)


def test_union_of_four_chains_at_max_elements(tmp_path):
    # four 1024-chains given by their covers, ids shuffled: the led sums
    # compose over the union and over each chain, so no engine runs.  The
    # engine on the whole order would keep a 4096 x 4096 table and run for
    # many minutes
    ids = random.Random(1024).sample(range(1, 4097), 4096)
    chains = [ids[k:k + 1024] for k in range(0, 4096, 1024)]
    path = tmp_path / "chains.poset"
    path.write_text("poset 4096\n" + "".join(f"{a} < {b}\n" for c in chains
                                             for a, b in zip(c, c[1:])))
    done = _cli(["led-downset", "--breakdown", str(path)], address_space=262144 * 1024)
    assert _result(done)["led"] == str(pk.led_chain_union([1024] * 4))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])
def test_file_memory_follows_the_poset_not_the_file(tmp_path, end):
    # 12-16 MB of one relation line repeated for a 2-point poset, with each
    # line end text mode reads and some that only str.splitlines breaks at:
    # the file is read a block of lines at a time, so the child fits in 128 MB
    # of address space; holding the whole text and its lines took more
    path = tmp_path / "repeated.poset"
    path.write_bytes(f"poset 2{end}{f'1 < 2{end}' * 2_000_000}".encode())
    done = _cli(["count-antichains", str(path)], timeout=120, address_space=128 * 1024 * 1024)
    assert _result(done)["total"] == "3"


def test_decode_error_memory_follows_the_block_not_the_file(tmp_path):
    # 48 MB of 1 KiB comment lines, then a byte that is not UTF-8: the error,
    # at the byte's offset in the whole file, holds one buffer as long as the
    # file up to it, so the child fits in 128 MB of address space; decoding
    # the block behind a zeroed prefix made three such copies and ran out of
    # memory
    path = tmp_path / "bad-byte.poset"
    head, comments = b"poset 2\n1 < 2\n", 47_000
    path.write_bytes(head + (b"#" + b"x" * 1022 + b"\n") * comments + b"\xff")
    done = _cli(["count-antichains", str(path)], timeout=60, address_space=128 * 1024 * 1024)
    at = len(head) + 1024 * comments
    assert (done.returncode, done.stderr) == (
        1, f"posetkit: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n")


@pytest.mark.parametrize("k", [12, 15])
def test_antichain_drawing(tmp_path, k):
    # the Boolean lattice 2^k: 2^k downsets and k 2^(k-1) covers, 32 768 and
    # 245 760 at k = 15.  The drawing goes to the file and the report to
    # stdout piece by piece, so the call fits in 128 MB of address space (at
    # k = 15 it needs about 45 MB on Python 3.11, and a writer that keeps a
    # string per segment and the whole text needs more than the cap).
    # stdout must still be the sorted indent-2 dump of what it holds, and
    # the SVG must equal, byte for byte, what the single-pass reference
    # writer draws from the library's pair and its covers
    path, picture = tmp_path / "antichain.poset", tmp_path / "picture.svg"
    path.write_text(f"poset {k}\n")
    done = _cli(["diametral", str(path), "--svg", str(picture)],
                address_space=128 * 1024 * 1024)
    assert done.returncode == 0, done.stderr[-400:]
    report = json.loads(done.stdout)
    assert report["result"]["distance"] == str(pk.led_boolean(k))
    svg = picture.read_text(encoding="utf-8")
    assert svg.count("<line ") == k << (k - 1)
    P = pk.antichain_poset(k)
    L1, L2 = pk.diametral_pair(P)
    want = reference_svg(pk.dominance_coordinates(L1, L2), downset_covers(P, L1.order), 24)
    # compared as booleans: pytest's diff of two texts this long takes minutes
    dump, same = done.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n", svg == want
    assert dump and same, (dump, same)


def test_module_of_a_thousand_points(tmp_path):
    # the N (a < c, b < c, b < d) with a blown up into 1000 points, ids
    # shuffled: no split applies, so forcing orients all 501 501 edges of
    # the incomparability graph, 499 500 of them inside the module, in 1000
    # classes.  Its antichains are 3 * 2**1000 without c (any part of the
    # module, with none, b or d) and 2 with c ({c} and {c, d})
    b, c, d, *module = random.Random(1000).sample(range(1, 1004), 1003)
    relations = [(a, c) for a in module] + [(b, c), (b, d)]
    path = tmp_path / "n.poset"
    path.write_text("poset 1003\n" + "".join(f"{x} < {y}\n" for x, y in relations))
    assert _result(_cli(["count-antichains", str(path)]))["total"] == str(3 * 2**1000 + 2)


def test_prime_order_and_its_dual(tmp_path):
    # a random 2D order from two seeded permutations, ids shuffled, and its
    # dual.  No prefix of the first order is an ordinal summand or a union
    # part (either would be a run of its first i elements whose second
    # ranks are the lowest or the highest i), so the led sums run one
    # engine on all 400 elements.  D_P and D_{P^op} are dual lattices: the
    # two breakdowns must be equal
    n, rng = 400, random.Random(400)

    def prime(y):
        lo, hi = n, -1
        for i, v in enumerate(y[:-1], start=1):
            lo, hi = min(lo, v), max(hi, v)
            if hi == i - 1 or lo == n - i:
                return False
        return True

    while not prime(y := rng.sample(range(n), n)):
        pass
    ids = rng.sample(range(1, n + 1), n)
    pairs = [(ids[i], ids[j]) for j in range(n) for i in range(j) if y[i] < y[j]]
    breakdowns = {}
    for name, lines in (("P", (f"{a} < {b}\n" for a, b in pairs)),
                        ("dual", (f"{b} < {a}\n" for a, b in pairs))):
        path = tmp_path / f"{name}.poset"
        path.write_text(f"poset {n}\n" + "".join(lines))
        breakdowns[name] = _result(_cli(["led-downset", "--breakdown", str(path)], timeout=60))
    assert sorted(breakdowns["P"]) == ["alpha", "beta", "delta", "gamma", "led"]
    assert breakdowns["P"] == breakdowns["dual"]
