"""The command line at scale: orders at MAX_ELEMENTS and a file far larger
than its poset, each through `python -m posetkit.cli` in a child process
with a time bound and, where the test is about memory, a cap on the
child's address space (as `ulimit -v` sets it)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetkit as pk


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


def test_file_memory_follows_the_poset_not_the_file(tmp_path):
    # 12 MB of one relation line repeated for a 2-point poset: the file is
    # read a block of lines at a time, so the child fits in 128 MB of
    # address space; holding the whole text and its lines took more
    path = tmp_path / "repeated.poset"
    path.write_text("poset 2\n" + "1 < 2\n" * 2_000_000)
    done = _cli(["count-antichains", str(path)], timeout=120, address_space=128 * 1024 * 1024)
    assert _result(done)["total"] == "3"
