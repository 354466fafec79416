"""End-to-end tests of the command line interface."""

import contextlib
import decimal
import hashlib
import importlib
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import posetkit as pk
from posetkit import cli

from conftest import downset_covers, random_two_dim, shuffled_chain_union
from reference_svg import dominance_svg as reference_svg


def _poset_file(tmp_path, P, name="input.poset"):
    path = tmp_path / name
    path.write_text(pk.format_poset(P), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _payload(out):
    report = json.loads(out)
    assert set(report) == {"argv", "command", "input_sha256", "result", "version"}
    return report


# ---------------------------------------------------------------------------
# led-bool


def test_led_bool(capsys):
    code, out, err = _run(capsys, ["led-bool", "4"])
    assert code == 0
    report = _payload(out)
    assert report["command"] == "led-bool"
    assert report["argv"] == ["led-bool", "4"]
    assert report["result"] == {"led": "44"}
    assert report["input_sha256"] == hashlib.sha256(b"4").hexdigest()
    assert report["version"] == pk.__version__


def test_led_bool_out_of_range(capsys):
    code, out, err = _run(capsys, ["led-bool", "0"])
    assert code == 1
    assert out == ""
    assert "1..10000" in err


def test_led_bool_prints_every_digit(capsys):
    # led_boolean(10000) has 6020 digits, more than str(int) writes by default
    code, out, err = _run(capsys, ["led-bool", "10000"])
    assert code == 0, err
    led = _payload(out)["result"]["led"]
    assert len(led) == 6020 and decimal.Decimal(led) == pk.led_boolean(10000)


def test_led_bool_under_a_low_digit_limit():
    src = str(Path(pk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640")
    done = subprocess.run([sys.executable, "-m", "posetkit.cli", "led-bool", "1200"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    led = json.loads(done.stdout)["result"]["led"]
    assert len(led) == 722 and decimal.Decimal(led) == pk.led_boolean(1200)


def test_led_bool_non_integer_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["led-bool", "four"])
    assert exc.value.code == 1


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["no-such-command"], ["led-downset"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1


# ---------------------------------------------------------------------------
# led-downset


def test_led_downset(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chain_union([2, 1]))
    code, out, err = _run(capsys, ["led-downset", path])
    assert code == 0
    assert _payload(out)["result"] == {"led": "3"}


def test_led_downset_breakdown(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chain(2))
    code, out, err = _run(capsys, ["led-downset", path, "--breakdown"])
    assert code == 0
    result = _payload(out)["result"]
    assert result == {
        "led": "0", "alpha": "9", "beta": "3", "gamma": "4", "delta": "2",
    }


def test_led_downset_breakdown_matches_the_library(tmp_path, capsys):
    # the CLI prints the sums of led._led_sums; led_downset is the public
    # breakdown over the same core
    for P in (random_two_dim(60, random.Random(8)), pk.chain_union([5, 9, 4])):
        path = _poset_file(tmp_path, P)
        code, out, err = _run(capsys, ["led-downset", path, "--breakdown"])
        assert code == 0
        b = pk.led_downset(P)
        assert _payload(out)["result"] == {
            "led": str(b.led), "alpha": str(b.alpha), "beta": str(b.beta),
            "gamma": str(b.gamma), "delta": str(b.delta),
        }


def test_led_downset_upper_bound_only(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chevron())
    code, out, err = _run(capsys, ["led-downset", path, "--upper-bound-only"])
    assert code == 0
    assert _payload(out)["result"] == {"upper_bound": "24"}


def test_led_downset_chevron_exits_two(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chevron())
    code, out, err = _run(capsys, ["led-downset", path])
    assert code == 2
    assert out == ""
    assert "not two-dimensional" in err


def test_led_downset_missing_file(tmp_path, capsys):
    code, out, err = _run(capsys, ["led-downset", str(tmp_path / "absent")])
    assert code == 1
    assert out == ""


def test_led_downset_cyclic_file_exits_one(tmp_path, capsys):
    path = tmp_path / "cycle.poset"
    path.write_text("poset 3\n1 < 2\n2 < 3\n3 < 1\n", encoding="utf-8")
    code, out, err = _run(capsys, ["led-downset", str(path)])
    assert code == 1
    assert out == ""
    assert err == "posetkit: relations contain a cycle\n"


def test_led_downset_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("posett 3\n", encoding="utf-8")
    code, out, err = _run(capsys, ["led-downset", str(path)])
    assert code == 1
    assert "poset" in err


# ---------------------------------------------------------------------------
# diametral


def test_diametral_square(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    code, out, err = _run(capsys, ["diametral", path])
    assert code == 0
    result = _payload(out)["result"]
    assert result["distance"] == "1"
    assert result["sigma"] == [1, 2]
    assert result["sigma_bar"] == [2, 1]
    assert result["extension_1"] == [[], [1], [2], [1, 2]]
    assert result["extension_2"] == [[], [2], [1], [1, 2]]


def test_diametral_svg(tmp_path, capsys):
    posets = [
        pk.chain(2),
        pk.antichain_poset(4),
        pk.chain_union([2, 2]),
        pk.poset_from_relations(5, [(1, 3), (1, 5), (2, 3), (2, 5), (4, 5)]),
        random_two_dim(9, random.Random(31)),
    ]
    for P in posets:
        path = _poset_file(tmp_path, P)
        svg_path = tmp_path / "picture.svg"
        code, out, err = _run(capsys, ["diametral", path, "--svg", str(svg_path)])
        assert code == 0
        assert _payload(out)["result"]["svg"] == str(svg_path)
        content = svg_path.read_text(encoding="utf-8")
        assert content.startswith("<svg")
        assert content.endswith("</svg>\n")
        # the CLI draws exactly what the library produces for the same input,
        # with the covers read off the full downset lattice
        L1, L2 = pk.diametral_pair(P)
        coords = pk.dominance_coordinates(L1, L2)
        dl = pk.downset_lattice(P)
        covers = [
            (dl.downsets[a - 1], dl.downsets[b - 1])
            for a, b in pk.cover_pairs(dl.lattice)
        ]
        assert content == pk.dominance_svg(coords, covers, 24)
        # and what the single-pass reference writer draws, which shares no
        # code with the streamed writer the CLI and dominance_svg both use
        assert content == reference_svg(coords, covers, 24)


def test_diametral_svg_at_benchmark_size(tmp_path, capsys):
    # as many downsets as the benchmark draws: the drawing is the library's
    # from the pair and its covers, and stdout is the sorted indent-2 dump
    posets = [pk.antichain_poset(10), shuffled_chain_union([9, 9, 9], random.Random(5))]
    for P in posets:
        path = _poset_file(tmp_path, P)
        svg_path = tmp_path / "picture.svg"
        code, out, err = _run(capsys, ["diametral", path, "--svg", str(svg_path)])
        assert code == 0
        # compared as lists of lines: a failing diff of one long string is slow
        dump = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert out.splitlines(True) == dump.splitlines(True)
        L1, L2 = pk.diametral_pair(P)
        assert len(L1.order) in (1000, 1024)
        coords, covers = pk.dominance_coordinates(L1, L2), downset_covers(P, L1.order)
        want = pk.dominance_svg(coords, covers, 24)
        got = svg_path.read_text(encoding="utf-8").splitlines(True)
        assert got == want.splitlines(True)
        assert got == reference_svg(coords, covers, 24).splitlines(True)


def test_diametral_svg_memory_does_not_grow_with_the_drawing(tmp_path, capsys):
    # the drawing goes to the file piece by piece, one downset's covers at
    # a time, and the walk's tables go before it starts.  On the 11-point
    # antichain (2048 downsets, 11 264 covers) the tracemalloc peak stays
    # under the bound; holding the whole drawing, as one list of lines and
    # then joined, took about 6 MB
    path = _poset_file(tmp_path, pk.antichain_poset(11))
    svg_path = tmp_path / "picture.svg"
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["diametral", path, "--svg", str(svg_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert svg_path.read_text(encoding="utf-8").count("<line ") == 11 * 2 ** 10
    assert peak < 2_500_000, peak


def test_diametral_bad_scale_leaves_an_existing_svg_alone(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chain_union([2, 2]))
    svg_path = tmp_path / "picture.svg"
    svg_path.write_text("<svg>earlier drawing</svg>\n", encoding="utf-8")
    code, out, err = _run(capsys, ["diametral", path, "--svg", str(svg_path), "--scale", "0"])
    assert code == 1
    assert out == ""
    assert "scale" in err
    assert svg_path.read_text(encoding="utf-8") == "<svg>earlier drawing</svg>\n"


def test_diametral_matches_led_downset(tmp_path, capsys):
    P = pk.poset_from_relations(5, [(1, 3), (1, 5), (2, 3), (2, 5), (4, 5)])
    path = _poset_file(tmp_path, P)
    code, out, err = _run(capsys, ["diametral", path])
    distance = int(_payload(out)["result"]["distance"])
    code, out, err = _run(capsys, ["led-downset", path])
    assert distance == int(_payload(out)["result"]["led"])


def test_diametral_distance_on_random_orders(tmp_path, capsys):
    # the CLI counts the inversions of the inverse of the library's index
    # map; a map that is its own inverse would not tell the two apart
    involutive = []
    for n in range(2, 13):
        P = random_two_dim(n, random.Random(100 + n))
        code, out, err = _run(capsys, ["diametral", _poset_file(tmp_path, P)])
        assert code == 0
        L1, L2 = pk.diametral_pair(P)
        distance = int(_payload(out)["result"]["distance"])
        assert distance == pk.reversal_distance(L1, L2) == pk.led_downset(P).led
        ys = [L2.index[d] for d in L1.order]
        involutive.append(all(ys[y - 1] == x for x, y in enumerate(ys, start=1)))
    assert not all(involutive)


class _CountingWriter:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def test_diametral_report_memory_does_not_grow_with_the_report(tmp_path, capsys):
    # the report goes to stdout in pieces, and each extension is a list of
    # per-downset texts joined only as it is written, so on the 14-point
    # antichain (16 384 downsets) the tracemalloc peak stays under three
    # times the report's length; building the whole report string and its
    # copy with the newline took about 3.7 times
    path = _poset_file(tmp_path, pk.antichain_poset(14))
    writer = _CountingWriter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(writer):
            code = cli.main(["diametral", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * writer.length, (peak, writer.length)


def _svg_header_then_out_of_memory(*args):
    yield "<svg>"
    raise MemoryError


def test_out_of_memory_exits_three(tmp_path, capsys, monkeypatch):
    # a MemoryError in a command is one stderr line and exit 3, and a
    # drawing cut short by it is removed, not left truncated
    def led_sums(P, sigma):
        raise MemoryError

    monkeypatch.setattr(cli, "_svg", _svg_header_then_out_of_memory)
    monkeypatch.setattr(cli, "_led_sums", led_sums)
    path = _poset_file(tmp_path, pk.chain_union([2, 2]))
    svg_path = tmp_path / "picture.svg"
    for argv in (["diametral", path, "--svg", str(svg_path)], ["led-downset", path]):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (3, "", "posetkit: out of memory\n")
        assert not svg_path.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_failed_drawing_leaves_a_fifo_in_place(tmp_path, capsys, monkeypatch):
    # only a regular file the CLI wrote is removed when the drawing fails;
    # a FIFO (or a device) given as --svg stays where it is
    monkeypatch.setattr(cli, "_svg", _svg_header_then_out_of_memory)
    fifo = tmp_path / "picture.svg"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        code, out, err = _run(capsys, ["diametral", _poset_file(tmp_path, pk.chain_union([2, 2])),
                                       "--svg", str(fifo)])
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # the CLI never opened the FIFO: let the reader go
            with open(fifo, "wb"):
                pass
            reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, out, err) == (3, "", "posetkit: out of memory\n")
    assert received == [b"<svg>"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_reader_that_closes_early_gets_exit_one_and_no_traceback(tmp_path, unbuffered):
    # the 12-point antichain's report is far longer than a pipe holds, so
    # the CLI is still writing when its reader closes after 100 bytes
    env = dict(os.environ, PYTHONPATH=str(Path(pk.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = _poset_file(tmp_path, pk.antichain_poset(12))
    with subprocess.Popen([sys.executable, "-m", "posetkit.cli", "diametral", path],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        head = child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    assert head.startswith(b"{")
    assert (code, err) == (1, ""), err[-400:]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_diameter(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    code, out, err = _run(capsys, ["oracle", path, "diameter"])
    assert code == 0
    result = _payload(out)["result"]
    assert result["diameter"] == "1"
    assert result["diametral_pairs"] == [[[1, 2], [2, 1]]]


def test_oracle_cap_exits_three(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    code, out, err = _run(capsys, ["oracle", path, "diameter", "--cap", "1"])
    assert code == 3
    assert out == ""
    assert "cap exceeded" in err


def test_caps_below_one_are_usage_errors(tmp_path, capsys):
    # a cap under 1 is refused as it is parsed (exit 1), not taken as a
    # cap that every input exceeds (exit 3)
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    # and so is a cap that is not an integer, under the same message
    for argv, flag, value in ((["diametral", path, "--max-lattice", "-5"], "--max-lattice", "-5"),
                              (["oracle", path, "diameter", "--cap", "0"], "--cap", "0"),
                              (["oracle", path, "diameter", "--cap", "x"], "--cap", "x"),
                              (["diametral", path, "--max-lattice", "1.5"], "--max-lattice", "1.5")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1
        assert out == ""
        assert err.endswith(f"error: argument {flag}: must be an integer >= 1, not {value}\n")


def test_oracle_diameter_refuses_too_many_pairs_at_once(tmp_path, capsys):
    # 66272 extensions fit the default cap, but their 2.2e9 pairs do not:
    # the pair scan must be refused before it starts
    path = _poset_file(tmp_path, random_two_dim(12, random.Random(0)))
    started = time.perf_counter()
    code, out, err = _run(capsys, ["oracle", path, "diameter"])
    assert code == 3
    assert out == ""
    assert "cap exceeded: 2195955856 pairs of linear extensions" in err
    assert time.perf_counter() - started < 30


def test_oversized_input_exits_three(tmp_path, capsys):
    path = tmp_path / "huge.poset"
    path.write_text("poset 1000000000\n", encoding="utf-8")
    for argv in (["led-downset", str(path)], ["count-antichains", str(path)]):
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "cap exceeded" in err


def test_oversized_header_exits_three_before_the_relations(tmp_path, capsys):
    # 12 MB of relation lines, or one malformed line, under a 5000 header:
    # the header is refused before any relation line is read
    big, bad = tmp_path / "big.poset", tmp_path / "bad.poset"
    big.write_text("poset 5000\n" + "1 < 2\n" * 2_000_000, encoding="utf-8")
    bad.write_text("poset 5000\n1 2 3\n", encoding="utf-8")
    for path in (big, bad):
        started = time.perf_counter()
        code, out, err = _run(capsys, ["count-antichains", str(path)])
        assert time.perf_counter() - started < 0.5
        assert (code, out, err) == (3, "", "posetkit: cap exceeded: 5000 elements, more than 4096\n")


def test_oversized_header_refusal_memory_does_not_grow_with_the_file(tmp_path, capsys):
    # only the lines up to the header are read before the refusal: the
    # tracemalloc peak of a 1.2 MB file stays that of a two-line one
    peaks = []
    for lines in (1, 200_000):
        path = tmp_path / f"{lines}.poset"
        path.write_text("# big\r\n\nposet 5000\n" + "1 < 2\n" * lines, encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["count-antichains", str(path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (3, "", "posetkit: cap exceeded: 5000 elements, more than 4096\n")
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_input_digest_is_of_the_text_as_text_mode_reads_it(tmp_path, capsys):
    # the file is read as bytes a block of lines at a time, each block
    # hashed with line ends translated as text mode translates them; the
    # lines break, as str.splitlines does, at \x1c, \x0c and \u2028 too
    path = tmp_path / "P.poset"
    small = "# é\r\n\x1c# c\n\u2028# d\x1c\rposet 3\r\n1 < 2\n\n2 < 3\r"
    # more than one block: a BOM, \r\n and lone \r on both sides of 64 KiB
    large = ("# \ufeff\r\n" + "# x\r" * 9000 + "poset 4\x0c1 < 2\u2028"
             + "# y\r\n" * 9000 + "2 < 3\r3 < 4\n")
    for text, total in ((small, "4"), (large, "5")):
        path.write_bytes(text.encode("utf-8"))
        code, out, err = _run(capsys, ["count-antichains", str(path)])
        assert code == 0
        with open(path, "r", encoding="utf-8") as fh:
            want = hashlib.sha256(fh.read().encode("utf-8")).hexdigest()
        assert _payload(out)["input_sha256"] == want
        assert _payload(out)["result"]["total"] == total
    # a byte that is not UTF-8, past the header and the first 8 KiB or the
    # first 64 KiB, or a sequence cut off at the end, is reported at its
    # offset in the whole file
    pad = b"# pad\n"
    for raw, where in ((b"poset 2\n" + pad * 3000 + b"\xff\n",
                        "byte 0xff in position 18008: invalid start byte"),
                       (b"poset 2\n" + pad * 12000 + b"\xff\n",
                        "byte 0xff in position 72008: invalid start byte"),
                       (b"poset 2\n1 < 2\n" + pad * 12000 + b"# \xe2\x82",
                        "bytes in position 72016-72017: unexpected end of data")):
        path.write_bytes(raw)
        assert _run(capsys, ["count-antichains", str(path)]) == (
            1, "", f"posetkit: 'utf-8' codec can't decode {where}\n")


def test_a_fault_before_a_bad_byte_is_reported_first(tmp_path, capsys):
    # the lines of a block that is not UTF-8, up to the last "\n" or "\r"
    # before its bad byte, are parsed before the decode error is raised: a
    # refused header or a malformed relation line comes first.  k comment
    # lines of 32 bytes move the header across the first block's end
    path, pad = tmp_path / "P.poset", b"#" * 31 + b"\n"
    for k in range(64):
        for end in (b"\n", b"\r"):
            path.write_bytes(pad * k + b"poset 5000" + end + b"1 < 2\n\xff\xfe\n")
            assert _run(capsys, ["count-antichains", str(path)]) == (
                3, "", "posetkit: cap exceeded: 5000 elements, more than 4096\n")
            path.write_bytes(pad * k + b"poset 5000" + end + b"1 < 2\xff\n")
            assert _run(capsys, ["count-antichains", str(path)]) == (
                3, "", "posetkit: cap exceeded: 5000 elements, more than 4096\n")
            path.write_bytes(pad * k + b"poset 3" + end + b"1 < 2\n1 2\n\xff\n")
            assert _run(capsys, ["count-antichains", str(path)]) == (
                1, "", f"posetkit: line {k + 3}: expected '<i> < <j>'\n")
            # a fault after the last line end before the bad byte is not reached
            path.write_bytes(pad * k + b"poset 3" + end + b"1 2\xff\n")
            assert _run(capsys, ["count-antichains", str(path)]) == (
                1, "", f"posetkit: 'utf-8' codec can't decode byte 0xff in position "
                       f"{32 * k + 11}: invalid start byte\n")


def test_long_comment_preamble_is_read_in_linear_time(tmp_path, capsys):
    # 20000 comment lines (2 MB) before the header: the lines read up to
    # the header are joined once, not grown a line at a time
    path = tmp_path / "P.poset"
    path.write_text(("# " + "x" * 97 + "\n") * 20_000 + "poset 2\n1 < 2\n", encoding="utf-8")
    started = time.perf_counter()
    code, out, err = _run(capsys, ["count-antichains", str(path)])
    assert time.perf_counter() - started < 2
    assert code == 0 and _payload(out)["result"]["total"] == "3"


def test_wide_antichain_exits_three(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(1100))
    for argv in (["led-downset", path, "--upper-bound-only"], ["oracle", path, "classes"]):
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "more than" in err


def test_wide_middle_layer_exits_three_within_memory(tmp_path):
    # one bottom, one top and 1100 incomparable elements in between: the
    # cap must trip before 2^20 antichains of ~1090 members fill memory
    resource = pytest.importorskip("resource")
    n = 1102
    lines = [f"poset {n}"] + [f"1 < {k}" for k in range(2, n)]
    lines += [f"{k} < {n}" for k in range(2, n)]
    path = tmp_path / "wide.poset"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    limit = 1_500_000 * 1024  # as `ulimit -v 1500000`

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(pk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["oracle", str(path), "classes"],
                 ["led-downset", str(path), "--upper-bound-only"]):
        done = subprocess.run([sys.executable, "-m", "posetkit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              preexec_fn=limit_address_space, timeout=120)
        assert done.returncode == 3, done.stderr[-400:]
        assert done.stdout == ""
        assert "cap exceeded" in done.stderr


def test_diametral_walks_the_downsets_once_per_order(tmp_path, capsys, monkeypatch):
    revlex = importlib.import_module("posetkit.revlex")
    walk, calls = revlex._antichains, []
    monkeypatch.setattr(revlex, "_antichains",
                        lambda P, cap, order: calls.append(tuple(order)) or walk(P, cap, order))
    P = random_two_dim(9, random.Random(4))
    r = pk.realizer(P)
    path = _poset_file(tmp_path, P)
    code, out, err = _run(capsys, ["diametral", path])
    assert code == 0
    assert calls == [r.sigma, r.sigma_bar]
    result = _payload(out)["result"]
    for key, sigma in (("extension_1", r.sigma), ("extension_2", r.sigma_bar)):
        want = pk.build_revlex_extension(P, sigma).order
        assert [tuple(d) for d in result[key]] == list(want)
    calls.clear()
    # more downsets than the cap: refused before any enumeration
    path = _poset_file(tmp_path, pk.antichain_poset(30))
    code, out, err = _run(capsys, ["diametral", path])
    assert code == 3
    assert out == ""
    assert f"more than {pk.DEFAULT_CAP} downsets" in err
    assert calls == []


def test_oracle_classes(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    code, out, err = _run(capsys, ["oracle", path, "classes"])
    assert code == 0
    classes = _payload(out)["result"]["classes"]
    assert sum(int(c["size"]) for c in classes) == 16
    big = [c for c in classes if c["D"] == [1, 2]]
    assert big == [
        {"D": [1, 2], "I": [], "components": [[1], [2]], "size": "4"}
    ]


def test_oracle_classes_refuses_too_many_pairs_at_once(tmp_path, capsys):
    # 2048 antichains fit under the cap, their 4.2 M ordered pairs do not
    path = _poset_file(tmp_path, pk.antichain_poset(11))
    started = time.perf_counter()
    code, out, err = _run(capsys, ["oracle", path, "classes", "--cap", "5000"])
    assert code == 3
    assert out == ""
    assert "more than 5000 antichain pairs" in err
    assert time.perf_counter() - started < 10.0


def test_oracle_critical(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(2))
    code, out, err = _run(capsys, ["oracle", path, "critical"])
    assert code == 0
    pairs = _payload(out)["result"]["critical_pairs"]
    assert sorted(pairs) == [[1, 2], [2, 1]]


# ---------------------------------------------------------------------------
# count-antichains and led-chains


def test_count_antichains(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.antichain_poset(3))
    code, out, err = _run(capsys, ["count-antichains", path])
    assert code == 0
    result = _payload(out)["result"]
    assert result["total"] == "8"
    assert result["per_element"] == {"1": "1", "2": "2", "3": "4"}


def test_led_chains(capsys):
    code, out, err = _run(capsys, ["led-chains", "2,1"])
    assert code == 0
    assert _payload(out)["result"] == {"led": "3"}
    # 15000 one-point chains: 9031 digits, all printed
    code, out, err = _run(capsys, ["led-chains", ",".join(["1"] * 15000)])
    assert code == 0, err
    led = _payload(out)["result"]["led"]
    assert decimal.Decimal(led) == pk.led_chain_union([1] * 15000)


def test_led_chains_bad_lists(capsys):
    for arg, message in (("2,x", "bad length list '2,x'"),
                         ("2,0", "chain lengths must be at least 1"),
                         ("", "bad length list ''")):
        code, out, err = _run(capsys, ["led-chains", arg])
        assert code == 1
        assert out == ""
        assert err == f"posetkit: {message}\n"


# ---------------------------------------------------------------------------
# output discipline


def test_output_is_byte_deterministic(tmp_path, capsys):
    path = _poset_file(tmp_path, pk.chain_union([2, 1]))
    svg_path = tmp_path / "out.svg"
    argv = ["diametral", path, "--svg", str(svg_path)]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    first_svg = svg_path.read_bytes()
    code, second, _ = _run(capsys, argv)
    assert code == 0
    assert first == second
    assert svg_path.read_bytes() == first_svg


def test_stdout_is_the_sorted_indent_two_dump(tmp_path, capsys):
    # every command, on file names that JSON must escape
    odd = tmp_path / 'in "quoted" \\ dir \u00fc'
    odd.mkdir()
    posets = [
        pk.poset_from_relations(0, []),
        pk.chain(1),
        pk.chain_union([2, 1]),
        pk.antichain_poset(3),
        pk.poset_from_relations(5, [(1, 3), (1, 5), (2, 3), (2, 5), (4, 5)]),
    ]
    runs = [["led-bool", "4"], ["led-chains", "2,1,3"]]
    for k, P in enumerate(posets):
        path = _poset_file(odd, P, f"p{k} \u00e9.poset")
        svg = str(odd / f'p{k} "\u00e9" \\.svg')
        runs += [
            ["led-downset", path],
            ["led-downset", path, "--breakdown"],
            ["led-downset", path, "--upper-bound-only"],
            ["diametral", path],
            ["diametral", path, "--svg", svg],
            ["count-antichains", path],
            ["oracle", path, "diameter"],
            ["oracle", path, "classes"],
            ["oracle", path, "critical"],
        ]
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert code == 0, (argv, err)
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        if argv[0] == "diametral":
            L1, L2 = pk.diametral_pair(pk.load_poset(argv[1]))
            result = _payload(out)["result"]
            assert result["extension_1"] == [list(d) for d in L1.order]
            assert result["extension_2"] == [list(d) for d in L2.order]
            assert result.get("svg") == (argv[3] if "--svg" in argv else None)


def test_verbose_timing_goes_to_stderr(capsys):
    code, out, err = _run(capsys, ["--verbose", "led-bool", "3"])
    assert code == 0
    _payload(out)
    assert "elapsed_ms=" in err
    assert "elapsed_ms" not in out


def test_main_prints_what_the_parser_with_every_command_prints(tmp_path, capsys):
    # main parses a command line that starts with a command by that
    # command's parser alone: its usage, help, errors, exit codes and
    # namespaces must be those of the parser with every command
    f = _poset_file(tmp_path, pk.chain(2))
    svg = str(tmp_path / "out.svg")
    for argv in ([], ["nope"], ["-h"], ["-hx"], ["--verbose"], ["nope", "-h"],
                 ["--", "led-bool", "3"], ["--verbose=1", "led-downset", f],
                 # --verbose after a command, -h after other words
                 ["led-bool", "3", "--verbose"], ["led-downset", "--verbose", f],
                 ["led-downset", f, "--verbose", "-h"], ["led-bool", "-h", "3"],
                 ["led-downset", "-hx"], ["led-chains", "2,1", "-h"],
                 ["count-antichains", "-h", f],
                 # an unknown option before the file, words left over
                 ["led-downset", "--bogus", f], ["led-downset", "-x", f],
                 ["led-downset", f, "--bogus"], ["led-downset", f, "extra"],
                 ["led-bool", "3", "4"], ["oracle", f, "critical", "x"],
                 # -- in every position
                 ["count-antichains", f, "--", "x"], ["led-downset", f, "--", "--breakdown"],
                 ["led-downset", "--", "--", f],
                 # a missing argument for each command
                 ["led-bool"], ["led-downset"], ["diametral"], ["diametral", "--svg", svg],
                 ["diametral", f, "--svg"], ["diametral", f, "--scale"], ["oracle"],
                 ["oracle", f], ["count-antichains"], ["led-chains"],
                 # invalid choices and ints, ambiguous and =-form options
                 ["led-bool", "x"], ["oracle", f, "nope"], ["oracle", f, "critical", "--cap", "x"],
                 ["oracle", f, "critical", "--cap", "0"], ["diametral", f, "--max-lattice", "0"],
                 ["diametral", f, "--scale", "x"], ["diametral", f, "--s", "x"],
                 ["led-downset", "--breakdown=yes", f]):
        seen = []
        for parse in (cli.main, cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            seen.append((exc.value.code, *capsys.readouterr()))
        assert seen[0] == seen[1], argv
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0].split()[1:] for line in readme.read_text().splitlines()
             if line.startswith("posetkit ")]
    assert len(lines) == 10
    for argv in (*lines,
                 # the bench's command shapes
                 ["led-downset", f, "--breakdown"], ["led-downset", f, "--upper-bound-only"],
                 ["led-downset", f], ["count-antichains", f], ["diametral", f],
                 ["diametral", f, "--svg", svg],
                 # abbreviations, = forms and -- in every position
                 ["led-downset", f, "--break"], ["led-downset", f, "--upper"],
                 ["diametral", f, "--max", "5"], ["oracle", f, "critical", "--ca", "5"],
                 ["diametral", f, "--svg=" + svg], ["oracle", f, "classes", "--cap=5"],
                 ["diametral", f, "--max-lattice=2", "--sv", svg, "--scale", "3"],
                 ["led-downset", f, "--"], ["led-downset", "--", f], ["led-bool", "--", "3"],
                 ["led-bool", "-3"], ["led-bool", "3", "--"], ["led-chains", "--", "-1"],
                 ["oracle", f, "--", "critical"], ["oracle", "--cap", "2", f, "classes"],
                 ["--verbose", "led-bool", "3"], ["--verb", "led-bool", "3"]):
        assert vars(cli._parse(argv)) == vars(cli._build_parser().parse_args(argv)), argv


def test_a_command_line_with_a_command_builds_one_parser(tmp_path, capsys, monkeypatch):
    # the full parser, with a subparser per command, is built only for the
    # top-level help and usage errors
    progs = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    f = _poset_file(tmp_path, pk.chain(2))
    for argv in (["led-bool", "3"], ["led-downset", f, "--breakdown"], ["diametral", f],
                 ["oracle", f, "critical"], ["count-antichains", f], ["led-chains", "2,1"]):
        progs.clear()
        assert cli.main(argv) == 0
        assert progs == ["posetkit " + argv[0]], argv
    full = ["posetkit", *("posetkit " + name for name in cli._COMMANDS)]
    for argv, built in (([], full), (["-h"], full),
                        (["led-downset", f, "extra"], ["posetkit led-downset", *full])):
        progs.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert progs == built, argv
    capsys.readouterr()


def _fresh_interpreter(probe: str) -> str:
    # -S: no site module and no .pth files, so what the probe finds loaded
    # was loaded by the interpreter itself or by posetkit
    src = str(Path(pk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_dataclasses_out(tmp_path):
    # the records are NamedTuples, so the CLI does not pay for dataclasses
    # and the inspect module it pulls in (whatever site loaded is not ours)
    probe = ("import sys; before = set(sys.modules); import posetkit.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))")
    assert _fresh_interpreter(probe) == "[]"
    # the oracle loads only when the oracle command runs; revlex and svg
    # load with the CLI, so that a timed diametral call does not compile them
    f = _poset_file(tmp_path, pk.antichain_poset(2))
    probe = f"""
import contextlib, io, sys
import posetkit.cli as cli
print(sorted(m for m in ("posetkit.revlex", "posetkit.svg") if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes = cli.main(["led-downset", {f!r}]), cli.main(["diametral", {f!r}])
print(codes, "posetkit.oracle" in sys.modules)
"""
    assert _fresh_interpreter(probe).splitlines() == [
        "['posetkit.revlex', 'posetkit.svg']", "(0, 0) False"]
    # the package loads its submodules on first use, and still binds
    # realizer to the function
    probe = """
import sys
import posetkit as pk
assert pk.realizer is sys.modules["posetkit.realizer"].realizer
assert set(pk.__all__) <= set(dir(pk))
assert "posetkit.led" not in sys.modules
pk.led._Engine
assert "posetkit.oracle" not in sys.modules
pk.oracle.brute_led_downset
print("ok")
"""
    assert _fresh_interpreter(probe) == "ok"
    probe = """
import sys
import posetkit
assert "posetkit.oracle" not in sys.modules
from posetkit import oracle
print(oracle.__name__)
"""
    assert _fresh_interpreter(probe) == "posetkit.oracle"


def test_cli_hashes_without_loading_openssl(tmp_path, capsys):
    # hashlib loads OpenSSL; the CLI hashes with the interpreter's own SHA-256
    probe = ("import sys; import posetkit.cli; "
             "print(sorted({'hashlib', '_hashlib', 'ssl'} & set(sys.modules)))")
    assert _fresh_interpreter(probe) == "[]"
    # without the built-in modules it falls back on hashlib, with the same digests
    f = _poset_file(tmp_path, pk.chain_union([2, 3]))
    runs = [["led-downset", f], ["led-bool", "4"], ["led-chains", "2,3"]]
    want = [_payload(_run(capsys, argv)[1])["input_sha256"] for argv in runs]
    probe = f"""
import contextlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from posetkit import cli
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    print(json.loads(out.getvalue())["input_sha256"])
print("hashlib" in sys.modules)
"""
    assert _fresh_interpreter(probe).splitlines() == [*want, "True"]
