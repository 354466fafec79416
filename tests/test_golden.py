"""The command line's output, byte for byte, on fixed inputs.

tests/golden.json holds one line per op: its command line ("{file}" and
"{svg}" stand for the input and the drawing), its exit code and the sha256
of its stdout, its stderr and the drawing it wrote (null if none).  The ops
are the benchmark's operations of seeds 1-3, built by bench/workloads.py
(imported from there, not copied), then refusals with exit codes 1, 2 and
3, the commands the benchmark does not run, lines that only argparse
parses (help, abbreviations, = forms, --), and files broken by each kind
of line end or holding a byte that is not UTF-8.  Each op runs through
cli.main in this process, in a fresh working directory, so the paths that
the report and the messages show are the same on every run.  A change that
alters an output byte regenerates the file and names each changed op:

    python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

CHEVRON = "poset 6\n1 < 3\n2 < 4\n3 < 5\n4 < 5\n1 < 6\n2 < 6\n"  # dimension three
N = "poset 4\n1 < 3\n2 < 3\n2 < 4\n"  # the N: the smallest order that is not series-parallel


def _reader_ops() -> list:
    """Files broken by line ends other than "\\n", and bytes that are not UTF-8."""
    ops = []
    for name, end in (("crlf", "\r\n"), ("cr", "\r"), ("ff", "\x0c"), ("ls", "\u2028")):
        text = f"# c{end}poset 4{end}1 < 2{end}2 < 3{end}{end}1 < 4{end}"
        ops.append((f"reader-{name}", ["count-antichains", "{file}"], text.encode()))
        ops.append((f"reader-{name}-bad-line", ["count-antichains", "{file}"],
                    f"poset 3{end}1 < 2{end}1 2{end}".encode()))
    ops += [
        ("reader-not-utf8", ["count-antichains", "{file}"], b"poset 3\n1 < 2\n\xff\n"),
        ("reader-not-utf8-header-first", ["count-antichains", "{file}"], b"poset 5000\n\xfe"),
        ("reader-not-utf8-line-first", ["count-antichains", "{file}"], b"poset 3\n1 2\r\xff"),
        ("reader-cut-sequence", ["count-antichains", "{file}"], b"poset 2\n1 < 2\n# \xe2\x82"),
        ("reader-bom", ["count-antichains", "{file}"], "\ufeff# x\nposet 2\n1 < 2\n".encode()),
    ]
    return ops


def _ops() -> list:
    """(name, argv, input bytes or None) of every op, in a fixed order."""
    ops = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for op in workloads.generate(workload, seed):
                ops.append((f"{workload}-{seed}-{op.name}",
                            [*op.command, "{file}", *op.flags], op.text.encode()))
    n, chevron = N.encode(), CHEVRON.encode()
    ops += [
        ("led-bool", ["led-bool", "5"], None),
        ("led-bool-large", ["led-bool", "10000"], None),
        ("led-chains", ["led-chains", "3,2,1"], None),
        ("upper-bound-only", ["led-downset", "{file}", "--upper-bound-only"], n),
        ("oracle-diameter", ["oracle", "{file}", "diameter"], n),
        ("oracle-classes", ["oracle", "{file}", "classes"], n),
        ("oracle-critical", ["oracle", "{file}", "critical"], chevron),
        ("diametral-scale", ["diametral", "{file}", "--svg", "{svg}", "--scale", "10"], n),
        # exit 1: usage, values, the format and the file
        ("usage-missing-file", ["led-downset"], None),
        ("usage-bad-max-lattice", ["diametral", "{file}", "--max-lattice", "0"], n),
        ("led-bool-out-of-range", ["led-bool", "0"], None),
        ("led-chains-bad-list", ["led-chains", "2,x"], None),
        ("no-such-file", ["count-antichains", "{file}"], None),
        ("missing-header", ["count-antichains", "{file}"], b"# only a comment\n"),
        ("bad-count", ["count-antichains", "{file}"], b"poset x\n"),
        ("bad-line", ["led-downset", "{file}"], b"poset 3\n1 < 2\n1 2\n"),
        ("bad-id", ["led-downset", "{file}"], b"poset 3\n1 < 4\n"),
        ("cycle", ["led-downset", "{file}"], b"poset 3\n1 < 2\n2 < 3\n3 < 1\n"),
        # exit 2: not two-dimensional
        ("not-2d-led", ["led-downset", "{file}"], chevron),
        ("not-2d-count", ["count-antichains", "{file}"], chevron),
        ("not-2d-diametral", ["diametral", "{file}", "--svg", "{svg}"], chevron),
        # exit 3: caps
        ("too-many-elements", ["count-antichains", "{file}"], b"poset 5000\n1 < 2\n"),
        ("max-lattice", ["diametral", "{file}", "--max-lattice", "4"], b"poset 3\n"),
        ("oracle-cap", ["oracle", "{file}", "diameter", "--cap", "2"], n),
        ("upper-bound-cap", ["led-downset", "{file}", "--upper-bound-only"], b"poset 1100\n"),
        # lines that argparse parses: help, an abbreviation, an = form, --, a
        # negative number, a bad value, a missing word and words left over
        ("parse-help", ["led-downset", "-h"], None),
        ("parse-abbreviation", ["led-downset", "--break", "{file}"], n),
        ("parse-equals", ["diametral", "{file}", "--svg={svg}"], n),
        ("parse-bad-scale", ["diametral", "{file}", "--scale", "x"], n),
        ("parse-bad-mode", ["oracle", "{file}", "bogus"], n),
        ("parse-negative", ["led-bool", "-3"], None),
        ("parse-double-dash", ["led-downset", "--", "{file}"], n),
        ("parse-missing-file", ["count-antichains"], None),
        ("parse-extra-word", ["led-downset", "{file}", "extra"], n),
        ("parse-extra-option", ["diametral", "{file}", "--bogus"], n),
    ]
    return ops + _reader_ops()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs() -> dict:
    """name -> {argv, exit, stdout, stderr, svg} of every op, as it runs now."""
    from posetkit import cli

    got, cwd = {}, os.getcwd()
    # argparse wraps usage lines to the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            for name, argv, data in _ops():
                with tempfile.TemporaryDirectory() as tmp:
                    os.chdir(tmp)
                    if data is not None:
                        Path("input.poset").write_bytes(data)
                    words = [w.format(file="input.poset", svg="drawing.svg") for w in argv]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(words)
                        except SystemExit as exc:  # argparse's usage errors
                            code = exc.code
                    svg = Path("drawing.svg")
                    got[name] = {"argv": argv, "exit": code,
                                 "stdout": _sha(out.getvalue().encode()),
                                 "stderr": _sha(err.getvalue().encode()),
                                 "svg": _sha(svg.read_bytes()) if svg.exists() else None}
        finally:
            os.chdir(cwd)
    return got


def _write(got: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in got.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_output_bytes_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs()
    changed = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    assert not changed, [(name, want.get(name), got.get(name)) for name in changed]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    sys.path.insert(0, str(ROOT / "src"))
    _write(outputs())
