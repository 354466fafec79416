"""Command line front end.

JSON goes to stdout and is byte-deterministic for a fixed command line and
input file; SVG drawings go to the path given.  Exit codes: 0 success,
1 parse or usage problems or a stdout closed early, 2 not two-dimensional,
3 a cap was exceeded or the command ran out of memory.

A command line that starts with a command is parsed by that command's
parser alone.  The parser with every command hands the words after the
command to a subparser built the same way, and reports only the words it
leaves over.  So that full parser is built only for a line with no leading
command, or with words left over, and prints the same help and errors.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time

from . import __version__
from .errors import CapExceeded, NotTwoDimensional, PosetkitError
from .led import _led_sums, led_boolean, led_chain_union, led_upper_bound
from .led import count_antichains as count_table
from .poset import DEFAULT_CAP, _load, _sha256
from .realizer import realizer
from .revlex import _inversions, _revlex_pair
from .svg import _ends, _svg


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is taken
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cap(text: str) -> int:
    try:
        if (cap := int(text)) >= 1:
            return cap
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text}")


class _Json(list):
    """A JSON array's items as text, laid out as items of a top-level array."""


def _dumps(value, pad: str = "\n"):
    """The text of json.dumps(value, sort_keys=True, indent=2) in a few
    pieces (an unbuffered stdout makes each a write call): a dict with a
    dict or _Json value is walked key by key, a _Json value is its items
    joined and indented as it is written, and any other value is one piece.
    Every value is indented to its depth: JSON escapes the newlines inside
    strings, so every newline in JSON text stands between tokens."""
    if isinstance(value, dict) and any(isinstance(v, (dict, _Json)) for v in value.values()):
        inner = pad + "  "
        for i, k in enumerate(sorted(value)):
            yield ("," if i else "{") + inner + json.dumps(k) + ": "
            yield from _dumps(value[k], inner)
        yield pad + "}"
    elif isinstance(value, _Json) and value:
        yield ("[\n  " + ",\n  ".join(value) + "\n]").replace("\n", pad)
    else:
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


def _dec(v: int) -> str:
    """v in decimal, however many digits it has: str(v) refuses more than
    sys.get_int_max_str_digits(), and Decimal(v) converts without a limit."""
    try:
        return str(v)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(v))


def _run_led_bool(args) -> tuple:
    if not 1 <= args.n <= 10 ** 4:
        raise ValueError("n must lie in 1..10000")
    return _sha256(str(args.n).encode()).hexdigest(), {"led": _dec(led_boolean(args.n))}


def _run_led_downset(args) -> tuple:
    P, digest = _load(args.file)
    if args.upper_bound_only:
        return digest, {"upper_bound": _dec(led_upper_bound(P))}
    sums = _led_sums(P, realizer(P).sigma)
    result = dict(zip(("alpha", "beta", "gamma", "delta", "led"), map(_dec, sums)))
    return digest, result if args.breakdown else {"led": result["led"]}


def _bit_sums(values: list):
    """The function mask -> the values[j] of the set bits j of mask, joined
    in increasing j.  One 256-entry table per byte of the mask holds the
    text of every value of that byte, so a mask costs a lookup per byte."""
    values = values + [""] * (-len(values) % 8)
    tables = []
    for lo in range(0, len(values), 8):
        t = [""] * 256
        for v in range(1, 256):
            low = v & -v
            t[v] = values[lo + low.bit_length() - 1] + t[v ^ low]
        tables.append(t)

    def total(mask: int) -> str:
        s = ""
        for t in tables:
            if not mask:
                break
            s += t[mask & 255]
            mask >>= 8
        return s

    return total


def _run_diametral(args) -> tuple:
    P, digest = _load(args.file)
    r = realizer(P)
    w1, w2 = _revlex_pair(P, args.max_lattice, r)
    at = {D: i for i, (_, D) in enumerate(w1)}  # each downset's index in L_sigma
    xs = [at[D] for _, D in w2]  # L_sigma indices in L_sigma_bar order
    del w2  # each table goes once no later step reads it: memory follows the downsets
    # each downset's member list as JSON text at depth one, rendered once
    members = _bit_sums([",\n    " + str(e) for e in P.elements()])
    texts = _Json("[" + s[1:] + "\n  ]" if (s := members(D)) else "[]" for _, D in w1)
    result = {
        "sigma": list(r.sigma),
        "sigma_bar": list(r.sigma_bar),
        "distance": _dec(_inversions([x + 1 for x in xs])),  # inverting keeps inversions
        "extension_1": texts,
        "extension_2": _Json(texts[x] for x in xs),
    }
    if args.svg:
        ys = [0] * len(xs)  # the inverse of xs: downset i is drawn at (i + 1, ys[i] + 1)
        for y, x in enumerate(xs):
            ys[x] = y
        # a bad --scale raises here, before an existing file is truncated
        q, ends = _ends(range(1, len(ys) + 1), range(len(ys)), ys, args.scale)
        # The lattice is distributive, so its covers are D - a below D for
        # the maxima a the walk lists with D.  D - a comes first in L_sigma
        # (revlex), so the covers above each downset come out sorted.
        above = [[] for _ in w1]
        for (A, D), end in zip(w1, ends):
            while A:
                a = A & -A
                above[at[D ^ a]].append(end)
                A ^= a
        del at, w1, ends
        fh = open(args.svg, "w", encoding="utf-8")
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # not a FIFO or a device
        try:
            with fh:
                fh.writelines(_svg(q, range(len(ys)), ys, above, args.scale))
        except BaseException:  # a truncated drawing must not look like a whole one
            if regular:
                os.remove(args.svg)
            raise
        result["svg"] = args.svg
    return digest, result


def _run_oracle(args) -> tuple:
    from .oracle import critical_pairs, enumerate_classes, le_graph_diameter

    P, digest = _load(args.file)
    if args.mode == "diameter":
        diam, pairs = le_graph_diameter(P, args.cap)
        result = {
            "diameter": _dec(diam),
            "diametral_pairs": [[list(a), list(b)] for a, b in pairs],
        }
    elif args.mode == "classes":
        classes = enumerate_classes(P, args.cap)
        result = {
            "classes": [
                {
                    "D": list(c.D),
                    "I": list(c.I),
                    "components": [list(k) for k in c.components],
                    "size": _dec(len(c.pairs)),
                }
                for c in classes
            ]
        }
    else:
        result = {"critical_pairs": [[c.x, c.y] for c in critical_pairs(P)]}
    return digest, result


def _run_count_antichains(args) -> tuple:
    P, digest = _load(args.file)
    sigma = realizer(P).sigma
    table = count_table(P, sigma)
    return digest, {
        "total": _dec(table.total),
        "per_element": {str(e): _dec(v) for e, v in sorted(table.per_element.items())},
    }


def _run_led_chains(args) -> tuple:
    try:
        lengths = [int(tok) for tok in args.lengths.split(",")]
    except ValueError:
        raise ValueError(f"bad length list {args.lengths!r}")
    led = led_chain_union(lengths)
    return _sha256(args.lengths.encode()).hexdigest(), {"led": _dec(led)}


# command -> (help, run function, its arguments as (name or flag, options))
_COMMANDS = {
    "led-bool": ("formula value for the subset lattice", _run_led_bool,
                 [("n", {"type": int})]),
    "led-downset": ("polynomial diameter of the downset lattice", _run_led_downset,
                    [("file", {}), ("--breakdown", {"action": "store_true"}),
                     ("--upper-bound-only", {"action": "store_true"})]),
    "diametral": ("construct a diametral extension pair", _run_diametral,
                  [("file", {}), ("--svg", {}), ("--scale", {"type": int, "default": 24}),
                   ("--max-lattice", {"type": _cap, "default": DEFAULT_CAP})]),
    "oracle": ("brute-force checks", _run_oracle,
               [("file", {}), ("mode", {"choices": ("diameter", "classes", "critical")}),
                ("--cap", {"type": _cap, "default": DEFAULT_CAP})]),
    "count-antichains": ("antichain count by the DP", _run_count_antichains,
                         [("file", {})]),
    "led-chains": ("closed form for unions of chains", _run_led_chains,
                   [("lengths", {})]),
}


def _arguments(s: _Parser, name: str) -> _Parser:
    """s with the arguments and the run function of the command name."""
    _, run, arguments = _COMMANDS[name]
    for flag, options in arguments:
        s.add_argument(flag, **options)
    s.set_defaults(run=run)
    return s


def _build_parser() -> _Parser:
    """The parser with every command: the top-level help lists them, and a
    missing or unknown command is reported by the dest, `command`."""
    p = _Parser(prog="posetkit")
    p.add_argument("--verbose", action="store_true",
                   help="print a timing line to stderr")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _arguments(sub.add_parser(name, help=help_text), name)
    return p


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of argv, as the full parser gives it (see above)."""
    if argv and argv[0] in _COMMANDS:
        s = _arguments(_Parser(prog="posetkit " + argv[0]), argv[0])
        s.set_defaults(command=argv[0], verbose=False)
        args, rest = s.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    started = time.monotonic()
    try:
        digest, result = args.run(args)
    except NotTwoDimensional as exc:
        print(f"posetkit: not two-dimensional: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"posetkit: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("posetkit: out of memory", file=sys.stderr)
        return 3
    except (PosetkitError, OSError, ValueError) as exc:
        print(f"posetkit: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "argv": argv,
        "input_sha256": digest,
        "result": result,
        "version": __version__,
    }
    sys.stdout.writelines(_dumps(report))
    sys.stdout.write("\n")
    if args.verbose:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"posetkit: elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:  # exit 1, no traceback; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
