"""One in-process posetkit call in a fresh interpreter.

    python3 bench/call.py MANIFEST INDEX [--traced]

Runs the INDEX-th command line of the JSON list in MANIFEST through
`posetkit.cli.main(argv)` with stdout captured, and prints one JSON line:
{"row": [seconds, exit code, stdout sha256, svg sha256, stdout],
"ref": [before, after]}, plus the spans of tracing.py with --traced.  Only
the call itself is timed; the interpreter start and the import of posetkit
are not.  Just before and just after the call the process times
`reference_work` (see `reference_seconds`), so run.py can tell how fast
the machine was while the call ran.  run.py starts one of these per
operation and puts src/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def file_digest(path: Path):
    return sha256(path.read_bytes()) if path.is_file() else None


def reference_work() -> int:
    """A fixed pure-Python workload made of what posetkit spends its time
    on: big-integer bit operations, popcounts and small-int dict updates,
    then frozensets of a dozen elements hashed into a dict and compared
    for inclusion over a working set of about a megabyte.  It never
    changes, so its time measures the machine, not the program."""
    counts = {}
    s = 0
    for i in range(5000):
        x = (i * 2654435761) & 0xFFFFFFFFFFFFFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + (x >> 3 & i)
        s += bin(x).count("1")
    sets = [frozenset(j for j in range(12) if (i * 2654435761 >> j) & 1) for i in range(1500)]
    index = {e: k for k, e in enumerate(sets)}
    s += sum(1 for a in sets[:30] for b in sets if a < b)
    return s + len(counts) + len(index)


def reference_seconds() -> float:
    """The median of three timed `reference_work` calls after an untimed
    one, with the cyclic garbage collector off, so that whatever the
    process holds at the time cannot lengthen them."""
    gc.collect()
    gc.disable()
    try:
        reference_work()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[1]


def run_lib(main, argv: list, tracer=None) -> tuple:
    """One cli.main call with stdout captured, inside a cli.main span when
    traced: (seconds, exit code, stdout)."""
    buf = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # a crash is a failed operation, never a skipped one
        print(f"call.py: {argv[0]} raised {exc!r}", file=sys.stderr)
        rc = -1
    return time.perf_counter() - t0, rc, buf.getvalue()


def main() -> int:
    manifest, index, traced = Path(sys.argv[1]), int(sys.argv[2]), "--traced" in sys.argv[3:]
    import posetkit.cli as cli

    argv = json.loads(manifest.read_text())[index]
    tracer = None
    missing = []
    before = reference_seconds()
    if traced:
        from tracing import Tracer, hooks

        tracer = Tracer()
        tracer.op = index
        with hooks(tracer) as missing:
            dt, rc, out = run_lib(cli.main, argv, tracer)
        tracer.derive_led_gaps()
    else:
        dt, rc, out = run_lib(cli.main, argv)
    after = reference_seconds()
    svg = argv[argv.index("--svg") + 1] if "--svg" in argv else None
    result = {"row": [dt, rc, sha256(out), file_digest(Path(svg)) if svg else None, out],
              "ref": [before, after]}
    if tracer:
        result.update(spans=tracer.dump(), missing=missing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
