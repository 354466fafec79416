#!/usr/bin/env python3
"""posetkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload random2d --seed 1 --seconds 22 --trace 0

A closed loop without threads: one operation at a time, the next only
after the last has finished.  run.py writes the workload's poset files from
the seed (workloads.py), then

- with --trace 0 it makes as many rounds as fit in --seconds at the
  reference speed (at least one; see `ROUND_SECONDS` in workloads.py).  A
  round takes every operation in turn: once in-process through
  `posetkit.cli.main(argv)` and then once as a `python -m posetkit.cli`
  child.  The in-process call runs in a fresh interpreter of its own that
  has already imported posetkit (call.py), so the two timings differ only
  by interpreter start, import and exit, and no cache can serve a timed
  call.  Before and after each operation a fixed reference is timed on the
  same vCPU (see `normalise`), and every time is reported at the reference
  speed;
- with --trace 1 it replays each operation's `cli.main` call with spans
  around every call into a posetkit module (tracing.py) and reports
  per-layer times and counts; the same call untraced, just before it,
  gives the tracing overhead.

Every output is checked outside the timed region (see `ground_truth`).  The
last stdout line is the result object; the line before it, also written to
bench/out/, records the environment, the input digests, the percentiles
behind the tail metrics and every per-operation time, scaled and as
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 9               # set-up repeats; setup_s is their median
PROBES = 15              # interpreter start-up probes per kind
CHILD_TIMEOUT = 170      # seconds for any one child process
# The reference speed: `call.reference_seconds` takes REF_S.  Timings are
# scaled to this speed.
REF_S = 0.012

sys.path.insert(0, str(BENCH))
from call import file_digest, reference_seconds, sha256  # noqa: E402
from workloads import ROUND_SECONDS, WORKLOADS, brute_subset_count, generate  # noqa: E402

WARMUP = "poset 5\n1 < 3\n1 < 5\n2 < 3\n2 < 5\n4 < 5\n"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def argv_of(op, work: Path) -> list:
    svg = str(work / f"{op.name}.svg")
    return [*op.command, str(work / f"{op.name}.poset"),
            *(svg if f == "{svg}" else f for f in op.flags)]


def svg_of(op, work: Path):
    return file_digest(work / f"{op.name}.svg") if "{svg}" in op.flags else None


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, work: Path, env: dict) -> tuple:
    """Generate and write the inputs and warm up with one CLI call, SETUPS
    times, between two timings of the reference; every repeat must write
    byte-identical files and seed + 1 must give other ones.  Returns each
    repeat's seconds at the reference speed and as measured."""
    times, raw, digest_sets = [], [], set()
    for _ in range(SETUPS):
        before = reference_seconds()
        t0 = time.perf_counter()
        ops = generate(workload, seed)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for op in ops:
            (work / f"{op.name}.poset").write_text(op.text, encoding="utf-8")
        (work / "manifest.json").write_text(json.dumps([argv_of(op, work) for op in ops]))
        digests = tuple(file_digest(work / f"{op.name}.poset") for op in ops)
        warm = work / "warmup.poset"
        warm.write_text(WARMUP, encoding="utf-8")
        subprocess.run([sys.executable, "-m", "posetkit.cli", "led-downset", str(warm)],
                       stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
                       timeout=CHILD_TIMEOUT, check=True)
        raw.append(time.perf_counter() - t0)
        times.append(normalise(raw[-1], before, reference_seconds()))
        digest_sets.add(digests)
    other = tuple(sha256(op.text) for op in generate(workload, seed + 1))
    repro = {"same_seed_identical": len(digest_sets) == 1, "other_seed_differs": other != digests}
    if not all(repro.values()):
        raise SystemExit(f"run.py: inputs are not reproducible from the seed: {repro}")
    return ops, digests, times, raw, repro


# ---------------------------------------------------------------------------
# the two ways of running one operation


class Spawner:
    """CLI children started through spawn.py, which stays small, so each
    child's peak RSS is its own (see spawn.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)

    def run(self, argv: list) -> list:
        """One `python -m posetkit.cli` child: [seconds, exit code, stdout
        sha256, peak RSS in KiB]."""
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "posetkit.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def call(work: Path, index: int, env: dict, traced: bool = False) -> dict:
    """One op through cli.main in a fresh interpreter of its own (see
    call.py): the call is the first in its process, so no cache can serve
    it, and no op inherits another's heap."""
    cmd = [sys.executable, str(BENCH / "call.py"), str(work / "manifest.json"), str(index)]
    proc = subprocess.run(cmd + (["--traced"] if traced else []),
                          stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


def ground_truth(ops, outs: list) -> list:
    """For each op, None if its output agrees with the independent checks,
    else the reasons it does not.  outs are the stdout texts."""
    import posetkit as pk

    results = []
    for out in outs:
        try:
            results.append(json.loads(out)["result"])
        except (ValueError, KeyError):
            results.append(None)
    verdicts = []
    for op, res in zip(ops, results):
        try:
            verdicts.append(_check(pk, op, res, results))
        except Exception as exc:  # a check that cannot run is a failed check
            verdicts.append([f"check raised {exc!r}"])
    return verdicts


def _check(pk, op, res, results):
    if res is None:
        return ["no result"]
    P = pk.parse_poset(op.text)
    if op.command[0] == "count-antichains":
        got, wants = int(res["total"]), [("subset count", brute_subset_count(op.n, op.relations))]
    elif op.command[0] == "diametral":
        got, wants = int(res["distance"]), [("led_downset", pk.led_downset(P).led)]
        if not op.relations:
            wants.append(("led_boolean", pk.led_boolean(op.n)))
        if op.lengths:
            wants.append(("led_chain_union", pk.led_chain_union(op.lengths)))
    elif "--upper-bound-only" in op.flags:
        got, wants = int(res["upper_bound"]), [("led_downset", pk.led_downset(P).led)]
    else:
        got, wants = int(res["led"]), []
        if op.partner >= 0:
            partner = results[op.partner]
            wants.append(("dual", int(partner["led"]) if partner else None))
        if op.lengths:
            wants.append(("led_chain_union", pk.led_chain_union(op.lengths)))
        if op.n <= 11:
            wants.append(("led_upper_bound", pk.led_upper_bound(P)))
            wants.append(("revlex pair", pk.reversal_distance(*pk.diametral_pair(P))))
    bad = [f"{op.name}: {got} != {name} {want}" for name, want in wants if got != want]
    return bad or None


def count_failures(ref: list, runs: list, verdicts: list) -> int:
    """An execution fails when it exits non-zero, or when its stdout or SVG
    differs from the reference execution's, or when the reference output
    failed its checks.  ref and runs rows: [seconds, rc, stdout sha256,
    svg sha256, ...]; runs are (op index, row)."""
    failed = 0
    for i, row in runs:
        failed += row[1] != 0 or row[2:4] != ref[i][2:4] or verdicts[i] is not None
    return failed


# ---------------------------------------------------------------------------
# statistics and records


def tail(values: list) -> tuple:
    """(q, value, samples above it) for the highest whole percentile q with
    at least ten samples above it by nearest rank; with ten samples or
    fewer, the maximum, reported as q = 100."""
    xs = sorted(values)
    n = len(xs)
    q = 100 * (n - 10) // n if n > 10 else 100
    rank = math.ceil(q * n / 100)
    return q, xs[rank - 1], n - rank


def src_files() -> list:
    return sorted(SRC.rglob("*.py"))


def git_sha():
    """HEAD's commit from .git when the checkout has one, read directly so
    no git process searches directories above the checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment() -> dict:
    h = hashlib.sha256()
    lines = 0
    for path in src_files():
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def normalise(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed: scaled by REF_S over the mean of
    the reference times taken just before and just after.  The vCPUs of a
    shared host change speed by a third or more, within a second and for
    minutes at a time; the fixed reference slows down with them, so the
    ratio keeps what the program costs and drops what the neighbours
    cost."""
    return seconds * 2 * REF_S / (before + after)


def path_metrics(prefix: str, ops, seconds: list) -> tuple:
    """The three timing metrics of one path from its times in the order the
    rounds ran them: the median and the tail of one call, and the whole
    list's total as the sum of each op's median."""
    per_op = [seconds[i::len(ops)] for i in range(len(ops))]
    q, worst, beyond = tail(seconds)
    return (
        {f"{prefix}_p50_ms": statistics.median(seconds) * 1e3,
         f"{prefix}_tail_ms": worst * 1e3,
         f"{prefix}_total_s": sum(statistics.median(xs) for xs in per_op)},
        {"percentile": q, "samples": len(seconds), "beyond": beyond},
    )


def timed_run(ops, work: Path, env: dict, rounds: int, seconds: float) -> tuple:
    """rounds rounds, fewer only if the machine is so slow that the next
    would end after twice seconds.  Each op runs in-process in a fresh
    interpreter, which times the reference before and after it, then as a
    CLI child, after which this process times the reference again."""
    lib_rows, cli_rows, lib_ref, cli_ref, peak_kib = [], [], [], [], 0
    start, last, round_s = time.perf_counter(), 0.0, []
    with Spawner(env) as spawner:
        for _ in range(rounds):
            if lib_rows and time.perf_counter() - start + last > 2 * seconds:
                break
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                lib = call(work, i, env)
                dt, rc, out_sha, rss = spawner.run(argv_of(op, work))
                peak_kib = max(peak_kib, rss)
                lib_rows.append(lib["row"])
                lib_ref.append(lib["ref"])
                cli_rows.append([dt, rc, out_sha, svg_of(op, work)])
                cli_ref.append([lib["ref"][1], reference_seconds()])
            last = time.perf_counter() - t0
            round_s.append(last)
    ref = lib_rows[:len(ops)]
    verdicts = ground_truth(ops, [row[4] for row in ref])
    failed = sum(
        count_failures(ref, [(i % len(ops), row) for i, row in enumerate(rows)], verdicts)
        for rows in (lib_rows, cli_rows)
    )
    lib_raw = [row[0] for row in lib_rows]
    cli_raw = [row[0] for row in cli_rows]
    lib_s = [normalise(t, *pair) for t, pair in zip(lib_raw, lib_ref)]
    cli_s = [normalise(t, *pair) for t, pair in zip(cli_raw, cli_ref)]
    cli_metrics, cli_tail = path_metrics("cli", ops, cli_s)
    lib_metrics, lib_tail = path_metrics("lib", ops, lib_s)
    metrics = {**cli_metrics, **lib_metrics, "peak_rss_mb": peak_kib / 1024}
    rounds = len(lib_rows) // len(ops)
    per_op = [
        {"name": op.name, "n": op.n,
         "lib_s": lib_s[i::len(ops)], "cli_s": cli_s[i::len(ops)],
         "lib_raw_s": lib_raw[i::len(ops)], "cli_raw_s": cli_raw[i::len(ops)]}
        for i, op in enumerate(ops)
    ]
    detail = {
        "rounds": rounds, "round_s": round_s, "tails": {"cli": cli_tail, "lib": lib_tail},
        "as_measured": {**path_metrics("cli", ops, cli_raw)[0], **path_metrics("lib", ops, lib_raw)[0]},
        "reference_s": {"lib": lib_ref, "cli": cli_ref}, "ops": per_op,
    }
    return metrics, len(lib_rows) + len(cli_rows), failed, verdicts, detail


def probe(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   timeout=CHILD_TIMEOUT, check=True)
    return time.perf_counter() - t0


def traced_run(ops, work: Path, env: dict, spans_path: Path) -> tuple:
    """Start-up probes, then every op in-process twice, untraced and traced
    one after the other (see call), so both see the machine in the same
    state; the spans of every op go to spans_path.  Like the timed run,
    every time is scaled to the reference speed: each probe pair by
    reference timings around it, each call and its spans by the reference
    timings its process made."""
    from tracing import layer_metrics, load

    bare, imported = [], []
    for _ in range(PROBES):
        before = reference_seconds()
        times = probe("pass", env), probe("import posetkit.cli", env)
        after = reference_seconds()
        bare.append(normalise(times[0], before, after))
        imported.append(normalise(times[1], before, after))
    ref, traced = [], []
    for i in range(len(ops)):
        untraced = call(work, i, env)
        untraced["row"][0] = normalise(untraced["row"][0], *untraced["ref"])
        ref.append(untraced["row"])
        traced.append(call(work, i, env, traced=True))
    spans = []
    for r in traced:
        scale = normalise(1.0, *r["ref"])
        r["row"][0] *= scale
        for s in load(r["spans"], len(spans)):
            s.start, s.end = s.start * scale, s.end * scale
            spans.append(s)
    rows = [r["row"] for r in traced]
    spans_path.write_text(json.dumps([vars(s) for s in spans]))

    verdicts = ground_truth(ops, [row[4] for row in rows])
    failed = count_failures(ref, list(enumerate(rows)), verdicts)
    failed += count_failures(ref, list(enumerate(ref)), verdicts)
    startup = statistics.median(bare)
    traced_total = sum(row[0] for row in rows)
    untraced_total = sum(row[0] for row in ref)
    metrics = {
        "cli.startup_ms": startup * 1e3,
        "cli.import_ms": (statistics.median(imported) - startup) * 1e3,
        **layer_metrics(spans),
        "trace.overhead_s": traced_total - untraced_total,
    }
    detail = {"missing_hooks": traced[0]["missing"], "spans": len(spans),
              "traced_total_s": traced_total, "untraced_total_s": untraced_total,
              "ops": [{"name": op.name, "n": op.n, "traced_s": rows[i][0], "lib_s": ref[i][0]}
                      for i, op in enumerate(ops)]}
    return metrics, len(rows) + len(ref), failed, verdicts, detail


# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "posetkit" / "cli.py").is_file():
        print(f"run.py: no posetkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for this process and every child, so each reference is timed
    # on the same processor as the operations it scales (vCPUs of a shared
    # host drift apart in speed).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    units = declared_metrics(args.trace)
    env_record = environment()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{stem}-{os.getpid()}"
    try:
        ops, digests, setups, setups_raw, repro = set_up(args.workload, args.seed, work, env)
        if args.trace:
            run = traced_run(ops, work, env, OUT / f"{stem}-spans.json")
        else:
            rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
            run = timed_run(ops, work, env, rounds, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, verdicts, detail = run
    metrics["setup_s"] = statistics.median(setups)
    metrics["src.lines"] = env_record["src_lines"]
    missing = set(units) - set(metrics)
    if missing:
        print(f"run.py: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record,
        "inputs": {op.name: d for op, d in zip(ops, digests)},
        "reproducible": repro, "setup_s": setups, "setup_raw_s": setups_raw,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "check_failures": [v for v in verdicts if v],
        **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
