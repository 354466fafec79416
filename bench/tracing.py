"""Spans around the calls into each posetkit module, recorded from outside.

`hooks(tracer)` replaces module attributes with timing wrappers for the
duration of a traced run, so `posetkit.cli.main` makes exactly the calls it
always makes and each call into a layer leaves a span.  Nothing inside the
program changes; an attribute that a later version no longer has is simply
not traced, and the layer metrics fed by it read zero.

Two led layers have no function boundary of their own and are derived from
the gaps between their neighbours inside one `led_downset` call: the
antichain DP for the whole order (`a_total`) runs between the engine build
and `gamma`, and the final delta sum runs after the tables.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1         # index into Tracer.spans, -1 for a root
    op: int = -1             # index of the operation being replayed
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                 op=self.op, attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call.  before(args) and after(result)
        return attrs; both run outside the timed interval."""
        def traced(*args, **kwargs):
            attrs = before(args) if before else {}
            with self.span(name, **attrs) as s:
                result = fn(*args, **kwargs)
            if after:
                s.attrs.update(after(result))
            return result
        return traced

    def derive_led_gaps(self) -> None:
        """Mark every led_downset and count_antichains call warm or cold by
        whether its first engine lookup hit the cache, and add the led.dp
        and led.final spans inside each led_downset call whose children came
        in the expected order."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s.parent, []).append(i)
        for i, s in enumerate(list(self.spans)):
            if s.name not in ("led.led_downset", "led.count_antichains"):
                continue
            kids = [self.spans[j] for j in children.get(i, [])]
            engines = [k for k in kids if k.name == "led.engine"]
            if not engines:
                continue
            state = "warm" if engines[0].attrs.get("cache") == "hit" else "cold"
            s.attrs["engine"] = state
            for k in kids:
                k.attrs["engine"] = state
            if [k.name for k in kids[-3:]] != ["led.engine", "led.gamma", "led.tables"]:
                continue
            engine, gam, tables = kids[-3:]
            self.spans.append(Span("led.dp", engine.end, gam.start, i, s.op,
                                   {"engine": state, "derived": True}))
            self.spans.append(Span("led.final", tables.end, s.end, i, s.op,
                                   {"engine": state, "derived": True}))

    def dump(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def load(dumped: list, offset: int) -> list:
    """Spans from Tracer.dump, their parent indices shifted by offset so
    the spans of several processes can share one list."""
    return [
        Span(d["name"], d["start"], d["end"], d["parent"] + offset if d["parent"] >= 0 else -1,
             d["op"], d.get("attrs", {}))
        for d in dumped
    ]


def _popcount(x: int) -> int:
    return bin(x).count("1")


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Install the timing wrappers on the posetkit modules; restore the
    originals on exit."""
    # the package re-exports a function named realizer over its submodule
    cli, led, poset, realizer, revlex = (
        importlib.import_module(f"posetkit.{name}")
        for name in ("cli", "led", "poset", "realizer", "revlex")
    )

    def inc_pairs(args):
        P = args[0]
        return {"inc_pairs": sum(_popcount(m) for m in P.inc_masks) // 2}

    def engine_cache(args):
        cache = getattr(led, "_engines", {})
        return {"cache": "hit" if (args[0], tuple(args[1])) in cache else "miss"}

    def led_pairs(args):
        return {"n": args[0].n, "pairs": sum(_popcount(m) for m in args[0].up_masks)}

    wrapped_realizer = ("realizer.realizer", inc_pairs, None)
    plan = [
        (poset, "parse_poset", ("poset.parse", None, None)),
        (poset, "all_downsets", ("poset.downsets", None, lambda r: {"downsets": len(r)})),
        (revlex, "all_downsets", ("poset.downsets", None, lambda r: {"downsets": len(r)})),
        (cli, "downset_lattice", ("poset.lattice", None, lambda r: {"downsets": len(r.downsets)})),
        (cli, "cover_pairs", ("poset.covers", lambda a: {"tested": a[0].n ** 2},
                              lambda r: {"covers": len(r)})),
        (cli, "realizer", wrapped_realizer),
        (led, "realizer", wrapped_realizer),
        (revlex, "realizer", wrapped_realizer),
        (realizer, "transitive_orientation", ("realizer.orient", None, None)),
        (cli, "led_downset", ("led.led_downset", led_pairs, None)),
        (cli, "led_upper_bound", ("led.upper_bound", None, None)),
        (cli, "count_table", ("led.count_antichains", None, None)),
        (led, "_engine", ("led.engine", engine_cache, None)),
        (led, "is_non_separating", ("led.nonsep", None, None)),
        (led, "gamma", ("led.gamma", None, None)),
        (getattr(led, "_Engine", None), "tables", ("led.tables", None, None)),
        (cli, "diametral_pair", ("revlex.diametral_pair", None, None)),
        (revlex, "build_revlex_extension", ("revlex.build", None, None)),
        (cli, "reversal_distance", ("revlex.distance", None, None)),
        (cli, "dominance_coordinates", ("revlex.coords", None, None)),
        (cli, "dominance_svg", ("svg.render", None, None)),
    ]
    saved, missing = [], []
    for owner, attr, (name, before, after) in plan:
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{getattr(owner, '__name__', '?')}.{attr}")
            continue
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, before, after))
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _slope(points: list) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over every span: a layer's time is its self time,
    its span minus the spans of the layers it called."""
    own = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.dur
    total, self_total, count = {}, {}, {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.dur
        self_total[s.name] = self_total.get(s.name, 0.0) + t
        for key, value in s.attrs.items():
            if isinstance(value, int) and not isinstance(value, bool):
                count[(s.name, key)] = count.get((s.name, key), 0) + value
    points = [
        (s.attrs["n"], s.dur) for s in spans
        if s.name == "led.led_downset" and s.attrs.get("n", 0) >= 40
    ]
    tested = count.get(("poset.covers", "tested"), 0)
    return {
        "cli.self_s": self_total.get("cli.main", 0.0),
        "poset.parse_s": total.get("poset.parse", 0.0),
        "poset.downsets_s": total.get("poset.downsets", 0.0),
        "poset.lattice_s": self_total.get("poset.lattice", 0.0),
        "poset.covers_s": total.get("poset.covers", 0.0),
        "poset.downsets": count.get(("poset.downsets", "downsets"), 0),
        "poset.cover_ratio": count.get(("poset.covers", "covers"), 0) / tested if tested else 0.0,
        "realizer.orient_s": total.get("realizer.orient", 0.0),
        "realizer.realizer_s": self_total.get("realizer.realizer", 0.0),
        "realizer.inc_pairs": count.get(("realizer.realizer", "inc_pairs"), 0),
        "led.nonsep_s": total.get("led.nonsep", 0.0),
        "led.engine_s": self_total.get("led.engine", 0.0),
        "led.dp_s": total.get("led.dp", 0.0) + self_total.get("led.count_antichains", 0.0),
        "led.gamma_s": self_total.get("led.gamma", 0.0),
        "led.tables_s": total.get("led.tables", 0.0),
        "led.final_s": total.get("led.final", 0.0),
        "led.upper_bound_s": total.get("led.upper_bound", 0.0),
        "led.pairs": count.get(("led.led_downset", "pairs"), 0),
        "led.exponent": _slope(points) if len({n for n, _ in points}) >= 3 else 0.0,
        "led.engine_hits": sum(
            1 for s in spans if s.name == "led.engine" and s.attrs.get("cache") == "hit"
        ),
        "revlex.build_s": self_total.get("revlex.build", 0.0),
        "revlex.distance_s": total.get("revlex.distance", 0.0),
        "revlex.coords_s": total.get("revlex.coords", 0.0),
        "svg.render_s": total.get("svg.render", 0.0),
    }
