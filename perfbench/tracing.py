"""Span tracing installed from outside the library.

``Tracer.install`` replaces selected public functions and methods of the
tropkit modules with timing wrappers at run time; no source file changes.
Names that one tropkit module imported from another with
``from .x import f`` are rebound too, so cross-layer calls are seen.

Each call records a span ``[name, start, end, parent, op, ok]`` in memory:
``parent`` is the index of the enclosing span (-1 at the top) and ``op``
the benchmark operation that was running.  A layer's self time is the
duration of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("tropical", "graphs", "divisors", "trees", "workspace", "cli")

WRAPPED = {
    "tropical": ("tp_project", "tp_member", "tp_extremals", "tp_independence"),
    "graphs": ("mg_potential", "mg_resistance", "mg_jfunction",
               "PLFunction.__init__", "PLFunction.sub", "PLFunction.add",
               "PLFunction.min_with", "PLFunction.minus_min",
               "PLFunction.divisor"),
    "divisors": ("LinearSystem.__init__", "LinearSystem.potential",
                 "LinearSystem.pair_function", "LinearSystem.path_point",
                 "ls_project", "ls_member", "ls_reduced", "dv_dhar_trace",
                 "dv_lin_equiv", "dv_rho"),
    "trees": ("tt_critical", "tt_is_tree", "tt_is_dominant", "tt_morphism",
              "tt_harmonize", "tt_verify_witness"),
    "workspace": ("load_workspace", "parse_workspace", "dumps_canonical"),
    "cli": ("main",),
}

CLI_SUBCOMMANDS = (
    "graph.validate",
    "tp.project", "tp.member", "tp.extremals", "tp.independence", "tp.norm",
    "div.equiv", "div.rho", "div.path", "div.b1", "div.reduce",
    "sys.member", "sys.project", "sys.reduced", "sys.extremals",
    "tree.check", "tree.support", "tree.dominant", "tree.preimage",
    "tree.redmap", "tree.morphism", "tree.harmonize", "tree.witness",
)


def _breakpoints(f) -> int:
    return sum(len(bps) for bps in f.data.values())


# wrapped function -> (counter it feeds, amount one result adds)
POSTS = {
    "tropical.tp_independence": ("tropical.tp_independence.undecided",
                                 lambda r: int(r["status"] == "undecided")),
    "divisors.dv_dhar_trace": ("divisors.dv_dhar_trace.rounds",
                               lambda r: len(r[1])),
    "trees.tt_critical": ("trees.tt_critical.count", len),
}
for _method in ("sub", "add", "min_with", "minus_min"):
    POSTS[f"graphs.PLFunction.{_method}"] = (
        "graphs.PLFunction.breakpoints_out", _breakpoints)
COUNTERS = sorted({counter for counter, _ in POSTS.values()})


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        for qual in WRAPPED[layer]:
            out.append((f"{layer}.{qual}.calls", "count", "lower"))
            out.append((f"{layer}.{qual}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.failed", "count", "lower"))
        out.append((f"{layer}.self_share", "ratio", "lower"))
    out += [
        ("tropical.tp_independence.undecided", "count", "lower"),
        ("graphs.PLFunction.breakpoints_out", "count", "lower"),
        ("divisors.potential.hit_ratio", "ratio", "higher"),
        ("divisors.dv_dhar_trace.rounds", "count", "lower"),
        ("trees.tt_critical.count", "count", "lower"),
    ]
    out += [(f"cli.{sub}.wall_s", "s", "lower") for sub in CLI_SUBCOMMANDS]
    out += [("trace.overhead_ratio", "ratio", "lower"),
            ("trace.unattributed_share", "ratio", "lower")]
    return out


class Tracer:
    """Records spans and counters for calls into the wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name: str, fn, post):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = True
            if post is not None:
                counters[post[0]] += post[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED inside the loaded tropkit."""
        modules = [importlib.import_module("tropkit")]
        modules += [importlib.import_module(f"tropkit.{layer}")
                    for layer in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"tropkit.{layer}")
            for qual in WRAPPED[layer]:
                name = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original, POSTS.get(name))
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def merge(children: list[tuple[int, dict]]) -> dict:
    """One trace from (op id, exported trace) pairs of child processes."""
    spans: list[list] = []
    counters = dict.fromkeys(COUNTERS, 0)
    for op, part in children:
        base = len(spans)
        for name, start, end, parent, _, ok in part["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1, op, ok])
        for key, value in part["counters"].items():
            counters[key] += value
    return {"spans": spans, "counters": counters}


def aggregate(trace: dict, timed_s: float) -> dict[str, float]:
    """Per-function and per-layer totals, counters and self-time shares.

    ``timed_s`` is the wall time of the timed operations; the share of it
    that no layer's self time covers is reported as unattributed.  Spans
    recorded outside any operation (output checks) are left out.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    failed: dict[str, int] = {}
    potential_calls = potential_solves = 0
    for i, (name, start, end, parent, op, ok) in enumerate(spans):
        if op < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        if not ok:
            failed[name] = failed.get(name, 0) + 1
        if name == "divisors.LinearSystem.potential":
            potential_calls += 1
        elif name == "graphs.mg_potential" and parent >= 0 \
                and spans[parent][0] == "divisors.LinearSystem.potential":
            potential_solves += 1

    out: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        totals = [0, 0.0, 0]
        for qual in WRAPPED[layer]:
            name = f"{layer}.{qual}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            totals[0] += calls.get(name, 0)
            totals[1] += self_s.get(name, 0.0)
            totals[2] += failed.get(name, 0)
        out[f"{layer}.calls"], out[f"{layer}.self_s"], out[f"{layer}.failed"] = totals
        out[f"{layer}.self_share"] = totals[1] / timed_s if timed_s else 0.0
        attributed += totals[1]
    out.update(trace["counters"])
    out["divisors.potential.hit_ratio"] = \
        1 - potential_solves / potential_calls if potential_calls else 0.0
    out["trace.unattributed_share"] = 1 - attributed / timed_s if timed_s else 0.0
    return out


def write_spans(trace: dict, path) -> None:
    """Write one JSON array per span: name, start, end, parent, op, ok."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in trace["spans"]:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


SPAN_MARKER = "@@perfbench-trace@@"


def emit(trace: dict, stream=sys.stderr) -> None:
    """Hand a child's trace to its parent on one marked line."""
    stream.write(SPAN_MARKER + json.dumps(trace, separators=(",", ":")) + "\n")
    stream.flush()


def collect(text: str) -> dict | None:
    """The trace a child emitted on its stderr, if any."""
    for line in text.splitlines():
        if line.startswith(SPAN_MARKER):
            return json.loads(line[len(SPAN_MARKER):])
    return None
