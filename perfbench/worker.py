"""One workload in one fresh process; prints its raw results as JSON.

Usage (normally started by ``run.py``, with the library on PYTHONPATH):

    python perfbench/worker.py --workload NAME --seed N
        [--setup-only] [--seconds S --min-ops K | --tasks T] [--trace]

The worker builds the workload's inputs, prints ``ready``, then runs
tasks round after round.  With ``--seconds`` it stops at the end of the
round in which the timed operations have used that budget and at least
``--min-ops`` ops ran.  With ``--tasks`` it runs exactly that many
tasks, which replays an earlier run of the same seed.  The last stdout
line is one JSON object.  A traced run also writes its spans to
``.perfbench/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
from hostspeed import (HALF_WINDOW, NOMINAL_START_S, START_INTERVAL_S, HostSpeed,
                       start_seconds)

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
MAX_NOTES = 8


class TaskAborted(Exception):
    """An operation raised, so the rest of its task is skipped."""


class Recorder:
    """Times operations and tallies failures, reuse and input properties."""

    def __init__(self, tracer: tracing.Tracer | None, speed: HostSpeed):
        self.tracer = tracer
        self.speed = speed
        self.speed_at = 0.0
        self.latency: list[float] = []
        self.kinds: list[str] = []
        self.timed_s = 0.0
        self.failed: set[int] = set()
        self.exceptions = 0
        self.check_failures = 0
        self.undecided_ops: set[int] = set()
        self.notes: list[str] = []
        self.subjects: set = set()
        self.reused = 0
        self.tasks = 0
        self.last = -1
        self.counts: dict[str, int] = {}
        self.child_traces: list[tuple[int, dict]] = []

    def op(self, kind: str, subject, fn, *args, **kwargs):
        """Time one call.  ``subject`` names the graph, system or family
        it works on; a subject seen before counts as reuse."""
        if subject is not None:
            if subject in self.subjects:
                self.reused += 1
            else:
                self.subjects.add(subject)
        self._track_speed()
        if self.tracer is not None:
            self.tracer.op = len(self.latency)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._timed(kind, perf_counter() - start)
            self.exceptions += 1
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            raise TaskAborted from exc
        self._timed(kind, perf_counter() - start)
        return result

    def _timed(self, kind: str, seconds: float) -> None:
        if self.tracer is not None:
            self.tracer.op = -1
        self.latency.append(seconds)
        self.kinds.append(kind)
        self.timed_s += seconds
        self.last = len(self.latency) - 1

    def _fail(self, note: str) -> None:
        self.failed.add(self.last)
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def check(self, ok: bool, what: str) -> None:
        """An output check on the last op; a failure fails that op."""
        if not ok:
            self.check_failures += 1
            self._fail(what)

    def undecided(self) -> None:
        """The last op returned an 'undecided' verdict: the library's known
        limit, so not a failed op, but not an ok one either."""
        self.undecided_ops.add(self.last)

    def note_property(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _track_speed(self) -> None:
        """Time the host speed kernel when enough timed work has passed."""
        if not self.speed.samples:
            self.speed.sample(0, HALF_WINDOW)
        elif self.timed_s - self.speed_at >= self.speed.interval:
            self.speed.sample(len(self.latency))
        else:
            return
        self.speed_at = self.timed_s


def build(name: str, seed: int, traced: bool):
    if name == "cli_cold":
        import clicold
        return clicold.CliCold(seed, ROOT, traced)
    import inproc
    return inproc.WORKLOADS[name](seed, ROOT)


def run(workload, rec: Recorder, seconds: float | None, min_ops: int,
        tasks: int | None) -> int:
    """Run tasks until the budget or task count is reached; rounds done."""
    def enough() -> bool:
        if tasks is not None:
            return rec.tasks >= tasks
        return rec.timed_s >= seconds and len(rec.latency) >= min_ops

    rounds = 0
    while True:
        for task in workload.round(rounds):
            try:
                task(rec)
            except TaskAborted:
                pass
            rec.tasks += 1
        rounds += 1
        if enough():
            return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--tasks", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed, args.trace)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # the input pool is benchmark scaffolding: keep it out of the
    # collector's scans, which a library user's heap would not pay for
    gc.collect()
    gc.freeze()
    if (args.seconds is None) == (args.tasks is None):
        parser.error("give exactly one of --seconds and --tasks")

    tracer = None
    if args.trace and args.workload != "cli_cold":
        tracer = tracing.Tracer()
        tracer.install()
    # CLI children's start-up does not follow the arithmetic kernel, so
    # their times are scaled by a bare interpreter's start-up (hostspeed.py)
    in_children = getattr(workload, "runs_in_children", False)
    speed = HostSpeed(start_seconds, NOMINAL_START_S, START_INTERVAL_S) if in_children \
        else HostSpeed()
    rec = Recorder(tracer, speed)
    wall = perf_counter()
    rounds = run(workload, rec, args.seconds, args.min_ops, args.tasks)
    wall = perf_counter() - wall
    rec.speed.sample(len(rec.latency), HALF_WINDOW)
    scaled = rec.speed.scale(rec.latency)

    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "tasks": rec.tasks,
        "rounds": rounds,
        "timed_s": rec.timed_s,
        "scaled_s": sum(scaled),
        "wall_s": wall,
        "latency_s": rec.latency,
        "scaled_latency_s": scaled,
        "host_factors": rec.speed.factors(),
        "kinds": rec.kinds,
        "attempted": len(rec.latency),
        "failed": len(rec.failed),
        "exceptions": rec.exceptions,
        "check_failures": rec.check_failures,
        "undecided": len(rec.undecided_ops),
        "not_ok": len(rec.failed | rec.undecided_ops),
        "notes": rec.notes,
        "reused": rec.reused,
        "counts": rec.counts,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "properties": workload.properties(),
        "layers": None,
    }
    if args.trace:
        if tracer is not None:
            trace = tracer.export()
        else:
            trace = tracing.merge(rec.child_traces)
        result["layers"] = tracing.aggregate(trace, rec.timed_s)
        SPANS_DIR.mkdir(exist_ok=True)
        tracing.write_spans(trace, SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
