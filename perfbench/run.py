"""tropkit benchmark: run one workload for one seed and report its metrics.

Usage, from the root of a tropkit checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is tree_pipeline, grid_potential, tropical_hull, cli_cold, or all.
Each workload runs closed-loop with one client in its own fresh worker
process (``worker.py``) against the sources under ``src/``.

--trace 0 reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_p90_ms, setup_s (median of several fresh set-ups), peak_rss_mb and
ok_ratio (1 - fail_ratio, where fail_ratio counts 'undecided' verdicts
with the failed ops; the result line's ``failed`` counts only ops that
raised or failed an output check).  Times are scaled to a nominal host
speed (``hostspeed.py``); the report prints the figures as measured
beside them.  --trace 1 runs the workload untraced for half
the budget (at least TRACE_MIN_OPS ops), replays the same tasks with span
wrappers installed, and reports the per-layer metrics of
``tracing.per_layer_metrics``.  The report lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from hostspeed import NOMINAL_START_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree_pipeline", "grid_potential", "tropical_hull", "cli_cold")
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
REQUIRED = ("src/tropkit/__init__.py", "tests/fixtures/banana.json",
            "tests/fixtures/c6.json", "tests/fixtures/tp3.json")
SETUP_PROBES = 9
MIN_OPS = 100           # so that at least ten samples lie beyond p90
TRACE_MIN_OPS = 50      # more than one cli_cold round: every subcommand runs
WORKLOAD_DEADLINE_S = 170


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def _spawn(self, cmd: list[str], until_ready: bool) -> tuple[float, str]:
        """Run cmd to completion; (seconds to 'ready' or to exit, stdout)."""
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                first = proc.stdout.readline() if until_ready else ""
                elapsed = time.perf_counter() - start
                out, err = proc.communicate(timeout=self._remaining())
            except (subprocess.TimeoutExpired, BenchError):
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"timed out: {' '.join(cmd)}") from None
        if not until_ready:
            elapsed = time.perf_counter() - start
        if proc.returncode != 0 or (until_ready and first.strip() != "ready"):
            raise BenchError(f"failed ({proc.returncode}): {' '.join(cmd)}\n{err[-3000:]}")
        return elapsed, out

    def worker(self, name: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(self.seed), *extra]
        _, out = self._spawn(cmd, until_ready=True)
        return json.loads(out.splitlines()[-1])

    def setup_s(self, name: str) -> tuple[float, float]:
        """Median of fresh set-ups after one unmeasured warm-up, each scaled
        by the start-up of a bare ``python -c pass`` timed next to it
        (hostspeed.py): process start-up drifts with the host.

        In-process workloads: worker start through import and input
        construction.  cli_cold: a bare ``python -c "import tropkit"``.
        Returns the scaled median and the median as measured.
        """
        if name == "cli_cold":
            cmd, until_ready = [sys.executable, "-c", "import tropkit"], False
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--seed", str(self.seed), "--setup-only"]
            until_ready = True
        self._spawn(cmd, until_ready)
        scaled, measured = [], []
        for _ in range(SETUP_PROBES):
            seconds = self._spawn(cmd, until_ready)[0]
            bare = self._spawn([sys.executable, "-c", "pass"], False)[0]
            scaled.append(seconds * NOMINAL_START_S / bare)
            measured.append(seconds)
        return statistics.median(scaled), statistics.median(measured)


def end_to_end(result: dict, setup: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, at nominal host speed unless not scaled."""
    latency = result["scaled_latency_s" if scaled else "latency_s"]
    latency_ms = [s * 1000 for s in latency]
    completed = result["attempted"] - result["exceptions"]
    return {
        "ops_per_s": completed / sum(latency),
        "op_p50_ms": statistics.median(latency_ms),
        "op_p90_ms": statistics.quantiles(latency_ms, n=10)[8],
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_ratio": 1 - result["not_ok"] / result["attempted"],
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["scaled_s"] / plain["scaled_s"]
    walls: dict[str, list[float]] = {}
    if plain["workload"] == "cli_cold":
        for kind, seconds in zip(plain["kinds"], plain["scaled_latency_s"]):
            walls.setdefault(kind, []).append(seconds)
    for sub in tracing.CLI_SUBCOMMANDS:
        layers[f"cli.{sub}.wall_s"] = statistics.median(walls[sub]) if sub in walls else 0.0
    return layers


def measure(name: str, args) -> dict:
    runner = Runner(args.seed, time.monotonic() + WORKLOAD_DEADLINE_S)
    if args.trace:
        plain = runner.worker(name, "--seconds", str(args.seconds / 2),
                              "--min-ops", str(TRACE_MIN_OPS))
        traced = runner.worker(name, "--tasks", str(plain["tasks"]), "--trace")
        phases = [plain, traced]
        values = per_layer(plain, traced)
        raw = None
        units = [(m, u) for m, u, _ in tracing.per_layer_metrics()]
    else:
        setup, setup_measured = runner.setup_s(name)
        main = runner.worker(name, "--seconds", str(args.seconds),
                             "--min-ops", str(MIN_OPS))
        phases = [main]
        values = end_to_end(main, setup)
        raw = end_to_end(main, setup_measured, scaled=False)
        units = END_TO_END
    return {
        "name": name,
        "phases": phases,
        "correct": all(p["exceptions"] == 0 and p["check_failures"] == 0 for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units},
        "raw": raw,
    }


def report(outcome: dict, trace: bool) -> None:
    """Human-readable lines: metrics, fail ratio and input properties."""
    last = outcome["phases"][-1]
    kinds: dict[str, int] = {}
    for kind in last["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + 1
    name = outcome["name"]
    print(f"== {name} seed {last['seed']} trace {int(trace)}: {last['attempted']} ops, "
          f"{last['tasks']} tasks, {last['rounds']} rounds, "
          f"{last['timed_s']:.3f} timed s, {last['wall_s']:.3f} wall s")
    raw = outcome["raw"] or {}
    for metric, entry in outcome["metrics"].items():
        if trace and metric.count(".") > 1 and not metric.startswith("trace."):
            continue  # per-function metrics are in the result line
        as_measured = f"   (as measured {raw[metric]:.6g})" if metric in raw else ""
        print(f"  {metric:36s} {entry['value']:14.6g} {entry['unit']}{as_measured}")
    factors = [f for p in outcome["phases"] for f in p["host_factors"]]
    if factors:
        print(f"  {'host_speed_factor':36s} {statistics.median(factors):14.6g} ratio "
              f"(range {min(factors):.3g}-{max(factors):.3g}; op times are scaled by it)")
    attempted = outcome["attempted"]
    not_ok = sum(p["not_ok"] for p in outcome["phases"])
    print(f"  {'fail_ratio':36s} {not_ok / attempted:14.6g} ratio "
          f"({not_ok} not ok of {attempted}: "
          + ", ".join(f"{sum(p[k] for p in outcome['phases'])} {k}"
                      for k in ("undecided", "check_failures", "exceptions"))
          + f"; {outcome['failed']} failed in the result line)")
    print(f"  {'op_samples':36s} {last['attempted']:14d} count")
    print(f"  {'reuse_share':36s} {last['reused'] / last['attempted']:14.6g} ratio "
          "(ops whose graph, system or family an earlier op already used)")
    print("  ops_by_kind " + json.dumps(dict(sorted(kinds.items()))))
    print("  inputs " + json.dumps(last["properties"], sort_keys=True))
    print("  outcomes " + json.dumps(dict(sorted(last["counts"].items()))))
    for p in outcome["phases"]:
        for note in p["notes"]:
            print(f"  FAILED {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tropkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a tropkit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = [measure(name, args) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        report(outcome, bool(args.trace))
        print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if len(outcomes) > 1:
        print(json.dumps({
            "correct": all(o["correct"] for o in outcomes),
            "attempted": sum(o["attempted"] for o in outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "metrics": {f"{o['name']}.{m}": v
                        for o in outcomes for m, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
