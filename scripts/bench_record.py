#!/usr/bin/env python3
"""Record the benchmark's metrics and machine-independent counts as JSON.

One record, committed as BENCH_<n>.json, holds the end-to-end metrics of
the benchmark, the call counts of traced fixed-task runs and two size
ladders.

Usage, from anywhere, with the test dependencies (pytest, hypothesis)
installed, since the ladders are drawn by ``tests/conftest.py``:

    python scripts/bench_record.py --out BENCH_<n>.json
    python scripts/bench_record.py --quick --out bench.json
    python scripts/bench_record.py --compare OLD.json NEW.json

The record holds the commit it ran on, whether the work tree was dirty
and the Python version, then two sections:

``counts`` do not depend on the machine:
  - ``calls``: every ``*.calls`` counter of ``perfbench/worker.py --seed 1
    --trace --tasks N`` per workload (N = 72 for tree_pipeline, 144 for
    grid_potential, 37 for tropical_hull). The tracer wraps each layer's
    checked entries only, so an unchecked inner call is not counted.
  - ``grids``: for the k x k grid ``conftest.random_grid(random.Random(k),
    k)``, k = 10, 15, 20, one ``mg_resistance`` solve between a point drawn
    by a fresh ``random.Random(k)`` and the last vertex q: the order of its
    matrix, its fill (the entries of the rows after elimination, right-hand
    side included) and the decimal digits of its determinant, read by
    wrapping ``graphs._bareiss``; then the number of ``dv_dhar_trace``
    rounds at q on a divisor of one chip at each of genus points drawn by
    the same generator.
  - ``covers``: for ``conftest.random_cover(random.Random(t), t, 3)``,
    t = 10, 20, 40, the number of generators, criticals and skeleton nodes.

``indicative`` holds times and rates of this machine, which no gate
should read: per workload the end-to-end metrics of ``perfbench/run.py
--workload all --seed 1 --seconds 20 --trace 0``, and the seconds that
``tt_is_tree``, ``tt_is_dominant`` and ``tt_harmonize`` take, in that
order, on a fresh system of each cover.

``--quick`` records only the k = 10 grid and the t = 10 cover and starts
no benchmark process. ``--compare A B`` prints every count present in
both records that is higher in B, and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import random_cover, random_grid, random_point  # noqa: E402
from tropkit import (  # noqa: E402
    Divisor,
    LinearSystem,
    dv_dhar_trace,
    graphs,
    mg_resistance,
    tt_critical,
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_skeleton,
)

TRACED_TASKS = {"tree_pipeline": 72, "grid_potential": 144, "tropical_hull": 37}
GRIDS, COVERS = (10, 15, 20), (10, 20, 40)


def _run(*args: str) -> str:
    """stdout of a benchmark script run with the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, text=True,
                          capture_output=True, check=True)
    return done.stdout


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def end_to_end() -> dict:
    """Per workload, the metric values of one run.py run over all of them."""
    last = json.loads(_run("perfbench/run.py", "--workload", "all", "--seed", "1",
                           "--seconds", "20", "--trace", "0").splitlines()[-1])
    out: dict = {}
    for key, entry in last["metrics"].items():
        workload, metric = key.split(".", 1)
        out.setdefault(workload, {})[metric] = entry["value"]
    return out


def traced_calls(workload: str, tasks: int) -> dict:
    result = json.loads(_run("perfbench/worker.py", "--workload", workload, "--seed", "1",
                             "--trace", "--tasks", str(tasks)).splitlines()[-1])
    return {k: v for k, v in sorted(result["layers"].items()) if k.endswith(".calls")}


def grid_rung(k: int) -> dict:
    G = random_grid(random.Random(k), k)
    rng = random.Random(k)
    q = G.vertex_point(G.vertices[-1])
    solves = []
    bareiss = graphs._bareiss

    def wrapped(rows):
        x, d = bareiss(rows)
        solves.append({"order": len(rows), "fill": sum(map(len, rows)),
                       "det_digits": len(str(abs(d)))})
        return x, d

    graphs._bareiss = wrapped
    try:
        mg_resistance(G, random_point(rng, G), q)
    finally:
        graphs._bareiss = bareiss
    if len(solves) != 1:
        raise AssertionError(f"expected one solve on the {k} x {k} grid, saw {len(solves)}")
    d = Divisor.of(G, [(random_point(rng, G), 1) for _ in range(G.genus)])
    return {**solves[0], "dhar_rounds": len(dv_dhar_trace(G, d, q)[1])}


def cover_rung(t: int) -> tuple[dict, dict]:
    """(counts, indicative seconds) of one random cover."""
    graph, generators, _, _ = random_cover(random.Random(t), t, 3)
    T = LinearSystem(graph, generators)
    counts = {"generators": len(T.generators), "criticals": len(tt_critical(T)),
              "skeleton_nodes": len(tt_skeleton(T).nodes)}
    fresh, seconds = LinearSystem(graph, generators), {}
    for check in (tt_is_tree, tt_is_dominant, tt_harmonize):
        start = time.perf_counter()
        check(fresh)
        seconds[check.__name__] = time.perf_counter() - start
    return counts, seconds


def record(quick: bool) -> dict:
    grids, covers = (GRIDS[:1], COVERS[:1]) if quick else (GRIDS, COVERS)
    counts: dict = {"grids": {str(k): grid_rung(k) for k in grids}, "covers": {}}
    indicative: dict = {"covers_s": {}}
    for t in covers:
        counts["covers"][str(t)], indicative["covers_s"][str(t)] = cover_rung(t)
    if not quick:
        counts["calls"] = {w: traced_calls(w, n) for w, n in TRACED_TASKS.items()}
        indicative["end_to_end"] = end_to_end()
    status = _git("status", "--porcelain")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(), "quick": quick,
            "counts": counts, "indicative": indicative}


def _flat(tree: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def compare(old: dict, new: dict) -> list[str]:
    """A line for every count in both records that is higher in new."""
    a, b = _flat(old["counts"]), _flat(new["counts"])
    return [f"{key}: {a[key]} -> {b[key]}" for key in sorted(a.keys() & b.keys())
            if b[key] > a[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="where to write the record")
    parser.add_argument("--quick", action="store_true",
                        help="the smallest grid and cover only, no benchmark process")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the counts of record B that are higher than in A")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(old, new)
        for line in lines:
            print(line)
        return 1 if lines else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    Path(args.out).write_text(json.dumps(record(args.quick), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
