"""The cli_cold workload: every CLI subcommand as a fresh subprocess.

``cli_expected.json`` lists each invocation with the exit code and the
SHA-256 of the stdout that the library printed when the benchmark was
defined; any changed byte fails the op.  The seed only permutes the
order within each round, and a run times whole rounds.  Traced runs
start the children through ``launcher.py``, which installs the span
wrappers in the child and hands its spans back on stderr.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


class CliCold:
    runs_in_children = True

    def __init__(self, seed: int, root: Path, traced: bool):
        self.seed = seed
        self.root = root
        self.traced = traced
        with open(HERE / "cli_expected.json", encoding="utf-8") as fh:
            self.commands = json.load(fh)
        self.prefix = [sys.executable, str(HERE / "launcher.py")] if traced \
            else [sys.executable, "-m", "tropkit.cli"]

    def round(self, index: int) -> list:
        order = list(self.commands)
        random.Random(f"cli_cold:{self.seed}:round{index}").shuffle(order)
        return [lambda rec, c=c: self._invoke(rec, c) for c in order]

    def _invoke(self, rec, command: dict) -> None:
        args = command["args"]
        kind = ".".join(args[:2])
        proc = rec.op(kind, None, subprocess.run, self.prefix + args,
                      cwd=self.root, capture_output=True, timeout=CHILD_TIMEOUT_S)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        rec.check(proc.returncode == command["exit"] and digest == command["sha256"],
                  f"{' '.join(args)}: exit {proc.returncode} digest {digest[:12]}, "
                  f"expected exit {command['exit']} digest {command['sha256'][:12]}")
        if self.traced:
            trace = tracing.collect(proc.stderr.decode("utf-8", "replace"))
            rec.check(trace is not None, f"{' '.join(args)}: the launcher sent no spans")
            if trace is not None:
                rec.child_traces.append((rec.last, trace))

    def properties(self) -> dict:
        subcommands = sorted({".".join(c["args"][:2]) for c in self.commands})
        exits = [c["exit"] for c in self.commands]
        return {
            "invocations_per_round": len(self.commands),
            "subcommands": len(subcommands),
            "expected_exit_counts": {str(code): exits.count(code) for code in sorted(set(exits))},
            "children_traced": self.traced,
        }
