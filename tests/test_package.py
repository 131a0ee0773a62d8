"""The package namespace: which layers an import loads, and every export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import sys
import tropkit
loaded = sorted(m for m in sys.modules if m.startswith("tropkit"))
assert loaded == ["tropkit", "tropkit.errors", "tropkit.rational"], loaded
tropkit.tp_project
loaded = [m for m in ("graphs", "divisors", "trees", "workspace")
          if f"tropkit.{m}" in sys.modules]
assert not loaded, loaded
assert "dataclasses" not in sys.modules
for name in tropkit.__all__:
    getattr(tropkit, name)
assert set(tropkit.__all__) <= set(dir(tropkit))
names = {}
exec("from tropkit import *", names)
assert set(tropkit.__all__) <= set(names)
assert tropkit.graphs.MetricGraph is tropkit.MetricGraph
for layer, exported in tropkit._LAZY.items():
    assert getattr(tropkit, layer).__all__ == exported, layer
    names = {}
    exec(f"from tropkit.{layer} import *", names)
    assert set(names) - {"__builtins__"} == set(exported), layer
assert len(tropkit.__all__) == len(set(tropkit.__all__))
print("ok")
"""


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run python in a fresh interpreter, as this test session has loaded every
    layer, and under ``-S``, so that no site hook adds modules of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", *argv], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out


def test_layers_load_on_first_use():
    assert _fresh("-c", PROBE).stdout.strip() == "ok"


def test_the_one_rational_parser_is_exported():
    import tropkit
    from tropkit import rational

    assert tropkit.as_fraction is rational.as_fraction
    assert tropkit.rational_str is rational.rational_str


# One run of the command line; prints its exit code, the tropkit modules it
# loaded, and whether anything imported dataclasses.
CLI_PROBE = """
import contextlib, io, json, sys
from tropkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tropkit")),
                  "dataclasses" in sys.modules]))
"""

BASE = ["tropkit", "tropkit.cli", "tropkit.errors", "tropkit.rational", "tropkit.workspace"]

GROUPS = [
    (["tp", "project", "--space", "tests/fixtures/tp3.json", "--generators", "rect",
      "--point", "O"], ["tropical"]),
    (["graph", "validate", "tests/fixtures/c6.json"], ["graphs"]),
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "D1",
      "--divisor", "D2"], ["graphs", "divisors"]),
    (["sys", "member", "--graph", "tests/fixtures/c6.json", "--system", "complete",
      "--divisor", "D0"], ["graphs", "divisors"]),
    (["tree", "check", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"],
     ["graphs", "divisors", "trees"]),
]


@pytest.mark.parametrize("argv, layers", GROUPS, ids=[" ".join(a[:2]) for a, _ in GROUPS])
def test_each_command_group_loads_only_its_layers(argv, layers):
    code, loaded, dataclasses = json.loads(_fresh("-c", CLI_PROBE, *argv).stdout)
    assert code == 0
    assert loaded == sorted(BASE + [f"tropkit.{layer}" for layer in layers])
    assert not dataclasses
