"""The package namespace: which layers an import loads, and every export."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import tropkit
tropkit.tp_project
loaded = [m for m in ("graphs", "divisors", "trees", "workspace")
          if f"tropkit.{m}" in sys.modules]
assert not loaded, loaded
for name in tropkit.__all__:
    getattr(tropkit, name)
assert set(tropkit.__all__) <= set(dir(tropkit))
names = {}
exec("from tropkit import *", names)
assert set(tropkit.__all__) <= set(names)
assert tropkit.graphs.MetricGraph is tropkit.MetricGraph
for layer, exported in tropkit._LAZY.items():
    assert set(exported) == set(getattr(tropkit, layer).__all__), layer
assert len(tropkit.__all__) == len(set(tropkit.__all__))
print("ok")
"""


def test_graph_layers_load_on_first_use():
    """Run in a fresh interpreter: this test session has loaded every layer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
