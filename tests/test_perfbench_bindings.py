"""The benchmark's traced smoke samples still run on this package.

perfbench wraps package functions by name (``spans.install``) and calls
others from its workloads, so deleting or renaming one of those names breaks
the benchmark.  This test runs each traced smoke sample the way
``perfbench/run.py`` does and compares it with the frozen references; it
reads perfbench and writes nothing there.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
REFS = os.path.join(ROOT, "perfbench", "refs", "smoke.json")


@pytest.mark.parametrize("workload", ["gate", "tables", "reverse"])
def test_traced_smoke_sample_matches_reference(workload):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, WORKER, "trace", workload, "smoke", "7"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(REFS) as fh:
        ref = json.load(fh)[workload]
    assert set(out["verdicts"]) == set(ref["verdicts"])
    assert all(out["verdicts"].values()), out["verdicts"]
    assert out["digests"] == ref["digests"]
