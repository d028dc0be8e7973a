"""The benchmark's samples still run on this package and build what it froze.

perfbench wraps package functions by name (``spans.install``) and calls
others from its workloads, so deleting or renaming one of those names breaks
the benchmark.  And a sample whose verdicts or digests differ from the frozen
references counts as a failed sample there.  These tests run each traced
smoke sample and each untraced full-size sample the way ``perfbench/run.py``
does and compare them with the frozen references; they read perfbench and
write nothing there.
"""

import json
import os
import subprocess
import sys
import types

import pytest

from faberfields import faberkernel
from faberfields.inversion import reverse_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
REFS = os.path.join(ROOT, "perfbench", "refs")
WORKLOADS = ["gate", "tables", "reverse"]


def assert_sample_matches_reference(mode, workload, size):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, WORKER, mode, workload, size, "7"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(REFS, f"{size}.json")) as fh:
        ref = json.load(fh)[workload]
    assert set(out["verdicts"]) == set(ref["verdicts"])
    assert all(out["verdicts"].values()), out["verdicts"]
    assert out["digests"] == ref["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_sample_matches_reference(workload):
    assert_sample_matches_reference("trace", workload, "smoke")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_size_sample_matches_reference(workload):
    assert_sample_matches_reference("run", workload, "full")


def load_spans() -> types.ModuleType:
    """perfbench/spans.py, executed from its source, so nothing is written
    under perfbench/ and no name of the package is rebound."""
    path = os.path.join(ROOT, "perfbench", "spans.py")
    module = types.ModuleType("perfbench_spans")
    module.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def test_cache_probe_reads_every_cache(cold_caches):
    # The traced benchmark reads cache_info() of _seed, _r_series,
    # _s_series, inversion._reversion and the builders by name; a moved or
    # renamed cache fails here, not only in a traced run.
    spans = load_spans()
    probe = spans.CacheProbe()
    reverse_table(-2, 2, 5)
    faberkernel.faber_polys(4)
    out = probe.read()
    builders = {f"faberkernel.{b}.{k}" for b in spans.BUILDERS for k in ("hits", "misses")}
    assert set(out) == builders | {
        "polyring.mono_cache_entries", "polyring.interned_monomials",
        "faberkernel.seed_orders", "faberkernel.r_orders", "faberkernel.s_orders",
        "inversion.reversion_orders"}
    assert out["inversion.reversion_orders"] == 1
    assert out["faberkernel.faber_polys.misses"] == 1
    assert out["faberkernel.r_orders"] == 1
    assert out["polyring.mono_cache_entries"] == out["polyring.interned_monomials"] == 0
