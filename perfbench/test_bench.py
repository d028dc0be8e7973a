"""Self-tests of the benchmark, at smoke sizes.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

TMP = os.path.join(run.HERE, ".tmp")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--seed", "7", "--seconds", "1",
                           "--smoke", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@pytest.fixture
def bench_copy():
    """A copy of ``BENCHMARK.json`` and ``perfbench/`` in a fresh directory,
    without the package."""
    os.makedirs(TMP, exist_ok=True)
    path = tempfile.mkdtemp(dir=TMP)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), path)
    shutil.copytree(run.HERE, os.path.join(path, "perfbench"),
                    ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
    yield path
    shutil.rmtree(path)


def test_every_end_to_end_metric_printed_with_unit():
    code, lines, err = _bench("--workload", "all", "--trace", "0")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for w in run.WORKLOADS:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0, (w, m)
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                           ("measured wall_s", "s")):
            assert any(l.startswith(f"{w} {name}: median ") and f" {unit}," in l
                       for l in lines), (w, name)
        assert f"{w} failed_frac: 0 (0 failed of " in "\n".join(lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_per_layer_metric_printed_with_unit(workload):
    code, lines, err = _bench("--workload", workload, "--trace", "1")
    assert code == 0, err
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m
        assert f"{workload} {m['name']}: " in "\n".join(lines), m


def test_corrupted_reference_fails(bench_copy):
    shutil.copytree(os.path.join(run.ROOT, "src"), os.path.join(bench_copy, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = os.path.join(bench_copy, "perfbench", "refs", "smoke.json")
    with open(ref_path) as fh:
        refs = json.load(fh)
    key = sorted(refs["tables"]["digests"])[0]
    refs["tables"]["digests"][key] = "0" * 64
    with open(ref_path, "w") as fh:
        json.dump(refs, fh)
    code, lines, err = _bench("--workload", "tables", cwd=bench_copy)
    assert code != 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["verified_frac"]["value"] < 1
    assert any(l.startswith("tables failed_frac: ") and not l.startswith(
        "tables failed_frac: 0 ") for l in lines)
    assert f"differs from reference: {key}" in err


def _traced(workload):
    _, rc, out, err = run._spawn(["trace", workload, "smoke", "7"],
                                 run.time.monotonic() + 170)
    assert rc == 0, err
    return out["layers"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert "polyring.term_pairs" in counts and "polyring.mono_cache_entries" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["polyring.term_pairs"] > 0


def test_one_wrapper_per_function_in_every_namespace():
    code = """
import sys
sys.path.insert(0, "src")
sys.path.insert(0, "perfbench")
import faberfields, faberfields.cli
from faberfields import cli, faberkernel, inversion, kirillov, series, numeric_oracle
originals = {
    "laurent_pow": series.laurent_pow, "laurent_recip": series.laurent_recip,
    "bi_log_in_u": series.bi_log_in_u, "ps_reversion": series.ps_reversion,
    "_elimination_family": faberkernel._elimination_family,
    "a_field_direct": faberkernel.a_field_direct,
    "lambda_direct": faberkernel.lambda_direct,
    "contour_check": numeric_oracle.contour_check,
    "numeric_identity_sweep": numeric_oracle.numeric_identity_sweep,
}
import spans
spans.install(spans.Tracer())
pairs = [
    (faberkernel, "laurent_pow"), (faberkernel, "laurent_recip"),
    (faberkernel, "bi_log_in_u"), (kirillov, "laurent_recip"),
    (inversion, "laurent_pow"), (inversion, "ps_reversion"),
    (kirillov, "_elimination_family"), (kirillov, "a_field_direct"),
    (kirillov, "lambda_direct"), (inversion, "a_field_direct"),
    (inversion, "lambda_direct"), (cli, "contour_check"),
    (cli, "numeric_identity_sweep"), (faberfields, "laurent_pow"),
]
for mod, name in pairs:
    got = getattr(mod, name)
    assert got is not originals[name], (mod.__name__, name)
    assert got is getattr(sys.modules[originals[name].__module__], name), name
assert faberfields.CoeffPoly.__mul__ is faberfields.CoeffPoly.__rmul__
try:
    spans.install(spans.Tracer())
except RuntimeError:
    pass
else:
    raise AssertionError("a second wrapper was installed")
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_exits_nonzero_without_the_package(bench_copy):
    code, lines, _ = _bench("--workload", "gate", cwd=bench_copy)
    assert code != 0
    assert not lines
