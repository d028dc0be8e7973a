"""Cold-process benchmark of faberfields.

    python3 perfbench/run.py --workload gate|tables|reverse|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Every sample is a fresh interpreter
(``perfbench/worker.py``) that imports ``faberfields`` from ``src``, so the
package's ``lru_cache`` builders and monomial caches start empty each time.
Samples run one at a time, each with a single worker process, until the next
one would end past ``--seconds``.

End-to-end metrics (``--trace 0``), medians over the samples of one run:

* ``wall_s``: seconds from the first call into the package to the verified
  result (the dual-route verdicts computed inside the workload), at the
  reference host speed (below).  Hashing the built objects against the
  references happens after the clock stops.
* ``setup_s``: seconds from spawning the interpreter to the end of
  ``import faberfields`` (with its CLI module), over several import-only
  spawns and every sample, at the reference host speed.
* ``peak_rss_mb``: ``ru_maxrss`` of the worker process.
* ``verified_frac``: verified samples / attempted samples, i.e.
  1 - ``failed_frac``.  A sample fails if it crashes, times out, exits
  nonzero, reports a failed cell or built something that differs from the
  frozen reference (``perfbench/refs``).

With ``--trace 1`` each untraced sample is followed by a traced one, which
wraps the public functions of every layer (``perfbench/spans.py``) and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus the
untraced median ``wall_s``.

Reference host speed: on a shared host the speed of the same exact
arithmetic drifts by up to a factor of two within an hour, far more than the
package changes the benchmark is meant to see.  So a fixed exact-arithmetic
kernel that does not use the package (``perfbench/calibrate.py``) runs in a
fresh interpreter four times after the set-up probes and once after every
sample.  Each sample's time is scaled by ``CAL_REF_S`` / (the mean of the
kernel times just before and just after it), so a change of host speed
within a run cancels sample by sample; set-up times are scaled by
``CAL_REF_S`` / (the median of the run's kernel times).  The measured
seconds and the kernel's times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every sample was verified; it is 2, with no result, when the
checkout has no ``src/faberfields``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "faberfields")
WORKER = os.path.join(HERE, "worker.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
REFS = os.path.join(HERE, "refs")
WORKLOADS = ("gate", "tables", "reverse")
SETUP_PROBES = 6
START_CALIBRATIONS = 4  # before the first sample; one more follows each sample
RUN_LIMIT_S = 170  # every run must end within 180 s
# About the median time of the calibration kernel on the 2-core 2.0 GHz Xeon
# virtual machine the benchmark was developed on.
CAL_REF_S = 0.5

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "verified_frac": "ratio"}


def _spawn(args, deadline):
    """Run one worker; returns (spawn time, return code, parsed last line, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return t_spawn, None, None, "timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        out = None
    return t_spawn, proc.returncode, out, proc.stderr.strip()


def _problems(rc, out, err, ref) -> list[str]:
    if rc is None:
        return ["timed out"]
    if rc != 0 or out is None:
        return [f"exit code {rc}: {err[-500:]}"]
    bad = [k for k, ok in out["verdicts"].items() if not ok]
    missing = sorted(set(ref["verdicts"]) - set(out["verdicts"]))
    differ = sorted(k for k in set(ref["digests"]) | set(out["digests"])
                    if ref["digests"].get(k) != out["digests"].get(k))
    return ([f"failed verdict {k}" for k in bad] + [f"missing verdict {k}" for k in missing]
            + [f"differs from reference: {k}" for k in differ])


class Run:
    """The samples of one workload within one run."""

    def __init__(self, workload, size, seed, ref, deadline):
        self.workload, self.size, self.seed = workload, size, seed
        self.ref, self.deadline = ref, deadline
        self.setups: list[float] = []  # measured set-up seconds
        self.cals: list[float] = []  # calibration kernel times
        self.samples: list[dict] = []  # completed untraced samples
        self.traced: list[dict] = []
        self.attempted = self.failed = 0

    def calibrate(self):
        proc = subprocess.run([sys.executable, CALIBRATE], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise SystemExit(f"calibration failed ({proc.returncode}): {proc.stderr}")
        self.cals.append(json.loads(proc.stdout)["cal_s"])

    def scale(self) -> float:
        """Reference speed over the run's median measured speed."""
        return CAL_REF_S / statistics.median(self.cals)

    def probe(self) -> float:
        """Measured set-up seconds of one import-only spawn."""
        t_spawn, rc, out, err = _spawn(["probe"], self.deadline)
        if out is None:
            raise SystemExit(f"import-only worker failed ({rc}): {err}")
        return out["setup_end"] - t_spawn

    def sample(self, traced=False):
        mode = "trace" if traced else "run"
        before = self.cals[-1]
        t_spawn, rc, out, err = _spawn(
            [mode, self.workload, self.size, str(self.seed)], self.deadline)
        self.calibrate()
        self.attempted += 1
        problems = _problems(rc, out, err, self.ref)
        if problems:
            self.failed += 1
            print(f"{self.workload}: sample {self.attempted} failed: "
                  + "; ".join(problems[:5]), file=sys.stderr)
        if out is None:
            return
        out["scale"] = 2 * CAL_REF_S / (before + self.cals[-1])
        (self.traced if traced else self.samples).append(out)
        self.setups.append(out["setup_end"] - t_spawn)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, size, seed, seconds, trace, ref):
    start = time.monotonic()
    run = Run(workload, size, seed, ref, start + RUN_LIMIT_S)
    run.probe()  # compiles bytecode on a fresh checkout
    run.setups.extend(run.probe() for _ in range(SETUP_PROBES))
    for _ in range(START_CALIBRATIONS):
        run.calibrate()
    t0 = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        run.sample()
        if trace:
            run.sample(traced=True)
        durations.append(time.monotonic() - t)
        now = time.monotonic()
        step = statistics.median(durations)
        if now - t0 + step > seconds or now + step > run.deadline:
            break
    return run


def _summary(label, vals, unit):
    q1, q3 = _quartiles(vals)
    med = statistics.median(vals)
    print(f"{label}: median {med:.6g} {unit}, "
          f"q1 {q1:.6g} {unit}, q3 {q3:.6g} {unit}, n={len(vals)}")
    return med


def end_to_end(run):
    scale = run.scale()
    values = {
        "wall_s": [s["wall_s"] * s["scale"] for s in run.samples],
        "setup_s": [s * scale for s in run.setups],
        "peak_rss_mb": [s["peak_rss_mb"] for s in run.samples],
    }
    metrics = {}
    for name, vals in values.items():
        med = _summary(f"{run.workload} {name}", vals, UNITS[name])
        metrics[name] = {"value": med, "unit": UNITS[name]}
    _summary(f"{run.workload} measured wall_s", [s["wall_s"] for s in run.samples], "s")
    _summary(f"{run.workload} calibration (reference {CAL_REF_S} s)", run.cals, "s")
    failed_frac = run.failed / run.attempted
    print(f"{run.workload} failed_frac: {failed_frac:.6g} "
          f"({run.failed} failed of {run.attempted} attempted workload samples)")
    metrics["verified_frac"] = {"value": 1 - failed_frac, "unit": UNITS["verified_frac"]}
    return metrics


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(run):
    metrics = {}
    for name in run.traced[0]["layers"]:
        vals = [s["layers"][name] for s in run.traced]
        unit = _layer_unit(name)
        # Counts repeat exactly across traced samples; keep them whole.
        value = statistics.median_low(vals) if unit == "count" else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(s["wall_s"] * s["scale"] for s in run.traced)
                - statistics.median(s["wall_s"] * s["scale"] for s in run.samples))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"{run.workload} {name}: {m['value']:.6g} {m['unit']}")
    return metrics


def provenance(args):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": args.seed,
        "seed_note": "gate: the CLI flags fix the work; the seed does not affect it",
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: gate at order 2, tables n <= 4, reverse N = 5")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no faberfields package under {ROOT}/src", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    with open(os.path.join(REFS, f"{size}.json")) as fh:
        refs = json.load(fh)

    print("record: " + json.dumps(provenance(args), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = measure(name, size, args.seed, args.seconds, args.trace, refs[name])
        attempted += run.attempted
        failed += run.failed
        if not run.samples or (args.trace and not run.traced):
            print(f"error: no {name} sample completed", file=sys.stderr)
            return 1
        found = per_layer(run) if args.trace else end_to_end(run)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
