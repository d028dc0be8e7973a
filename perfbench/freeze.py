"""Freeze the reference outputs of every workload.

    python3 perfbench/freeze.py

Runs each workload at both sizes with two different seeds, requires every
verdict computed inside the workload to pass and both seeds to build
identical objects, and writes ``perfbench/refs/full.json`` and
``perfbench/refs/smoke.json``.  Run it once, on a commit whose dual-route
suites pass; later runs compare against these files.
"""

import json
import os
import sys
import time

import run

SEEDS = (0, 1)


def freeze(size):
    refs = {}
    for workload in run.WORKLOADS:
        outs = []
        for seed in SEEDS:
            _, rc, out, err = run._spawn(["run", workload, size, str(seed)],
                                      time.monotonic() + 600)
            if out is None:
                raise SystemExit(f"{workload} ({size}, seed {seed}) failed ({rc}): {err}")
            bad = [k for k, ok in out["verdicts"].items() if not ok]
            if bad:
                raise SystemExit(f"{workload} ({size}): failed verdicts {bad}")
            outs.append({"verdicts": out["verdicts"], "digests": out["digests"]})
        if outs[0] != outs[1]:
            raise SystemExit(f"{workload} ({size}): output depends on the seed")
        refs[workload] = outs[0]
    path = os.path.join(run.REFS, f"{size}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    for size in sys.argv[1:] or ("smoke", "full"):
        freeze(size)
