"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run|trace <workload> full|smoke <seed>

Imports ``faberfields`` from the checkout's ``src`` (asserting that this is
the copy imported), runs the workload once and prints one JSON line: the
monotonic time at which the import finished, the workload's wall time from
the first call into the package to its last result, the process's peak RSS,
the verdicts computed inside the workload and the digests of what it built.
``trace`` also installs the per-layer wrappers and reports their metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import faberfields  # noqa: E402
import faberfields.cli  # noqa: E402

SETUP_END = time.monotonic()


def main(argv):
    import json
    import resource

    pkg = os.path.realpath(os.path.dirname(faberfields.__file__))
    if pkg != os.path.realpath(os.path.join(SRC, "faberfields")):
        raise SystemExit(f"faberfields imported from {pkg}, not from {SRC}")
    result = {"setup_end": SETUP_END}
    if argv[0] != "probe":
        mode, workload, size, seed = argv[0], argv[1], argv[2], int(argv[3])
        import workloads
        tracer = probe = None
        if mode == "trace":
            import spans
            probe = spans.CacheProbe()
            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        built, verdicts = workloads.run(faberfields, workload, size, seed)
        wall_s = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_s"] = wall_s
        if tracer is not None:
            self_total = tracer.self_total()
            if self_total > wall_s:
                raise SystemExit(f"span self times sum to {self_total} s, "
                                 f"more than the {wall_s} s run")
            result["layers"] = spans.layer_metrics(tracer, probe)
        result["verdicts"] = verdicts
        result["digests"] = workloads.digests(built)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
