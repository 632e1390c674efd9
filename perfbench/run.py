"""revfuse benchmark: step time, memory and inverse drift, with a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
time, then the closed loop for ``--seconds``, then a separate
``tracemalloc`` pass for heap peaks.  ``--trace 1`` prints the per-layer
metrics: an untraced loop for ``--seconds``, then a traced pass over a fresh
set-up with the same seed, whose losses must be bit-identical to the
untraced ones.  Every metric is printed with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

# Pinned in this process before numpy is imported, so BLAS uses one thread
# whatever the host's defaults are.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    pinned = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, os.cpu_count() {os.cpu_count()}, "
            f"BLAS threads {BLAS_THREADS} ({pinned})")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "revfuse" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/revfuse and {SPEC.name}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import measure
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    w = W.WORKLOADS[args.workload]
    print(f"# revfuse benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# environment: {environment(np)}")

    checks = W.Checks()
    run = measure.per_layer if args.trace else measure.end_to_end
    try:
        metrics = run(w, args.seed, args.seconds, checks)
    except (ValueError, KeyError, W.RevfuseError, FloatingPointError) as e:
        # a set-up that raised, or a mode whose every op raised, leaves
        # metrics without a value
        print(f"error: cannot measure {w.name}: {type(e).__name__}: {e}",
              file=sys.stderr)
        for reason in checks.reasons:
            print(f"  {reason}", file=sys.stderr)
        return 1

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: measured metrics differ from {SPEC.name}: "
              f"missing {sorted(set(names) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(names))}", file=sys.stderr)
        return 2
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']:48s} {value!r:>24} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"# attempted {checks.attempted}, failed {checks.failed}")
    for reason in checks.reasons:
        print(f"# FAILED: {reason}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
