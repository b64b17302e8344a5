#!/usr/bin/env python3
"""spangraph benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sbm --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics of a separate traced run and writes its spans
to ``.perfbench/out/``.  Metric names and units come from BENCHMARK.json;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md in this directory documents the
workloads and metrics.  Exit code 0 means a result was printed; 1 means a
premise failed (named on stderr); 2 means the package or BENCHMARK.json
could not be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
BLAS_THREAD_CAP = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # BLAS reads its thread count when numpy loads, so pin it first.
    threads = min(nproc(), BLAS_THREAD_CAP)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)

    src = ROOT / "src"
    if not (src / "spangraph" / "__init__.py").is_file():
        print(f"error: no spangraph package under {src}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import measure
    from hooks import BenchError, FallbackCounter
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    w = WORKLOADS[args.workload]
    env = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": nproc(), "blas_threads": threads, "commit": git_commit(),
    }
    print("# env " + json.dumps(env), flush=True)

    out_dir = ROOT / ".perfbench"
    (out_dir / "data").mkdir(parents=True, exist_ok=True)
    (out_dir / "out").mkdir(parents=True, exist_ok=True)
    checks = measure.Checks()
    if w.trains:
        run = measure.training_per_layer if args.trace else measure.training_end_to_end
    else:
        run = measure.sampling_per_layer if args.trace else measure.sampling_end_to_end
    try:
        with FallbackCounter() as fallbacks:
            metrics, detail = run(w, args.seed, args.seconds, out_dir / "data", checks)
    except BenchError as exc:
        print(f"error: {w.name}: {exc}", file=sys.stderr)
        return 1

    fail_ratio = checks.failures / max(checks.attempted, 1)
    if args.trace:
        metrics["sampler.fallbacks"] = (fallbacks.count, "")
        metrics["fail_ratio"] = (fail_ratio, "")
        wanted = declared["per_layer"]
    else:
        wanted = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"error: measured metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    for name, (value, note) in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    if not args.trace:
        for name, value in detail.items():
            print(f"# {name} = {value:.6g}")
        two, direct = metrics["sample_ms"][0], metrics["direct_ms"][0]
        print(f"# speedup of two-step over direct: {direct / two:.3f}x "
              f"(direct {direct:.4f} ms / two-step {two:.4f} ms); two-step takes "
              f"{two / direct:.3f} of the direct time")
        print(f"# sampler fallbacks = {fallbacks.count}")
        print(f"# fail_ratio = {fail_ratio:.6g} ({checks.failures} of {checks.attempted})")
    for what, count in checks.failed.items():
        print(f"# FAILED {count}x: {what}")

    result = {
        "correct": checks.failures == 0,
        "attempted": checks.attempted,
        "failed": checks.failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    stem = out_dir / "out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    header = {"env": env, **result}
    if args.trace:
        detail.dump(stem.with_suffix(".jsonl"), header)
    else:
        header["unbounded"] = detail
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
