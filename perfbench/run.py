"""Benchmark of compol's gen-data, train and eval commands, end to end.

    python3 perfbench/run.py --workload train-lv64 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
installs span wrappers and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the machine it ran on,
goes to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# Pinned before numpy loads: BLAS single-threaded, gen-data workers <= 2.
PINS = {"COMPOL_THREADS": str(min(2, NPROC)), "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-lv64", "gen-bz", "eval-gs64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        return "unknown"


def machine(args, attempted: int, failed: int) -> dict:
    import numpy as np

    return {"cpu_count": os.cpu_count(), "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version(), "platform": platform.platform(),
            "thread_pins": PINS, "workload": args.workload, "seed": args.seed,
            "run_seconds": args.seconds, "trace": args.trace,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "compol")):
        print(f"error: no compol source under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update(PINS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import compol  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    import spans as S
    import workloads as W

    out_dir = os.path.join(ROOT, "perfbench-out")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(work, exist_ok=True)
    rec = S.Recorder(os.path.join(work, "worker-spans")) if args.trace else None
    run = W.Run(args.workload, args.seed, args.seconds, work, rec)
    try:
        W.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = import_s + statistics.median(run.setup_times)
    run.metrics = {"setup_s": (setup_s, "s"), **run.metrics}
    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    correct = bool(run.checks) and all(c["ok"] for c in run.checks) and failed < attempted
    metrics = run.layer_metrics if args.trace else run.metrics
    names = W.PER_LAYER if args.trace else W.END_TO_END
    missing = [n for n in names if n not in metrics]
    shown = {n: metrics[n] for n in names if n in metrics}
    record = {"machine": machine(args, attempted, failed), "correct": correct,
              "end_to_end": run.metrics, "per_layer": run.layer_metrics,
              "setup": {"import_s": import_s, "repeats_s": run.setup_times},
              "checks": run.checks, "commands": run.ops, **run.notes}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    if rec:
        rec.dump(os.path.join(out_dir, f"{tag}-spans.json"))

    print("machine " + json.dumps(record["machine"]))
    for c in run.checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for key, value in run.notes.items():
        print(f"{key} {json.dumps(value)}")
    if missing:  # no command of some kind succeeded: there is no figure to give
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
