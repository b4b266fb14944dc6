"""sfem2d benchmark: one command per workload run.

    python3 bench/run.py --workload beam-2048 --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout. The runner caps the BLAS and OpenMP
thread pools at one thread, times set-up in several fresh processes,
then starts one workload process (worker.py) that runs passes back to
back for ``--seconds`` and checks every output. It prints each metric as
``name value unit``, then ``record <json>`` with the environment,
accuracy figures and every per-layer figure, and last one JSON line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's end_to_end ones, with ``--trace 1`` its
per_layer ones. Exit code 0 when every output is correct, 1 when one is
wrong, 2 when the checkout lacks the sources or the run breaks down.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("beam-2048", "convergence-sweep", "small-problems")
THREAD_CAP = "1"
SETUP_SAMPLES = 5      # fresh processes timed for setup_s; median reported
TIME_LIMIT_S = 170.0   # whole run, probes and workload process together
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": THREAD_CAP,
    "OMP_NUM_THREADS": THREAD_CAP,
    "MKL_NUM_THREADS": THREAD_CAP,
}


class BenchError(Exception):
    """The run could not produce a result."""


def worker(args, deadline, extra=()):
    """Run worker.py to completion and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--smoke"] if args.smoke else []), *extra]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BENCH_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError("workload process exceeded the time limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(rec, setup_samples):
    run_s = statistics.median(rec["pass_s"])
    return {
        "run_s": run_s,
        "elements_per_s": rec["elements_per_pass"] / run_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": rec["peak_rss_mib"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for testing the benchmark")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sfem2d" / "__init__.py").is_file():
        print(f"no sfem2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = monotonic() + TIME_LIMIT_S

    try:
        setup = []
        if not args.trace:
            setup = [worker(args, deadline, ["--setup-only"])["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
        rec = worker(args, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    setup.append(rec["setup_s"])
    rec["setup_samples_s"] = setup

    values = rec["per_layer"] if args.trace else end_to_end(rec, setup)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and m["unit"] == "count":
            value = 0.0          # a function this workload never calls
        if value is None:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in sorted(values.items()):
        if name not in metrics:   # e.g. functions only this workload calls
            unit = "s" if name.endswith("_s") else "count"
            print(f"{name} {value!r} {unit}")
    for name, value in rec["accuracy"].items():
        print(f"accuracy.{name} {value!r}")
    print(f"failed_frac {rec['failed'] / rec['attempted']!r}")
    for msg in rec["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("record " + json.dumps(rec, sort_keys=True))
    correct = rec["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
