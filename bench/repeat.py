"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py --workload beam-2048 --seeds 1-10 [--trace 0]
                            [--seconds 40] [--out summary.json]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
inter-quartile distance over the median; for an end-to-end metric also
its bound from BENCHMARK.json and whether the spread is under a third of
it. Runs are sequential, so they never compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
    record = next(json.loads(ln[len("record "):]) for ln in lines
                  if ln.startswith("record "))
    return json.loads(lines[-1]), record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSON file to merge the summary into, "
                    "under the key <workload>/trace<0|1>/seeds<seeds>")
    args = ap.parse_args(argv)

    results, records = [], []
    for seed in parse_seeds(args.seeds):
        result, record = run_once(args.workload, seed, args.seconds,
                                  args.trace)
        results.append(result)
        records.append(record)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            if k.endswith("_s")), flush=True)

    # A traced run's record holds every per-layer figure, listed or not.
    if args.trace:
        table = [rec["per_layer"] for rec in records]
    else:
        table = [{k: m["value"] for k, m in r["metrics"].items()}
                 for r in results]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in sorted(set().union(*table)):
        s = spread([row.get(name, 0.0) for row in table])
        s["unit"] = results[0]["metrics"].get(name, {}).get(
            "unit", "s" if name.endswith("_s") else "count")
        if name in bounds:
            s["bound"] = bounds[name]
            s["steady"] = s["spread"] < bounds[name] / 3
        summary[name] = s
        sp = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {sp}"
              + (f"  bound {s['bound']}  steady {s['steady']}"
                 if "bound" in s else ""))
    if args.out:
        out_path = Path(args.out)
        merged = json.loads(out_path.read_text()) if out_path.exists() else {}
        key = f"{args.workload}/trace{args.trace}/seeds{args.seeds}"
        merged[key] = {
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in results),
            "env": records[0]["env"], "metrics": summary}
        out_path.write_text(json.dumps(merged, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    main()
