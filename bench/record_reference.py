"""Record the pinned outputs of one pass per workload and seed into
reference.json.

    python3 bench/record_reference.py --seeds 0-20

The file was written at the seed commit, where the numerics are the
reference; every later benchmark run whose seed is in it must reproduce
those outputs to 1e-9 relative. Re-record only for a change that is
meant to alter the numerics, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import BENCH_ENV  # noqa: E402

os.environ.update(BENCH_ENV)

import workloads  # noqa: E402
from repeat import parse_seeds  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0-20")
    args = ap.parse_args(argv)
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in parse_seeds(args.seeds):
            res = cls(seed, {}).run_pass()
            if res.failed:
                raise SystemExit(f"{name} seed {seed}: {res.messages}")
            table[name][str(seed)] = res.pinned
            print(name, seed, flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
