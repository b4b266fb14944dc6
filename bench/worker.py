"""Workload process of the benchmark; started by run.py, not by hand.

It imports sfem2d from the checkout's ``src``, builds the workload's
inputs from the seed (together: set-up), runs passes back to back as a
closed loop with one client until the time is up, checks every pass
and prints one JSON record as its last line. With ``--trace 1`` it
alternates untraced and traced passes, so the record carries both the
per-layer figures and the tracing overhead.
"""

from time import perf_counter

SETUP_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MAX_MESSAGES = 20


def git_commit(root):
    """HEAD commit read from .git without leaving the checkout; None
    when the checkout is not a git repository."""
    git = root / ".git"
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
    return None


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def run_passes(workload, seconds, trace):
    """Back-to-back passes until the next one would end after
    ``seconds``; with trace, passes alternate untraced / traced and at
    least one of each runs. Returns the wall times of untraced and of
    traced passes, the per-pass layer summaries and the pass results."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    wall = {False: [], True: []}
    layers, results = [], []
    start = perf_counter()
    while True:
        traced = trace and len(wall[False]) > len(wall[True])
        if traced:
            tracer.install()
            mark = tracer.mark()
        t0 = perf_counter()
        try:
            res = workload.run_pass()
        finally:
            elapsed = perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.summarize(mark))
        wall[traced].append(elapsed)
        results.append(res)
        if trace and not wall[True]:
            continue
        nxt = trace and len(wall[False]) > len(wall[True])
        expected = statistics.median(wall[nxt] or wall[not nxt])
        if perf_counter() - start + expected > seconds:
            return wall[False], wall[True], layers, results


def per_layer(layers, untraced, traced):
    """Median over traced passes of each per-pass figure, plus derived
    ratios and the tracing overhead."""
    keys = sorted({k for d in layers for k in d})
    out = {k: statistics.median(d.get(k, 0.0) for d in layers) for k in keys}
    cells = out.get("smoothing.element_stiffness.cells", 0.0)
    out["smoothing.smoothed_b.per_cell"] = (
        out.get("smoothing.smoothed_b.calls", 0.0) / cells if cells else 0.0)
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(untraced))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import sfem2d

    if not Path(sfem2d.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"sfem2d imported from {sfem2d.__file__}, not the checkout")
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.smoke)
    setup_s = perf_counter() - SETUP_START
    record = {"workload": args.workload, "seed": args.seed,
              "smoke": args.smoke, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return

    untraced, traced, layers, results = run_passes(
        workload, args.seconds, bool(args.trace))

    # Passes are deterministic, so traced and untraced outputs must agree.
    first = results[0]
    for i, res in enumerate(results[1:], 1):
        for name, value in res.pinned.items():
            if first.pinned.get(name, value) != value:
                res.check(res.pinned_op[name], f"{name} differs in pass {i}")

    messages = [m for res in results for m in res.messages]
    record.update(
        pass_s=untraced,
        traced_pass_s=traced,
        elements_per_pass=workload.elements,
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        messages=messages[:MAX_MESSAGES],
        accuracy=first.accuracy,
        pinned=first.pinned,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        per_layer=per_layer(layers, untraced, traced) if args.trace else {},
        env=environment(args.seed),
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
