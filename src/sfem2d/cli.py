"""Command-line front end: patch tests, single beam runs, convergence
studies with CSV/SVG artifacts, and a shape-function demo.

Exit codes: 0 on success, 1 on a numerical failure, 2 on usage errors.
The output directory defaults to $SFEM2D_OUTPUT_DIR, then ./sfem2d-out.
"""

from __future__ import annotations

import argparse
import os
import sys
from statistics import median

import numpy as np

from . import benchmarks as bench
from .errors import SfemError
from .shapefn import (
    SCHEMES,
    build_lagrange,
    build_wachspress,
    eval_lagrange,
    eval_wachspress,
)
from .smoothing import default_quadrature
from .svgplot import write_loglog_svg

PARALLELOGRAM = ((0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (0.5, 1.0))
UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def _parse_quad(text):
    if text == "parallelogram":
        return PARALLELOGRAM
    if text == "unit-square":
        return UNIT_SQUARE
    vals = [float(t) for t in text.split(",")]
    if len(vals) != 8 or not np.isfinite(vals).all():
        raise argparse.ArgumentTypeError(
            "quad must be 'parallelogram', 'unit-square', or 8 finite "
            "floats x1,y1,...,x4,y4"
        )
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(4))


def _parse_point(text):
    vals = [float(t) for t in text.split(",")]
    if len(vals) != 2 or not np.isfinite(vals).all():
        raise argparse.ArgumentTypeError("point must be 'x,y', both finite")
    return tuple(vals)


def _parse_indices(text):
    return [float(t) for t in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfem2d",
        description="Smoothed quad finite elements: benchmarks and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, schemes_many=False):
        if schemes_many:
            p.add_argument("--scheme", default="wachspress,averaged",
                           help="comma-separated schemes (default both "
                                "wachspress and averaged)")
        else:
            p.add_argument("--scheme", default="wachspress", choices=SCHEMES)
        p.add_argument("--k", type=int, default=4, choices=(1, 2, 4),
                       help="smoothing cells per element")
        p.add_argument("--quadrature", type=int, default=None,
                       choices=(1, 2, 3, 4),
                       help="Gauss points per boundary segment")
        p.add_argument("--split", default="12-34", choices=("12-34", "23-41"),
                       help="bimedian used by the two-cell subdivision")

    p = sub.add_parser("patch-test", help="linear patch test")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="mesh irregularity; 0 runs the regular 2x2 patch, "
                        ">0 the distorted 3x3 one")
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("beam", help="one cantilever solve")
    common(p)
    p.add_argument("--mesh-index", type=float, default=4.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convergence", help="mesh-sequence study with CSV/SVG")
    common(p, schemes_many=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (0, 1, ..., n-1) for irregular runs")
    p.add_argument("--mesh-indices", type=_parse_indices,
                   default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("shapefn-demo",
                       help="print shape-function values at a point")
    p.add_argument("--quad", type=_parse_quad, default=PARALLELOGRAM)
    p.add_argument("--point", type=_parse_point, default=(0.25, 0.5))

    return parser


def check_args(parser, args):
    """The argument checks argparse cannot make; each failure exits 2."""
    if args.command == "shapefn-demo":
        return
    for s in args.scheme.split(","):
        if s not in SCHEMES:
            parser.error(f"unknown scheme {s!r}")
    if not 0.0 <= args.alpha <= 0.5:
        parser.error("alpha must be in [0, 0.5]")
    indices = []
    if args.command == "beam":
        indices = [args.mesh_index]
    if args.command == "convergence":
        indices = args.mesh_indices
        if indices != sorted(indices):
            parser.error("mesh indices must be ascending")
        if len(set(indices)) < 2:
            parser.error("a rate fit needs at least two distinct mesh indices")
        if args.seeds < 1:
            parser.error("--seeds must be at least 1")
    length = bench.TimoshenkoBeam().length  # beam_mesh: round(index * length)
    for mi in indices:
        if not (np.isfinite(mi) and int(round(mi * length)) >= 1):
            parser.error(f"mesh index {mi:g} gives no elements")


def cmd_patch_test(args):
    distorted = args.alpha > 0.0
    err = bench.run_patch_test(args.scheme, args.k, distorted=distorted,
                               seed=args.seed, quadrature=args.quadrature,
                               split=args.split)
    bound = 1e-9 if distorted else 1e-10
    kind = "distorted 3x3" if distorted else "regular 2x2"
    ok = err < bound
    print(f"patch test ({kind}, scheme={args.scheme}, k={args.k}): "
          f"max interior error {err:.3e} (bound {bound:.0e}) "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_beam(args):
    beam = bench.TimoshenkoBeam()
    exact = bench.exact_strain_energy(beam)
    mesh, sol = bench.solve_beam(beam, args.mesh_index, args.scheme, args.k,
                                 alpha_ir=args.alpha, seed=args.seed,
                                 quadrature=args.quadrature, split=args.split)
    err = bench.energy_norm_error(mesh, sol.u, beam, args.scheme, args.k,
                                  quadrature=args.quadrature, split=args.split)
    rel = abs(sol.strain_energy - exact) / exact
    print(f"beam: scheme={args.scheme} k={args.k} mesh_index={args.mesh_index:g} "
          f"alpha={args.alpha:g} seed={args.seed}")
    print(f"  dofs:               {2 * mesh.num_nodes}")
    print(f"  strain energy:      {sol.strain_energy:.10g}")
    print(f"  exact energy:       {exact:.10g}  (rel. diff {rel:.3e})")
    print(f"  energy-norm error:  {err:.10g}")
    return 0


def _meta_text(args, schemes, seeds):
    q = {s: (args.quadrature or default_quadrature(s)) for s in schemes}
    lines = [
        "sfem2d convergence study settings",
        f"schemes: {','.join(schemes)}",
        f"smoothing cells per element (k): {args.k}",
        f"two-cell split bimedian: {args.split} "
        "(midpoints of those local edges)",
        f"boundary quadrature points per segment: "
        + ", ".join(f"{s}={q[s]}" for s in schemes),
        "essential BC: exact cantilever displacements on the clamped "
        "section (both components)",
        "end load: consistent nodal forces of the parabolic shear, "
        "2-point Gauss per edge",
        f"alpha_ir: {args.alpha:g}",
        f"seeds: {','.join(str(s) for s in seeds)}",
        "rng: numpy PCG64 (default_rng), draws node-major, x before y, "
        "interior nodes only",
        f"mesh indices: {','.join(f'{m:g}' for m in args.mesh_indices)}",
        "energy norm: no 1/2 factor inside the error integrand",
        "strain energy: 0.5 u^T K u including prescribed DOFs",
    ]
    return "\n".join(lines) + "\n"


def cmd_convergence(args):
    output_dir = args.output_dir or os.environ.get("SFEM2D_OUTPUT_DIR",
                                                   "sfem2d-out")
    os.makedirs(output_dir, exist_ok=True)
    schemes = args.scheme.split(",")
    seeds = tuple(range(args.seeds))
    all_records = []
    series = []
    annotations = []
    for scheme in schemes:
        study = bench.run_convergence_study(
            scheme, args.k, alpha_ir=args.alpha, seeds=seeds,
            mesh_indices=args.mesh_indices, quadrature=args.quadrature,
            split=args.split,
        )
        all_records.extend(study.records)
        xs = sorted({r.mesh_index for r in study.records})
        ys = [median([r.energy_norm_error for r in study.records
                      if r.mesh_index == mi]) for mi in xs]
        series.append((f"{scheme} (SC{args.k}Q4)", xs, ys))
        annotations.append(
            f"{scheme}: slope {study.fit.slope:.3f}, "
            f"r^2 {study.fit.r_squared:.4f}"
        )
        print(f"{scheme}: rate {study.fit.slope:.4f} "
              f"(r^2 {study.fit.r_squared:.5f}), "
              f"finest energy {study.records[-1].strain_energy:.8g}")
    csv_path = os.path.join(output_dir, "convergence.csv")
    bench.write_records_csv(all_records, csv_path)
    svg_path = os.path.join(output_dir, "convergence.svg")
    write_loglog_svg(
        svg_path, series, xlabel="mesh index", ylabel="energy-norm error",
        title=f"SC{args.k}Q4 cantilever, alpha={args.alpha:g}",
        annotations=annotations,
    )
    meta_path = os.path.join(output_dir, "meta.txt")
    with open(meta_path, "w", encoding="ascii") as fh:
        fh.write(_meta_text(args, schemes, seeds))
    print(f"wrote {csv_path}, {svg_path}, {meta_path}")
    return 0


def cmd_shapefn_demo(args):
    quad = np.array(args.quad, dtype=float)
    point = np.array(args.point, dtype=float)
    wach = eval_wachspress(build_wachspress(quad), point)
    try:
        lagr = eval_lagrange(build_lagrange(quad), point)
        lagr_txt = [f"{v: .10g}" for v in lagr]
    except SfemError as err:
        lagr_txt = [f"({err})"] * 4
    print(f"shape functions at ({point[0]:g}, {point[1]:g}):")
    print(f"  {'node':>4} {'wachspress':>14} {'lagrange':>14}")
    for i in range(4):
        print(f"  {i + 1:>4} {wach[i]: 14.10g} {lagr_txt[i]:>14}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    check_args(parser, args)
    handlers = {
        "patch-test": cmd_patch_test,
        "beam": cmd_beam,
        "convergence": cmd_convergence,
        "shapefn-demo": cmd_shapefn_demo,
    }
    try:
        return handlers[args.command](args)
    except SfemError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
