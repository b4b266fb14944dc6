"""Command-line front end: patch tests, single beam runs, convergence
studies with CSV/SVG artifacts, and a shape-function demo.

Exit codes: 0 on success, 1 on a numerical failure (an SfemError), 2 on
a usage error (argparse's own, or a ValueError raised by the library).
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
from .mesh import CELL_SITES, SPLITS, DistortionSpec
from .shapefn import (
    SCHEMES,
    build_lagrange,
    build_wachspress,
    check_scheme,
    eval_lagrange,
    eval_wachspress,
)
from .smoothing import GAUSS_1D, default_quadrature
from .svgplot import write_loglog_svg

QUADS = {"parallelogram": ((0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (0.5, 1.0)),
         "unit-square": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))}


def _arg(parse):
    """An argparse type: parse(text), a ValueError its usage message."""
    def checked(text):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(err) from None
    return checked


def _finite(text, n, usage):
    vals = [float(t) for t in text.split(",")]
    if len(vals) != n or not np.isfinite(vals).all():
        raise ValueError(usage)
    return vals


def _parse_quad(text):
    if text in QUADS:
        return QUADS[text]
    vals = _finite(text, 8, "quad must be 'parallelogram', 'unit-square', "
                   "or 8 finite floats x1,y1,...,x4,y4")
    return tuple(zip(vals[0::2], vals[1::2]))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfem2d",
        description="Smoothed quad finite elements: benchmarks and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the library owns each rule: check_scheme, and the DistortionSpec range
    schemes = _arg(lambda t: [check_scheme(s) or s for s in t.split(",")])
    alpha = _arg(lambda t: DistortionSpec(float(t), 0).alpha_ir)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--k", type=int, default=4,
                       choices=sorted({k for k, _ in CELL_SITES}),
                       help="smoothing cells per element")
        p.add_argument("--quadrature", type=int, default=None,
                       choices=sorted(GAUSS_1D),
                       help="Gauss points per boundary segment")
        p.add_argument("--split", default="12-34", choices=SPLITS,
                       help="bimedian used by the two-cell subdivision")

    p = sub.add_parser("patch-test", help="linear patch test")
    p.add_argument("--scheme", default="wachspress", choices=SCHEMES)
    common(p, cmd_patch_test)
    p.add_argument("--alpha", type=alpha, default=0.0,
                   help="mesh irregularity; 0 runs the regular 2x2 patch, "
                        ">0 the distorted 3x3 one")
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("beam", help="one cantilever solve")
    p.add_argument("--scheme", default="wachspress", choices=SCHEMES)
    common(p, cmd_beam)
    p.add_argument("--mesh-index", type=float, default=4.0)
    p.add_argument("--alpha", type=alpha, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convergence", help="mesh-sequence study with CSV/SVG")
    p.add_argument("--scheme", type=schemes, default="wachspress,averaged",
                   help="comma-separated schemes (default both wachspress "
                        "and averaged)")
    common(p, cmd_convergence)
    p.add_argument("--alpha", type=alpha, default=0.0)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (0, 1, ..., n-1) for irregular runs")
    p.add_argument("--mesh-indices",
                   type=_arg(lambda t: [float(v) for v in t.split(",")]),
                   default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("shapefn-demo",
                       help="print shape-function values at a point")
    p.set_defaults(run=cmd_shapefn_demo)
    p.add_argument("--quad", type=_arg(_parse_quad),
                   default=QUADS["parallelogram"])
    p.add_argument("--point", default=(0.25, 0.5), type=_arg(lambda t: tuple(
        _finite(t, 2, "point must be 'x,y', both finite"))))

    return parser


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


def _meta_text(args, seeds):
    lines = [
        "sfem2d convergence study settings",
        f"schemes: {','.join(args.scheme)}",
        f"smoothing cells per element (k): {args.k}",
        f"two-cell split bimedian: {args.split} "
        "(midpoints of those local edges)",
        f"boundary quadrature points per segment: " + ", ".join(
            f"{s}={args.quadrature or default_quadrature(s)}"
            for s in args.scheme),
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
    seeds = tuple(range(args.seeds))
    all_records = []
    series = []
    annotations = []
    for scheme in args.scheme:
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
    output_dir = args.output_dir or os.environ.get("SFEM2D_OUTPUT_DIR",
                                                   "sfem2d-out")
    os.makedirs(output_dir, exist_ok=True)
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
        fh.write(_meta_text(args, seeds))
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
    try:
        return args.run(args)
    except ValueError as err:  # an argument outside its domain
        parser.error(str(err))
    except SfemError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
