"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py`). Criteria 6 and 7 share the
module-scoped convergence studies.
"""

import numpy as np
import pytest

from sfem2d.benchmarks import (
    TimoshenkoBeam,
    exact_strain_energy,
    run_convergence_study,
    run_patch_test,
)
from sfem2d.errors import NonExistent
from sfem2d.mesh import subdivide_adaptive
from sfem2d.shapefn import (
    SITE_VALUES,
    build_lagrange,
    build_wachspress,
    eval_averaged,
    eval_lagrange,
    eval_wachspress,
    eval_wachspress_gradient,
    shape_evaluator,
    table_sites,
)
from sfem2d.smoothing import (
    MaterialModel,
    boundary_flux,
    element_stiffness,
)

from conftest import (
    PARALLELOGRAM,
    POINT_Q,
    interior_points,
    random_convex_quad,
    random_rectangle,
    random_simple_quad,
)

EXACT_ENERGY = 0.0398333
N_QUADS = 100


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def regular_studies():
    return {
        (scheme, k): run_convergence_study(scheme, k)
        for scheme in ("wachspress", "averaged")
        for k in (2, 4)
    }


@pytest.fixture(scope="module")
def irregular_studies():
    return {
        (scheme, k, alpha): run_convergence_study(
            scheme, k, alpha_ir=alpha, seeds=(0, 1, 2)
        )
        for scheme in ("wachspress", "averaged")
        for k in (2, 4)
        for alpha in (0.2, 0.5)
    }


def test_criterion_1_shape_values_at_q():
    wach = eval_wachspress(build_wachspress(PARALLELOGRAM), POINT_Q)
    lagr = eval_lagrange(build_lagrange(PARALLELOGRAM), POINT_Q)
    err_a = np.abs(wach - [0.5, 0.0, 0.0, 0.5]).max()
    err_c = np.abs(lagr - [0.375, 0.125, -0.125, 0.625]).max()
    report(1, err_a < 1e-12 and err_c < 1e-12,
           f"wachspress err {err_a:.2e}, lagrange err {err_c:.2e} (tol 1e-12)")


def test_criterion_2_parallelogram_closed_forms():
    rng = np.random.default_rng(2)
    basis = build_wachspress(PARALLELOGRAM)
    pts = interior_points(PARALLELOGRAM, rng, 1000)
    x, y = pts[:, 0], pts[:, 1]
    closed = np.stack(
        [
            (y - 1) * (x - y / 2 - 1),
            (1 - y) * (x - y / 2),
            y * (x - y / 2),
            -y * (x - y / 2 - 1),
        ],
        axis=-1,
    )
    err = np.abs(eval_wachspress(basis, pts) - closed).max()
    report(2, err < 1e-12, f"max |delta| {err:.2e} over 1000 points (tol 1e-12)")


def test_criterion_3_nine_site_table():
    rng = np.random.default_rng(3)
    worst = 0.0
    for quad in (PARALLELOGRAM, random_convex_quad(rng), random_simple_quad(rng)):
        sites = table_sites(quad)
        for s in range(9):
            got = eval_averaged(quad, 4, sites[s])
            worst = max(worst, np.abs(got - SITE_VALUES[s]).max())
    report(3, worst == 0.0, f"max site deviation {worst:.2e} (exact required)")


def test_criterion_4_patch_tests():
    worst_reg = max(run_patch_test("wachspress", k) for k in (2, 4))
    worst_dis = max(
        run_patch_test("wachspress", k, distorted=True) for k in (2, 4)
    )
    report(
        4,
        worst_reg < 1e-10 and worst_dis < 1e-9,
        f"regular 2x2 max {worst_reg:.2e} (tol 1e-10), "
        f"distorted 3x3 alpha=0.4 max {worst_dis:.2e} (tol 1e-9)",
    )


def test_criterion_5_exact_energy_oracle():
    u = exact_strain_energy(TimoshenkoBeam())
    report(5, abs(u - EXACT_ENERGY) < 1e-6,
           f"integrated energy {u:.9f} vs {EXACT_ENERGY} (tol 1e-6)")


def test_criterion_6_regular_convergence(regular_studies):
    details = []
    ok = True
    for (scheme, k), study in regular_studies.items():
        finest = [r for r in study.records if r.mesh_index == 4.0][0]
        rel = abs(finest.strain_energy - EXACT_ENERGY) / EXACT_ENERGY
        fit = study.fit
        good = rel < 0.01 and 0.85 <= fit.slope <= 1.15 and fit.r_squared > 0.99
        ok = ok and good
        details.append(
            f"{scheme}/SC{k}Q4: energy rel {rel:.4f}, rate {fit.slope:.3f}, "
            f"r2 {fit.r_squared:.4f}"
        )
    report(6, ok, "; ".join(details))


def test_criterion_7_scheme_equivalence(regular_studies, irregular_studies):
    worst_rel = 0.0
    for k in (2, 4):
        for ra, rb in zip(
            regular_studies[("wachspress", k)].records,
            regular_studies[("averaged", k)].records,
        ):
            rel = abs(ra.strain_energy - rb.strain_energy) / abs(ra.strain_energy)
            worst_rel = max(worst_rel, rel)
    rate_diffs = {}
    for k in (2, 4):
        for alpha in (0.2, 0.5):
            ra = irregular_studies[("wachspress", k, alpha)].fit.slope
            rb = irregular_studies[("averaged", k, alpha)].fit.slope
            rate_diffs[(k, alpha)] = abs(ra - rb)
    worst_diff = max(rate_diffs.values())
    report(
        7,
        worst_rel < 1e-10 and worst_diff < 0.2,
        f"regular energies rel diff {worst_rel:.2e} (tol 1e-10); "
        f"irregular rate gaps "
        + ", ".join(f"k={k},a={a}: {d:.3f}" for (k, a), d in rate_diffs.items())
        + " (tol 0.2)",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)
    failures = []

    def check(name, worst, tol):
        if not worst < tol:
            failures.append(f"{name}: {worst:.3e} >= {tol:g}")
        return f"{name} {worst:.1e}"

    notes = []

    # partition of unity, schemes A and C, 1000 points per quad
    worst = 0.0
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        pts = interior_points(quad, rng, 1000)
        na = eval_wachspress(build_wachspress(quad), pts)
        nc = eval_lagrange(build_lagrange(quad), pts)
        worst = max(worst, np.abs(na.sum(1) - 1).max(), np.abs(nc.sum(1) - 1).max())
    notes.append(check("partition-of-unity", worst, 1e-12))

    # Kronecker delta, all three schemes
    worst = 0.0
    for _ in range(N_QUADS):
        quad = random_simple_quad(rng)
        worst = max(worst, np.abs(
            eval_wachspress(build_wachspress(quad), quad) - np.eye(4)).max())
        sites = table_sites(quad)
        for i in range(4):
            worst = max(worst, np.abs(
                eval_averaged(quad, 4, sites[i]) - np.eye(4)[i]).max())
        try:
            worst = max(worst, np.abs(
                eval_lagrange(build_lagrange(quad), quad) - np.eye(4)).max())
        except NonExistent:
            pass
    notes.append(check("kronecker-delta", worst, 1e-12))

    # edge linearity of the rational scheme
    worst = 0.0
    t = np.linspace(0.0, 1.0, 9)[:, None]
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        basis = build_wachspress(quad)
        for side in range(4):
            a, b = side, (side + 1) % 4
            pts = quad[a] + t * (quad[b] - quad[a])
            n = eval_wachspress(basis, pts)
            chord = (1 - t) * np.eye(4)[a] + t * np.eye(4)[b]
            worst = max(worst, np.abs(n - chord).max())
    notes.append(check("edge-linearity", worst, 1e-10))

    # linear completeness and positivity on convex quads
    worst_lc, worst_pos = 0.0, 0.0
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        pts = interior_points(quad, rng, 100)
        n = eval_wachspress(build_wachspress(quad), pts)
        worst_lc = max(worst_lc, np.abs(n @ quad - pts).max())
        worst_pos = max(worst_pos, float(-n.min()))
    notes.append(check("linear-completeness", worst_lc, 1e-10))
    notes.append(check("positivity", worst_pos, 1e-12))

    # analytic gradient vs central differences
    worst = 0.0
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        basis = build_wachspress(quad)
        h = 1e-6 * basis.diameter
        for p in interior_points(quad, rng, 5):
            g = eval_wachspress_gradient(basis, p)
            fd = np.stack(
                [
                    (eval_wachspress(basis, p + [h, 0])
                     - eval_wachspress(basis, p - [h, 0])) / (2 * h),
                    (eval_wachspress(basis, p + [0, h])
                     - eval_wachspress(basis, p - [0, h])) / (2 * h),
                ],
                axis=-1,
            )
            worst = max(worst, np.abs(g - fd).max() / max(np.abs(g).max(), 1.0))
    notes.append(check("gradient-vs-fd", worst, 1e-6))

    # closed-boundary normal integral per smoothing cell
    ones = lambda p: np.full((len(np.atleast_2d(p)), 4), 0.25)
    worst = 0.0
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        for k in (1, 2, 4):
            (cells, _), k_used, _ = subdivide_adaptive(quad, k)
            assert k_used == k
            for v in cells:
                perim = sum(
                    np.hypot(*(v[(s + 1) % len(v)] - v[s]))
                    for s in range(len(v))
                )
                worst = max(worst, np.abs(
                    boundary_flux(v, ones, 2).sum(0)).max() / perim)
    notes.append(check("closed-boundary-normals", worst, 1e-12))

    # stiffness symmetry and rigid-body null space
    mat = MaterialModel(3e7, 0.3)
    worst_sym, worst_modes = 0.0, 0
    for _ in range(N_QUADS):
        quad = random_convex_quad(rng)
        for k in (2, 4):
            ke = element_stiffness(quad, k, "wachspress", mat)
            scale = np.abs(ke.k).max()
            worst_sym = max(worst_sym, np.abs(ke.k - ke.k.T).max() / scale)
            worst_modes = max(worst_modes, abs(ke.zero_modes - 3))
    notes.append(check("stiffness-symmetry", worst_sym, 1e-12))
    notes.append(check("rigid-body-modes", float(worst_modes), 0.5))

    # scheme degeneracy on rectangles
    worst_pt, worst_k = 0.0, 0.0
    for _ in range(N_QUADS):
        rect = random_rectangle(rng)
        pts = interior_points(rect, rng, 50)
        diff = eval_wachspress(build_wachspress(rect), pts) - eval_lagrange(
            build_lagrange(rect), pts)
        worst_pt = max(worst_pt, np.abs(diff).max())
        ks = {
            s: element_stiffness(rect, 4, s, mat).k
            for s in ("wachspress", "averaged", "lagrange")
        }
        scale = np.abs(ks["wachspress"]).max()
        for s in ("averaged", "lagrange"):
            worst_k = max(worst_k,
                          np.abs(ks[s] - ks["wachspress"]).max() / scale)
    notes.append(check("rectangle-pointwise", worst_pt, 1e-12))
    notes.append(check("rectangle-stiffness", worst_k, 1e-10))

    report(8, not failures,
           "; ".join(failures) if failures else "; ".join(notes))


def test_criterion_9_negative_controls():
    raised_collinear = False
    try:
        build_lagrange(np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float))
    except NonExistent:
        raised_collinear = True
    raised_valid_quad = False
    try:
        # convex positive-area quad whose nodes sit on the degenerate
        # axis-aligned hyperbola x*y = 0
        build_lagrange(np.array([[1, 0], [3, 0], [0, 2], [0, 1]], dtype=float))
    except NonExistent:
        raised_valid_quad = True
    n3 = eval_lagrange(build_lagrange(PARALLELOGRAM), POINT_Q)[2]
    report(
        9,
        raised_collinear and raised_valid_quad and n3 < 0,
        f"NonExistent raised (collinear: {raised_collinear}, convex "
        f"hyperbola quad: {raised_valid_quad}); lagrange N3(Q) = {n3}",
    )
