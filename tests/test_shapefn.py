"""The three shape-function schemes on physical quadrilaterals."""

import numpy as np
import pytest
from scipy.optimize import brentq

from sfem2d.errors import (
    AdjointZero,
    DegenerateElement,
    NonExistent,
    OffSkeleton,
    WedgeDegenerate,
)
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

from conftest import (
    PARALLELOGRAM,
    POINT_Q,
    UNIT_SQUARE,
    interior_points,
    random_convex_quad,
    random_rectangle,
    random_simple_quad,
)


def closed_form_parallelogram(p):
    """Hand-expanded shape polynomials of the worked parallelogram."""
    x, y = p[..., 0], p[..., 1]
    return np.stack(
        [
            (y - 1) * (x - y / 2 - 1),
            (1 - y) * (x - y / 2),
            y * (x - y / 2),
            -y * (x - y / 2 - 1),
        ],
        axis=-1,
    )


def bilinear_square(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack(
        [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=-1
    )


class TestLineThrough:
    """The side lines of build_wachspress: line i runs through nodes i and
    i+1, unit-normalized and positive on the element side."""

    def test_x_axis(self):
        lines = build_wachspress(UNIT_SQUARE)
        pts = np.array([[0.3, 0.7], [2.0, -1.0]])
        assert np.allclose(lines.line_values(pts)[:, 0], pts[:, 1])
        assert lines.line_normals[0].tolist() == [0.0, 1.0]

    def test_parallelogram_side_2_3(self):
        # side from (1,0) to (1.5,1) with the interior on its left:
        # proportional to -(x - y/2 - 1), unit-normalized
        lines = build_wachspress(PARALLELOGRAM)
        s = np.sqrt(1.25)
        assert lines.line_normals[1] == pytest.approx([-1 / s, 0.5 / s])
        assert lines.line_values(np.array([0.0, 0.0]))[1] == pytest.approx(
            1 / s)
        # bit-exact zero at both defining points
        assert lines.line_values(np.array([1.0, 0.0]))[1] == 0.0
        assert lines.line_values(np.array([1.5, 1.0]))[1] == 0.0

    def test_midpoint_on_line(self, rng):
        for _ in range(20):
            quad = random_convex_quad(rng)
            lines = build_wachspress(quad)
            values = lines.line_values(quad)
            mids = lines.line_values(0.5 * (quad + np.roll(quad, -1, axis=0)))
            for i in range(4):
                # bit-exact zero at both defining points
                assert values[i, i] == values[(i + 1) % 4, i] == 0.0
                assert abs(mids[i, i]) < 1e-15

    def test_coincident_points(self):
        quad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateElement, match="is undefined"):
            build_wachspress(quad)


class TestWachspress:
    def test_unit_square_is_bilinear(self, rng):
        basis = build_wachspress(UNIT_SQUARE)
        pts = rng.random((200, 2))
        assert np.abs(eval_wachspress(basis, pts) - bilinear_square(pts)).max() < 1e-14

    def test_parallelogram_closed_forms(self, rng):
        basis = build_wachspress(PARALLELOGRAM)
        pts = interior_points(PARALLELOGRAM, rng, 500)
        diff = eval_wachspress(basis, pts) - closed_form_parallelogram(pts)
        assert np.abs(diff).max() < 1e-12

    def test_values_at_q(self):
        basis = build_wachspress(PARALLELOGRAM)
        assert eval_wachspress(basis, POINT_Q) == pytest.approx(
            [0.5, 0.0, 0.0, 0.5], abs=1e-15
        )

    def test_wedge_sum_constant_on_parallelograms(self, rng):
        # the rational basis degenerates to polynomials on parallelograms:
        # the wedge sum has zero spread
        from sfem2d.shapefn import _wedges

        for _ in range(20):
            origin = rng.uniform(-1, 1, 2)
            u, v = rng.uniform(-1, 1, (2, 2))
            if abs(u[0] * v[1] - u[1] * v[0]) < 0.1:
                continue
            if u[0] * v[1] - u[1] * v[0] < 0:
                u, v = v, u
            para = np.array([origin, origin + u, origin + u + v, origin + v])
            basis = build_wachspress(para)
            w = _wedges(basis, rng.random((100, 2))).sum(axis=-1)
            assert np.abs(w - w[0]).max() < 1e-12 * abs(w[0])

    def test_kronecker_delta(self, rng):
        for _ in range(50):
            quad = random_simple_quad(rng)
            basis = build_wachspress(quad)
            assert np.abs(eval_wachspress(basis, quad) - np.eye(4)).max() < 1e-12

    def test_partition_of_unity(self, rng):
        for _ in range(20):
            quad = random_convex_quad(rng)
            basis = build_wachspress(quad)
            n = eval_wachspress(basis, interior_points(quad, rng, 200))
            assert np.abs(n.sum(axis=1) - 1.0).max() < 1e-12

    def test_edge_linearity_and_opposite_zero(self, rng):
        quad = random_convex_quad(rng)
        basis = build_wachspress(quad)
        t = np.linspace(0.0, 1.0, 17)[:, None]
        for side in range(4):
            a, b = quad[side], quad[(side + 1) % 4]
            pts = a + t * (b - a)
            n = eval_wachspress(basis, pts)
            chord = (1 - t) * np.eye(4)[side] + t * np.eye(4)[(side + 1) % 4]
            assert np.abs(n - chord).max() < 1e-10

    def test_linear_completeness_convex(self, rng):
        for _ in range(20):
            quad = random_convex_quad(rng)
            basis = build_wachspress(quad)
            pts = interior_points(quad, rng, 100)
            n = eval_wachspress(basis, pts)
            assert np.abs(n @ quad - pts).max() < 1e-10

    def test_positivity_convex(self, rng):
        for _ in range(20):
            quad = random_convex_quad(rng)
            basis = build_wachspress(quad)
            n = eval_wachspress(basis, interior_points(quad, rng, 200))
            assert n.min() > -1e-12

    def test_wedge_degenerate(self):
        # side 2-3 lies on the x-axis, which passes through node 1
        bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(WedgeDegenerate):
            build_wachspress(bad)

    def test_adjoint_zero_on_concave_quad(self):
        from sfem2d.shapefn import _wedges

        chevron = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        basis = build_wachspress(chevron)

        def wedge_sum(t):
            return float(_wedges(basis, np.array([t, 0.35])).sum())

        root = brentq(wedge_sum, 0.3, 1.2, xtol=1e-15)
        with pytest.raises(AdjointZero):
            eval_wachspress(basis, np.array([root, 0.35]))


class TestWachspressGradient:
    def test_unit_square_center(self):
        basis = build_wachspress(UNIT_SQUARE)
        g = eval_wachspress_gradient(basis, np.array([0.5, 0.5]))
        assert g[0] == pytest.approx([-0.5, -0.5])

    def test_parallelogram_at_q(self):
        # differentiate (y-1)(x - y/2 - 1) by hand: (y-1, x - y - 1/2),
        # giving (-0.5, -0.75) at Q; confirmed by central differences below
        basis = build_wachspress(PARALLELOGRAM)
        g = eval_wachspress_gradient(basis, POINT_Q)
        assert g[0] == pytest.approx([-0.5, -0.75], abs=1e-12)
        h = 1e-6
        fd_y = (
            eval_wachspress(basis, POINT_Q + [0, h])
            - eval_wachspress(basis, POINT_Q - [0, h])
        ) / (2 * h)
        assert fd_y[0] == pytest.approx(-0.75, abs=1e-8)

    def test_gradients_sum_to_zero(self, rng):
        quad = random_convex_quad(rng)
        basis = build_wachspress(quad)
        g = eval_wachspress_gradient(basis, interior_points(quad, rng, 100))
        assert np.abs(g.sum(axis=1)).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            quad = random_convex_quad(rng)
            basis = build_wachspress(quad)
            h = 1e-6 * basis.diameter
            for p in interior_points(quad, rng, 10):
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
                scale = max(np.abs(g).max(), 1.0)
                assert np.abs(g - fd).max() / scale < 1e-6


class TestLagrange:
    def test_unit_square_is_bilinear(self, rng):
        basis = build_lagrange(UNIT_SQUARE)
        pts = rng.random((100, 2))
        assert np.abs(eval_lagrange(basis, pts) - bilinear_square(pts)).max() < 1e-12

    def test_parallelogram_at_q(self):
        basis = build_lagrange(PARALLELOGRAM)
        assert eval_lagrange(basis, POINT_Q) == pytest.approx(
            [0.375, 0.125, -0.125, 0.625], abs=1e-14
        )

    def test_kronecker_delta(self, rng):
        for _ in range(20):
            quad = random_convex_quad(rng)
            basis = build_lagrange(quad)
            assert np.abs(eval_lagrange(basis, quad) - np.eye(4)).max() < 1e-10

    def test_collinear_nodes_nonexistent(self):
        collinear = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        with pytest.raises(NonExistent):
            build_lagrange(collinear)

    def test_valid_convex_quad_nonexistent(self):
        # two nodes on the x-axis, two on the y-axis: all four sit on the
        # degenerate axis-aligned hyperbola x*y = 0, so the {1,x,y,xy} fit
        # has no solution even though the quad is convex with area > 0
        quad = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        from sfem2d.mesh import check_quads, polygon_area

        assert polygon_area(quad) > 0 and check_quads(quad[None])[0]
        with pytest.raises(NonExistent):
            build_lagrange(quad)

    def test_negative_value_reproduced(self):
        # the deficiency at Q: N_3 < 0 must not be patched away
        basis = build_lagrange(PARALLELOGRAM)
        assert eval_lagrange(basis, POINT_Q)[2] < 0


class TestAveraged:
    def test_all_table_rows_exact(self):
        sites = table_sites(PARALLELOGRAM)
        for k in (1, 2, 4):
            for s in range(9):
                if k == 1 and s == 8:
                    continue  # the center is not on the k=1 skeleton
                got = eval_averaged(PARALLELOGRAM, k, sites[s])
                assert np.array_equal(got, SITE_VALUES[s]), (k, s)

    def test_center_on_two_cell_skeleton(self):
        # with the 12-34 split the center lies mid-bimedian
        got = eval_averaged(UNIT_SQUARE, 2, np.array([0.5, 0.5]))
        assert np.array_equal(got, [0.25, 0.25, 0.25, 0.25])

    def test_interpolated_between_sites(self):
        mid = np.array([0.5, 0.25])  # halfway from site 5 to site 9
        got = eval_averaged(UNIT_SQUARE, 4, mid)
        assert got == pytest.approx([0.375, 0.375, 0.125, 0.125], abs=1e-15)

    def test_edge_interpolation_matches_nodes(self, rng):
        quad = random_convex_quad(rng)
        t = 0.3
        p = quad[1] + t * (quad[2] - quad[1])
        got = eval_averaged(quad, 4, p)
        assert got == pytest.approx([0, 1 - t, t, 0], abs=1e-12)

    def test_off_skeleton_raises(self):
        with pytest.raises(OffSkeleton):
            eval_averaged(UNIT_SQUARE, 4, np.array([0.3, 0.2]))
        # the unused bimedian is off-skeleton for a two-cell split
        with pytest.raises(OffSkeleton):
            eval_averaged(UNIT_SQUARE, 2, np.array([0.25, 0.5]), split="12-34")
        got = eval_averaged(UNIT_SQUARE, 2, np.array([0.25, 0.5]), split="23-41")
        assert got == pytest.approx([0.375, 0.125, 0.125, 0.375], abs=1e-15)

    def test_partition_of_unity_on_skeleton(self, rng):
        quad = random_convex_quad(rng)
        sites = table_sites(quad)
        for a, b in ((0, 4), (4, 8), (5, 8), (2, 6)):
            for t in rng.random(10):
                p = sites[a] + t * (sites[b] - sites[a])
                assert eval_averaged(quad, 4, p).sum() == pytest.approx(
                    1.0, abs=1e-12
                )


class TestSchemeRelations:
    def test_rectangle_degeneracy_wachspress_lagrange(self, rng):
        for _ in range(20):
            rect = random_rectangle(rng)
            wb = build_wachspress(rect)
            lb = build_lagrange(rect)
            pts = interior_points(rect, rng, 50)
            diff = eval_wachspress(wb, pts) - eval_lagrange(lb, pts)
            assert np.abs(diff).max() < 1e-12

    def test_averaged_matches_wachspress_on_rectangle_skeleton(self, rng):
        rect = random_rectangle(rng)
        wb = build_wachspress(rect)
        sites = table_sites(rect)
        for a, b in ((0, 4), (4, 1), (4, 8), (6, 8), (7, 8)):
            for t in np.linspace(0, 1, 7):
                p = sites[a] + t * (sites[b] - sites[a])
                assert eval_averaged(rect, 4, p) == pytest.approx(
                    eval_wachspress(wb, p), abs=1e-12
                )

    def test_shape_evaluator_dispatch(self):
        for scheme in ("wachspress", "averaged", "lagrange"):
            ev = shape_evaluator(scheme, UNIT_SQUARE, 4)
            v = ev(np.array([[0.5, 0.0]]))
            assert v.shape == (1, 4)
            assert v[0] == pytest.approx([0.5, 0.5, 0, 0], abs=1e-12)
        with pytest.raises(ValueError):
            shape_evaluator("mapped-q4", UNIT_SQUARE)
