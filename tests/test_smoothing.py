"""Smoothed strain-displacement operators and element stiffness."""

import numpy as np
import pytest

from sfem2d.errors import DegenerateElement
from sfem2d.mesh import subdivide_adaptive
from sfem2d.shapefn import shape_evaluator
from sfem2d.smoothing import (
    MaterialModel,
    boundary_flux,
    default_quadrature,
    elasticity_matrix,
    element_stiffness,
    smoothed_b,
)

from conftest import (
    PARALLELOGRAM,
    UNIT_SQUARE,
    random_convex_quad,
    random_rectangle,
    random_simple_quad,
)


def bilinear_b_matrix(x, y):
    """Strain-displacement matrix of the bilinear basis on the unit
    square, evaluated at (x, y)."""
    grads = np.array(
        [[-(1 - y), -(1 - x)], [(1 - y), -x], [y, x], [-y, (1 - x)]]
    )
    b = np.zeros((3, 8))
    for i in range(4):
        b[0, 2 * i] = grads[i, 0]
        b[1, 2 * i + 1] = grads[i, 1]
        b[2, 2 * i] = grads[i, 1]
        b[2, 2 * i + 1] = grads[i, 0]
    return b


class TestElasticityMatrix:
    def test_unit_modulus_zero_poisson(self):
        d = elasticity_matrix(MaterialModel(1.0, 0.0))
        assert np.allclose(d, np.diag([1.0, 1.0, 0.5]))

    def test_beam_constants(self):
        d = elasticity_matrix(MaterialModel(3e7, 0.3))
        assert d[0, 0] == pytest.approx(3e7 / 0.91)
        assert d[0, 1] == pytest.approx(0.3 * 3e7 / 0.91)

    def test_symmetric_positive_definite(self, rng):
        for _ in range(10):
            m = MaterialModel(float(rng.uniform(1, 1e8)),
                              float(rng.uniform(0, 0.49)))
            d = elasticity_matrix(m)
            assert np.allclose(d, d.T)
            assert np.linalg.eigvalsh(d).min() > 0

    def test_invalid_material(self):
        with pytest.raises(ValueError):
            MaterialModel(-1.0, 0.3)
        with pytest.raises(ValueError):
            MaterialModel(1.0, 0.5)
        with pytest.raises(ValueError):
            MaterialModel(1.0, 0.3, thickness=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_material(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MaterialModel(bad, 0.3)
        with pytest.raises(ValueError, match="finite"):
            MaterialModel(1.0, 0.3, thickness=bad)
        with pytest.raises(ValueError):
            MaterialModel(1.0, bad)


class TestSmoothedB:
    @pytest.mark.parametrize("scheme", ["wachspress", "averaged", "lagrange"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_translation_gives_zero_strain(self, scheme, k, rng):
        quad = random_convex_quad(rng)
        ev = shape_evaluator(scheme, quad, k)
        u = np.tile([0.7, -0.3], 4)
        cells, k_used, _ = subdivide_adaptive(quad, k)
        assert k_used == k
        for verts, area in zip(*cells):
            bm = smoothed_b(area, boundary_flux(verts, ev,
                                                default_quadrature(scheme)))
            assert np.abs(bm @ u).max() < 1e-12

    def test_linear_field_unit_square(self):
        ev = shape_evaluator("wachspress", UNIT_SQUARE, 1)
        ((verts,), (area,)), k_used, _ = subdivide_adaptive(UNIT_SQUARE, 1)
        assert k_used == 1
        u = UNIT_SQUARE[:, 0]  # u = (x, 0)
        uvec = np.column_stack([u, np.zeros(4)]).ravel()
        bm = smoothed_b(area, boundary_flux(verts, ev))
        assert bm @ uvec == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_affine_field_reproduced_on_convex_quads(self, rng):
        # smoothed strain of an interpolated affine field equals its exact
        # constant strain on every cell of every convex element
        for _ in range(20):
            quad = random_convex_quad(rng)
            a = rng.uniform(-1, 1, (2, 2))
            b = rng.uniform(-1, 1, 2)
            u = (quad @ a.T + b).ravel()
            expected = [a[0, 0], a[1, 1], a[0, 1] + a[1, 0]]
            ev = shape_evaluator("wachspress", quad, 4)
            cells, k_used, _ = subdivide_adaptive(quad, 4)
            assert k_used == 4
            for verts, area in zip(*cells):
                eps = smoothed_b(area, boundary_flux(verts, ev, 2)) @ u
                assert eps == pytest.approx(expected, abs=1e-10)

    def test_averaged_midpoint_equals_wachspress_on_square(self):
        # on a rectangle both reduce to bilinear boundary values, so the
        # single-midpoint averaged rule and 2-point Gauss agree exactly
        ev_a = shape_evaluator("wachspress", UNIT_SQUARE, 4)
        ev_b = shape_evaluator("averaged", UNIT_SQUARE, 4)
        cells, k_used, _ = subdivide_adaptive(UNIT_SQUARE, 4)
        assert k_used == 4
        for verts, area in zip(*cells):
            ba = smoothed_b(area, boundary_flux(verts, ev_a, 2))
            bb = smoothed_b(area, boundary_flux(verts, ev_b, 1))
            assert np.abs(ba - bb).max() < 1e-12

    def test_closed_boundary_normal_integral(self, rng):
        # sum of length-weighted outward normals of any closed cell is zero
        ones = lambda p: np.full((len(np.atleast_2d(p)), 4), 0.25)
        for _ in range(30):
            quad = random_simple_quad(rng)
            for k in (1, 2, 4):
                # fallback cells of a concave quad are closed cells too
                (cells, _), _, _ = subdivide_adaptive(quad, k)
                for verts in cells:
                    flux = boundary_flux(verts, ones, 2)
                    perimeter = sum(
                        np.hypot(*(verts[(s + 1) % len(verts)] - verts[s]))
                        for s in range(len(verts))
                    )
                    assert np.abs(flux.sum(axis=0)).max() < 1e-12 * perimeter

    def test_zero_area_cell(self):
        with pytest.raises(DegenerateElement):
            smoothed_b(0.0, boundary_flux(
                UNIT_SQUARE, shape_evaluator("wachspress", UNIT_SQUARE, 1)))


class TestElementStiffness:
    def test_unit_square_matches_cell_averaged_gradients(self):
        # independent oracle: the bilinear gradients are affine on a
        # rectangle, so each quarter-cell average is the value at the
        # quarter centroid; assemble the cell sum in closed form
        mat = MaterialModel(1.0, 0.0)
        d = elasticity_matrix(mat)
        oracle = sum(
            0.25 * bilinear_b_matrix(cx, cy).T @ d @ bilinear_b_matrix(cx, cy)
            for cx in (0.25, 0.75)
            for cy in (0.25, 0.75)
        )
        ke = element_stiffness(UNIT_SQUARE, 4, "wachspress", mat)
        assert np.abs(ke.k - oracle).max() < 1e-14

    def test_single_cell_is_one_point_quadrature(self, recwarn):
        # SC1Q4 equals the one-point reduced-integration stiffness of the
        # bilinear element, spurious modes included
        mat = MaterialModel(1.0, 0.0)
        d = elasticity_matrix(mat)
        oracle = bilinear_b_matrix(0.5, 0.5).T @ d @ bilinear_b_matrix(0.5, 0.5)
        ke = element_stiffness(UNIT_SQUARE, 1, "wachspress", mat)
        assert np.abs(ke.k - oracle).max() < 1e-14
        assert ke.zero_modes == 5
        assert ke.spurious_modes == 2
        assert any("spurious" in str(w.message) for w in recwarn.list)

    @pytest.mark.parametrize("scheme", ["wachspress", "averaged"])
    def test_coincident_corners_raise_degenerate_element(self, scheme):
        # simple, CCW, area 1; corners 1 and 2 share a point
        quad = np.array([[0.0, 2.0], [0.0, 2.0], [2.0, -2.0], [1.0, 1.0]])
        with pytest.raises(DegenerateElement, match="line through .* is "
                           "undefined"):
            element_stiffness(quad, 4, scheme, MaterialModel(1.0, 0.3))

    @pytest.mark.parametrize("k", [2, 4])
    def test_rank_and_symmetry(self, k, rng):
        mat = MaterialModel(3e7, 0.3)
        for _ in range(20):
            quad = random_convex_quad(rng)
            ke = element_stiffness(quad, k, "wachspress", mat)
            scale = np.abs(ke.k).max()
            assert np.abs(ke.k - ke.k.T).max() < 1e-12 * scale
            eigs = np.linalg.eigvalsh(ke.k)
            assert eigs.min() > -1e-9 * eigs.max()
            assert ke.zero_modes == 3
            assert ke.spurious_modes == 0

    def test_rigid_rotation_in_null_space(self):
        mat = MaterialModel(3e7, 0.3)
        ke = element_stiffness(PARALLELOGRAM, 4, "wachspress", mat)
        u = np.column_stack([-PARALLELOGRAM[:, 1], PARALLELOGRAM[:, 0]]).ravel()
        assert np.abs(ke.k @ u).max() < 1e-9 * np.abs(ke.k).max()

    def test_rectangle_scheme_equivalence(self, rng):
        mat = MaterialModel(200.0, 0.3)
        for _ in range(10):
            rect = random_rectangle(rng)
            for k in (2, 4):
                ks = {
                    s: element_stiffness(rect, k, s, mat).k
                    for s in ("wachspress", "averaged", "lagrange")
                }
                scale = np.abs(ks["wachspress"]).max()
                for s in ("averaged", "lagrange"):
                    assert np.abs(ks[s] - ks["wachspress"]).max() < 1e-10 * scale

    def test_parallelogram_schemes_identical(self):
        # on parallelograms the rational basis is polynomial and linear
        # along the bimedians, so the averaged scheme coincides exactly
        mat = MaterialModel(3e7, 0.3)
        ka = element_stiffness(PARALLELOGRAM, 4, "wachspress", mat).k
        kb = element_stiffness(PARALLELOGRAM, 4, "averaged", mat).k
        assert np.abs(ka - kb).max() < 1e-12 * np.abs(ka).max()

    def test_generic_quad_scheme_difference_baseline(self):
        # regression record: on a non-parallelogram quad the two schemes
        # differ by a small but nonzero amount
        quad = np.array([[0.0, 0.0], [1.1, -0.15], [1.3, 0.95], [-0.2, 1.05]])
        mat = MaterialModel(3e7, 0.3)
        diffs = {}
        for k in (2, 4):
            ka = element_stiffness(quad, k, "wachspress", mat).k
            kb = element_stiffness(quad, k, "averaged", mat).k
            diffs[k] = np.abs(ka - kb).max() / np.abs(ka).max()
        assert diffs[2] == pytest.approx(1.0114544099105052e-3, rel=1e-6)
        assert diffs[4] == pytest.approx(1.9283527859073315e-3, rel=1e-6)

    def test_strongly_concave_falls_back(self):
        dart = np.array([[0.0, 0.0], [2.0, 0.0], [0.25, 0.25], [0.0, 2.0]])
        mat = MaterialModel(100.0, 0.3)
        ke = element_stiffness(dart, 4, "wachspress", mat)
        assert len(ke.cells) in (1, 2)
        eigs = np.linalg.eigvalsh(ke.k)
        assert eigs.min() > -1e-9 * eigs.max()
