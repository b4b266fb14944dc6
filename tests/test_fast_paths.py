"""Randomized checks of the array fast paths against the scalar loops they
replaced: the blocked error quadrature, the roll-free polygon helpers and
the whole-mesh element checks of distort_mesh."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfem2d import benchmarks
from sfem2d.benchmarks import TimoshenkoBeam, energy_norm_error, exact_strain
from sfem2d.errors import DegenerateElement, InvalidElement
from sfem2d.mesh import (
    DistortionSpec,
    Mesh,
    concave_elements,
    distort_mesh,
    element_geometry,
    generate_structured_mesh,
    polygon_area,
    polygon_centroid,
)
from sfem2d.smoothing import elasticity_matrix, element_b_matrices
from sfem2d.solver import element_dofs

from conftest import random_convex_quad, random_simple_quad

BEAM = TimoshenkoBeam()
SCHEMES = st.sampled_from(["wachspress", "averaged", "lagrange"])
SPLITS = st.sampled_from(["12-34", "23-41"])
SEEDS = st.integers(0, 2 ** 32 - 1)
# The dart of TestSubdivide: its four bimedian cells invert.
DART = np.array([[0.0, 0.0], [2.0, 0.0], [0.25, 0.25], [0.0, 2.0]])


def dart_quad(rng):
    """Strongly concave CCW quad: the reflex corner sits near corner 0, so
    the bimedian cells often invert and subdivision falls back."""
    a, b = rng.uniform(1.0, 3.0, 2)
    t = rng.uniform(0.05, 0.45)
    q = np.array([[0.0, 0.0], [a, 0.0], [t * a, t * b], [0.0, b]])
    th = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return q @ rot.T + rng.uniform(-2.0, 2.0, 2)


QUADS = st.tuples(st.sampled_from([random_convex_quad, random_simple_quad,
                                   dart_quad]), SEEDS).map(
    lambda fs: fs[0](np.random.default_rng(fs[1])))


def fan_error_loop(mesh, u, beam, scheme, k_cells, split):
    """energy_norm_error as a per-triangle loop (its form before the cells
    were integrated in blocks)."""
    tri3_bary = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                          [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                          [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]])
    d = elasticity_matrix(beam.material)
    edofs = element_dofs(mesh)
    total = 0.0
    for e, quad in enumerate(mesh.coords[mesh.conn]):
        cells, bmats = element_b_matrices(quad, k_cells, scheme, None, split,
                                          e)
        ue = u[edofs[e]]
        for cell, b in zip(cells, bmats):
            eh = b @ ue
            verts = cell.vertices
            centroid = polygon_centroid(verts)
            m = len(verts)
            for s in range(m):
                tri = np.array([centroid, verts[s], verts[(s + 1) % m]])
                e1 = tri[1] - tri[0]
                e2 = tri[2] - tri[0]
                signed = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
                pts = tri3_bary @ tri
                diff = eh[None, :] - exact_strain(beam, pts[:, 0], pts[:, 1])
                total += (signed / 3.0) * float(
                    np.einsum("qi,ij,qj->", diff, d, diff)
                )
    return float(np.sqrt(max(total, 0.0) * beam.thickness))


class TestBlockedErrorQuadrature:
    @settings(max_examples=80, deadline=None)
    @given(quad=QUADS, scheme=SCHEMES, k=st.sampled_from([1, 2, 4]),
           split=SPLITS, useed=SEEDS)
    @example(quad=DART, scheme="wachspress", k=4, split="12-34", useed=0)
    def test_one_element_matches_loop(self, quad, scheme, k, split, useed):
        mesh = Mesh(quad, [[0, 1, 2, 3]], [])
        u = 1e-4 * np.random.default_rng(useed).standard_normal(8)
        fast = energy_norm_error(mesh, u, BEAM, scheme, k, split=split)
        slow = fan_error_loop(mesh, u, BEAM, scheme, k, split)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 4),
           alpha=st.floats(0.0, 0.5), seed=SEEDS, scheme=SCHEMES,
           k=st.sampled_from([1, 2, 4]), split=SPLITS,
           block=st.integers(1, 9))
    def test_mesh_in_small_blocks_matches_loop(self, nx, ny, alpha, seed,
                                               scheme, k, split, block):
        # Blocks smaller than the mesh put cells of one element in
        # different blocks and leave a short last block.
        mesh = generate_structured_mesh(nx, ny, 2.0, 1.0)
        try:
            mesh = distort_mesh(mesh, DistortionSpec(alpha, seed), 2.0 / nx,
                                1.0 / ny)
        except InvalidElement:
            pass
        u = 1e-4 * np.random.default_rng(seed).standard_normal(
            2 * mesh.num_nodes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(benchmarks, "_ERROR_BLOCK", block)
            fast = energy_norm_error(mesh, u, BEAM, scheme, k, split=split)
        slow = fan_error_loop(mesh, u, BEAM, scheme, k, split)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


def roll_area(p):
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def roll_centroid(p):
    x, y = p[:, 0], p[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    return np.array([float(((x + xn) * cross).sum() / (6.0 * a)),
                     float(((y + yn) * cross).sum() / (6.0 * a))])


def roll_convex(quad):
    edges = np.roll(quad, -1, axis=0) - quad
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
        - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    return bool(np.all(cross > 0) or np.all(cross < 0))


COORD = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
POLYGONS = st.integers(3, 8).flatmap(
    lambda m: arrays(np.float64, (m, 2), elements=COORD))


class TestRollFreeHelpers:
    @settings(max_examples=200, deadline=None)
    @given(pts=POLYGONS)
    def test_polygon_area_and_centroid_bit_equal(self, pts):
        area = polygon_area(pts)
        assert area == roll_area(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_array_equal(polygon_centroid(pts),
                                          roll_centroid(pts))

    @settings(max_examples=200, deadline=None)
    @given(quad=st.one_of(arrays(np.float64, (4, 2), elements=COORD),
                          QUADS))
    def test_element_geometry_bit_equal(self, quad):
        if roll_area(quad) <= 0.0:
            with pytest.raises(DegenerateElement):
                element_geometry(quad)
            return
        area, centroid, convex = element_geometry(quad)
        assert area == roll_area(quad)
        np.testing.assert_array_equal(centroid, roll_centroid(quad))
        assert convex is roll_convex(quad)


def is_simple_quad(p):
    """No proper crossing between either pair of opposite sides (the
    per-quad check distort_mesh made before its whole-mesh form)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def cross(p1, p2, p3, p4):
        d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
        d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0

    return not (cross(p[0], p[1], p[2], p[3]) or cross(p[1], p[2], p[3], p[0]))


class TestArrayDistortionChecks:
    @settings(max_examples=150, deadline=None)
    @given(nx=st.integers(2, 7), ny=st.integers(2, 7),
           alpha=st.floats(0.0, 0.5), seed=SEEDS,
           stretch=st.floats(1.0, 6.0))
    def test_same_first_bad_element_as_loop(self, nx, ny, alpha, seed,
                                            stretch):
        # dx, dy up to six times the grid spacing force invalid draws
        m = generate_structured_mesh(nx, ny, 2.0, 1.0)
        dx, dy = stretch * 2.0 / nx, stretch * 1.0 / ny
        rng = np.random.default_rng(seed)
        interior = m.interior_node_ids()
        coords = m.coords.copy()
        coords[interior] += ((2.0 * rng.random((len(interior), 2)) - 1.0)
                             * alpha * np.array([dx, dy]))
        expected = None
        for e, quad in enumerate(coords[m.conn]):
            if polygon_area(quad) <= 0.0:
                expected = (e, "distortion inverted the element")
                break
            if not is_simple_quad(quad):
                expected = (e, "distortion produced a self-intersecting quad")
                break
        if expected is None:
            out = distort_mesh(m, DistortionSpec(alpha, seed), dx, dy)
            assert np.array_equal(out.coords, coords)
            assert concave_elements(out) == [
                e for e, quad in enumerate(coords[m.conn])
                if not element_geometry(quad)[2]]
        else:
            with pytest.raises(InvalidElement) as exc:
                distort_mesh(m, DistortionSpec(alpha, seed), dx, dy)
            e, reason = expected
            assert exc.value.element_index == e
            assert str(exc.value) == f"element {e}: {reason}"
