"""Randomized checks of the array fast paths against the scalar loops they
replaced: the blocked error quadrature, the roll-free polygon helpers,
the stacked shoelace, the whole-mesh element checks of distort_mesh,
the array Wachspress construction, the batched skeleton search, the
site, cell and flux formulas of the per-cell smoothing step, the stacked
cell-boundary flux of each element, the retry-free concave fallback, the
array strain recovery and its reuse of the cells and fluxes of
assemble, and the one edge-load scatter of apply_tractions."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfem2d import benchmarks, smoothing, solver
from sfem2d import mesh as mesh_module
from sfem2d.benchmarks import (
    TimoshenkoBeam,
    beam_mesh,
    energy_norm_error,
    exact_strain,
)
from sfem2d.errors import (
    DegenerateElement,
    InvalidElement,
    OffSkeleton,
    SfemError,
    WedgeDegenerate,
)
from sfem2d.mesh import (
    CELL_SITES,
    EDGE_CORNERS,
    SKELETON_SEGMENTS,
    DistortionSpec,
    Mesh,
    check_quads,
    concave_elements,
    distort_mesh,
    generate_structured_mesh,
    polygon_area,
    polygon_centroid,
    subdivide_adaptive,
    subdivision_key,
    table_sites,
)
from sfem2d.shapefn import (
    SITE_VALUES,
    WachspressBasis,
    build_wachspress,
    eval_averaged,
    eval_wachspress,
    quad_diameter,
    shape_evaluator,
)
from sfem2d.smoothing import (
    GAUSS_1D,
    MaterialModel,
    boundary_flux,
    default_quadrature,
    elasticity_matrix,
    element_cells,
    smoothed_b,
)
from sfem2d.solver import (
    apply_tractions,
    assemble,
    cell_strains,
    element_dofs,
)

from conftest import interior_points, random_convex_quad, random_simple_quad

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
        cells, areas, fluxes = element_cells(quad, k_cells, scheme, None,
                                             split)
        ue = u[edofs[e]]
        for verts, area, flux in zip(cells, areas, fluxes):
            eh = smoothed_b(area, flux) @ ue
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
        assert polygon_area(quad) == roll_area(quad)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_array_equal(polygon_centroid(quad),
                                          roll_centroid(quad))
        reason = loop_reason(quad, roll_area(quad))
        try:
            convex = check_quads(quad[None])[0]
        except InvalidElement as err:
            # a rejected quad has no convexity flag
            assert str(err) == f"element 0: {reason}"
            return
        assert reason is None
        assert convex == roll_convex(quad)


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


def loop_reason(quad, area):
    """Why check_quads rejects a quad of the given signed area, side by
    side (None when it passes): inverted, self-crossing, two coincident
    corners, or an area within the shoelace rounding bound."""
    sides = [(quad[i], quad[(i + 1) % 4]) for i in range(4)]
    rounding = 16.0 * np.finfo(float).eps * sum(
        abs(a[0] * b[1]) + abs(b[0] * a[1]) for a, b in sides)
    if area <= 0.0:
        return "inverted quad (signed area <= 0)"
    if not is_simple_quad(quad):
        return "self-intersecting quad"
    if any(math.hypot(*(b - a)) == 0.0 for a, b in sides):
        return "two corners coincide"
    if 2.0 * area <= rounding:
        return "area within round-off of zero"
    return None


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
            reason = loop_reason(quad, polygon_area(quad))
            if reason is not None:
                expected = (e, reason)
                break
        if expected is None:
            out = distort_mesh(m, DistortionSpec(alpha, seed), dx, dy)
            assert np.array_equal(out.coords, coords)
            assert concave_elements(out) == [
                e for e, quad in enumerate(coords[m.conn])
                if not roll_convex(quad)]
        else:
            with pytest.raises(InvalidElement) as exc:
                distort_mesh(m, DistortionSpec(alpha, seed), dx, dy)
            e, reason = expected
            assert exc.value.element_index == e
            assert str(exc.value) == f"element {e}: {reason}"


# ---------------------------------------------------------------------------
# The per-element set-up: each oracle below is the scalar form the library
# used before its array form, copied verbatim in arithmetic.

def point_in_polygon(p, poly):
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            xi = x1 + (p[1] - y1) * (x2 - x1) / (y2 - y1)
            if p[0] < xi:
                inside = not inside
    return inside


def interior_point(quad):
    for i, j in ((0, 2), (1, 3)):
        mid = 0.5 * (quad[i] + quad[j])
        if point_in_polygon(mid, quad):
            return mid
    return quad.mean(axis=0)


def triangle_area(a, b, c):
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def wachspress_by_lines(quad):
    """build_wachspress through per-side line equations and an
    interior-point sign."""
    quad = np.asarray(quad, dtype=float)
    if polygon_area(quad) <= 0.0:
        raise DegenerateElement("quad must be CCW with positive area")
    ref = interior_point(quad)
    direction = np.roll(quad, -1, axis=0) - quad
    norm = np.array([float(np.hypot(dx, dy)) for dx, dy in direction])
    sign = np.ones(4)

    def line(i, p):
        """Unit-normalized side line i at p, in the anchored cross-product
        form that is bit-exact zero at both defining points."""
        return sign[i] * (direction[i, 0] * (p[1] - quad[i, 1])
                          - direction[i, 1] * (p[0] - quad[i, 0])) / norm[i]

    for i in range(4):
        if not norm[i] > 0.0:
            raise DegenerateElement(
                f"line through {quad[i]} and {quad[(i + 1) % 4]} is undefined")
        if line(i, ref) < 0.0:
            sign[i] = -1.0
    diam = quad_diameter(quad)
    side_len = np.array(
        [np.hypot(*(quad[(i + 1) % 4] - quad[i])) for i in range(4)]
    )
    kappas = np.empty(4)
    for i, (j, k) in enumerate(((1, 2), (2, 3), (3, 0), (0, 1))):
        prod = float(line(j, quad[i]) * line(k, quad[i]))
        if abs(prod) < 1e-14 * diam ** 2:
            raise WedgeDegenerate(
                f"opposite sides pass through node {i + 1}; wedge undefined"
            )
        corner = triangle_area(quad[i - 1], quad[i], quad[(i + 1) % 4])
        if abs(corner) < 1e-14 * diam ** 2:
            raise WedgeDegenerate(
                f"node {i + 1} is collinear with its neighbours; "
                "wedge constant zero"
            )
        kappas[i] = corner * side_len[j] * side_len[k]
    kappas /= np.abs(kappas).max()
    basis = WachspressBasis(kappas, diam, line_anchor=quad,
                            line_dir=direction, line_scale=sign / norm)
    delta = eval_wachspress(basis, quad) - np.eye(4)
    if np.abs(delta).max() > 1e-12:
        raise SfemError("Kronecker-delta check failed at construction")
    return basis


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except SfemError as err:
        return type(err), str(err)


def sites_by_rows(quad):
    n1, n2, n3, n4 = np.asarray(quad, dtype=float)
    return np.array([n1, n2, n3, n4, 0.5 * (n1 + n2), 0.5 * (n2 + n3),
                     0.5 * (n3 + n4), 0.5 * (n4 + n1),
                     0.25 * (n1 + n2 + n3 + n4)])


def skeleton_point(quad, k, split, p):
    """Averaged shape values at one point by a per-point nearest-segment
    search."""
    sites = sites_by_rows(quad)
    pairs = SKELETON_SEGMENTS[subdivision_key(k, split)]
    p0 = sites[[a for a, _ in pairs]]
    d = sites[[b for _, b in pairs]] - p0
    rel = p[None, :] - p0
    t = np.clip((rel * d).sum(axis=1) / (d ** 2).sum(axis=1), 0.0, 1.0)
    dist2 = ((p[None, :] - (p0 + t[:, None] * d)) ** 2).sum(axis=1)
    best = int(np.argmin(dist2))
    if np.sqrt(dist2[best]) > 1e-10 * quad_diameter(quad):
        raise OffSkeleton(
            f"point {tuple(p)} is not on a smoothing-cell boundary segment"
        )
    tb = t[best]
    return ((1.0 - tb) * SITE_VALUES[pairs[best][0]]
            + tb * SITE_VALUES[pairs[best][1]])


def flux_by_columns(verts, evaluator, n_points):
    """boundary_flux with column-stacked normals and np.roll."""
    xi, wq = GAUSS_1D[n_points]
    v1 = np.roll(verts, -1, axis=0)
    edges = v1 - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals /= np.where(lengths > 0.0, lengths, 1.0)[:, None]
    mids = 0.5 * (verts + v1)
    pts = mids[:, None, :] + 0.5 * xi[None, :, None] * edges[:, None, :]
    nvals = np.asarray(evaluator(pts.reshape(-1, 2)))
    nvals = nvals.reshape(len(verts), n_points, 4)
    weights = 0.5 * lengths[:, None] * wq[None, :]
    per_segment = np.einsum("sq,sqi->si", weights, nvals)
    return np.einsum("si,sd->id", per_segment, normals)


SUBDIVISIONS = st.sampled_from([(1, "12-34"), (2, "12-34"), (2, "23-41"),
                                (4, "12-34")])
# Small integer corners: repeated nodes, collinear triples, zero and
# negative areas and self-crossing orders all come up often.
GRID_QUADS = arrays(np.float64, (4, 2), elements=st.integers(-2, 2))


def assert_same_basis(fast, slow):
    for name in ("kappas", "line_anchor", "line_dir", "line_scale"):
        np.testing.assert_array_equal(getattr(fast, name),
                                      getattr(slow, name), err_msg=name)
    assert fast.diameter == slow.diameter


def quad_flags_by_sum(quads):
    """Signed area, self-crossing flag and convexity flag of each quad of
    an (E, 4, 2) array, the area summed by .sum() (the form check_quads
    used before polygon_area took stacks)."""
    nxt = np.array([1, 2, 3, 0])
    x, y = quads[..., 0], quads[..., 1]
    area = 0.5 * ((x * y[:, nxt]).sum(axis=1) - (x[:, nxt] * y).sum(axis=1))
    p1, p2, p3, p4 = quads.transpose(1, 0, 2)
    crossed = (mesh_module._segments_properly_intersect(p1, p2, p3, p4)
               | mesh_module._segments_properly_intersect(p2, p3, p4, p1))
    edges = quads[:, nxt] - quads
    turn = edges[..., 0] * edges[:, nxt, 1] - edges[..., 1] * edges[:, nxt, 0]
    return area, crossed, (turn > 0).all(axis=1) | (turn < 0).all(axis=1)


def check_quads_by_sum(quads):
    area, crossed, convex = quad_flags_by_sum(quads)
    for e, quad in enumerate(quads):
        assert crossed[e] == (not is_simple_quad(quad))
        reason = loop_reason(quad, area[e])
        if reason is not None:
            raise InvalidElement(e, reason)
    return convex


def shifted_and_scaled(stack, shift, scale):
    return stack * scale + shift


SHIFTS = arrays(np.float64, 2, elements=st.floats(-1e3, 1e3))
SCALES = st.sampled_from([1.0, 2.0 ** -20, 1e-3, 0.7, 3.0, 1e4])
STACKS = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(3, 8)).flatmap(
        lambda em: arrays(np.float64, em + (2,), elements=COORD)),
    st.lists(QUADS, min_size=1, max_size=6).map(np.array))
QUAD_STACKS = st.one_of(
    st.integers(0, 6).flatmap(
        lambda e: arrays(np.float64, (e, 4, 2), elements=COORD)),
    st.lists(st.one_of(QUADS, GRID_QUADS), min_size=1, max_size=6)
    .map(np.array))


class TestStackedShoelace:
    @settings(max_examples=200, deadline=None)
    @given(stack=st.builds(shifted_and_scaled, STACKS, SHIFTS, SCALES))
    def test_stacked_area_bit_equal_to_one_polygon(self, stack):
        areas = polygon_area(stack)
        assert areas.shape == stack.shape[:1]
        assert areas.tolist() == [polygon_area(p) for p in stack]
        assert areas.tolist() == [roll_area(p) for p in stack]
        np.testing.assert_array_equal(polygon_area(stack[None]), areas[None])

    @settings(max_examples=200, deadline=None)
    @given(quads=st.builds(shifted_and_scaled, QUAD_STACKS, SHIFTS, SCALES))
    def test_check_quads_flags_equal_to_summed_area(self, quads):
        area = quad_flags_by_sum(quads)[0]
        # The two shoelaces differ in the last bit, so only the sign of an
        # area within their rounding error may differ.
        x, y = quads[..., 0], quads[..., 1]
        nxt = np.array([1, 2, 3, 0])
        rounding = 16.0 * np.finfo(float).eps * (
            np.abs(x * y[:, nxt]) + np.abs(x[:, nxt] * y)).sum(axis=1)
        fast_area = polygon_area(quads)
        agree = (fast_area > 0.0) == (area > 0.0)
        assert agree[np.abs(2.0 * area) > rounding].all()
        # either area within the bound is rejected as round-off
        agree &= (2.0 * fast_area <= rounding) == (2.0 * area <= rounding)
        if agree.all():
            fast = outcome(check_quads, quads)
            slow = outcome(check_quads_by_sum, quads)
            if isinstance(slow, tuple):
                assert fast == slow
            else:
                np.testing.assert_array_equal(fast, slow)


class TestRoundOffArea:
    @settings(max_examples=300, deadline=None)
    @given(t=arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)),
           line=arrays(np.float64, (2, 2), elements=st.floats(-10.0, 10.0)),
           shift=SHIFTS, scale=SCALES)
    def test_collinear_quads_rejected(self, t, line, shift, scale):
        # four corners on one line, in any order: zero area up to round-off
        anchor, direction = line
        quad = shifted_and_scaled(anchor + t[:, None] * direction, shift,
                                  scale)
        with pytest.raises(InvalidElement, match="^element 0: "):
            check_quads(quad[None])


class TestArrayWachspress:
    @settings(max_examples=300, deadline=None)
    @given(quad=QUADS, pseed=SEEDS)
    def test_simple_quads_bit_equal(self, quad, pseed):
        fast, slow = outcome(build_wachspress, quad), \
            outcome(wachspress_by_lines, quad)
        if isinstance(slow, tuple):
            assert fast == slow
            return
        assert_same_basis(fast, slow)
        rng = np.random.default_rng(pseed)
        lo, hi = quad.min(axis=0), quad.max(axis=0)
        pts = np.vstack([interior_points(quad, rng, 16),
                         lo + (hi - lo) * rng.random((16, 2))])
        for p in pts:   # one at a time: a pole raises for its point only
            fv, sv = outcome(eval_wachspress, fast, p), \
                outcome(eval_wachspress, slow, p)
            if isinstance(sv, tuple):
                assert fv == sv
            else:
                np.testing.assert_array_equal(fv, sv)

    @settings(max_examples=400, deadline=None)
    @given(quad=GRID_QUADS)
    # a sliver: node 1 is both on its opposite sides and flat
    @example(quad=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-15],
                            [1.0, 1e-15]]))
    def test_degenerate_draws_raise_alike(self, quad):
        # a self-crossing order has no inside to fix a side-line sign by
        assume(is_simple_quad(quad))
        fast, slow = outcome(build_wachspress, quad), \
            outcome(wachspress_by_lines, quad)
        if isinstance(slow, tuple):
            assert fast == slow
        else:
            assert_same_basis(fast, slow)


    @settings(max_examples=300, deadline=None)
    @given(quad=st.builds(shifted_and_scaled, st.one_of(QUADS, GRID_QUADS),
                          SHIFTS, SCALES))
    def test_kronecker_delta_is_exact(self, quad):
        # build_wachspress no longer checks it: the other wedges vanish
        # exactly at each node, so N_i(node i) = w_i / w_i
        basis = outcome(build_wachspress, quad)
        assume(not isinstance(basis, tuple))
        assert np.array_equal(eval_wachspress(basis, quad), np.eye(4))


class TestBatchedSkeleton:
    @settings(max_examples=200, deadline=None)
    @given(quad=QUADS, sub=SUBDIVISIONS, pseed=SEEDS,
           n=st.integers(1, 24))
    def test_batch_bit_equal_to_point_search(self, quad, sub, pseed, n):
        k, split = sub
        rng = np.random.default_rng(pseed)
        pairs = np.array(SKELETON_SEGMENTS[subdivision_key(k, split)])
        sites = table_sites(quad)
        seg = rng.integers(0, len(pairs), n)
        t = rng.choice([0.0, 1.0, 0.5, rng.random()], n)[:, None]
        p0, p1 = sites[pairs[seg, 0]], sites[pairs[seg, 1]]
        pts = p0 + t * (p1 - p0)
        slow = np.array([skeleton_point(quad, k, split, p) for p in pts])
        np.testing.assert_array_equal(eval_averaged(quad, k, pts, split),
                                      slow)
        np.testing.assert_array_equal(eval_averaged(quad, k, pts[0], split),
                                      slow[0])
        assert eval_averaged(quad, k, np.empty((0, 2)), split).shape == (0, 4)
        evaluator = shape_evaluator("averaged", quad, k, split)
        np.testing.assert_array_equal(evaluator(pts), slow)

    @settings(max_examples=100, deadline=None)
    @given(quad=QUADS, sub=SUBDIVISIONS, at=st.integers(0, 5))
    def test_one_off_point_raises(self, quad, sub, at):
        k, split = sub
        pts = np.repeat(table_sites(quad)[[0, 4]], 3, axis=0)
        pts[at] = quad.max(axis=0) + quad_diameter(quad)   # outside
        with pytest.raises(OffSkeleton) as exc:
            eval_averaged(quad, k, pts, split)
        assert str(exc.value) == outcome(skeleton_point, quad, k, split,
                                         pts[at])[1]


class TestCellFormulas:
    @settings(max_examples=300, deadline=None)
    @given(quad=st.one_of(QUADS, GRID_QUADS), sub=SUBDIVISIONS)
    def test_sites_and_cells_bit_equal(self, quad, sub):
        np.testing.assert_array_equal(table_sites(quad), sites_by_rows(quad))
        k, split = sub
        sites = sites_by_rows(quad)
        expected = []
        for ids in CELL_SITES[subdivision_key(k, split)]:
            verts = sites[list(ids)]
            area = polygon_area(verts)
            if area <= 0.0:
                expected = (DegenerateElement, f"smoothing cell has area {area}")
                break
            expected.append((verts, area))
        cells = outcome(subdivide_adaptive, quad, k, split)
        if isinstance(expected, tuple):
            # an inverted cell: the same error for k=1, else a fallback
            assert cells == expected if k == 1 else cells[1:] != (k, split)
            return
        (verts, areas), k_used, split_used = cells
        assert (k_used, split_used) == (k, split)
        np.testing.assert_array_equal(verts, [v for v, _ in expected])
        assert areas.tolist() == [a for _, a in expected]

    @settings(max_examples=200, deadline=None)
    @given(quad=QUADS, scheme=SCHEMES, sub=SUBDIVISIONS,
           n_points=st.integers(1, 4), vseed=SEEDS)
    def test_boundary_flux_bit_equal(self, quad, scheme, sub, n_points,
                                     vseed):
        k, split = sub
        cells = outcome(subdivide_adaptive, quad, k, split)
        # an error outcome is (type, message)
        assume(not isinstance(cells[0], type))
        (verts, _), k_used, split_used = cells
        evaluator = outcome(shape_evaluator, scheme, quad, k_used, split_used)
        assume(not isinstance(evaluator, tuple))
        polygons = list(verts)
        if scheme != "averaged":
            # a basis defined everywhere takes any polygon, 3 to 5 sides
            polygons.append(quad[0] + np.random.default_rng(vseed).random(
                (int(vseed % 3) + 3, 2)))
        for verts in polygons:
            fast = outcome(boundary_flux, verts, evaluator, n_points)
            slow = outcome(flux_by_columns, verts, evaluator, n_points)
            if isinstance(slow, tuple):
                assert fast == slow
            else:
                np.testing.assert_array_equal(fast, slow)


def cells_per_cell(quad, k_cells, scheme, n_points=None, split="12-34"):
    """element_cells with one boundary_flux call per cell (its form
    before the cells of an element were stacked)."""
    if n_points is None:
        n_points = default_quadrature(scheme)
    (verts, areas), k_used, split_used = subdivide_adaptive(quad, k_cells,
                                                            split)
    evaluator = shape_evaluator(scheme, quad, k_used, split_used)
    return verts, areas, np.array([boundary_flux(v, evaluator, n_points)
                                   for v in verts])


def b_matrices_per_cell(quad, k_cells, scheme, n_points=None, split="12-34"):
    """The cells of one element and the smoothed B of each, from the
    per-cell fluxes of cells_per_cell."""
    verts, areas, fluxes = cells_per_cell(quad, k_cells, scheme, n_points,
                                          split)
    return (verts, areas), [smoothed_b(a, f) for a, f in zip(areas, fluxes)]


def strains_by_element(mesh, u, scheme, k_cells):
    """cell_strains as lists grown element by element from the smoothed
    B of each cell of element_cells (its form before it filled arrays)."""
    edofs = element_dofs(mesh)
    verts, areas, strains = [], [], []
    for e, quad in enumerate(mesh.coords[mesh.conn]):
        cv, ca, cf = element_cells(quad, k_cells, scheme)
        verts.extend(cv)
        areas.extend(ca)
        strains.extend(smoothed_b(a, f) @ u[edofs[e]]
                       for a, f in zip(ca, cf))
    return np.array(verts), np.array(areas), np.array(strains)


def subdivide_by_retry(quad, k, split="12-34"):
    """subdivide_adaptive as a try/except retry over a subdivide that
    raises on the first inverted cell (its form before the cells were
    arrays)."""

    def cells_or_raise(kk, ss):
        sites = table_sites(quad)
        cells = []
        for ids in CELL_SITES[subdivision_key(kk, ss)]:
            verts = sites[list(ids)]
            area = polygon_area(verts)
            if area <= 0.0:
                raise DegenerateElement(f"smoothing cell has area {area}")
            cells.append((verts, area))
        return cells

    if k == 4:
        attempts = [(4, split), (2, "12-34"), (2, "23-41"), (1, split)]
    elif k == 2:
        other = "23-41" if split == "12-34" else "12-34"
        attempts = [(2, split), (2, other), (1, split)]
    else:
        attempts = [(k, split)]
    last = None
    for kk, ss in attempts:
        try:
            return cells_or_raise(kk, ss), kk, ss
        except DegenerateElement as err:
            last = err
    raise last


class TestStackedFlux:
    @settings(max_examples=300, deadline=None)
    @given(quad=QUADS, scheme=SCHEMES, k=st.sampled_from([1, 2, 4]),
           split=SPLITS, n_points=st.integers(1, 4))
    @example(quad=DART, scheme="wachspress", k=4, split="12-34", n_points=2)
    def test_stack_bit_equal_to_per_cell_calls(self, quad, scheme, k, split,
                                               n_points):
        # simple CCW quads always subdivide, falling back to fewer cells
        (verts, _), k_used, split_used = subdivide_adaptive(quad, k, split)
        evaluator = outcome(shape_evaluator, scheme, quad, k_used, split_used)
        assume(not isinstance(evaluator, tuple))
        fast = outcome(boundary_flux, verts, evaluator, n_points)
        slow = [outcome(boundary_flux, v, evaluator, n_points) for v in verts]
        raised = [f for f in slow if isinstance(f, tuple)]
        if raised:
            assert fast == raised[0]
        else:
            assert fast.shape == (len(verts), 4, 2)
            np.testing.assert_array_equal(fast, np.stack(slow))

    @settings(max_examples=300, deadline=None)
    @given(quad=QUADS, scheme=SCHEMES, k=st.sampled_from([1, 2, 4]),
           split=SPLITS, n_points=st.integers(1, 4))
    @example(quad=DART, scheme="wachspress", k=4, split="12-34", n_points=2)
    def test_cell_b_matrices_bit_equal_to_per_cell_calls(
            self, quad, scheme, k, split, n_points):
        try:
            (verts, areas), bmats = b_matrices_per_cell(quad, k, scheme,
                                                        n_points, split)
        except SfemError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                element_cells(quad, k, scheme, n_points, split)
            return
        fast_verts, fast_areas, fluxes = element_cells(quad, k, scheme,
                                                       n_points, split)
        fast_bmats = [smoothed_b(a, f) for a, f in zip(fast_areas, fluxes)]
        assert len(fast_verts) == len(verts) == len(fast_bmats)
        np.testing.assert_array_equal(fast_verts, verts)
        np.testing.assert_array_equal(fast_areas, areas)
        for fb, b in zip(fast_bmats, bmats):
            np.testing.assert_array_equal(fb, b)

    @pytest.mark.parametrize("scheme", ["wachspress", "averaged", "lagrange"])
    def test_fallback_mesh_strains_and_error_match_per_cell_loop(self,
                                                                 scheme):
        mesh = beam_mesh(BEAM, 4, 0.5, seed=0)
        quads = mesh.coords[mesh.conn]
        # the stacks of the fallback elements hold 2 cells, not 4
        assert sum(subdivide_adaptive(q, 4)[1] < 4 for q in quads) == 5
        u = 1e-4 * np.random.default_rng(0).standard_normal(
            2 * mesh.num_nodes)
        fast_strains = cell_strains(mesh, u, scheme, 4)
        fast_error = energy_norm_error(mesh, u, BEAM, scheme, 4)
        by_element = strains_by_element(mesh, u, scheme, 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "element_cells", cells_per_cell)
            slow_strains = cell_strains(mesh, u, scheme, 4)
            slow_error = energy_norm_error(mesh, u, BEAM, scheme, 4)
        assert len(fast_strains[0]) == 4 * 507 + 2 * 5
        for slow in (slow_strains, by_element):
            assert [a.shape for a in slow] == [a.shape for a in fast_strains]
            for fast_part, slow_part in zip(fast_strains, slow):
                np.testing.assert_array_equal(fast_part, slow_part)
        assert fast_error == slow_error


class TestRetryFreeFallback:
    @settings(max_examples=300, deadline=None)
    @given(quad=st.one_of(QUADS, GRID_QUADS), k=st.sampled_from([1, 2, 4]),
           split=SPLITS)
    @example(quad=DART, k=4, split="12-34")
    @example(quad=DART, k=2, split="23-41")
    def test_same_cells_or_error_as_retry(self, quad, k, split):
        slow = outcome(subdivide_by_retry, quad, k, split)
        fast = outcome(subdivide_adaptive, quad, k, split)
        if isinstance(slow[0], type):
            assert fast == slow
            return
        (verts, areas), k_used, split_used = fast
        cells, slow_k, slow_split = slow
        assert (k_used, split_used) == (slow_k, slow_split)
        np.testing.assert_array_equal(verts, [v for v, _ in cells])
        assert areas.tolist() == [a for _, a in cells]


def distorted_grid(nx, ny, alpha, seed):
    """An nx-by-ny grid over [0, 2] x [0, 1], distorted when the draw
    keeps every element valid."""
    mesh = generate_structured_mesh(nx, ny, 2.0, 1.0)
    try:
        return distort_mesh(mesh, DistortionSpec(alpha, seed), 2.0 / nx,
                            1.0 / ny)
    except InvalidElement:
        return mesh


def copy_mesh(mesh):
    """An equal mesh with no assemble behind it."""
    return Mesh(mesh.coords, mesh.conn, mesh.boundary_edges)


def recovered(mesh, u, scheme, k, n_points, split):
    """cell_strains and energy_norm_error, or what they raised."""
    try:
        return (cell_strains(mesh, u, scheme, k, n_points, split),
                energy_norm_error(mesh, u, BEAM, scheme, k, n_points, split))
    except SfemError as err:
        return type(err), str(err)


def assert_same_recovery(fast, slow):
    if isinstance(slow[0], type):
        assert fast == slow
        return
    (fast_cells, fast_error), (slow_cells, slow_error) = fast, slow
    for fast_part, slow_part in zip(fast_cells, slow_cells):
        assert fast_part.dtype == slow_part.dtype
        np.testing.assert_array_equal(fast_part, slow_part)
    assert fast_error == slow_error


def counting(mp, module, name, calls):
    """Count the calls of module.name in calls[name]."""
    fn = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    mp.setattr(module, name, counted)


FALLBACK_MESH = beam_mesh(BEAM, 4, 0.5, 0)   # 5 elements fall back to 2 cells
# (scheme, k_cells, n_points, split) of a smoothing pass
CELL_KEYS = st.tuples(SCHEMES, st.sampled_from([1, 2, 4]),
                      st.one_of(st.none(), st.integers(1, 4)), SPLITS)


@pytest.mark.filterwarnings("ignore:single-cell smoothing")
class TestAssembledCellsReuse:
    @settings(max_examples=60, deadline=None)
    @given(mesh=st.builds(distorted_grid, st.integers(1, 4),
                          st.integers(1, 3), st.floats(0.0, 0.5), SEEDS),
           key=CELL_KEYS, other=st.one_of(st.none(), CELL_KEYS),
           useed=SEEDS)
    @example(mesh=FALLBACK_MESH, key=("wachspress", 4, 2, "12-34"),
             other=None, useed=0)
    def test_bit_equal_to_a_mesh_never_assembled(self, mesh, key, other,
                                                 useed):
        # other: recover with another key than assemble's (None: the same)
        scheme, k, n_points, split = key
        u = 1e-4 * np.random.default_rng(useed).standard_normal(
            2 * mesh.num_nodes)
        try:
            assemble(mesh, scheme, k, BEAM.material, n_points, split)
        except SfemError:
            pass   # nothing kept: both meshes build their cells and raise
        args = (u,) + (other or key)
        assert_same_recovery(recovered(mesh, *args),
                             recovered(copy_mesh(mesh), *args))

    def test_other_cell_count_rebuilds(self):
        mesh = copy_mesh(FALLBACK_MESH)
        u = 1e-4 * np.random.default_rng(1).standard_normal(
            2 * mesh.num_nodes)
        assemble(mesh, "wachspress", 4, BEAM.material)
        args = (u, "wachspress", 2, None, "12-34")
        assert_same_recovery(recovered(mesh, *args),
                             recovered(copy_mesh(mesh), *args))

    def test_reuse_builds_no_cell_and_one_b_per_cell(self):
        mesh = copy_mesh(FALLBACK_MESH)
        assemble(mesh, "wachspress", 4, BEAM.material)
        calls = {}
        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((smoothing, "shape_evaluator"),
                                 (smoothing, "subdivide_adaptive"),
                                 (solver, "check_quads"),
                                 (solver, "smoothed_b")):
                counting(mp, module, name, calls)
            verts, _, _ = cell_strains(mesh, np.zeros(2 * mesh.num_nodes),
                                       "wachspress", 4)
        assert len(verts) == 4 * 507 + 2 * 5
        assert calls == {"shape_evaluator": 0, "subdivide_adaptive": 0,
                         "check_quads": 0, "smoothed_b": len(verts)}

    def test_mesh_attributes_cannot_change(self):
        # the kept cells stay those of the mesh's one set of arrays
        mesh = generate_structured_mesh(2, 2, 2.0, 1.0)
        u = 1e-3 * np.arange(2 * mesh.num_nodes)
        assemble(mesh, "wachspress", 4, MaterialModel(1.0, 0.3))
        moved = distorted_grid(2, 2, 0.4, 3)   # moves the center node
        for name in ("coords", "conn", "boundary_edges", "num_nodes"):
            with pytest.raises(AttributeError):
                setattr(mesh, name, getattr(moved, name))
            with pytest.raises(AttributeError):
                delattr(mesh, name)
        with pytest.raises(AttributeError):
            mesh.coords = mesh.coords.copy()
        with pytest.raises(AttributeError):
            mesh.tag = "new"
        assert not np.array_equal(mesh.coords, moved.coords)
        args = (u, "wachspress", 4, None, "12-34")
        assert_same_recovery(recovered(mesh, *args),
                             recovered(copy_mesh(mesh), *args))

    def test_mesh_arrays_are_read_only(self):
        mesh = generate_structured_mesh(2, 1, 2.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            mesh.coords[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mesh.conn[0, 0] = 1

    def test_kept_cells_do_not_keep_the_mesh(self):
        mesh = generate_structured_mesh(2, 1, 2.0, 1.0)
        assemble(mesh, "wachspress", 4, MaterialModel(1.0, 0.3))
        assert mesh in solver._ASSEMBLED_CELLS
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None


def tractions_two_branch(mesh, tag, traction, n_points, scheme, k_cells):
    """apply_tractions as two scatters, hat functions on the edge's corners
    or lagrange values on all four (its form before one scatter served
    every scheme)."""
    load = np.zeros(2 * mesh.num_nodes)
    xi, wq = GAUSS_1D[n_points]
    for be in [be for be in mesh.boundary_edges if be.tag == tag]:
        nodes = mesh.conn[be.element]
        quad = mesh.coords[nodes]
        a, b = EDGE_CORNERS[be.local_edge]
        v0, v1 = quad[a], quad[b]
        edge = v1 - v0
        length = float(np.hypot(edge[0], edge[1]))
        pts = 0.5 * (v0 + v1) + 0.5 * np.outer(xi, edge)
        tvals = np.array([traction(x, y) for x, y in pts])
        weights = 0.5 * length * wq
        if scheme == "lagrange":
            nvals = np.asarray(shape_evaluator(scheme, quad, k_cells)(pts))
            for i, node in enumerate(nodes):
                fi = (weights * nvals[:, i]) @ tvals
                load[2 * node : 2 * node + 2] += fi
        else:
            fa = (weights * (0.5 * (1.0 - xi))) @ tvals
            fb = (weights * (0.5 * (1.0 + xi))) @ tvals
            na, nb = nodes[a], nodes[b]
            load[2 * na : 2 * na + 2] += fa
            load[2 * nb : 2 * nb + 2] += fb
    return load


class TestOneScatter:
    @settings(max_examples=100, deadline=None)
    @given(mesh=st.builds(distorted_grid, st.integers(1, 5),
                          st.integers(1, 4), st.floats(0.0, 0.5), SEEDS),
           tag=st.sampled_from(["left", "right", "top", "bottom"]),
           coef=arrays(np.float64, 6, elements=st.floats(-5.0, 5.0)),
           scheme=SCHEMES, n_points=st.integers(1, 4),
           k=st.sampled_from([1, 2, 4]))
    def test_bit_equal_to_two_branch_loop(self, mesh, tag, coef, scheme,
                                          n_points, k):
        # affine tractions change sign inside the [0, 2] x [-0.5, 0.5] grid
        def traction(x, y):
            return (coef[0] * (x - 1.0) + coef[1] * y + coef[2],
                    coef[3] * (x - 1.0) + coef[4] * y + coef[5])

        fast = apply_tractions(mesh, tag, traction, n_points, scheme, k)
        slow = tractions_two_branch(mesh, tag, traction, n_points, scheme, k)
        np.testing.assert_array_equal(fast, slow)
