"""Mesh generation, distortion, subdivision, and the text format."""

import gc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfem2d.errors import (
    DegenerateElement,
    InvalidElement,
    UnsupportedSubdivision,
)
from sfem2d.mesh import (
    BoundaryEdge,
    DistortionSpec,
    Mesh,
    check_quads,
    concave_elements,
    distort_mesh,
    generate_structured_mesh,
    mesh_from_text,
    mesh_to_text,
    polygon_area,
    polygon_centroid,
    subdivide_adaptive,
)

from conftest import PARALLELOGRAM, UNIT_SQUARE, random_simple_quad

# Six nodes, elements 0 = (0 1 4 3) and 1 = (1 2 5 4), six boundary edges.
TWO_BY_ONE = mesh_to_text(generate_structured_mesh(2, 1, 2.0, 1.0))


class TestStructuredMesh:
    def test_single_cell_grid(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        coords = sorted(map(tuple, m.coords.tolist()))
        assert coords == [(0.0, -0.5), (0.0, 0.5), (1.0, -0.5), (1.0, 0.5)]
        assert m.num_elements == 1
        assert polygon_area(m.coords[m.conn[0]]) > 0

    def test_beam_mesh_index_definition(self):
        # mesh index = elements along x / domain length
        m = generate_structured_mesh(8, 4, 8, 4)
        assert 8 / 8.0 == 1.0
        assert m.num_nodes == 9 * 5
        assert m.num_elements == 32

    def test_uniform_spacing(self):
        m = generate_structured_mesh(2, 1, 8, 4)
        assert m.coords[1, 0] - m.coords[0, 0] == 4.0
        assert m.coords[3, 1] - m.coords[0, 1] == 4.0

    def test_boundary_tags(self):
        m = generate_structured_mesh(3, 2, 3, 2)
        count = {}
        for be in m.boundary_edges:
            count[be.tag] = count.get(be.tag, 0) + 1
        assert count == {"left": 2, "right": 2, "top": 3, "bottom": 3}
        # each boundary edge belongs to exactly one element
        assert len({(b.element, b.local_edge) for b in m.boundary_edges}) == len(
            m.boundary_edges
        )

    def test_elements_ccw(self):
        m = generate_structured_mesh(4, 3, 2, 1.5)
        for e in range(m.num_elements):
            assert polygon_area(m.coords[m.conn[e]]) > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_structured_mesh(0, 1, 1, 1)
        with pytest.raises(ValueError):
            generate_structured_mesh(1, 1, -1, 1)


class TestDistortion:
    def test_zero_alpha_is_identity(self):
        m = generate_structured_mesh(4, 4, 1, 1)
        out = distort_mesh(m, DistortionSpec(0.0, 7), 0.25, 0.25)
        assert np.array_equal(m.coords, out.coords)

    def test_displacement_bound_and_boundary_fixed(self):
        m = generate_structured_mesh(6, 6, 3, 3)
        out = distort_mesh(m, DistortionSpec(0.5, 11), 0.5, 0.5)
        boundary = set(m.boundary_node_ids())
        for i, (a, b) in enumerate(zip(m.coords, out.coords)):
            if i in boundary:
                assert tuple(a) == tuple(b)
            else:
                assert abs(b[0] - a[0]) < 0.5 * 0.5
                assert abs(b[1] - a[1]) < 0.5 * 0.5

    def test_determinism(self):
        m = generate_structured_mesh(5, 5, 1, 1)
        a = distort_mesh(m, DistortionSpec(0.4, 123), 0.2, 0.2)
        b = distort_mesh(m, DistortionSpec(0.4, 123), 0.2, 0.2)
        assert a.coords.tolist() == b.coords.tolist()

    def test_draw_order_node_major_x_first(self):
        # 2x2 grid has a single interior node; its displacement must use
        # the generator's first draw for x and second for y.
        m = generate_structured_mesh(2, 2, 1, 1)
        out = distort_mesh(m, DistortionSpec(0.3, 42), 0.5, 0.5)
        gen = np.random.default_rng(42)
        rx, ry = gen.random(), gen.random()
        (i,) = m.interior_node_ids()
        assert out.coords[i, 0] == m.coords[i, 0] + (2 * rx - 1) * 0.3 * 0.5
        assert out.coords[i, 1] == m.coords[i, 1] + (2 * ry - 1) * 0.3 * 0.5

    def test_self_intersecting_element_rejected(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        bowtie = Mesh(coords, [(0, 1, 2, 3)], [])
        with pytest.raises(InvalidElement) as exc:
            distort_mesh(bowtie, DistortionSpec(0.0, 0), 1.0, 1.0)
        assert exc.value.element_index == 0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            DistortionSpec(0.6, 0)


class TestSubdivide:
    def test_unit_square_four_cells(self):
        (verts, areas), k_used, _ = subdivide_adaptive(UNIT_SQUARE, 4)
        assert k_used == 4
        assert len(verts) == len(areas) == 4
        for v, area in zip(verts, areas):
            assert area == pytest.approx(0.25, abs=1e-15)
            assert any(np.all(p == [0.5, 0.5]) for p in v)

    def test_unit_square_two_cells(self):
        (verts, areas), k_used, split = subdivide_adaptive(UNIT_SQUARE, 2)
        assert (k_used, split) == (2, "12-34")
        assert list(areas) == pytest.approx([0.5, 0.5])
        # default split joins midpoints of sides 1-2 and 3-4 (vertical)
        assert np.allclose(verts[0, 1], [0.5, 0.0])
        (other, _), k_used, split = subdivide_adaptive(UNIT_SQUARE, 2,
                                                       split="23-41")
        assert (k_used, split) == (2, "23-41")
        assert np.allclose(other[0, 2], [1.0, 0.5])

    def test_parallelogram_cells(self):
        # Midpoints by hand: (0.5,0), (1.25,0.5), (1,1), (0.25,0.5); the
        # bimedians cross at their common midpoint (0.75, 0.5).
        (verts, areas), k_used, _ = subdivide_adaptive(PARALLELOGRAM, 4)
        assert k_used == 4
        assert list(areas) == pytest.approx([0.25] * 4, rel=1e-14)
        for v in verts:
            assert any(np.allclose(p, [0.75, 0.5]) for p in v)
        assert sum(areas) == pytest.approx(1.0, rel=1e-14)

    def test_k1_is_element(self):
        ((verts,), (area,)), k_used, _ = subdivide_adaptive(PARALLELOGRAM, 1)
        assert k_used == 1
        assert np.array_equal(verts, PARALLELOGRAM)
        assert area == polygon_area(PARALLELOGRAM)

    def test_tiling_property(self, rng):
        for _ in range(50):
            quad = random_simple_quad(rng)
            area = polygon_area(quad)
            for k in (1, 2, 4):
                # the cells of a fallback tile the element too
                (_, areas), _, _ = subdivide_adaptive(quad, k)
                assert sum(areas) == pytest.approx(area, rel=1e-12)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedSubdivision):
            subdivide_adaptive(UNIT_SQUARE, 3)

    def test_adaptive_fallback_on_strong_concavity(self):
        # reflex corner triangle larger than half the element area makes a
        # four-cell bimedian subdivision invert
        dart = np.array([[0.0, 0.0], [2.0, 0.0], [0.25, 0.25], [0.0, 2.0]])
        assert polygon_area(dart) > 0
        (_, areas), k_used, _ = subdivide_adaptive(dart, 4)
        assert k_used in (1, 2)
        assert sum(areas) == pytest.approx(
            polygon_area(dart), rel=1e-12
        )

    def test_inverted_single_cell_raises(self):
        # a clockwise quad has no valid cells; the last attempt is k=1
        with pytest.raises(DegenerateElement,
                           match=r"^smoothing cell has area -1\.0$"):
            subdivide_adaptive(UNIT_SQUARE[::-1], 4)

    def test_adaptive_fallback_leaves_no_reference_cycle(self):
        # A kept exception's traceback would pin the callers' frames (and
        # their arrays) until the cyclic garbage collector runs.
        dart = np.array([[0.0, 0.0], [2.0, 0.0], [0.25, 0.25], [0.0, 2.0]])
        gc.collect()
        gc.disable()
        try:
            _, k_used, _ = subdivide_adaptive(dart, 4)
            assert k_used < 4
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestElementGeometry:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == 1.0
        assert np.allclose(polygon_centroid(UNIT_SQUARE), [0.5, 0.5])
        assert check_quads(UNIT_SQUARE[None]).tolist() == [True]

    def test_parallelogram(self):
        assert polygon_area(PARALLELOGRAM) == pytest.approx(1.0, abs=1e-15)
        assert check_quads(PARALLELOGRAM[None]).tolist() == [True]

    def test_chevron_concave(self):
        chevron = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        assert polygon_area(chevron) == pytest.approx(0.75)
        assert check_quads(chevron[None]).tolist() == [False]

    def test_degenerate_raises(self):
        cw = UNIT_SQUARE[::-1]
        with pytest.raises(InvalidElement, match="element 0: inverted quad"):
            check_quads(cw[None])

    def test_concave_elements_listing(self):
        m = generate_structured_mesh(2, 2, 1, 1)
        assert concave_elements(m) == []

    def test_concave_elements_rejects_self_crossing(self):
        # signed area +1, but sides 2-3 and 4-1 cross
        m = Mesh([(0, 0), (3, 0), (0, 1), (1, 2)], [[0, 1, 2, 3]], [])
        with pytest.raises(InvalidElement) as exc:
            concave_elements(m)
        assert exc.value.element_index == 0
        assert str(exc.value) == "element 0: self-intersecting quad"


class TestTextFormat:
    def test_round_trip(self):
        m = generate_structured_mesh(3, 2, 2.0, 1.0)
        m = distort_mesh(m, DistortionSpec(0.37, 5), 2.0 / 3, 0.5)
        back = mesh_from_text(mesh_to_text(m))
        assert back.coords.tolist() == m.coords.tolist()
        assert back.conn.tolist() == m.conn.tolist()
        assert back.boundary_edges == m.boundary_edges

    def test_format_layout(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        lines = mesh_to_text(m).splitlines()
        assert lines[0] == "nodes 4 elements 1"
        assert lines[1].split()[0] == "0"
        assert lines[5].split() == ["0", "0", "1", "3", "2"]
        assert lines[6].split()[0] == "edge"

    @pytest.mark.parametrize("text, message", [
        pytest.param("vertices 1 cells 0\n", "bad header", id="keywords"),
        pytest.param("", "bad header", id="empty"),
        pytest.param("nodes 4", "bad header", id="short-header"),
        pytest.param("nodes 1 elements 0\n0 1.0", "line 2", id="short-row"),
        pytest.param("nodes 1 elements 0\n\n0 1.0 2.0 3.0", "line 3",
                     id="long-row-after-blank"),
        pytest.param("nodes 2 elements 0\n0 0 0\n2 1 0", "line 3",
                     id="node-id-out-of-order"),
        pytest.param("\n".join(TWO_BY_ONE.splitlines()[:8]) + "\n",
                     "line 1: header declares 6 nodes and 2 elements",
                     id="truncated-after-first-element"),
        pytest.param(TWO_BY_ONE.replace("\n1 1 2 5 4\n", "\n7 1 2 5 4\n"),
                     "line 9: expected element id 1", id="element-id-7"),
        pytest.param(TWO_BY_ONE.replace("\n0 0 -0.5\n", "\n0 abc 1\n"),
                     "line 2: could not convert", id="non-numeric-coordinate"),
        pytest.param(TWO_BY_ONE.replace("\n0 0 -0.5\n", "\nzero 0 -0.5\n"),
                     "line 2: invalid literal", id="non-integer-node-id"),
        pytest.param(TWO_BY_ONE.replace("\n1 1 2 5 4\n", "\n1 1 2 5 x\n"),
                     "line 9: invalid literal", id="non-integer-node-index"),
        pytest.param(TWO_BY_ONE.replace("edge 0 0 bottom", "edge 0 0.5 bottom"),
                     "line 10: invalid literal", id="non-integer-local-edge"),
        pytest.param("nodes two elements 0\n", "line 1: invalid literal",
                     id="non-integer-count"),
    ])
    def test_bad_header(self, text, message):
        with pytest.raises(ValueError, match=message):
            mesh_from_text(text)


class TestMeshValidation:
    def test_repeated_node_id(self):
        coords = [(float(i), 0.0) for i in range(4)]
        with pytest.raises(InvalidElement):
            Mesh(coords, [(0, 1, 2, 2)], [])

    def test_out_of_range_node(self):
        coords = [(float(i), 0.0) for i in range(4)]
        with pytest.raises(InvalidElement):
            Mesh(coords, [(0, 1, 2, 9)], [])

    def test_boundary_edges_cannot_grow(self):
        m = generate_structured_mesh(2, 1, 2.0, 1.0)
        with pytest.raises(AttributeError):
            m.boundary_edges.append(BoundaryEdge(0, 1, "left"))
        assert m.boundary_node_ids("left") == [0, 3]

    def test_duplicate_boundary_edge(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        with pytest.raises(ValueError):
            Mesh(m.coords, m.conn, [BoundaryEdge(0, 0, "bottom")] * 2)

    ONE_QUAD = "nodes 4 elements 1\n0 0 0\n{}\n2 1 1\n3 0 1\n0 0 1 2 3\n{}\n"

    @pytest.mark.parametrize("text, message", [
        (ONE_QUAD.format("1 1 0", "edge 5 0 left"), "line 7: .*out of range"),
        (ONE_QUAD.format("1 1 0", "edge -1 0 left"),
         "line 7: .*out of range"),
        (ONE_QUAD.format("1 1 0", "edge 0 7 left"), "line 7: .*out of range"),
        (ONE_QUAD.format("1 nan 0", "edge 0 3 left"), "line 3: .*finite"),
        (TWO_BY_ONE + "edge 0 1 left\n",
         "line 16: .*shared by two elements"),
        (TWO_BY_ONE + "edge 0 0 bottom\n",
         r"line 16: duplicate boundary edge \(0, 0\)"),
        (ONE_QUAD.replace("0 0 1 2 3", "0 0 1 2 2").format("1 1 0", ""),
         "^line 6: element 0: repeated node id$"),
        (ONE_QUAD.replace("0 0 1 2 3", "0 0 1 2 9").format("1 1 0", ""),
         "^line 6: element 0: node id out of range$"),
    ], ids=["element-past-end", "negative-element", "local-edge", "nan",
            "interior-edge", "duplicate-edge", "repeated-node",
            "node-out-of-range"])
    def test_bad_edge_or_coordinate(self, text, message):
        with pytest.raises(ValueError, match=message):
            mesh_from_text(text)


GRIDS = dict(nx=st.integers(1, 8), ny=st.integers(1, 8),
             alpha=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))


def distorted_grid(nx, ny, alpha, seed):
    m = generate_structured_mesh(nx, ny, 2.0, 1.0)
    try:
        out = distort_mesh(m, DistortionSpec(alpha, seed), 2.0 / nx, 1.0 / ny)
    except InvalidElement:
        assume(False)
    return m, out


class TestMeshProperties:
    @settings(max_examples=60, deadline=None)
    @given(**GRIDS)
    def test_distortion_equals_per_node_draws(self, nx, ny, alpha, seed):
        m, out = distorted_grid(nx, ny, alpha, seed)
        rng = np.random.default_rng(seed)
        boundary = set(m.boundary_node_ids())
        expected = []
        for i, (x, y) in enumerate(m.coords.tolist()):
            if i not in boundary:
                rx, ry = rng.random(), rng.random()
                x += (2.0 * rx - 1.0) * alpha * (2.0 / nx)
                y += (2.0 * ry - 1.0) * alpha * (1.0 / ny)
            expected.append([x, y])
        assert out.coords.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(**GRIDS)
    def test_text_round_trip(self, nx, ny, alpha, seed):
        _, m = distorted_grid(nx, ny, alpha, seed)
        back = mesh_from_text(mesh_to_text(m))
        assert back.coords.tolist() == m.coords.tolist()
        assert back.conn.tolist() == m.conn.tolist()
        assert back.boundary_edges == m.boundary_edges
