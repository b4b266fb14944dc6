"""Quadrilateral meshes: structured generation, random distortion, and
smoothing-cell subdivision.

Nodes are laid out on a uniform grid over [0, L] x [-D/2, D/2]; elements
are counter-clockwise 4-node quads. Interior nodes can be perturbed by a
seeded irregularity factor, and each element can be split into 1, 2 or 4
quadrilateral smoothing cells by its bimedians.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateElement,
    InvalidElement,
    UnsupportedSubdivision,
)

log = logging.getLogger(__name__)

# Local edge e of a quad runs from corner e to corner (e+1) % 4.
EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0))


@dataclass(frozen=True)
class BoundaryEdge:
    element: int
    local_edge: int
    tag: str


@dataclass(frozen=True)
class DistortionSpec:
    """Irregularity factor in [0, 0.5] plus the RNG seed that fixes the
    perturbation draws."""

    alpha_ir: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.alpha_ir <= 0.5:
            raise ValueError(f"alpha_ir must be in [0, 0.5], got {self.alpha_ir}")


class _BadRow(ValueError):
    """A Mesh check that failed on row ``index`` of the node coordinates
    (``kind`` "node") or of the boundary edges (``kind`` "edge")."""

    def __init__(self, kind, index, message):
        super().__init__(message)
        self.kind, self.index = kind, index


class Mesh:
    """Node coordinates (N, 2), CCW quad connectivity (E, 4), boundary
    edges: read-only copies of the input arrays and a tuple, none of
    which can be rebound or deleted, so a Mesh stays as validated."""

    def __init__(self, coords, conn, boundary_edges):
        coords = np.array(coords, dtype=float).reshape(-1, 2)
        conn = np.array(conn, dtype=int).reshape(-1, 4)
        coords.flags.writeable = conn.flags.writeable = False
        vars(self).update(coords=coords, conn=conn,
                          boundary_edges=tuple(boundary_edges))
        n, ne = len(coords), len(conn)
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            raise _BadRow("node", int(np.argmin(finite)),
                          "node coordinates must be finite")
        srt = np.sort(conn, axis=1)
        repeated = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        out_of_range = ((conn < 0) | (conn >= n)).any(axis=1)
        bad = np.flatnonzero(repeated | out_of_range)
        if bad.size:
            e = int(bad[0])
            raise InvalidElement(e, "repeated node id" if repeated[e]
                                 else "node id out of range")
        # owners[e, l]: how many element edges join the nodes of edge l of e
        pairs = np.sort(conn[:, EDGE_CORNERS], axis=2).reshape(-1, 2)
        _, inverse, counts = np.unique(pairs[:, 0] * n + pairs[:, 1],
                                       return_inverse=True, return_counts=True)
        owners = counts[inverse].reshape(-1, 4)
        seen = set()
        for i, be in enumerate(self.boundary_edges):
            key = (be.element, be.local_edge)
            if not (0 <= be.element < ne and 0 <= be.local_edge < 4):
                raise _BadRow("edge", i, f"boundary edge {key} out of range")
            if key in seen:
                raise _BadRow("edge", i, f"duplicate boundary edge {key}")
            if owners[key] > 1:
                raise _BadRow("edge", i, f"boundary edge {key} is shared "
                              "by two elements")
            seen.add(key)

    def __setattr__(self, name, *value):
        raise AttributeError(f"a Mesh cannot change; {name!r} is fixed")

    __delattr__ = __setattr__

    @property
    def num_nodes(self):
        return len(self.coords)

    @property
    def num_elements(self):
        return len(self.conn)

    def boundary_node_ids(self, tag=None):
        """Ids of nodes lying on tagged boundary edges (all tags by default)."""
        out = set()
        for be in self.boundary_edges:
            if tag is None or be.tag == tag:
                corners = list(EDGE_CORNERS[be.local_edge])
                out.update(self.conn[be.element, corners].tolist())
        return sorted(out)

    def interior_node_ids(self):
        return np.setdiff1d(np.arange(self.num_nodes),
                            self.boundary_node_ids())


@functools.cache
def vertex_successors(m):
    """Read-only index of each vertex's successor around an m-gon."""
    nxt = np.roll(np.arange(m), -1)
    nxt.flags.writeable = False
    return nxt


def polygon_area(pts):
    """Signed shoelace area of a closed CCW polygon, (m, 2) -> float, or
    of each polygon of a stack, (..., m, 2) -> (...)."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    nxt = vertex_successors(pts.shape[-2])
    # row-by-column products: each area is a BLAS dot, as for one polygon
    area = 0.5 * (x[..., None, :] @ y[..., nxt, None]
                  - x[..., None, nxt] @ y[..., :, None])[..., 0, 0]
    return float(area) if area.ndim == 0 else area


def polygon_centroid(pts):
    """Area centroid of a simple polygon (signed-area formula); pts is
    (m, 2), or (..., m, 2) for a centroid per polygon."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    nxt = vertex_successors(pts.shape[-2])
    xn, yn = x[..., nxt], y[..., nxt]
    cross = x * yn - xn * y
    a6 = 6.0 * (0.5 * cross.sum(axis=-1))
    return np.stack([((x + xn) * cross).sum(axis=-1) / a6,
                     ((y + yn) * cross).sum(axis=-1) / a6], axis=-1)


def _segments_properly_intersect(p1, p2, p3, p4):
    """True where open segments p1-p2 and p3-p4 cross; points are (..., 2)."""

    def orient(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0)
            & (d2 != 0) & (d3 != 0) & (d4 != 0))


def quad_sides(quads):
    """Side vectors, their lengths and zero-length flags of (..., 4, 2)."""
    d = quads[..., vertex_successors(4), :] - quads
    length = np.hypot(d[..., 0], d[..., 1])
    return d, length, ~(length > 0.0)


def check_sides(quad):
    """quad_sides of one quad less the flags; a zero side raises."""
    d, length, zero = quad_sides(quad)
    if zero.any():
        i = int(np.argmax(zero))
        raise DegenerateElement(
            f"line through {quad[i]} and {quad[(i + 1) % 4]} is undefined")
    return d, length


def check_quads(quads):
    """Convexity flag (consecutive edge cross products of one sign) of
    each quad of an (E, 4, 2) array; raises InvalidElement for the first
    quad that is inverted, crosses itself (a proper crossing of either
    pair of opposite sides), has two coincident corners, or has an area
    within the shoelace rounding bound 16 eps sum |x_i y_j| of zero."""
    area = polygon_area(quads)
    p1, p2, p3, p4 = quads.transpose(1, 0, 2)
    crossed = (_segments_properly_intersect(p1, p2, p3, p4)
               | _segments_properly_intersect(p2, p3, p4, p1))
    edges, _, zero_side = quad_sides(quads)
    nxt = vertex_successors(4)
    x, y = quads[..., 0], quads[..., 1]
    rounding = 16.0 * np.finfo(float).eps * (
        np.abs(x * y[:, nxt]) + np.abs(x[:, nxt] * y)).sum(axis=1)
    flags = {"inverted quad (signed area <= 0)": area <= 0.0,
             "self-intersecting quad": crossed,
             "two corners coincide": zero_side.any(axis=1),
             "area within round-off of zero": 2.0 * area <= rounding}
    bad = np.flatnonzero(np.logical_or.reduce(list(flags.values())))
    if bad.size:
        e = int(bad[0])
        raise InvalidElement(e, next(r for r, f in flags.items() if f[e]))
    turn = edges[..., 0] * edges[:, nxt, 1] - edges[..., 1] * edges[:, nxt, 0]
    return (turn > 0).all(axis=1) | (turn < 0).all(axis=1)


def generate_structured_mesh(nx, ny, length, height):
    """Uniform nx-by-ny quad grid over [0, length] x [-height/2, height/2].

    Boundary edges are tagged left/right/top/bottom and each belongs to
    exactly one element.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    if length <= 0 or height <= 0:
        raise ValueError("length and height must be positive")
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(-height / 2.0, height / 2.0, ny + 1)
    coords = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    nid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # [j, i]
    conn = np.column_stack([nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel(),
                            nid[1:, 1:].ravel(), nid[1:, :-1].ravel()])
    # element by element, each one's edges in local order
    boundary = [BoundaryEdge(j * nx + i, edge, tag)
                for j in range(ny) for i in range(nx)
                for edge, tag, on in ((0, "bottom", j == 0),
                                      (1, "right", i == nx - 1),
                                      (2, "top", j == ny - 1),
                                      (3, "left", i == 0)) if on]
    return Mesh(coords, conn, boundary)


def distort_mesh(mesh, spec, dx, dy):
    """Perturb interior nodes by (2r - 1) * alpha_ir * (dx, dy) with
    independent uniform draws r per node per axis.

    Draw order is node-major, x before y, so a fixed seed reproduces the
    mesh bit for bit. Boundary nodes never move. An element that
    check_quads rejects raises its InvalidElement; concave-but-simple
    elements are accepted (and left to the caller to inspect via
    concave_elements).
    """
    rng = np.random.default_rng(spec.seed)
    interior = mesh.interior_node_ids()
    r = rng.random((len(interior), 2))  # row-major: node-major, x before y
    coords = mesh.coords.copy()
    coords[interior] += (2.0 * r - 1.0) * spec.alpha_ir * np.array([dx, dy])
    out = Mesh(coords, mesh.conn, mesh.boundary_edges)
    n_concave = len(concave_elements(out))
    if n_concave:
        log.debug("distort_mesh: %d concave element(s) at alpha_ir=%g",
                  n_concave, spec.alpha_ir)
    return out


def concave_elements(mesh):
    """Indices of simple but non-convex elements; raises InvalidElement
    naming the first element that check_quads rejects."""
    return np.flatnonzero(~check_quads(mesh.coords[mesh.conn])).tolist()


def table_sites(quad):
    """Coordinates of the nine sites of a quad as a (9, 2) array: the
    corners, the midpoints of sides 1-2, 2-3, 3-4, 4-1, and the bimedian
    intersection."""
    quad = np.asarray(quad, dtype=float)
    sites = np.empty((9, 2))
    sites[:4] = quad
    sites[4:8] = 0.5 * (quad + quad[vertex_successors(4)])
    # the bimedians bisect each other at the vertex mean
    sites[8] = 0.25 * (quad[0] + quad[1] + quad[2] + quad[3])
    return sites


# Bimedian subdivisions as table_sites indices, keyed by subdivision_key:
# the CCW cells, and the site pairs of the cell-boundary segments. The
# two-cell bimedian is kept as two segments through the center site.
_OUTLINE = ((0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3), (3, 7), (7, 0))
CELL_SITES = {
    (1, None): ((0, 1, 2, 3),),
    (2, "12-34"): ((0, 4, 6, 3), (4, 1, 2, 6)),
    (2, "23-41"): ((0, 1, 5, 7), (7, 5, 2, 3)),
    (4, None): ((0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)),
}
_CELL_INDEX = {key: np.array(ids) for key, ids in CELL_SITES.items()}
SKELETON_SEGMENTS = {
    (1, None): _OUTLINE,
    (2, "12-34"): _OUTLINE + ((4, 8), (8, 6)),
    (2, "23-41"): _OUTLINE + ((5, 8), (8, 7)),
    (4, None): _OUTLINE + ((4, 8), (5, 8), (6, 8), (7, 8)),
}


def subdivision_key(k, split):
    """Table key of a k-cell subdivision; the split matters only for k=2."""
    if k not in (1, 2, 4):
        raise UnsupportedSubdivision(f"k must be 1, 2 or 4, got {k}")
    if k == 2 and split not in ("12-34", "23-41"):
        raise ValueError(f"unknown split {split!r}")
    return (k, split if k == 2 else None)


def subdivide_adaptive(quad, k, split="12-34"):
    """Split a CCW quad (given as (4, 2) corner coordinates) into k
    smoothing cells, with a deterministic fallback for strongly concave
    elements whose bimedian cells invert.

    k=1 keeps the element; k=4 uses both bimedians (cells meet at the
    bimedian intersection); k=2 uses one bimedian, by default the one
    joining the midpoints of sides 1-2 and 3-4 (split="12-34"); pass
    split="23-41" for the other orientation. The cells tile the element.
    On a cell of area <= 0, k=4 falls back to the two-cell splits (both
    orientations) and k=2 to the other split, then both to the single
    cell, which is always valid for a simple CCW quad; a cell of area
    <= 0 in the last attempt raises DegenerateElement. Returns
    ((vertices (k_used, 4, 2), areas (k_used,)), k_used, split_used).
    """
    quad = np.asarray(quad, dtype=float)
    if quad.shape != (4, 2):
        raise ValueError("quad must be a (4, 2) coordinate array")
    if k == 4:
        attempts = [(4, split), (2, "12-34"), (2, "23-41"), (1, split)]
    elif k == 2:
        other = "23-41" if split == "12-34" else "12-34"
        attempts = [(2, split), (2, other), (1, split)]
    else:
        attempts = [(k, split)]
    sites = table_sites(quad)
    for kk, ss in attempts:
        verts = sites[_CELL_INDEX[subdivision_key(kk, ss)]]
        areas = polygon_area(verts)
        if (areas > 0.0).all():
            return (verts, areas), kk, ss
    raise DegenerateElement(
        f"smoothing cell has area {float(areas[areas <= 0.0][0])}")


def mesh_to_text(mesh):
    """Serialize to the plain-text mesh format.

    Line 1: ``nodes N elements E``; then N ``id x y`` lines, E
    ``id n1 n2 n3 n4`` lines, and one ``edge elem local_edge tag`` line
    per boundary edge.
    """
    lines = [f"nodes {mesh.num_nodes} elements {mesh.num_elements}"]
    for i, (x, y) in enumerate(mesh.coords.tolist()):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    for e, (a, b, c, d) in enumerate(mesh.conn.tolist()):
        lines.append(f"{e} {a} {b} {c} {d}")
    for be in mesh.boundary_edges:
        lines.append(f"edge {be.element} {be.local_edge} {be.tag}")
    return "\n".join(lines) + "\n"


def mesh_from_text(text):
    """Parse the plain-text mesh format produced by mesh_to_text; a
    malformed line raises ValueError naming its line number."""
    rows = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]
    head = rows[0][1] if rows else []
    if len(head) != 4 or head[0] != "nodes" or head[2] != "elements":
        raise ValueError("bad header line")
    coords, conn, boundary = [], [], []
    lineno = rows[0][0]
    try:
        n, e = int(head[1]), int(head[3])
        if len(rows) < 1 + n + e:
            raise ValueError(f"header declares {n} nodes and {e} elements, "
                             f"but the file has {len(rows) - 1} rows after it")
        for j, (lineno, row) in enumerate(rows[1:]):
            want = 3 if j < n else 5 if j < n + e else 4  # node, element, edge
            if len(row) != want:
                raise ValueError(f"expected {want} fields, got {len(row)}")
            if j < n:
                if int(row[0]) != j:
                    raise ValueError(f"expected node id {j}")
                coords.append((float(row[1]), float(row[2])))
            elif j < n + e:
                if int(row[0]) != j - n:
                    raise ValueError(f"expected element id {j - n}")
                conn.append([int(t) for t in row[1:]])
            elif row[0] == "edge":
                boundary.append(BoundaryEdge(int(row[1]), int(row[2]), row[3]))
            else:
                raise ValueError(f"expected boundary edge line, got {row}")
    except ValueError as err:  # int() and float() do not name the line
        raise ValueError(f"line {lineno}: {err}") from err
    try:
        return Mesh(coords, conn, boundary)
    except InvalidElement as err:  # element rows follow the node rows
        raise ValueError(f"line {rows[1 + n + err.element_index][0]}: "
                         f"{err}") from err
    except _BadRow as err:  # node rows follow the header, edge rows come last
        first = 1 if err.kind == "node" else 1 + n + e
        raise ValueError(f"line {rows[first + err.index][0]}: {err}") from err
