"""Shape functions on physical-coordinate quadrilaterals.

Three schemes:

* ``wachspress`` -- rational barycentric interpolants built from the four
  side-line equations and wedge constants. Kronecker delta at nodes,
  linear on edges, linearly complete, and positive inside convex quads.
* ``averaged`` -- the nine-site table (nodes, edge midpoints, bimedian
  intersection) extended by linear interpolation along smoothing-cell
  boundary segments. Defined only on that skeleton.
* ``lagrange`` -- the non-mapped {1, x, y, xy} fit through the nodes.
  May fail to exist (singular moment matrix), go negative, or lose
  linearity on edges; kept deliberately unpatched so those deficiencies
  can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AdjointZero,
    DegenerateElement,
    NonExistent,
    OffSkeleton,
    WedgeDegenerate,
)
from .mesh import (
    SKELETON_SEGMENTS,
    check_sides,
    polygon_area,
    subdivision_key,
    table_sites,
    vertex_successors,
)

SCHEMES = ("wachspress", "averaged", "lagrange")


def check_scheme(scheme):
    """Raise ValueError unless scheme is one of SCHEMES."""
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

# Wedge i is the product of the line equations of the two sides not
# adjacent to node i, _J_SIDES[i] and _K_SIDES[i]; sides are 1-2, 2-3,
# 3-4, 4-1 in that order.
_OPPOSITE_SIDES = np.array([[1, 2, 3, 0], [2, 3, 0, 1]])
_J_SIDES, _K_SIDES = _OPPOSITE_SIDES
_PREV = np.array([3, 0, 1, 2])  # node i-1


def quad_diameter(quad):
    quad = np.asarray(quad, dtype=float)
    d = quad[:, None, :] - quad[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


@dataclass(frozen=True, eq=False)
class WachspressBasis:
    kappas: np.ndarray                # (4,)
    diameter: float
    # vectorized copies of the line data (anchor, direction, sign/norm)
    line_anchor: np.ndarray           # (4, 2)
    line_dir: np.ndarray              # (4, 2)
    line_scale: np.ndarray            # (4,)

    def line_values(self, p):
        """All four side-line equations at p, shape (..., 4)."""
        p = np.asarray(p, dtype=float)
        rel = p[..., None, :] - self.line_anchor
        return (
            self.line_dir[:, 0] * rel[..., 1] - self.line_dir[:, 1] * rel[..., 0]
        ) * self.line_scale

    @property
    def line_normals(self):
        """(4, 2) unit normals (gradients of the line equations)."""
        return self.line_dir[:, ::-1] * (-1.0, 1.0) * self.line_scale[:, None]


def build_wachspress(quad):
    """Construct the rational basis for a CCW quad.

    Side line i runs from node i to node i+1 and is positive on its left,
    which for a simple CCW quad is the element side. The wedge constant
    of node i weights the product of its two opposite-side lines by the
    signed corner-triangle area at i and the lengths of those sides,
    kappa_i = A(v_{i-1}, v_i, v_{i+1}) |s_j| |s_k|. That choice (and only
    that choice, up to a common factor) makes the rational basis
    reproduce linear fields exactly.

    The Kronecker delta is exact, so it is not checked: each other wedge
    has a side line through node i, whose line_values there is exactly 0
    (the offset from its anchor is 0 or the same subtraction as its
    direction, and dx*dy - dy*dx == 0), so N_i(node i) = w_i / w_i = 1.
    """
    quad = np.array(quad, dtype=float)  # a copy: the basis keeps it
    if polygon_area(quad) <= 0.0:
        raise DegenerateElement("quad must be CCW with positive area")
    nxt = vertex_successors(4)
    d, side_len = check_sides(quad)
    diam = quad_diameter(quad)
    a, c = quad[_PREV], quad[nxt]
    corner = 0.5 * ((quad[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                    - (quad[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    basis = WachspressBasis(corner * side_len[_J_SIDES] * side_len[_K_SIDES],
                            diam, line_anchor=quad, line_dir=d,
                            line_scale=1.0 / side_len)
    # node i's two opposite-side lines at node i
    lines = basis.line_values(quad)[np.arange(4), _OPPOSITE_SIDES]
    tiny = 1e-14 * diam ** 2
    no_wedge = np.abs(lines[0] * lines[1]) < tiny
    flat = np.abs(corner) < tiny
    if (no_wedge | flat).any():
        i = int(np.argmax(no_wedge | flat))
        raise WedgeDegenerate(
            f"opposite sides pass through node {i + 1}; wedge undefined"
            if no_wedge[i] else f"node {i + 1} is collinear with its "
            "neighbours; wedge constant zero")
    # a common factor; keeps wedges O(1)
    return replace(basis, kappas=basis.kappas / np.abs(basis.kappas).max())


def _wedges(basis, p):
    """Wedge values at p; p may be (2,) or (n, 2). Returns (..., 4)."""
    lvals = basis.line_values(p)
    return basis.kappas * lvals[..., _J_SIDES] * lvals[..., _K_SIDES]


def _wedge_sum(w):
    """sum(w) over the last axis; raises AdjointZero where it vanishes."""
    total = w.sum(axis=-1)
    scale = np.abs(w).max(axis=-1)
    if (np.abs(total) <= 1e-12 * np.maximum(scale, 1e-300)).any():
        raise AdjointZero("wedge sum vanishes at the evaluation point")
    return total


def eval_wachspress(basis, p):
    """Shape values N_i = w_i / sum(w) at p ((2,) -> (4,), (n,2) -> (n,4))."""
    w = _wedges(basis, p)
    return w / _wedge_sum(w)[..., None]


def eval_wachspress_gradient(basis, p):
    """Analytic gradients of the rational basis ((2,) -> (4, 2),
    (n, 2) -> (n, 4, 2)); quotient rule on N_i = w_i / sum(w)."""
    p = np.asarray(p, dtype=float)
    lvals = basis.line_values(p)
    normals = basis.line_normals
    j, k = _J_SIDES, _K_SIDES
    w = basis.kappas * lvals[..., j] * lvals[..., k]
    # grad w_i = kappa_i * (grad l_j * l_k + l_j * grad l_k)
    gw = basis.kappas[..., :, None] * (
        normals[j] * lvals[..., k, None] + normals[k] * lvals[..., j, None]
    )
    total = _wedge_sum(w)
    gtotal = gw.sum(axis=-2)
    return (gw * total[..., None, None] - w[..., None] * gtotal[..., None, :]) \
        / total[..., None, None] ** 2


@dataclass(frozen=True, eq=False)
class LagrangeBasis:
    coeffs: np.ndarray       # (4, 4), inverse of the nodal moment matrix
    center: np.ndarray       # shift applied before forming monomials
    scale: float             # extent divisor, for conditioning only


def build_lagrange(quad):
    """Fit {1, x, y, xy} through the four nodes.

    The monomials are formed in centered, scaled coordinates (the same
    function space, but the moment matrix stays well conditioned for thin
    elements). Raises NonExistent when that matrix is singular relative
    to its Hadamard bound: all four nodes on a line, or on a pair of
    axis-parallel lines / axis-aligned hyperbola.
    """
    quad = np.asarray(quad, dtype=float)
    center = quad.mean(axis=0)
    scale = max(float(np.abs(quad - center).max()), 1e-300)
    q = (quad - center) / scale
    x, y = q[:, 0], q[:, 1]
    m = np.column_stack([np.ones(4), x, y, x * y])
    det = float(np.linalg.det(m))
    hadamard = float(np.prod(np.linalg.norm(m, axis=1)))
    if abs(det) < 1e-12 * hadamard:
        raise NonExistent(
            f"nodal moment matrix is singular (|det| = {abs(det):.3g})"
        )
    return LagrangeBasis(np.linalg.inv(m), center, scale)


def eval_lagrange(basis, p):
    """Shape values [1, x', y', x'y'] @ M^-1 at p ((2,) or (n, 2)), with
    x', y' the centered, scaled coordinates used at construction."""
    p = (np.asarray(p, dtype=float) - basis.center) / basis.scale
    x, y = p[..., 0], p[..., 1]
    monomials = np.stack([np.ones_like(x), x, y, x * y], axis=-1)
    return monomials @ basis.coeffs


# ---------------------------------------------------------------------------
# Averaged shape functions (nine-site table + skeleton interpolation)

# Shape values at the nine sites: the sites of a "quad" whose corners are
# the unit vectors, one row per site in table_sites order.
SITE_VALUES = table_sites(np.eye(4))


def eval_averaged(quad, k, p, split="12-34"):
    """Averaged shape values at points on the k-subdivision skeleton,
    (2,) -> (4,) or (n, 2) -> (n, 4).

    Each point takes the values of its nearest skeleton segment: exactly
    the table rows at the nine sites, linear interpolation of the
    bracketing site values elsewhere on a segment. Raises OffSkeleton for
    points farther than 1e-10 * diameter from every segment.
    """
    a, b = np.array(SKELETON_SEGMENTS[subdivision_key(k, split)]).T
    sites = table_sites(quad)
    p0 = sites[a]
    d = sites[b] - p0
    pts = np.asarray(p, dtype=float).reshape(-1, 2)
    rel = pts[:, None, :] - p0                            # (n, s, 2)
    t = np.clip((rel * d).sum(axis=2) / (d ** 2).sum(axis=1), 0.0, 1.0)
    foot = p0 + t[..., None] * d
    dist2 = ((pts[:, None, :] - foot) ** 2).sum(axis=2)
    best = np.argmin(dist2, axis=1)
    rows = np.arange(len(pts))
    off = np.sqrt(dist2[rows, best]) > 1e-10 * quad_diameter(quad)
    if off.any():
        raise OffSkeleton(f"point {tuple(pts[np.argmax(off)])} is not on "
                          "a smoothing-cell boundary segment")
    tb = t[rows, best][:, None]
    values = (1.0 - tb) * SITE_VALUES[a[best]] + tb * SITE_VALUES[b[best]]
    return values.reshape(np.shape(p)[:-1] + (4,))


def shape_evaluator(scheme, quad, k=4, split="12-34"):
    """A callable (n, 2) -> (n, 4) for the requested scheme on one quad.

    The averaged scheme needs the subdivision count k; the other two
    ignore it.
    """
    check_scheme(scheme)
    if scheme == "wachspress":
        basis = build_wachspress(quad)
        return lambda p: eval_wachspress(basis, p)
    if scheme == "averaged":
        quad = np.array(quad, dtype=float)  # a copy: the closure keeps it
        subdivision_key(k, split)  # raises now, not at the first call
        check_sides(quad)  # a zero side would give a zero skeleton segment
        return lambda p: eval_averaged(quad, k, p, split)
    basis = build_lagrange(quad)
    return lambda p: eval_lagrange(basis, p)
