"""Strain smoothing: cell-wise strain-displacement operators by boundary
integration, and element stiffness assembly over smoothing cells.

For a cell C with area A and CCW boundary, the smoothed operator per node
I is

    B_I = (1/A) * integral over dC of [[N_I nx, 0], [0, N_I ny],
                                        [N_I ny, N_I nx]] dGamma,

with n the outward unit normal; the element stiffness is the cell sum
K = sum_C B_C^T D B_C A_C t. Boundary integrals use Gauss-Legendre points
per straight segment: 2 by default for the rational and polynomial
schemes, the native single midpoint for the averaged scheme.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateElement
from .mesh import subdivide_adaptive, subdivision_key, vertex_successors
from .shapefn import check_scheme, shape_evaluator

log = logging.getLogger(__name__)

GAUSS_1D = {n: leggauss(n) for n in (1, 2, 3, 4)}


@dataclass(frozen=True)
class MaterialModel:
    """Plane-stress isotropic elasticity."""

    youngs_modulus: float
    poisson_ratio: float
    thickness: float = 1.0

    def __post_init__(self):
        # written so that nan fails every comparison
        if not 0.0 < self.youngs_modulus < np.inf:
            raise ValueError("Young's modulus must be positive and finite")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must be in [0, 0.5)")
        if not 0.0 < self.thickness < np.inf:
            raise ValueError("thickness must be positive and finite")


def elasticity_matrix(material):
    """Plane-stress 3x3 stress-strain matrix."""
    e = material.youngs_modulus
    nu = material.poisson_ratio
    f = e / (1.0 - nu * nu)
    return f * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
    )


def default_quadrature(scheme):
    """Gauss points per boundary segment: midpoint for the averaged
    scheme (its native definition), 2 otherwise."""
    return 1 if scheme == "averaged" else 2


def pass_key(scheme, k_cells, n_points=None, split="12-34"):
    """(scheme, subdivision_key(k_cells, split), Gauss points per segment,
    None giving the scheme's default), every argument checked."""
    check_scheme(scheme)
    key = subdivision_key(k_cells, split)
    n_points = default_quadrature(scheme) if n_points is None else n_points
    if n_points not in GAUSS_1D:
        raise ValueError(f"n_points must be 1, 2, 3 or 4, got {n_points!r}")
    return scheme, key, n_points


def boundary_flux(vertices, evaluator, n_points=2):
    """Per-node boundary integrals (bx_I, by_I) = integral of N_I * n over
    the boundary of a CCW polygon, (m, 2) -> (4, 2); a stack of polygons
    (..., m, 2) gives (..., 4, 2) from one evaluator call."""
    v0 = np.asarray(vertices)
    xi, wq = GAUSS_1D[n_points]
    v1 = v0[..., vertex_successors(v0.shape[-2]), :]
    edges = v1 - v0                                       # (..., m, 2)
    lengths = np.hypot(edges[..., 0], edges[..., 1])      # (..., m)
    normals = edges[..., ::-1] * (1.0, -1.0)             # outward for CCW
    normals /= np.where(lengths > 0.0, lengths, 1.0)[..., None]
    # all quadrature points of all segments in one evaluator call
    mids = 0.5 * (v0 + v1)
    pts = mids[..., None, :] + 0.5 * xi[:, None] * edges[..., None, :]
    nvals = np.asarray(evaluator(pts.reshape(-1, 2)))
    nvals = nvals.reshape(pts.shape[:-1] + (4,))          # (..., m, q, 4)
    weights = 0.5 * lengths[..., None] * wq               # (..., m, q)
    per_segment = np.einsum("...sq,...sqi->...si", weights, nvals)
    return np.einsum("...si,...sd->...id", per_segment, normals)


def smoothed_b(area, flux):
    """Smoothed 3x8 strain-displacement matrix of one cell from its area
    and boundary_flux."""
    if area <= 0.0:
        raise DegenerateElement(f"smoothing cell has area {area}")
    flux = flux / area
    b = np.zeros((3, 8))  # columns ux, uy of node 1, then node 2, ...
    b[0, 0::2] = flux[:, 0]
    b[1, 1::2] = flux[:, 1]
    b[2, 0::2] = flux[:, 1]
    b[2, 1::2] = flux[:, 0]
    return b


def element_cells(quad, k_cells, scheme, n_points=None, split="12-34"):
    """Smoothing cells of one element and the boundary flux of each, as
    (vertices (k, 4, 2), areas (k,), fluxes (k, 4, 2)); one evaluator
    call covers every cell.

    A strongly concave element whose requested cells would invert is
    smoothed over fewer cells (see subdivide_adaptive).
    """
    n_points = pass_key(scheme, k_cells, n_points, split)[2]
    (verts, areas), k_used, split_used = subdivide_adaptive(quad, k_cells,
                                                            split)
    if k_used != k_cells:
        log.debug("element too concave for %d cells; smoothed with %d",
                  k_cells, k_used)
    evaluator = shape_evaluator(scheme, quad, k_used, split_used)
    return verts, areas, boundary_flux(verts, evaluator, n_points)


@dataclass(frozen=True, eq=False)
class ElementStiffness:
    k: np.ndarray                # (8, 8)
    cells: np.ndarray            # (k_used, 4, 2) smoothing-cell vertices
    areas: np.ndarray            # (k_used,) cell areas
    fluxes: np.ndarray           # (k_used, 4, 2) boundary_flux of each cell
    zero_modes: int              # eigenvalues below 1e-9 * max

    @property
    def spurious_modes(self):
        """Zero-energy modes beyond the three rigid-body ones."""
        return max(0, self.zero_modes - 3)


def element_stiffness(quad, k_cells, scheme, material, n_points=None,
                      split="12-34"):
    """Stiffness of one element smoothed over k_cells subcells.

    k_cells=1 is permitted but known to carry spurious zero-energy modes;
    a rank check runs on every element and warns when they appear.
    """
    verts, areas, fluxes = element_cells(quad, k_cells, scheme, n_points,
                                         split)
    d = elasticity_matrix(material)
    t = material.thickness
    k = np.zeros((8, 8))
    for area, flux in zip(areas, fluxes):
        b = smoothed_b(area, flux)
        k += (b.T @ d @ b) * (area * t)
    k = 0.5 * (k + k.T)
    eigs = np.linalg.eigvalsh(k)
    zero_modes = int(np.sum(eigs < 1e-9 * max(eigs.max(), 0.0)))
    stiff = ElementStiffness(k=k, cells=verts, areas=areas, fluxes=fluxes,
                             zero_modes=zero_modes)
    if k_cells == 1 and stiff.spurious_modes:
        warnings.warn(
            f"single-cell smoothing leaves {stiff.spurious_modes} spurious "
            "zero-energy mode(s); use 2 or 4 cells for a full-rank element",
            stacklevel=2,
        )
    return stiff
