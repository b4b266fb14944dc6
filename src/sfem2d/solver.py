"""Global assembly, boundary conditions, direct solve, and strain
recovery for plane-stress problems on quad meshes.

DOF layout: node i owns (2i, 2i+1) = (ux, uy). Constraints are applied by
row/column elimination with load correction; the strain energy is always
evaluated through the unreduced stiffness so prescribed DOFs contribute.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AllDofsFixed,
    SfemError,
    SingularSystem,
    UnknownTag,
)
from .mesh import EDGE_CORNERS, check_quads
from .shapefn import shape_evaluator
from .smoothing import (
    GAUSS_1D,
    check_quadrature,
    default_quadrature,
    element_cells,
    element_stiffness,
    smoothed_b,
)

# The smoothing cells of each mesh's last assemble, kept for its error
# pass: mesh -> (cells key, coords, conn, stacked cells). Mesh arrays are
# read-only, so an entry holds while the mesh keeps the same two arrays.
_ASSEMBLED_CELLS = weakref.WeakKeyDictionary()


def element_dofs(mesh):
    """Global DOFs of every element, (E, 8): ux, uy of each corner node in
    connectivity order."""
    return np.stack([2 * mesh.conn, 2 * mesh.conn + 1], axis=2).reshape(-1, 8)


@dataclass(eq=False)
class GlobalSystem:
    mesh: object
    stiffness: sp.csr_matrix
    load: np.ndarray
    fixed: dict = field(default_factory=dict)  # dof -> prescribed value


@dataclass(eq=False)
class Solution:
    u: np.ndarray
    strain_energy: float
    residual: float
    fixed_dofs: np.ndarray
    reactions: np.ndarray


def _cells_key(scheme, k_cells, n_points, split):
    """The key of a smoothing pass, with n_points resolved."""
    if n_points is None:
        n_points = default_quadrature(scheme)
    return scheme, k_cells, n_points, split


def _of_element(e, fn, *args, **kwargs):
    """fn(*args, **kwargs) for element e; a scheme error names e."""
    try:
        return fn(*args, **kwargs)
    except SfemError as err:
        raise type(err)(f"element {e}: {err}") from err


def _stack_cells(n_elements, per_element):
    """Stack the (vertices, areas, fluxes) of each element, in element
    order, into read-only (n, 4, 2), (n,) and (n, 4, 2) arrays; returns
    them with the cell count of each element."""
    verts = np.empty((4 * n_elements, 4, 2))  # at most four cells each
    areas = np.empty(len(verts))
    fluxes = np.empty_like(verts)
    counts = np.empty(n_elements, dtype=int)
    n = 0
    for e, (cv, ca, cf) in enumerate(per_element):
        counts[e] = len(ca)
        verts[n:n + len(ca)] = cv
        areas[n:n + len(ca)] = ca
        fluxes[n:n + len(ca)] = cf
        n += len(ca)
    cells = verts[:n], areas[:n], fluxes[:n], counts
    for a in cells:
        a.flags.writeable = False
    return cells


def assemble(mesh, scheme, k_cells, material, n_points=None, split="12-34"):
    """Scatter element stiffness into a sparse symmetric global matrix;
    raises InvalidElement for the first inverted or self-crossing element.
    The smoothing cells and their fluxes are kept for cell_strains on the
    same mesh."""
    quads = mesh.coords[mesh.conn]
    check_quads(quads)
    vals = []

    def stiffness():
        for e, quad in enumerate(quads):
            ke = _of_element(e, element_stiffness, quad, k_cells, scheme,
                             material, n_points=n_points, split=split)
            vals.append(ke.k.ravel())
            yield ke.cells, ke.areas, ke.fluxes

    cells = _stack_cells(len(quads), stiffness())
    _ASSEMBLED_CELLS[mesh] = (_cells_key(scheme, k_cells, n_points, split),
                              mesh.coords, mesh.conn, cells)
    edofs = element_dofs(mesh)
    rows = np.repeat(edofs, 8, axis=1).ravel()  # ke row-major
    cols = np.tile(edofs, 8).ravel()
    n = 2 * mesh.num_nodes
    k = sp.coo_matrix((np.concatenate(vals), (rows, cols)),
                      shape=(n, n)).tocsr()
    k = 0.5 * (k + k.T)
    return GlobalSystem(mesh=mesh, stiffness=k, load=np.zeros(n))


def apply_tractions(mesh, edge_tag, traction, n_points=2, scheme="wachspress",
                    k_cells=4):
    """Consistent nodal loads for a traction field on tagged boundary edges.

    ``traction(x, y) -> (tx, ty)`` is force per unit edge length. The
    wachspress and averaged schemes restrict linearly to element edges, so
    the edge-node hat functions carry the load; the lagrange scheme is not
    edge-linear and gets its actual shape values, spread over all four
    element nodes.
    """
    edges = [be for be in mesh.boundary_edges if be.tag == edge_tag]
    if not edges:
        raise UnknownTag(f"no boundary edge tagged {edge_tag!r}")
    check_quadrature(n_points)
    load = np.zeros(2 * mesh.num_nodes)
    xi, wq = GAUSS_1D[n_points]
    for be in edges:
        nodes = mesh.conn[be.element]
        quad = mesh.coords[nodes]
        a, b = EDGE_CORNERS[be.local_edge]
        v0, v1 = quad[a], quad[b]
        edge = v1 - v0
        length = float(np.hypot(edge[0], edge[1]))
        pts = 0.5 * (v0 + v1) + 0.5 * np.outer(xi, edge)
        tvals = np.array([traction(x, y) for x, y in pts])  # (n_points, 2)
        weights = 0.5 * length * wq
        if scheme == "lagrange":
            nvals = np.asarray(shape_evaluator(scheme, quad, k_cells)(pts))
            for i, node in enumerate(nodes):
                fi = (weights * nvals[:, i]) @ tvals
                load[2 * node : 2 * node + 2] += fi
        else:
            shape_a = 0.5 * (1.0 - xi)
            shape_b = 0.5 * (1.0 + xi)
            fa = (weights * shape_a) @ tvals
            fb = (weights * shape_b) @ tvals
            na, nb = nodes[a], nodes[b]
            load[2 * na : 2 * na + 2] += fa
            load[2 * nb : 2 * nb + 2] += fb
    return load


def apply_dirichlet(system, node_ids, displacement):
    """Prescribe both displacement components of the given nodes from
    ``displacement(x, y) -> (ux, uy)``. Returns the system for chaining."""
    for n in node_ids:
        ux, uy = displacement(*system.mesh.coords[n])
        if not (np.isfinite(ux) and np.isfinite(uy)):
            raise ValueError(f"prescribed displacement at node {n} not finite")
        system.fixed[2 * n] = float(ux)
        system.fixed[2 * n + 1] = float(uy)
    if len(system.fixed) >= system.stiffness.shape[0]:
        raise AllDofsFixed("every degree of freedom is prescribed")
    return system


def fix_dof(system, dof, value=0.0):
    """Prescribe a single degree of freedom."""
    n = system.stiffness.shape[0]
    if not (0 <= dof < n and dof == int(dof) and np.isfinite(value)):
        raise ValueError(f"cannot prescribe {value} at dof {dof} of 0..{n - 1}")
    system.fixed[dof] = float(value)
    if len(system.fixed) >= n:
        raise AllDofsFixed("every degree of freedom is prescribed")
    return system


def _rank_diagnostics(k_red):
    n = k_red.shape[0]
    if n > 2000:
        return f"{n} free DOFs (too large for a dense rank check)"
    eigs = np.linalg.eigvalsh(k_red.toarray())
    tol = 1e-9 * max(abs(eigs).max(), 1e-300)
    n_zero = int(np.sum(np.abs(eigs) < tol))
    return (
        f"reduced matrix has {n_zero} near-zero eigenvalue(s) out of {n}; "
        "suspect single-cell spurious modes or missing constraints"
    )


def solve(system):
    """Direct symmetric solve of the constrained system.

    Enforces the residual contract |K u - f| / |f| < 1e-10 on the reduced
    system and reports the strain energy 0.5 u^T K u through the full
    stiffness (prescribed DOFs included).
    """
    n = system.stiffness.shape[0]
    fixed_dofs = np.array(sorted(system.fixed), dtype=int)
    fixed_vals = np.array([system.fixed[d] for d in fixed_dofs])
    free = np.setdiff1d(np.arange(n), fixed_dofs)
    if free.size == 0:
        raise AllDofsFixed("every degree of freedom is prescribed")

    k = system.stiffness
    k_ff = k[free][:, free]
    rhs = system.load[free]
    if fixed_dofs.size:
        rhs = rhs - k[free][:, fixed_dofs] @ fixed_vals

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        u_free = spla.spsolve(k_ff.tocsc(), rhs)
    if not np.all(np.isfinite(u_free)):
        raise SingularSystem(_rank_diagnostics(k_ff))
    resid = np.linalg.norm(k_ff @ u_free - rhs)
    scale = max(np.linalg.norm(rhs),
                abs(k_ff).max() * max(np.abs(u_free).max(), 1.0) * 1e-6)
    rel = resid / scale if scale > 0 else resid
    if rel > 1e-10:
        raise SingularSystem(
            f"solver residual {rel:.3e} exceeds 1e-10; " + _rank_diagnostics(k_ff)
        )

    u = np.zeros(n)
    u[free] = u_free
    u[fixed_dofs] = fixed_vals
    ku = k @ u
    energy = 0.5 * float(u @ ku)
    reactions = ku[fixed_dofs] - system.load[fixed_dofs]
    return Solution(u=u, strain_energy=energy, residual=rel,
                    fixed_dofs=fixed_dofs, reactions=reactions)


def cell_strains(mesh, u, scheme, k_cells, n_points=None, split="12-34"):
    """Smoothed strain per cell, element by element, as (vertices
    (n, 4, 2), areas (n,), strains (n, 3)); the vertices and areas are
    read-only.

    After assemble on this mesh with the same scheme, k_cells, n_points
    and split, the cells and fluxes of that pass are reused. Otherwise
    they are built here, and the first inverted or self-crossing element
    raises InvalidElement.
    """
    key, coords, conn, cells = _ASSEMBLED_CELLS.get(mesh, (None,) * 4)
    if (key == _cells_key(scheme, k_cells, n_points, split)
            and coords is mesh.coords and conn is mesh.conn):
        verts, areas, fluxes, counts = cells
    else:
        quads = mesh.coords[mesh.conn]
        check_quads(quads)
        verts, areas, fluxes, counts = _stack_cells(len(quads), (
            _of_element(e, element_cells, quad, k_cells, scheme, n_points,
                        split)
            for e, quad in enumerate(quads)))
    ue = u[np.repeat(element_dofs(mesh), counts, axis=0)]  # (n, 8)
    strains = np.empty((len(areas), 3))
    for c, (area, flux) in enumerate(zip(areas, fluxes)):
        strains[c] = smoothed_b(area, flux) @ ue[c]
    return verts, areas, strains
