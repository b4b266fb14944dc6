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
from types import MappingProxyType

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
from .shapefn import check_scheme, shape_evaluator
from .smoothing import (
    GAUSS_1D,
    check_quadrature,
    element_cells,
    element_stiffness,
    smoothed_b,
)

# The smoothing cells of each mesh's last assemble, kept for its error
# pass: mesh -> ((scheme, k_cells, n_points, split) as passed, stacked
# cells). A Mesh cannot change, so an entry holds while its mesh lives.
_ASSEMBLED_CELLS = weakref.WeakKeyDictionary()


def element_dofs(mesh):
    """Global DOFs of every element, (E, 8): ux, uy of each corner node in
    connectivity order."""
    return np.stack([2 * mesh.conn, 2 * mesh.conn + 1], axis=2).reshape(-1, 8)


@dataclass(eq=False)
class GlobalSystem:
    """``fixed`` (dof -> prescribed value) is a read-only view, written
    only by fix_dof and apply_dirichlet; solve checks ``load``."""
    mesh: object
    stiffness: sp.csr_matrix
    load: np.ndarray
    _fixed: dict = field(default_factory=dict, init=False)

    fixed = property(lambda self: MappingProxyType(self._fixed))


@dataclass(eq=False)
class Solution:
    u: np.ndarray
    strain_energy: float
    residual: float
    fixed_dofs: np.ndarray
    reactions: np.ndarray


def _each_element(mesh, fn, *args):
    """fn(quad, *args) for each element in order, after check_quads has
    passed the whole mesh; a scheme error names its element."""
    quads = mesh.coords[mesh.conn]
    check_quads(quads)
    for e, quad in enumerate(quads):
        try:
            yield fn(quad, *args)
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
    for e, element in enumerate(per_element):
        counts[e] = m = len(element[1])
        for stack, part in zip((verts, areas, fluxes), element):
            stack[n:n + m] = part
        n += m
    cells = verts[:n], areas[:n], fluxes[:n], counts
    for a in cells:
        a.flags.writeable = False
    return cells


def assemble(mesh, scheme, k_cells, material, n_points=None, split="12-34"):
    """Scatter element stiffness into a sparse symmetric global matrix;
    raises InvalidElement for the first element check_quads rejects.
    The smoothing cells and their fluxes are kept for cell_strains on the
    same mesh."""
    vals = []

    def stiffness():
        for ke in _each_element(mesh, element_stiffness, k_cells, scheme,
                                material, n_points, split):
            vals.append(ke.k.ravel())
            yield ke.cells, ke.areas, ke.fluxes

    cells = _stack_cells(mesh.num_elements, stiffness())
    _ASSEMBLED_CELLS[mesh] = (scheme, k_cells, n_points, split), cells
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
    element nodes. ``k_cells`` has no effect (lagrange ignores it).
    """
    edges = [be for be in mesh.boundary_edges if be.tag == edge_tag]
    if not edges:
        raise UnknownTag(f"no boundary edge tagged {edge_tag!r}")
    check_scheme(scheme)
    check_quadrature(n_points)
    load = np.zeros(2 * mesh.num_nodes)
    xi, wq = GAUSS_1D[n_points]
    hats = np.column_stack([0.5 * (1.0 - xi), 0.5 * (1.0 + xi)])
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
        shape, corners = ((shape_evaluator(scheme, quad)(pts), nodes)
                          if scheme == "lagrange" else (hats, nodes[[a, b]]))
        for i, node in enumerate(corners):
            load[2 * node : 2 * node + 2] += (weights * shape[:, i]) @ tvals
    return load


def _is_index(i, n):
    """An integer (numpy's too, not bool) in 0..n-1."""
    return (isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            and 0 <= i < n)


def _prescribe(system, pairs):
    """The one writer of system.fixed: stores all (dof, value) pairs, or
    none if a dof is no index, a value not finite, or no DOF left free."""
    n = system.stiffness.shape[0]
    for dof, value in pairs:
        if not (_is_index(dof, n) and np.isfinite(value)):
            raise ValueError(
                f"cannot prescribe {value} at dof {dof} of 0..{n - 1}")
    if len(system._fixed.keys() | {dof for dof, _ in pairs}) >= n:
        raise AllDofsFixed("every degree of freedom is prescribed")
    system._fixed.update((int(dof), float(value)) for dof, value in pairs)


def apply_dirichlet(system, node_ids, displacement):
    """Prescribe both displacement components of the given nodes from
    ``displacement(x, y) -> (ux, uy)``, all or none: every id must be an
    integer in 0..N-1 and every value pass fix_dof. Returns the system."""
    coords = system.mesh.coords
    node_ids = list(node_ids)
    for i in node_ids:
        if not _is_index(i, len(coords)):
            raise ValueError(f"no node {i} in 0..{len(coords) - 1}")
    pairs = []
    for i in node_ids:
        ux, uy = displacement(*coords[i])
        pairs += [(2 * i, ux), (2 * i + 1, uy)]
    _prescribe(system, pairs)
    return system


def fix_dof(system, dof, value=0.0):
    """Prescribe one DOF: an integer in 0..n-1, a finite value, and at
    least one DOF left free."""
    _prescribe(system, [(dof, value)])
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
    stiffness (prescribed DOFs included). A load that is not a finite
    array of shape (n,) raises ValueError.
    """
    n = system.stiffness.shape[0]
    if n == 0:  # otherwise the writer of system.fixed leaves a DOF free
        raise AllDofsFixed("every degree of freedom is prescribed")
    load = np.asarray(system.load, dtype=float)
    if load.shape != (n,) or not np.isfinite(load).all():
        raise ValueError(f"load must be a finite array of shape ({n},)")
    fixed_dofs = np.array(sorted(system._fixed), dtype=int)
    fixed_vals = np.array([system._fixed[d] for d in fixed_dofs])
    free = np.setdiff1d(np.arange(n), fixed_dofs)

    k = system.stiffness
    k_ff = k[free][:, free]
    rhs = load[free]
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
    reactions = ku[fixed_dofs] - load[fixed_dofs]
    return Solution(u=u, strain_energy=energy, residual=rel,
                    fixed_dofs=fixed_dofs, reactions=reactions)


def cell_strains(mesh, u, scheme, k_cells, n_points=None, split="12-34"):
    """Smoothed strain per cell, element by element, as (vertices
    (n, 4, 2), areas (n,), strains (n, 3)); the vertices and areas are
    read-only.

    After assemble on this mesh with the same scheme, k_cells, n_points
    and split, as passed, the cells and fluxes of that pass are reused.
    Otherwise they are built here, and the first element check_quads
    rejects raises InvalidElement.
    """
    key, cells = _ASSEMBLED_CELLS.get(mesh, (None, None))
    verts, areas, fluxes, counts = (
        cells if key == (scheme, k_cells, n_points, split) else _stack_cells(
            mesh.num_elements, _each_element(mesh, element_cells, k_cells,
                                             scheme, n_points, split)))
    ue = u[np.repeat(element_dofs(mesh), counts, axis=0)]  # (n, 8)
    strains = np.empty((len(areas), 3))
    for c, (area, flux) in enumerate(zip(areas, fluxes)):
        strains[c] = smoothed_b(area, flux) @ ue[c]
    return verts, areas, strains
