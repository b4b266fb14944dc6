"""Benchmark problems: the linear patch test and the plane-stress
cantilever with a parabolic end shear, plus energy-norm errors and
convergence-rate fits over mesh sequences.

The cantilever's closed-form displacement and stress fields follow the
classical plane-stress beam solution, with the support condition taken as
the exact displacements prescribed on the clamped section; the reference
strain energy for the default constants is 0.0398333.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidElement
from .mesh import (
    DistortionSpec,
    distort_mesh,
    generate_structured_mesh,
    polygon_centroid,
    vertex_successors,
)
from .smoothing import (
    GAUSS_1D,
    MaterialModel,
    elasticity_matrix,
    smoothed_b,  # noqa: F401  bench/tests reads sfem2d.benchmarks.smoothed_b
)
from .solver import (
    apply_dirichlet,
    apply_tractions,
    assemble,
    cell_strains,
    solve,
)

log = logging.getLogger(__name__)

# 3-point, degree-2 rule on the reference triangle (barycentric corners).
_TRI3_BARY = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                       [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                       [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]])
# Cells per block of the error quadrature: each temporary array stays under
# 80 kB, so the pass adds little to peak memory and runs no slower.
_ERROR_BLOCK = 256
# Re-seeds beam_mesh tries after a distortion draw check_quads rejects.
_MAX_RESEEDS = 10


@dataclass(frozen=True)
class TimoshenkoBeam:
    """Cantilever geometry, material, and end load."""

    length: float = 8.0
    height: float = 4.0
    thickness: float = 1.0
    youngs_modulus: float = 3e7
    poisson_ratio: float = 0.3
    end_load: float = 250.0

    @property
    def inertia(self):
        return self.height ** 3 * self.thickness / 12.0

    @property
    def material(self):
        return MaterialModel(self.youngs_modulus, self.poisson_ratio,
                             self.thickness)


def exact_displacement(beam, x, y):
    """Closed-form (ux, uy) of the end-loaded cantilever; u(0, 0) = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p, e, nu = beam.end_load, beam.youngs_modulus, beam.poisson_ratio
    ll, d, i = beam.length, beam.height, beam.inertia
    c = p / (6.0 * e * i)
    ux = c * y * ((6.0 * ll - 3.0 * x) * x + (2.0 + nu) * (y * y - d * d / 4.0))
    uy = -c * (3.0 * nu * y * y * (ll - x)
               + (4.0 + 5.0 * nu) * d * d * x / 4.0
               + (3.0 * ll - x) * x * x)
    return ux, uy


def exact_stress(beam, x, y):
    """Closed-form (sigma_xx, sigma_yy, tau_xy)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p, ll, d, i = beam.end_load, beam.length, beam.height, beam.inertia
    sxx = p * (ll - x) * y / i
    syy = np.zeros_like(sxx)
    txy = -p / (2.0 * i) * (d * d / 4.0 - y * y)
    return sxx, syy, txy


def exact_strain(beam, x, y):
    """Plane-stress strains of the exact field, shape (..., 3)."""
    sxx, syy, txy = exact_stress(beam, x, y)
    e, nu = beam.youngs_modulus, beam.poisson_ratio
    g = e / (2.0 * (1.0 + nu))
    return np.stack(
        [(sxx - nu * syy) / e, (syy - nu * sxx) / e, txy / g], axis=-1
    )


def exact_strain_energy(beam, nx=32, ny=16, n_points=4):
    """Strain energy of the exact field by Gauss quadrature on a grid.

    The energy density is polynomial of degree 4, so the default 4x4 rule
    per cell integrates it exactly; this pins the sign and constant
    conventions of the closed-form fields.
    """
    xi, w = GAUSS_1D[n_points]
    dx = beam.length / nx
    dy = beam.height / ny
    x0 = (np.arange(nx) + 0.5) * dx
    y0 = (np.arange(ny) + 0.5) * dy - beam.height / 2.0
    gx = (x0[:, None] + 0.5 * dx * xi[None, :]).ravel()
    wx = np.tile(0.5 * dx * w, nx)
    gy = (y0[:, None] + 0.5 * dy * xi[None, :]).ravel()
    wy = np.tile(0.5 * dy * w, ny)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    sxx, syy, txy = exact_stress(beam, xx, yy)
    eps = exact_strain(beam, xx, yy)
    density = 0.5 * (sxx * eps[..., 0] + syy * eps[..., 1] + txy * eps[..., 2])
    return float((wx[:, None] * wy[None, :] * density).sum() * beam.thickness)


def run_patch_test(scheme, k_cells, distorted=False, seed=3, quadrature=None,
                   coefficients=((0.1, 0.3, -0.2), (-0.05, 0.15, 0.25)),
                   split="12-34"):
    """Impose a linear field on the boundary of a small mesh and return
    the max interior nodal displacement error.

    Regular case: 2x2 unit-square mesh. Distorted case: 3x3 mesh with
    irregularity factor 0.4 at the given seed.
    """
    n = 3 if distorted else 2
    mesh = generate_structured_mesh(n, n, 1.0, 1.0)
    if distorted:
        mesh = distort_mesh(mesh, DistortionSpec(0.4, seed), 1.0 / n, 1.0 / n)
    (a1, a2, a3), (b1, b2, b3) = coefficients

    def field(x, y):
        return (a1 + a2 * x + a3 * y, b1 + b2 * x + b3 * y)

    material = MaterialModel(1000.0, 0.3)
    system = assemble(mesh, scheme, k_cells, material, n_points=quadrature,
                      split=split)
    apply_dirichlet(system, mesh.boundary_node_ids(), field)
    sol = solve(system)
    interior = mesh.interior_node_ids()
    exact = np.column_stack(field(*mesh.coords[interior].T))
    return np.abs(sol.u.reshape(-1, 2)[interior] - exact).max()


def beam_mesh(beam, mesh_index, alpha_ir=0.0, seed=0):
    """Structured (optionally distorted) cantilever mesh for a mesh index.

    mesh index = elements along x / beam length; the element count across
    the height keeps elements square for the default 2:1 beam. On an
    InvalidElement the distortion is re-seeded up to _MAX_RESEEDS times
    (each retry logged).
    """
    nx = int(round(mesh_index * beam.length))
    if nx < 1:
        raise ValueError(f"mesh index {mesh_index} gives no elements")
    ny = max(1, int(round(nx * beam.height / beam.length)))
    mesh = generate_structured_mesh(nx, ny, beam.length, beam.height)
    if alpha_ir == 0.0:
        return mesh
    dx = beam.length / nx
    dy = beam.height / ny
    attempt_seed = seed
    for attempt in range(_MAX_RESEEDS + 1):
        try:
            return distort_mesh(mesh, DistortionSpec(alpha_ir, attempt_seed),
                                dx, dy)
        except InvalidElement as err:
            log.warning("distortion seed %d rejected (%s); re-seeding",
                        attempt_seed, err)
            attempt_seed = seed + 1_000_003 * (attempt + 1)
    raise InvalidElement(-1, f"no valid mesh after {_MAX_RESEEDS} re-seeds")


def solve_beam(beam, mesh_index, scheme, k_cells, alpha_ir=0.0, seed=0,
               quadrature=None, split="12-34"):
    """Solve the cantilever on one mesh; returns (mesh, Solution)."""
    mesh = beam_mesh(beam, mesh_index, alpha_ir, seed)
    system = assemble(mesh, scheme, k_cells, beam.material,
                      n_points=quadrature, split=split)
    p, d, i = beam.end_load, beam.height, beam.inertia

    def end_shear(x, y):
        return (0.0, -p / (2.0 * i) * (d * d / 4.0 - y * y))

    system.load = apply_tractions(mesh, "right", end_shear, scheme=scheme,
                                  k_cells=k_cells)
    apply_dirichlet(system, mesh.boundary_node_ids("left"),
                    lambda x, y: exact_displacement(beam, x, y))
    return mesh, solve(system)


def energy_norm_error(mesh, u, beam, scheme, k_cells, quadrature=None,
                      split="12-34"):
    """Energy norm of (smoothed strain - exact strain).

    Cell integrals fan signed triangles from the cell centroid and use a
    3-point degree-2 rule per triangle; the smoothed strain is constant
    per cell. No 1/2 factor inside the integrand. Blocks of cells are
    integrated at once, so the sum order differs from a per-cell loop.
    """
    d = elasticity_matrix(beam.material)
    verts, _, strains = cell_strains(mesh, u, scheme, k_cells,
                                     n_points=quadrature, split=split)
    nxt = vertex_successors(4)
    total = 0.0
    for i in range(0, len(verts), _ERROR_BLOCK):
        cv = verts[i:i + _ERROR_BLOCK]
        tri = np.stack([np.broadcast_to(polygon_centroid(cv)[:, None],
                                        cv.shape), cv, cv[:, nxt]], axis=2)
        e1 = tri[:, :, 1] - tri[:, :, 0]              # tri: (B, 4 sides, 3, 2)
        e2 = tri[:, :, 2] - tri[:, :, 0]
        signed = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
        pts = _TRI3_BARY @ tri                        # (B, 4, 3 points, 2)
        diff = (strains[i:i + _ERROR_BLOCK, None, None]
                - exact_strain(beam, pts[..., 0], pts[..., 1]))
        energy = np.einsum("bsqi,ij,bsqj->bs", diff, d, diff)
        total += float(((signed / 3.0) * energy).sum())
    return float(np.sqrt(max(total, 0.0) * beam.thickness))


@dataclass(frozen=True)
class ConvergenceRecord:
    scheme: str
    k_cells: int
    alpha_ir: float
    seed: int
    mesh_index: float
    dofs: int
    strain_energy: float
    energy_norm_error: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(records):
    """Least-squares slope of log(error) against log(h), h = 1/mesh_index."""
    if len({r.mesh_index for r in records}) < 2:
        raise ValueError("a rate fit needs at least two distinct mesh indices")
    h = np.log([1.0 / r.mesh_index for r in records])
    err = np.log([r.energy_norm_error for r in records])
    slope, intercept = np.polyfit(h, err, 1)
    fitted = slope * h + intercept
    ss_res = float(((err - fitted) ** 2).sum())
    ss_tot = float(((err - err.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2)


@dataclass(frozen=True)
class StudyResult:
    records: tuple
    fit: RateFit


def run_convergence_study(scheme, k_cells, alpha_ir=0.0, seeds=(0,),
                          mesh_indices=(0.5, 1.0, 2.0, 4.0),
                          beam=TimoshenkoBeam(), quadrature=None,
                          split="12-34"):
    """Records plus a pooled rate fit over a mesh sequence.

    Regular meshes do not depend on the seed, so only the first seed runs;
    each irregular seed contributes one record per mesh index, and all
    schemes see the same node set for a given (alpha_ir, seed, index).
    """
    if list(mesh_indices) != sorted(mesh_indices):
        raise ValueError("mesh_indices must be ascending")
    use_seeds = (seeds[0],) if alpha_ir == 0.0 else tuple(seeds)
    records = []
    for seed in use_seeds:
        for mi in mesh_indices:
            mesh, sol = solve_beam(beam, mi, scheme, k_cells,
                                   alpha_ir=alpha_ir, seed=seed,
                                   quadrature=quadrature, split=split)
            err = energy_norm_error(mesh, sol.u, beam, scheme, k_cells,
                                    quadrature=quadrature, split=split)
            records.append(ConvergenceRecord(
                scheme=scheme, k_cells=k_cells, alpha_ir=alpha_ir, seed=seed,
                mesh_index=mi, dofs=2 * mesh.num_nodes,
                strain_energy=sol.strain_energy, energy_norm_error=err,
            ))
    records.sort(key=lambda r: (r.seed, r.mesh_index))
    return StudyResult(records=tuple(records), fit=fit_rate(records))


CSV_HEADER = "scheme,k,alpha_ir,seed,mesh_index,dofs,strain_energy,energy_norm_error"


def records_to_csv(records):
    """CSV text per the fixed schema, floats at 17 significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.scheme},{r.k_cells},{r.alpha_ir:.17g},{r.seed},"
            f"{r.mesh_index:.17g},{r.dofs},{r.strain_energy:.17g},"
            f"{r.energy_norm_error:.17g}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(records_to_csv(records))
