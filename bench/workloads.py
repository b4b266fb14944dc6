"""The benchmark's workloads.

Each workload builds its inputs from the seed when it is created (timed
as set-up) and runs one pass per ``run_pass()`` call. A pass calls the
library through its module attributes, so the traced run's rebound
functions see every call, and checks every output with ``gates``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

import sfem2d.benchmarks as B
import sfem2d.smoothing as SM
import sfem2d.solver as S

import gates

ALPHA = 0.5           # irregularity factor of every distorted beam mesh
SWEEP_SCHEMES = ("wachspress", "averaged")
SWEEP_CELLS = (2, 4)
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class PassResult:
    """Operations attempted in one pass, the ones that failed and why,
    accuracy figures, and the outputs pinned against the seed commit."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []
        self.accuracy = {}
        self.pinned = {}
        self.pinned_op = {}

    @property
    def failed(self):
        return len(self.failed_ops)

    def run(self, op, fn):
        """Call one operation; an exception marks it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # any raise is a failed operation
            self.check(op, f"{type(err).__name__}: {err}")
            return None

    def check(self, op, reason):
        if reason is not None:
            self.failed_ops.add(op)
            self.messages.append(f"{op}: {reason}")

    def pin(self, op, name, value):
        """Keep an output of ``op``; check it against the value recorded
        at the seed commit when there is one."""
        self.pinned[name] = value
        self.pinned_op[name] = op
        if name in self.reference:
            self.check(op, gates.check_reference(
                name, value, self.reference[name]))


def load_reference(workload, seed):
    """Outputs recorded at the seed commit for this workload and seed
    (empty when none were recorded)."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def beam_elements(beam, mesh_index):
    """Element count of beam_mesh at a mesh index (the stated size)."""
    nx = int(round(mesh_index * beam.length))
    return nx * max(1, int(round(nx * beam.height / beam.length)))


class BeamWorkload:
    """beam-2048: one SC4 Wachspress cantilever solve plus its
    energy-norm error on a distorted 64 x 32 mesh."""

    name = "beam-2048"
    scheme = "wachspress"
    k_cells = 4

    def __init__(self, seed, reference, mesh_index=8,
                 energy_tol=gates.ENERGY_TOL):
        self.seed = seed
        self.reference = reference
        self.mesh_index = mesh_index
        self.energy_tol = energy_tol
        self.beam = B.TimoshenkoBeam()
        self.elements = beam_elements(self.beam, mesh_index)

    def _end_shear(self, x, y):
        p, d, i = self.beam.end_load, self.beam.height, self.beam.inertia
        return (0.0, -p / (2.0 * i) * (d * d / 4.0 - y * y))

    def _exact(self, x, y):
        return B.exact_displacement(self.beam, x, y)

    def _solve(self):
        # solve_beam's steps, spelled out: the equilibrium gate needs the
        # load vector, which solve_beam does not return.
        mesh = B.beam_mesh(self.beam, self.mesh_index, ALPHA, self.seed)
        system = S.assemble(mesh, self.scheme, self.k_cells,
                            self.beam.material)
        system.load = S.apply_tractions(mesh, "right", self._end_shear,
                                        scheme=self.scheme,
                                        k_cells=self.k_cells)
        S.apply_dirichlet(system, mesh.boundary_node_ids("left"),
                          self._exact)
        sol = S.solve(system)
        err = B.energy_norm_error(mesh, sol.u, self.beam, self.scheme,
                                  self.k_cells)
        return system.load, sol, err

    def run_pass(self):
        res = PassResult(self.reference)
        out = res.run("beam", self._solve)
        if out is None:
            return res
        load, sol, err = out
        res.check("beam", gates.check_residual(sol.residual))
        res.check("beam", gates.check_equilibrium(load, sol.fixed_dofs,
                                                  sol.reactions))
        res.check("beam", gates.check_energy(sol.strain_energy,
                                             self.energy_tol))
        res.accuracy = {
            "energy_rel_err": gates.energy_rel_err(sol.strain_energy),
            "energy_norm_err": err,
            "residual": sol.residual,
            "equilibrium_err": gates.equilibrium_error(
                load, sol.fixed_dofs, sol.reactions),
        }
        res.pin("beam", "strain_energy", sol.strain_energy)
        res.pin("beam", "energy_norm_err", err)
        return res


class SweepWorkload:
    """convergence-sweep: run_convergence_study for {wachspress,
    averaged} x k in {2, 4} at alpha 0.5 over one seed's meshes."""

    name = "convergence-sweep"

    def __init__(self, seed, reference, mesh_indices=(0.5, 1.0, 2.0, 4.0),
                 energy_tol=gates.ENERGY_TOL):
        self.seed = seed
        self.reference = reference
        self.mesh_indices = tuple(mesh_indices)
        self.energy_tol = energy_tol
        beam = B.TimoshenkoBeam()
        self.elements = len(SWEEP_SCHEMES) * len(SWEEP_CELLS) * sum(
            beam_elements(beam, mi) for mi in self.mesh_indices)

    def run_pass(self):
        res = PassResult(self.reference)
        slopes = {}
        finest_rel, finest_err = [], []
        for scheme in SWEEP_SCHEMES:
            for k in SWEEP_CELLS:
                op = f"{scheme}/SC{k}"
                study = res.run(op, functools.partial(
                    B.run_convergence_study, scheme, k, alpha_ir=ALPHA,
                    seeds=(self.seed,), mesh_indices=self.mesh_indices))
                if study is None:
                    continue
                finest = study.records[-1]
                res.check(op, gates.check_energy(finest.strain_energy,
                                                 self.energy_tol))
                finest_rel.append(gates.energy_rel_err(finest.strain_energy))
                finest_err.append(finest.energy_norm_error)
                slopes[scheme, k] = study.fit.slope
                res.accuracy[f"rate.{scheme}.SC{k}"] = study.fit.slope
                for r in study.records:
                    tag = f"{scheme}.SC{k}.{r.mesh_index:g}"
                    res.pin(op, f"strain_energy.{tag}", r.strain_energy)
                    res.pin(op, f"energy_norm_err.{tag}",
                            r.energy_norm_error)
        gaps = []
        for k in SWEEP_CELLS:
            pair = [slopes.get((s, k)) for s in SWEEP_SCHEMES]
            if None in pair:
                continue
            gaps.append(abs(pair[0] - pair[1]))
            reason = gates.check_rate_gap(*pair)
            for s in SWEEP_SCHEMES:
                res.check(f"{s}/SC{k}", reason)
        if finest_rel:
            res.accuracy.update(energy_rel_err=max(finest_rel),
                                energy_norm_err=max(finest_err),
                                rate_gap_max=max(gaps, default=0.0))
        return res


def random_convex_quad(rng, min_cross=0.05):
    """CCW strictly convex quad in [0, 2]^2 with a turn margin, by
    rejection."""
    while True:
        q = rng.random((4, 2)) * 2.0
        c = q.mean(axis=0)
        q = q[np.argsort(np.arctan2(q[:, 1] - c[1], q[:, 0] - c[0]))]
        e = np.roll(q, -1, axis=0) - q
        en = np.roll(e, -1, axis=0)
        if np.all(e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0] > min_cross):
            return q


class SmallWorkload:
    """small-problems: single-element stiffness on random convex quads
    for all three schemes at k = 4, and distorted 3 x 3 patch tests."""

    name = "small-problems"
    schemes = ("wachspress", "averaged", "lagrange")
    patch_schemes = ("wachspress", "averaged")
    patch_cells = (2, 4)

    def __init__(self, seed, reference, n_quads=300, n_patch_seeds=16):
        self.reference = reference
        rng = np.random.default_rng(seed)
        self.quads = [random_convex_quad(rng) for _ in range(n_quads)]
        self.patch_seeds = [int(s) for s in
                            rng.integers(0, 2 ** 31, n_patch_seeds)]
        self.material = SM.MaterialModel(3e7, 0.3)
        self.elements = (len(self.quads) * len(self.schemes)
                         + 9 * len(self.patch_seeds)
                         * len(self.patch_schemes) * len(self.patch_cells))

    def run_pass(self):
        res = PassResult(self.reference)
        for scheme in self.schemes:
            norm_sum = 0.0
            for i, quad in enumerate(self.quads):
                op = f"element_stiffness/{scheme}/{i}"
                ke = res.run(op, functools.partial(
                    SM.element_stiffness, quad, 4, scheme, self.material))
                if ke is not None:
                    res.check(op, gates.check_rank(ke.zero_modes))
                    norm_sum += float(np.linalg.norm(ke.k))
            res.pin(f"element_stiffness/{scheme}/0",
                    f"stiffness_norm_sum.{scheme}", norm_sum)
        worst = 0.0
        for scheme in self.patch_schemes:
            for k in self.patch_cells:
                for seed in self.patch_seeds:
                    op = f"patch/{scheme}/SC{k}/{seed}"
                    err = res.run(op, functools.partial(
                        B.run_patch_test, scheme, k, distorted=True,
                        seed=seed))
                    if err is not None:
                        res.check(op, gates.check_patch(err))
                        worst = max(worst, err)
        res.accuracy["patch_err_max"] = worst
        return res


WORKLOADS = {w.name: w for w in (BeamWorkload, SweepWorkload, SmallWorkload)}

# Tiny sizes for the smoke test; every metric is still emitted.
SMOKE = {
    "beam-2048": dict(mesh_index=1, energy_tol=0.1),
    "convergence-sweep": dict(mesh_indices=(0.5, 1.0), energy_tol=0.1),
    "small-problems": dict(n_quads=4, n_patch_seeds=1),
}


def make_workload(name, seed, smoke=False):
    """Build a workload's inputs; smoke sizes are not checked against the
    recorded outputs."""
    if smoke:
        return WORKLOADS[name](seed, {}, **SMOKE[name])
    return WORKLOADS[name](seed, load_reference(name, seed))
