"""Correctness gate applied to every pass of every workload.

Each check returns None when the output is correct and a one-line
reason when it is not; a pass counts the operation as failed on any
reason. The tolerances are the library's own contracts and the
acceptance criteria, not values fitted to the benchmark.
"""

from __future__ import annotations

import numpy as np

EXACT_ENERGY = 0.0398333   # reference strain energy of the cantilever
RESIDUAL_TOL = 1e-10       # solve()'s residual contract
# |sum reactions + sum load| / |sum load|. Round-off alone reaches 2.6e-5
# (beam-2048, seed 12): a strongly concave element there has a stiffness
# 1e9 times the median one. Lost or misassigned forces are O(1e-2) or more.
EQUILIBRIUM_TOL = 1e-3
ENERGY_TOL = 0.01          # finest-mesh strain energy, relative
RATE_GAP_TOL = 0.2         # wachspress vs averaged rate (criterion 7)
PATCH_TOL = 1e-9           # distorted 3x3 patch test (criterion 4)
REFERENCE_RTOL = 1e-9      # outputs recorded at the seed commit
RIGID_BODY_MODES = 3       # zero-energy modes of a full-rank element


def energy_rel_err(strain_energy):
    return abs(strain_energy - EXACT_ENERGY) / EXACT_ENERGY


def equilibrium_error(load, fixed_dofs, reactions):
    """|sum of reactions + sum of applied load| over |sum of applied
    load|, with x and y components summed separately."""
    total = np.array(load, dtype=float)
    total[fixed_dofs] += reactions
    imbalance = np.hypot(total[0::2].sum(), total[1::2].sum())
    applied = np.hypot(load[0::2].sum(), load[1::2].sum())
    return imbalance / applied


def check_residual(residual):
    if not residual < RESIDUAL_TOL:
        return f"solver residual {residual:.3e} >= {RESIDUAL_TOL:g}"
    return None


def check_equilibrium(load, fixed_dofs, reactions):
    err = equilibrium_error(load, fixed_dofs, reactions)
    if not err < EQUILIBRIUM_TOL:
        return f"equilibrium error {err:.3e} >= {EQUILIBRIUM_TOL:g}"
    return None


def check_energy(strain_energy, tol=ENERGY_TOL):
    rel = energy_rel_err(strain_energy)
    if not rel < tol:
        return (f"strain energy {strain_energy!r} is {rel:.3e} off "
                f"{EXACT_ENERGY} (tol {tol:g})")
    return None


def check_rate_gap(slope_a, slope_b):
    gap = abs(slope_a - slope_b)
    if not gap < RATE_GAP_TOL:
        return f"rate gap {gap:.3f} >= {RATE_GAP_TOL:g}"
    return None


def check_patch(err):
    if not err < PATCH_TOL:
        return f"patch-test error {err:.3e} >= {PATCH_TOL:g}"
    return None


def check_rank(zero_modes):
    if zero_modes != RIGID_BODY_MODES:
        return f"{zero_modes} zero-energy modes, expected {RIGID_BODY_MODES}"
    return None


def check_reference(name, value, reference):
    """Relative match against a value recorded at the seed commit."""
    if not abs(value - reference) <= REFERENCE_RTOL * abs(reference):
        return f"{name} = {value!r} differs from recorded {reference!r}"
    return None
