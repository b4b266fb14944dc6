"""Closed-form cantilever fields, patch tests, energy-norm machinery,
and convergence records."""

import math

import numpy as np
import pytest

from sfem2d.benchmarks import (
    ConvergenceRecord,
    TimoshenkoBeam,
    beam_mesh,
    energy_norm_error,
    exact_displacement,
    exact_strain,
    exact_strain_energy,
    exact_stress,
    fit_rate,
    records_to_csv,
    run_convergence_study,
    run_patch_test,
    solve_beam,
)
from sfem2d.errors import InvalidElement, UnsupportedSubdivision
from sfem2d.mesh import subdivide_adaptive
from sfem2d.smoothing import GAUSS_1D, element_stiffness
from sfem2d.solver import cell_strains

BEAM = TimoshenkoBeam()


class TestExactFields:
    def test_origin_fixed(self):
        assert exact_displacement(BEAM, 0.0, 0.0) == (0.0, 0.0)

    def test_inertia(self):
        assert BEAM.inertia == pytest.approx(4.0 ** 3 / 12.0)

    def test_bending_stress_at_support_top(self):
        sxx, syy, _ = exact_stress(BEAM, 0.0, BEAM.height / 2)
        assert sxx == pytest.approx(250.0 * 8.0 * 2.0 / BEAM.inertia)  # 750
        assert syy == 0.0

    def test_free_end_has_no_bending_stress(self):
        sxx, _, _ = exact_stress(BEAM, BEAM.length, 1.37)
        assert sxx == 0.0

    def test_shear_free_faces(self):
        for y in (-BEAM.height / 2, BEAM.height / 2):
            assert exact_stress(BEAM, 3.0, y)[2] == pytest.approx(0.0)

    def test_end_shear_resultant(self):
        # integral of tau over the tip section must balance the end load;
        # 4-point Gauss is exact for the quadratic profile
        xi, w = GAUSS_1D[4]
        y = 0.5 * BEAM.height * xi
        tau = exact_stress(BEAM, BEAM.length, y)[2]
        total = 0.5 * BEAM.height * float(w @ tau)
        assert total == pytest.approx(-BEAM.end_load, rel=1e-12)

    def test_strains_match_displacement_gradient(self):
        h = 1e-6
        for x, y in ((1.0, 0.5), (5.0, -1.2), (7.5, 1.9)):
            eps = exact_strain(BEAM, x, y)
            uxp, uyp = exact_displacement(BEAM, x + h, y)
            uxm, uym = exact_displacement(BEAM, x - h, y)
            dux_dx = (uxp - uxm) / (2 * h)
            duy_dx = (uyp - uym) / (2 * h)
            uxp, uyp = exact_displacement(BEAM, x, y + h)
            uxm, uym = exact_displacement(BEAM, x, y - h)
            dux_dy = (uxp - uxm) / (2 * h)
            duy_dy = (uyp - uym) / (2 * h)
            assert eps[0] == pytest.approx(dux_dx, abs=1e-8)
            assert eps[1] == pytest.approx(duy_dy, abs=1e-8)
            assert eps[2] == pytest.approx(dux_dy + duy_dx, abs=1e-8)

    def test_exact_energy_reference_value(self):
        u = exact_strain_energy(BEAM)
        assert abs(u - 0.0398333) < 1e-6
        # closed form of the same integral: P^2 L^3 / (6 E I) plus the
        # shear term P^2 L D^5 / (240 I^2 G)
        g = BEAM.youngs_modulus / (2 * (1 + BEAM.poisson_ratio))
        closed = (
            BEAM.end_load ** 2 * BEAM.length ** 3
            / (6 * BEAM.youngs_modulus * BEAM.inertia)
            + BEAM.end_load ** 2 * BEAM.length * BEAM.height ** 5
            / (240 * BEAM.inertia ** 2 * g)
        )
        assert u == pytest.approx(closed, rel=1e-13)

    def test_exact_energy_grid_independent(self):
        coarse = exact_strain_energy(BEAM, nx=4, ny=2)
        fine = exact_strain_energy(BEAM, nx=64, ny=32)
        assert coarse == pytest.approx(fine, rel=1e-12)


class TestPatchTest:
    @pytest.mark.parametrize("k", [2, 4])
    def test_regular(self, k):
        assert run_patch_test("wachspress", k) < 1e-10

    @pytest.mark.parametrize("k", [2, 4])
    def test_distorted(self, k):
        assert run_patch_test("wachspress", k, distorted=True) < 1e-9

    def test_constant_field(self):
        err = run_patch_test(
            "wachspress", 4,
            coefficients=((0.3, 0.0, 0.0), (-0.2, 0.0, 0.0)),
        )
        assert err < 1e-13

    def test_averaged_scheme_regular(self):
        assert run_patch_test("averaged", 4) < 1e-10


class TestBeamMesh:
    def test_mesh_index_to_grid(self):
        mesh = beam_mesh(BEAM, 2.0)
        assert mesh.num_elements == 16 * 8
        xs = sorted(set(mesh.coords[:, 0].tolist()))
        assert xs[1] - xs[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("mesh_index", [math.inf, math.nan])
    def test_non_finite_index_gives_no_elements(self, mesh_index):
        # inf used to raise OverflowError, nan an int() ValueError
        with pytest.raises(ValueError, match="gives no elements"):
            beam_mesh(BEAM, mesh_index)

    def test_distortion_reseeds_on_invalid(self, monkeypatch, caplog):
        import sfem2d.benchmarks as bench

        calls = {"n": 0}
        real = bench.distort_mesh

        def flaky(mesh, spec, dx, dy):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InvalidElement(5, "forced for the retry test")
            return real(mesh, spec, dx, dy)

        monkeypatch.setattr(bench, "distort_mesh", flaky)
        with caplog.at_level("WARNING"):
            mesh = beam_mesh(BEAM, 0.5, alpha_ir=0.3, seed=9)
        assert calls["n"] == 2
        assert mesh.num_elements == 8
        assert any("re-seeding" in r.message for r in caplog.records)


class TestEnergyNorm:
    def test_error_decreases_with_refinement(self):
        errs = []
        for mi in (0.5, 1.0):
            mesh, sol = solve_beam(BEAM, mi, "wachspress", 4)
            errs.append(energy_norm_error(mesh, sol.u, BEAM, "wachspress", 4))
        assert errs[1] < errs[0]

    def test_schemes_identical_on_regular_mesh(self):
        vals = {}
        for scheme in ("wachspress", "averaged"):
            mesh, sol = solve_beam(BEAM, 1.0, scheme, 2)
            vals[scheme] = (
                sol.strain_energy,
                energy_norm_error(mesh, sol.u, BEAM, scheme, 2),
            )
        ua, ea = vals["wachspress"]
        ub, eb = vals["averaged"]
        assert abs(ua - ub) / ua < 1e-10
        assert abs(ea - eb) / ea < 1e-10

    def test_determinism(self):
        a = run_convergence_study("wachspress", 2, alpha_ir=0.4, seeds=(5,),
                                  mesh_indices=(0.5, 1.0))
        b = run_convergence_study("wachspress", 2, alpha_ir=0.4, seeds=(5,),
                                  mesh_indices=(0.5, 1.0))
        assert a.records == b.records

    def test_energy_gap_monotone_on_regular_sequence(self):
        exact = exact_strain_energy(BEAM)
        study = run_convergence_study("wachspress", 2,
                                      mesh_indices=(0.5, 1.0, 2.0))
        gaps = [abs(r.strain_energy - exact) for r in study.records]
        assert gaps == sorted(gaps, reverse=True)

    def test_cell_strains_of_solution(self):
        mesh, sol = solve_beam(BEAM, 0.5, "wachspress", 4)
        verts, areas, strains = cell_strains(mesh, sol.u, "wachspress", 4)
        assert len(verts) == len(areas) == 4 * mesh.num_elements
        assert strains.shape == (4 * mesh.num_elements, 3)
        # the cells come element by element, element 0 first
        (first, _), k_used, _ = subdivide_adaptive(
            mesh.coords[mesh.conn[0]], 4)
        assert k_used == 4
        np.testing.assert_array_equal(verts[:4], first)


class TestConcaveFallback:
    """Seed 0 at mesh index 4 and alpha 0.5 has elements too concave for
    four cells; strain recovery and the error pass must smooth them over
    the same fallback cells as assembly."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return beam_mesh(BEAM, 4, 0.5, seed=0)

    def test_cell_strains_use_element_stiffness_cells(self, mesh):
        u = np.zeros(2 * mesh.num_nodes)
        recovered, _, _ = cell_strains(mesh, u, "wachspress", 4)
        expected, fallbacks = [], 0
        for e in range(mesh.num_elements):
            cells = element_stiffness(mesh.coords[mesh.conn[e]], 4,
                                      "wachspress", BEAM.material).cells
            expected.append(cells)
            fallbacks += len(cells) < 4
        assert fallbacks == 5
        assert np.array_equal(recovered, np.concatenate(expected))

    def test_error_pass_covers_the_fallback_cells(self, mesh):
        # with u = 0 the error integrand is the exact strain energy
        # density without the 1/2, so the fallback cells must still tile
        # the beam for the norm to match the exact energy
        err = energy_norm_error(mesh, np.zeros(2 * mesh.num_nodes), BEAM,
                                "wachspress", 4)
        assert err == pytest.approx(math.sqrt(2 * exact_strain_energy(BEAM)),
                                    rel=1e-6)


class TestRateFit:
    def test_synthetic_slope(self):
        records = [
            ConvergenceRecord("wachspress", 4, 0.0, 0, mi, 100,
                              0.0, 0.37 * (1.0 / mi) ** 1.03)
            for mi in (0.5, 1.0, 2.0, 4.0)
        ]
        fit = fit_rate(records)
        assert fit.slope == pytest.approx(1.03, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(0.37), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("indices", [(1.0,), (1.0, 1.0)],
                             ids=["one", "repeated"])
    def test_two_distinct_indices_required(self, indices):
        # one distinct h leaves the log-log line undetermined
        records = [ConvergenceRecord("wachspress", 4, 0.5, s, mi, 100, 0.0,
                                     0.1 + 0.01 * s)
                   for s, mi in enumerate(indices)]
        with pytest.raises(ValueError, match="two distinct"):
            fit_rate(records)

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            run_convergence_study("wachspress", 4, mesh_indices=(2.0, 1.0))

    @pytest.mark.parametrize("alpha_ir", [0.0, 0.5])
    def test_at_least_one_seed_required(self, alpha_ir):
        # no seeds used to raise IndexError at alpha 0, and the message of
        # the rate fit at alpha > 0
        with pytest.raises(ValueError, match="at least one seed"):
            run_convergence_study("wachspress", 4, alpha_ir, seeds=())

    @pytest.mark.parametrize("kwargs", [
        dict(mesh_indices=(4.0, 4.0)), dict(mesh_indices=(1.0, math.inf)),
        dict(alpha_ir=0.6), dict(quadrature=5), dict(split="bogus"),
        dict(scheme="foo"), dict(k_cells=3),
    ], ids=["repeated-index", "inf-index", "alpha", "quadrature", "split",
            "scheme", "k"])
    def test_arguments_checked_before_any_solve(self, kwargs, monkeypatch):
        # (4, 4) used to run both solves before the rate fit rejected them
        import sfem2d.benchmarks as bench

        solves = []
        monkeypatch.setattr(bench, "solve_beam",
                            lambda *a, **kw: solves.append(a))
        args = dict(scheme="wachspress", k_cells=4, alpha_ir=0.5) | kwargs
        with pytest.raises((ValueError, UnsupportedSubdivision)) as exc:
            run_convergence_study(**args)
        assert solves == []
        assert not str(exc.value).startswith("element")


class TestCsv:
    def test_schema_and_digits(self):
        rec = ConvergenceRecord("averaged", 2, 0.5, 3, 4.0, 1122,
                                0.039833312345678901, 0.0123456789012345678)
        text = records_to_csv([rec])
        header, row = text.strip().splitlines()
        assert header == ("scheme,k,alpha_ir,seed,mesh_index,dofs,"
                          "strain_energy,energy_norm_error")
        cells = row.split(",")
        assert cells[0] == "averaged"
        assert int(cells[1]) == 2
        assert float(cells[6]) == rec.strain_energy  # 17 digits round-trip
        assert float(cells[7]) == rec.energy_norm_error
