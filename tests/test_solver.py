"""Assembly, boundary conditions, the direct solve, and strain recovery."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfem2d.errors import (
    AllDofsFixed,
    InvalidElement,
    NonExistent,
    SingularSystem,
    UnknownTag,
    UnsupportedSubdivision,
)
from sfem2d.mesh import Mesh, generate_structured_mesh
from sfem2d.shapefn import shape_evaluator
from sfem2d.smoothing import MaterialModel, element_stiffness
from sfem2d.solver import (
    GlobalSystem,
    apply_dirichlet,
    apply_tractions,
    assemble,
    cell_strains,
    element_dofs,
    fix_dof,
    solve,
)

MAT = MaterialModel(1000.0, 0.25)


def linear_field(x, y):
    return (0.1 + 0.3 * x - 0.2 * y, -0.05 + 0.15 * x + 0.25 * y)


class TestAssemble:
    def test_single_element_equals_element_stiffness(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        system = assemble(m, "wachspress", 4, MAT)
        ke = element_stiffness(m.coords[m.conn[0]], 4, "wachspress", MAT)
        edofs = element_dofs(m)[0]
        scattered = np.zeros((8, 8))
        scattered[np.ix_(edofs, edofs)] = ke.k
        assert np.abs(system.stiffness.toarray() - scattered).max() < 1e-12

    def test_two_element_additivity(self):
        m = generate_structured_mesh(2, 1, 2, 1)
        system = assemble(m, "wachspress", 4, MAT)
        expected = np.zeros((2 * m.num_nodes, 2 * m.num_nodes))
        for e in range(2):
            ke = element_stiffness(m.coords[m.conn[e]], 4, "wachspress", MAT)
            ed = element_dofs(m)[e]
            expected[np.ix_(ed, ed)] += ke.k
        assert np.abs(system.stiffness.toarray() - expected).max() < 1e-12

    def test_regular_mesh_schemes_identical(self):
        # every element of the regular beam mesh is a rectangle, so the
        # wachspress and averaged stiffness matrices coincide meshwide
        m = generate_structured_mesh(8, 4, 8, 4)
        ka = assemble(m, "wachspress", 4, MAT).stiffness
        kb = assemble(m, "averaged", 4, MAT).stiffness
        scale = np.abs(ka.toarray()).max()
        assert np.abs((ka - kb).toarray()).max() < 1e-10 * scale

    def test_element_error_annotated(self):
        m = generate_structured_mesh(2, 1, 2, 1)
        # corrupt the second element into a bowtie
        from sfem2d.mesh import Mesh

        bad = Mesh(m.coords, [m.conn[0], (1, 2, 4, 5)], [])
        from sfem2d.errors import SfemError

        with pytest.raises(SfemError, match="element 1"):
            assemble(bad, "wachspress", 4, MAT)

    @pytest.mark.parametrize("scheme", ["wachspress", "averaged", "lagrange"])
    @pytest.mark.parametrize("corners, reason", [
        # signed area +1, but sides 2-3 and 4-1 cross
        ([(0, 0), (3, 0), (0, 1), (1, 2)], "self-intersecting quad"),
        ([(0, 0), (0, 1), (1, 1), (1, 0)], "inverted quad (signed area <= 0)"),
        # area 1, two distinct nodes at one point: a zero-length side
        ([(0, 2), (0, 2), (2, -2), (1, 1)], "two corners coincide"),
        # on the line y = x / 10; the shoelace gives 3.5e-18
        ([(0.1, 0.01), (0.2, 0.02), (0.4, 0.04), (0.7, 0.07)],
         "area within round-off of zero"),
    ])
    def test_invalid_element_rejected_before_smoothing(self, scheme, corners,
                                                       reason):
        m = generate_structured_mesh(2, 1, 2, 1)
        good = m.coords[m.conn[0]]
        bad = Mesh(np.vstack([good, corners]), [[0, 1, 2, 3], [4, 5, 6, 7]],
                   [])
        with pytest.raises(InvalidElement) as exc:
            assemble(bad, scheme, 4, MAT)
        assert exc.value.element_index == 1
        assert str(exc.value) == f"element 1: {reason}"


class TestTractions:
    def test_uniform_traction_splits_evenly(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        load = apply_tractions(m, "right", lambda x, y: (2.0, 0.0))
        nz = load[load != 0.0]
        assert nz == pytest.approx([1.0, 1.0])

    def test_parabolic_end_shear_total(self):
        d, ll, p = 4.0, 8.0, 250.0
        inertia = d ** 3 / 12.0
        m = generate_structured_mesh(8, 4, ll, d)

        def shear(x, y):
            return (0.0, -p / (2 * inertia) * (d * d / 4 - y * y))

        load = apply_tractions(m, "right", shear)
        assert load[0::2].sum() == 0.0
        assert load[1::2].sum() == pytest.approx(-p, rel=1e-10)

    def test_zero_traction(self):
        m = generate_structured_mesh(2, 2, 1, 1)
        load = apply_tractions(m, "top", lambda x, y: (0.0, 0.0))
        assert not load.any()

    def test_unknown_tag(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        with pytest.raises(UnknownTag):
            apply_tractions(m, "free-end", lambda x, y: (1.0, 0.0))


@pytest.mark.parametrize("call", ["shape_evaluator", "apply_tractions"])
def test_unknown_scheme_is_value_error(call):
    # apply_tractions used to give the hat-function loads for any scheme
    m = generate_structured_mesh(1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^unknown scheme 'foo'; expected"):
        if call == "shape_evaluator":
            shape_evaluator("foo", m.coords[m.conn[0]])
        else:
            apply_tractions(m, "right", lambda x, y: (1.0, 0.0), scheme="foo")


@pytest.mark.parametrize("call", ["assemble", "cell_strains"])
def test_argument_error_names_no_element(call):
    # k=3 used to be reported as "element 0: k must be 1, 2 or 4"
    m = generate_structured_mesh(2, 1, 2.0, 1.0)
    with pytest.raises(UnsupportedSubdivision) as exc:
        if call == "assemble":
            assemble(m, "wachspress", 3, MAT)
        else:
            cell_strains(m, np.zeros(12), "wachspress", 3)
    assert "element" not in str(exc.value)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_unknown_split_rejected_for_every_k(k):
    # with k = 1 or 4 a bogus split used to run silently
    m = generate_structured_mesh(2, 1, 2.0, 1.0)
    with pytest.raises(ValueError, match=r"^unknown split 'bogus'$"):
        assemble(m, "wachspress", k, MAT, None, "bogus")


@pytest.mark.parametrize("n_points", [0, 5, 6])
@pytest.mark.parametrize("call", ["element_stiffness", "apply_tractions"])
def test_bad_quadrature_count_is_value_error(call, n_points):
    m = generate_structured_mesh(1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"must be 1, 2, 3 or 4, got"):
        if call == "element_stiffness":
            element_stiffness(m.coords[m.conn[0]], 4, "wachspress", MAT,
                              n_points=n_points)
        else:
            apply_tractions(m, "right", lambda x, y: (1.0, 0.0),
                            n_points=n_points)


class TestDirichletAndSolve:
    def test_boundary_linear_field_reproduced(self):
        m = generate_structured_mesh(2, 2, 1, 1)
        system = assemble(m, "wachspress", 4, MAT)
        apply_dirichlet(system, m.boundary_node_ids(), linear_field)
        sol = solve(system)
        for i in m.interior_node_ids():
            ex, ey = linear_field(*m.coords[i])
            assert sol.u[2 * i] == pytest.approx(ex, abs=1e-12)
            assert sol.u[2 * i + 1] == pytest.approx(ey, abs=1e-12)

    def test_all_dofs_fixed_raises(self):
        m = generate_structured_mesh(1, 1, 1, 1)
        system = assemble(m, "wachspress", 4, MAT)
        with pytest.raises(AllDofsFixed):
            apply_dirichlet(system, [0, 1, 2, 3], linear_field)
        assert system.fixed == {}
        empty = GlobalSystem(mesh=None, stiffness=sp.csr_matrix((0, 0)),
                             load=np.zeros(0))
        with pytest.raises(AllDofsFixed):
            solve(empty)

    def test_fixed_is_read_only(self):
        # a write to fixed used to reach solve unchecked: DOFs -2 and -1
        # fixed node 5 at (0, 0)
        system = assemble(generate_structured_mesh(2, 1, 2.0, 1.0),
                          "wachspress", 4, MAT)
        with pytest.raises(TypeError):
            system.fixed[-2] = 0.0
        with pytest.raises(AttributeError):
            system.fixed = {-2: 0.0}
        fix_dof(system, 3, 1.0)
        fix_dof(system, 3, 2.0)  # a prescribed DOF may be prescribed again
        assert system.fixed == {3: 2.0}

    @pytest.mark.parametrize("name", ["stiffness", "mesh"])
    def test_stiffness_and_mesh_cannot_be_rebound(self, name):
        # a smaller stiffness used to reach solve, whose fixed DOF 11 then
        # raised scipy's IndexError: index (11) out of range
        system = assemble(generate_structured_mesh(2, 1, 2.0, 1.0),
                          "wachspress", 4, MAT)
        for dof in (0, 1, 6, 11):
            fix_dof(system, dof, 0.0)
        kept = getattr(system, name)
        with pytest.raises(AttributeError):
            setattr(system, name, system.stiffness[:8, :8].tocsr())
        assert getattr(system, name) is kept
        system.load = np.ones(12)   # the load may be replaced
        assert solve(system).residual < 1e-10

    def test_minimal_constraints_solve(self):
        m = generate_structured_mesh(2, 1, 2, 1)
        system = assemble(m, "wachspress", 4, MAT)
        fix_dof(system, 0, 0.0)
        fix_dof(system, 1, 0.0)
        fix_dof(system, 2 * 2 + 1, 0.0)  # uy of the far bottom corner
        sol = solve(system)
        assert sol.residual < 1e-10
        assert np.abs(sol.u).max() < 1e-12  # no load, fully pinned

    @pytest.mark.parametrize("node_ids", [
        [-1], [6], [1.5], [True], [0, 6],
    ], ids=["-1", "6", "1.5", "True", "0,6"])
    def test_bad_node_id_rejected(self, node_ids):
        # node -1 would index the last node and fix DOFs -2 and -1; node 6
        # (of 6) and 1.5 used to raise IndexError, True a TypeError
        m = generate_structured_mesh(2, 1, 2.0, 1.0)
        system = assemble(m, "wachspress", 4, MAT)
        fix_dof(system, 11, 0.5)
        with pytest.raises(ValueError, match=rf"^no node {node_ids[-1]} in "
                           r"0\.\.5$"):
            apply_dirichlet(system, node_ids, linear_field)
        assert system.fixed == {11: 0.5}

    def test_numpy_node_ids_accepted(self):
        m = generate_structured_mesh(2, 1, 2.0, 1.0)
        by_list, by_array = (assemble(m, "wachspress", 4, MAT)
                             for _ in range(2))
        apply_dirichlet(by_list, [0, 1, 2], linear_field)
        apply_dirichlet(by_array, np.arange(3), linear_field)
        assert by_array.fixed == by_list.fixed
        assert list(by_array.fixed) == list(range(6))

    def test_nonfinite_displacement_stores_nothing(self):
        # the first component used to be stored before the second raised
        m = generate_structured_mesh(2, 1, 2.0, 1.0)
        system = assemble(m, "wachspress", 4, MAT)
        with pytest.raises(ValueError, match="cannot prescribe nan at dof 1 "):
            apply_dirichlet(system, [0], lambda x, y: (0.0, float("nan")))
        assert system.fixed == {}

    @pytest.mark.parametrize("dof, value", [
        (-1, 0.0), (10 ** 6, 0.0), (8, 0.0), (1.5, 0.0), (2.0, 0.0),
        (True, 0.0), (np.True_, 0.0), (0, float("nan")), (0, float("inf")),
    ])
    def test_fix_dof_rejects_bad_dof_or_value(self, dof, value):
        # a negative index would silently overwrite the last DOF's solution
        system = assemble(generate_structured_mesh(1, 1, 1, 1),
                          "wachspress", 4, MAT)
        with pytest.raises(ValueError):
            fix_dof(system, dof, value)
        assert system.fixed == {}

    @pytest.mark.parametrize("load", ["long", "short", "nan"])
    def test_bad_load_rejected(self, load):
        # a long load used to be truncated (its extra entries ignored), a
        # short one to raise IndexError, a NaN to raise SingularSystem
        m = generate_structured_mesh(2, 1, 2.0, 1.0)
        system = assemble(m, "wachspress", 4, MAT)
        apply_dirichlet(system, m.boundary_node_ids("left"),
                        lambda x, y: (0.0, 0.0))
        good = system.load
        good[11] = -1.0
        system.load = {"long": np.concatenate([good, np.full(6, 1e6)]),
                       "short": good[:-1],
                       "nan": np.where(np.arange(12) == 3, np.nan, good)}[load]
        with pytest.raises(ValueError, match=r"^load must be a finite array "
                           r"of shape \(12,\)$"):
            solve(system)

    def test_identity_system(self):
        n = 6
        k = sp.identity(n, format="csr") * 3.0
        load = np.zeros(n)
        load[0] = 3.0
        system = GlobalSystem(mesh=None, stiffness=k, load=load)
        sol = solve(system)
        assert sol.u == pytest.approx(np.eye(n)[0])

    def test_uniaxial_stretch_closed_form(self):
        mat = MaterialModel(100.0, 0.0)
        m = generate_structured_mesh(2, 2, 1, 1)
        system = assemble(m, "wachspress", 4, mat)
        sigma = 5.0
        system.load = apply_tractions(m, "right", lambda x, y: (sigma, 0.0))
        left = m.boundary_node_ids("left")
        for n in left:
            fix_dof(system, 2 * n, 0.0)
        fix_dof(system, 2 * left[0] + 1, 0.0)
        sol = solve(system)
        xs = m.coords[:, 0]
        assert np.abs(sol.u[0::2] - sigma / 100.0 * xs).max() < 1e-12
        assert np.abs(sol.u[1::2]).max() < 1e-12
        assert sol.strain_energy == pytest.approx(0.5 * sigma ** 2 / 100.0)

    def test_singular_system_detected(self):
        # a single unconstrained-enough SC1Q4 element is rank deficient
        m = generate_structured_mesh(1, 1, 1, 1)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = assemble(m, "wachspress", 1, MAT)
        fix_dof(system, 0, 0.0)
        fix_dof(system, 1, 0.0)
        fix_dof(system, 3, 0.0)
        system.load[4] = 1.0
        with pytest.raises(SingularSystem):
            solve(system)

    def test_reaction_equilibrium(self):
        m = generate_structured_mesh(4, 2, 8, 4)
        system = assemble(m, "wachspress", 4, MAT)
        system.load = apply_tractions(m, "right", lambda x, y: (0.0, -3.0))
        apply_dirichlet(system, m.boundary_node_ids("left"),
                        lambda x, y: (0.0, 0.0))
        sol = solve(system)
        applied = system.load.sum()
        assert sol.reactions.sum() == pytest.approx(-applied, rel=1e-9)


class TestCellStrains:
    def test_linear_field_constant_strain(self):
        m = generate_structured_mesh(2, 2, 1, 1)
        coords = m.coords
        # u = (0.2 x + 0.1 y, -0.05 x + 0.3 y): strain (0.2, 0.3, 0.05)
        u = np.column_stack(
            [0.2 * coords[:, 0] + 0.1 * coords[:, 1],
             -0.05 * coords[:, 0] + 0.3 * coords[:, 1]]
        ).ravel()
        for scheme in ("wachspress", "averaged"):
            for eps in cell_strains(m, u, scheme, 4)[2]:
                assert eps == pytest.approx([0.2, 0.3, 0.05], abs=1e-13)

    @pytest.mark.parametrize("scheme", ["wachspress", "averaged", "lagrange"])
    def test_self_crossing_element_rejected_before_smoothing(self, scheme):
        # signed area +1, but sides 2-3 and 4-1 cross
        m = Mesh([(0, 0), (3, 0), (0, 1), (1, 2)], [[0, 1, 2, 3]], [])
        with pytest.raises(InvalidElement,
                           match="element 0: self-intersecting quad"):
            cell_strains(m, np.zeros(8), scheme, 4)

    def test_scheme_error_names_its_element(self):
        # simple and CCW, but the lagrange moment matrix is singular
        m = Mesh([(1, 0), (3, 0), (0, 2), (0, 1)], [[0, 1, 2, 3]], [])
        with pytest.raises(NonExistent, match="element 0: nodal moment "
                           "matrix is singular"):
            cell_strains(m, np.zeros(8), "lagrange", 4)
