"""sfem2d: 2D plane-stress smoothed finite elements on quadrilateral
meshes, with Wachspress rational, averaged (nine-site), and non-mapped
Lagrange shape functions evaluated in physical coordinates."""

from .benchmarks import (
    ConvergenceRecord,
    RateFit,
    TimoshenkoBeam,
    energy_norm_error,
    exact_displacement,
    exact_strain_energy,
    exact_stress,
    fit_rate,
    run_convergence_study,
    run_patch_test,
    solve_beam,
    write_records_csv,
)
from .errors import (
    AdjointZero,
    AllDofsFixed,
    DegenerateElement,
    InvalidElement,
    NonExistent,
    OffSkeleton,
    SfemError,
    SingularSystem,
    UnknownTag,
    UnsupportedSubdivision,
    WedgeDegenerate,
)
from .mesh import (
    BoundaryEdge,
    DistortionSpec,
    Mesh,
    distort_mesh,
    generate_structured_mesh,
    mesh_from_text,
    mesh_to_text,
    subdivide_adaptive,
    table_sites,
)
from .shapefn import (
    LagrangeBasis,
    WachspressBasis,
    build_lagrange,
    build_wachspress,
    eval_averaged,
    eval_lagrange,
    eval_wachspress,
    eval_wachspress_gradient,
    shape_evaluator,
)
from .smoothing import (
    ElementStiffness,
    MaterialModel,
    elasticity_matrix,
    element_cells,
    element_stiffness,
    smoothed_b,
)
from .solver import (
    GlobalSystem,
    Solution,
    apply_dirichlet,
    apply_tractions,
    assemble,
    cell_strains,
    element_dofs,
    fix_dof,
    solve,
)

__version__ = "0.1.0"
