"""Exception types shared across the solver stack."""


class SfemError(Exception):
    """Base class for all sfem2d errors."""


class InvalidElement(SfemError):
    """An element is self-intersecting or has non-positive area."""

    def __init__(self, element_index, message):
        super().__init__(f"element {element_index}: {message}")
        self.element_index = element_index


class UnsupportedSubdivision(SfemError):
    """Requested smoothing-cell count is not one of 1, 2, 4."""


class DegenerateElement(SfemError):
    """An element or smoothing cell has zero or negative area, or two
    adjacent nodes coincide."""


class WedgeDegenerate(SfemError):
    """A wedge normalization constant is undefined (opposite sides pass
    through the node)."""


class AdjointZero(SfemError):
    """The wedge sum vanishes at the evaluation point (possible on
    concave quads)."""


class NonExistent(SfemError):
    """The nodal moment matrix of the non-mapped Lagrange basis is
    singular; the basis does not exist for this element."""


class OffSkeleton(SfemError):
    """Averaged shape functions were requested at a point that is not on
    any smoothing-cell boundary segment."""


class UnknownTag(SfemError):
    """No boundary edge carries the requested tag."""


class AllDofsFixed(SfemError):
    """Every degree of freedom is constrained; nothing to solve."""


class SingularSystem(SfemError):
    """The reduced stiffness matrix is singular (spurious zero-energy
    modes or missing constraints)."""
