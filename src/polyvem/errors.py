"""The failure taxonomy: every polyvem error carries the CLI exit code it maps to.

Exit code 2 marks bad input (a mesh that cannot be built or integrated on),
exit code 3 a discretization or solver failure.  An error that belongs to
one cell is built with its mesh index, `cell=`, and the message then leads
with it; only a caller that finds the cell later sets `cell` itself.
Element construction goes by stacks of cells with one vertex count, whose
geometry carries the mesh index of each cell (`CellGeometry.cells`), so an
array check that finds a failing cell (the rank test) names it itself.
`local.element_matrices` names its stack's lowest failing cell, building
the cells alone if a batched LAPACK call fails as a whole (naming no cell),
and `assembly.assemble` raises the lowest of its stacks'.  In the data
passes, which go by blocks of cells (`local.data_rules`), the fan check
names the cell that is not star-shaped; it is the one polygon check a solve
makes, as element construction integrates along edges only.  A
`SolverError` names no scheme, as the solve knows only its matrix;
`study.solve_cases` adds the order caveat of the stabilization-free scheme.
"""


class PolyvemError(Exception):
    exit_code = 2

    def __init__(self, *args, cell=None):
        super().__init__(*args)
        self.cell = cell

    def __str__(self):
        msg = super().__str__()
        return msg if self.cell is None else f"cell {self.cell}: {msg}"


class MeshError(PolyvemError):
    """Base class for mesh construction and validation failures."""


class QuadratureError(PolyvemError):
    """A cell is not star-shaped with respect to its centroid."""


class SolverError(PolyvemError):
    exit_code = 3


class StabilizationFreeRankError(PolyvemError):
    """The stabilization-free consistency matrix lost rank on some cell."""

    exit_code = 3


class CellDegeneracyError(PolyvemError):
    exit_code = 3


class NumericalDegeneracyError(PolyvemError):
    """A cell-local matrix lost positive definiteness during factorization."""

    exit_code = 3
