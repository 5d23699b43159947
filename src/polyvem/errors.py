"""The failure taxonomy: one class per distinction the program makes, each
carrying the CLI exit code it maps to.

`MeshError` (exit code 2) is bad input: a mesh that cannot be generated,
read, built, validated or integrated on.  Exit code 3 marks a failed
discretization or solve, in three classes that code tells apart:
`SolverError`, to which `study.solve_cases` adds the order caveat of the
stabilization-free scheme; `StabilizationFreeRankError`, the rank loss the
paper's comparison turns on (the benchmark's tracer matches it by name);
and `CellDegeneracyError`, a cell-local matrix that is singular or not
positive definite.

An error that belongs to one cell is built with its mesh index, `cell=`,
and the message then leads with it; only a caller that finds the cell
later sets `cell` itself.  `read_mesh` leads its messages with the line
they are about, `line N:`.  Element construction goes by stacks of cells
with one vertex count, whose geometry carries the mesh index of each cell
(`CellGeometry.cells`), so an array check that finds a failing cell (the
rank test) names it itself.  `local.element_matrices` names its stack's
lowest failing cell, building the cells alone if a batched LAPACK call
fails as a whole (naming no cell; numpy's `LinAlgError`, a `ValueError`,
becomes a `CellDegeneracyError`), and `assembly.assemble` raises the lowest
of its stacks'.  The mesh constructor accepts simple CCW polygons only.  In
the data passes, which go by blocks of cells (`local.data_rules`), the
check of every cell's centroid fan names the cell that is not star-shaped
with respect to its centroid, before any cell is cut into bands for data
that oscillate in y; it is the one star-shape check a solve makes, as
element construction integrates along edges only, and a mesh of
axis-aligned rectangles (`PolyMesh.rectangles`) takes the tensor rule and
no fan.  A `SolverError` names no scheme, as the solve knows only its
matrix (a `MemoryError` of the solve becomes one, naming the matrix's
size).
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
    """A mesh cannot be generated, read, built, validated or integrated on."""


class SolverError(PolyvemError):
    exit_code = 3


class StabilizationFreeRankError(PolyvemError):
    """The stabilization-free consistency matrix lost rank on some cell."""

    exit_code = 3


class CellDegeneracyError(PolyvemError):
    """A cell's projector system is singular or its Gram matrix is not
    positive definite."""

    exit_code = 3   # a cell's failure, not a SolverError: no e2vem order note
