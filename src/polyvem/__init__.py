"""Virtual element solvers on polygonal meshes.

Standard virtual elements pair a polynomial consistency term with a dofi-dofi
stabilization; the stabilization-free variant enlarges the enhancement space
per element until a higher-degree gradient projection alone yields a coercive
bilinear form.  Both are driven by the study harness and CLI in this package.
The functions live in its modules (`polyvem.mesh`, `polyvem.assembly`,
`polyvem.study`, ...); the package root holds the error classes.
"""

from .errors import (CellDegeneracyError, MeshError, NumericalDegeneracyError,
                     PolyvemError, QuadratureError, SolverError,
                     StabilizationFreeRankError)

__version__ = "0.1.0"
