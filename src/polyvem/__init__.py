"""Virtual element solvers on polygonal meshes.

Standard virtual elements pair a polynomial consistency term with a dofi-dofi
stabilization; the stabilization-free variant enlarges the enhancement space
per element until a higher-degree gradient projection alone yields a coercive
bilinear form.  Both are driven by the study harness and CLI in this package.
"""

from .assembly import (SolveReport, SparseSystem, apply_dirichlet, assemble,
                       build_dof_map, solve, stab_consistency_ratio)
from .basis import (QuadRule, dim_poly, edge_rules, eval_monomial_grads,
                    eval_monomials, monomial_exponents, monomial_gram,
                    polygon_quadrature)
from .cases import TestCase, manufactured_residual, testcase
from .errors import (CellDegeneracyError, MeshError, NumericalDegeneracyError,
                     PolyvemError, QuadratureError, SolverError,
                     StabilizationFreeRankError)
from .local import (DiffusionTensor, DofLayout, LocalStiffness, Method,
                    ProjectionPack, build_pi0_grad, build_pi_nabla,
                    build_projection_pack, dof_count, local_load,
                    local_stiffness, min_ell, recover_moments)
from .mesh import (FAMILIES, CellGeometry, MeshFormatError, PolyMesh,
                   cell_geometry, generate_cartesian, generate_mesh,
                   generate_voronoi, load_mesh, read_mesh, save_mesh,
                   validate_mesh, write_mesh)
from .study import (StudyConfig, StudyResult, StudyRow, convergence_rate,
                    energy_error, interpolate_dofs, run_study, solve_case)

__version__ = "0.1.0"
