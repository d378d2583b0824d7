"""First Laplace-Dirichlet eigenpair by fictitious-time continuation with
finite elements, plus a POD reduced-order model built from time snapshots."""

from .continuation import (ContinuationConfig, SolveTrace, eigen_residual,
                           run_fom, step_solver)
from .fem import DofMap, assemble, build_dofmap
from .harness import (ExperimentConfig, ResultRow, compute_rate, emit_csv,
                      run_experiment)
from .linalg import NonconvergenceError, NotSpdError, SolverError
from .mesh import (Mesh, MeshError, bisect_refine, generate_lshape,
                   generate_square, read_mesh, uniform_refine, validate_mesh,
                   write_mesh)
from .pod import PodBasis, build_pod, select_dim
from .rom import ReducedOperators, SnapshotStrideError, reduce, run_rom
from .adapt import EtaField, estimate, mark

__version__ = "0.1.0"

__all__ = [
    "ContinuationConfig", "DofMap", "EtaField", "ExperimentConfig", "Mesh",
    "MeshError", "NonconvergenceError", "NotSpdError", "PodBasis",
    "ReducedOperators", "ResultRow", "SnapshotStrideError", "SolveTrace",
    "SolverError", "assemble", "bisect_refine", "build_dofmap", "build_pod",
    "compute_rate", "eigen_residual", "emit_csv", "estimate",
    "generate_lshape", "generate_square", "mark", "read_mesh", "reduce",
    "run_experiment", "run_fom", "run_rom", "select_dim", "step_solver",
    "uniform_refine", "validate_mesh", "write_mesh",
]
