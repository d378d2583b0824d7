"""First Laplace-Dirichlet eigenpair by fictitious-time continuation with
finite elements, plus a POD reduced-order model built from time snapshots."""

from .continuation import ContinuationConfig, SolveTrace, run_fom, step_solver
from .fem import DofMap, assemble, build_dofmap, eigen_residual
from .harness import (ExperimentConfig, ExperimentError, ResultRow,
                      compute_rate, emit_csv, run_experiment)
from .linalg import (NonconvergenceError, NotSpdError, SolverError, spd_solve,
                     sym_eig_desc)
from .mesh import (Mesh, MeshError, MeshStats, bisect_refine, generate_lshape,
                   generate_square, mesh_stats, read_mesh, uniform_refine,
                   validate_mesh, write_mesh)
from .pod import PodBasis, build_pod, select_dim, singular_values
from .rom import ReducedOperators, SnapshotStrideError, reduce, run_rom
from .adapt import EtaField, adaptive_solve, estimate, mark

__version__ = "0.1.0"

__all__ = [
    "ContinuationConfig", "DofMap", "EtaField", "ExperimentConfig",
    "ExperimentError", "Mesh", "MeshError", "MeshStats",
    "NonconvergenceError", "NotSpdError", "PodBasis", "ReducedOperators",
    "ResultRow", "SnapshotStrideError", "SolveTrace", "SolverError",
    "adaptive_solve", "assemble", "bisect_refine",
    "build_dofmap", "build_pod", "compute_rate", "eigen_residual", "emit_csv",
    "estimate", "generate_lshape", "generate_square", "mark",
    "mesh_stats", "read_mesh", "reduce",
    "run_experiment", "run_fom", "run_rom", "select_dim", "singular_values",
    "spd_solve", "step_solver", "sym_eig_desc", "uniform_refine",
    "validate_mesh", "write_mesh",
]
