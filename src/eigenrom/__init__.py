"""First Laplace-Dirichlet eigenpair by fictitious-time continuation with
finite elements, plus a POD reduced-order model built from time snapshots."""

from .continuation import (ContinuationConfig, SnapshotMatrix, SolveTrace,
                           fom_step, run_fom, step_solver)
from .fem import (DiscreteField, DofMap, assemble, assemble_full,
                  build_dofmap, eigen_residual, rayleigh_quotient)
from .harness import (ExperimentConfig, ExperimentError, ResultRow,
                      compute_rate, emit_csv, run_experiment)
from .linalg import NonconvergenceError, NotSpdError, spd_solve, sym_eig_desc
from .mesh import (Mesh, MeshError, MeshStats, bisect_refine, generate_lshape,
                   generate_square, mesh_stats, read_mesh, uniform_refine,
                   validate_mesh, write_mesh)
from .pod import (PodBasis, build_pod, projection_error_sq, select_dim,
                  singular_values)
from .rom import ReducedOperators, reduce, run_rom
from .adapt import AdaptiveRecord, EtaField, adaptive_solve, estimate, mark

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRecord", "ContinuationConfig", "DiscreteField", "DofMap",
    "EtaField", "ExperimentConfig", "ExperimentError", "Mesh", "MeshError",
    "MeshStats", "NonconvergenceError", "NotSpdError", "PodBasis",
    "ReducedOperators", "ResultRow", "SnapshotMatrix", "SolveTrace",
    "adaptive_solve", "assemble", "assemble_full", "bisect_refine",
    "build_dofmap", "build_pod", "compute_rate", "eigen_residual", "emit_csv",
    "estimate", "fom_step", "generate_lshape", "generate_square", "mark",
    "mesh_stats", "projection_error_sq", "rayleigh_quotient", "read_mesh",
    "reduce", "run_experiment", "run_fom", "run_rom", "select_dim",
    "singular_values", "spd_solve", "step_solver", "sym_eig_desc",
    "uniform_refine", "validate_mesh", "write_mesh",
]
