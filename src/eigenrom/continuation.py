"""Full-order solver: implicit-Euler iteration in a fictitious time whose
steady state is the first eigenpair of the generalized problem A U = lam M U.

Each step solves (A + M/dt) U' = (lam + 1/dt) M U with lam the Rayleigh
quotient of the current state, and records every ``snapshot_stride``-th state
as a column of the snapshot matrix.  The step operator A + M/dt is constant
for the whole run, so it is factored once with SuperLU (through scipy) and
every step is a pair of triangular solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fem import rayleigh_quotient
from .linalg import NonconvergenceError

# renormalize only if the iterate norm leaves this range (overflow guard)
_NORM_FLOOR = 1e-150
_NORM_CEIL = 1e150
# accuracy contract of every step solve: ||K x - b|| <= _SOLVE_RTOL ||b||
_SOLVE_RTOL = 1e-12


@dataclass
class ContinuationConfig:
    """Parameters of the fictitious-time iteration."""

    dt: float = 0.1
    stop_tol: float = 1e-8
    max_steps: int = 100_000
    snapshot_stride: int = 4
    initial_guess: str = "ones"          # "ones" or "random"
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.initial_guess not in ("ones", "random"):
            raise ValueError("initial_guess must be 'ones' or 'random'")


@dataclass(eq=False)
class SnapshotMatrix:
    """States sampled every ``stride`` steps, stored as matrix columns."""

    matrix: np.ndarray
    stride: int

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def with_stride(self, stride: int) -> "SnapshotMatrix":
        """Subsample to a coarser stride that is a multiple of this one."""
        if stride % self.stride != 0:
            raise ValueError(f"stride {stride} is not a multiple of {self.stride}")
        step = stride // self.stride
        return SnapshotMatrix(self.matrix[:, step - 1::step].copy(), stride)


@dataclass(eq=False)
class SolveTrace:
    """History of one continuation run (shared by full and reduced solvers)."""

    lambda_history: np.ndarray
    final_vector: np.ndarray
    n_steps: int
    wall_time: float
    converged: bool
    warnings: list = field(default_factory=list)

    @property
    def eigenvalue(self) -> float:
        return float(self.lambda_history[-1])


def initial_state(n: int, config: ContinuationConfig) -> np.ndarray:
    if config.initial_guess == "ones":
        return np.ones(n)
    return np.random.default_rng(config.seed).standard_normal(n)


def step_solver(A, M, dt: float):
    """Factor K = A + M/dt once and return ``solve(b)`` for K x = b.

    The factorization is SuperLU with the minimum-degree ordering of
    K^T + K and diagonal pivots (K is SPD).  Every solve checks the true
    residual ||K x - b|| <= 1e-12 ||b||; if the check fails it makes one step
    of iterative refinement, and if it still fails it raises
    NonconvergenceError carrying the achieved relative residual.
    """
    # imported here: scipy.sparse.linalg is slow to import, and the CLI
    # should not pay for it before a solve runs
    from scipy.sparse.linalg import splu

    K = (A + (1.0 / dt) * M).tocsc()
    lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})

    def solve(b) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        target = _SOLVE_RTOL * np.linalg.norm(b)
        x = lu.solve(b)
        r = b - K @ x
        if not np.linalg.norm(r) <= target:
            x += lu.solve(r)
            res = np.linalg.norm(b - K @ x)
            if not res <= target:
                raise NonconvergenceError(
                    f"factored step solve missed rel_tol={_SOLVE_RTOL:g} "
                    "after one refinement step",
                    residual=res / np.linalg.norm(b))
        return x

    return solve


def fom_step(A, M, U, lam: float, dt: float, solve=None) -> np.ndarray:
    """One implicit-Euler step: solve (A + M/dt) U' = (lam + 1/dt) M U.

    ``solve`` is a ``step_solver(A, M, dt)`` that callers stepping in a loop
    build once; without it the step factors the system itself.
    """
    if solve is None:
        solve = step_solver(A, M, dt)
    rhs = (lam + 1.0 / dt) * (M @ U)
    return solve(rhs)


def run_fom(A, M, config: ContinuationConfig, u0=None
            ) -> tuple[SolveTrace, SnapshotMatrix]:
    """Iterate to the steady state and collect snapshots.

    Stops when ||U_new - U|| / ||U_new|| <= stop_tol (Euclidean coefficient
    norm).  ``u0`` overrides the configured initial guess.  Raises no error
    on hitting max_steps; the returned trace has ``converged=False``.  A step
    solve that misses its residual check raises NonconvergenceError.
    """
    n = A.shape[0]
    if n < 1:
        raise ValueError("the system has no free degrees of freedom")
    t_start = time.perf_counter()

    U = np.array(u0, dtype=np.float64) if u0 is not None else initial_state(n, config)
    if U.shape != (n,):
        raise ValueError(f"u0 has shape {U.shape}, the system has {n} unknowns")
    if not np.any(U):
        raise ValueError("initial state is the zero vector")
    U0 = U.copy()

    solve = step_solver(A, M, config.dt)
    lam_history = []
    snapshots = []
    converged = False
    steps = 0
    for k in range(config.max_steps):
        lam = rayleigh_quotient(A, M, U)
        lam_history.append(lam)
        U_new = fom_step(A, M, U, lam, config.dt, solve=solve)
        steps = k + 1
        if steps % config.snapshot_stride == 0:
            snapshots.append(U_new.copy())
        rel_change = np.linalg.norm(U_new - U) / np.linalg.norm(U_new)
        U = U_new
        norm = np.linalg.norm(U)
        if not _NORM_FLOOR < norm < _NORM_CEIL:
            U = U / norm
        if rel_change <= config.stop_tol:
            converged = True
            break
    lam_history.append(rayleigh_quotient(A, M, U))

    warnings = []
    overlap = abs(U0 @ (M @ U))
    scale = np.sqrt(U0 @ (M @ U0)) * np.sqrt(U @ (M @ U))
    # the computed eigenvector carries ~10*stop_tol of transient leftovers,
    # so orthogonality of the start is only observable down to that floor
    if overlap <= max(1e-14, 100.0 * config.stop_tol) * scale:
        warnings.append("initial guess is numerically M-orthogonal to the "
                        "computed eigenvector; a higher mode may have been reached")
    if U.min() * U.max() < 0 and min(abs(U.min()), abs(U.max())) > 1e-6 * abs(U).max():
        warnings.append("computed eigenvector changes sign; it may belong to a "
                        "higher mode")

    trace = SolveTrace(np.array(lam_history), U, steps,
                       time.perf_counter() - t_start, converged, warnings)
    if snapshots:
        matrix = np.column_stack(snapshots)
    else:
        matrix = np.empty((n, 0))
    return trace, SnapshotMatrix(matrix, config.snapshot_stride)


def write_snapshots(snap: SnapshotMatrix, path) -> None:
    """Dump one snapshot column per line, full-precision decimals."""
    with open(path, "w") as fh:
        for col in snap.matrix.T:
            fh.write(" ".join(repr(float(v)) for v in col))
            fh.write("\n")
