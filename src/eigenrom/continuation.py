"""Full-order solver: implicit-Euler iteration in a fictitious time whose
steady state is the first eigenpair of the generalized problem A U = lam M U.

Each step solves (A + M/dt) U' = (lam + 1/dt) M U with lam the Rayleigh
quotient of the current state; ``run_fom`` records every ``stride``-th state
as a column of the snapshot array.  That loop (``_iterate``) also runs the
reduced model (``rom.run_rom``), which samples nothing; a run that reaches
``max_steps`` raises NonconvergenceError there, so a returned trace has met
its stopping rule.  Here the step operator A + M/dt is factored once with
SuperLU (through scipy); each step is one pair of triangular solves and one
product with the stacked operator [A; M], whose A U' and M U' check the
solve's residual and give the next step's Rayleigh quotient and right-hand
side.  Beside the gate ``check_eigen_residual`` (``EIGEN_RTOL``) sit the Rayleigh
quotient and eigen-residual it reads, computed from a state's products.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import NonconvergenceError, SolverError, norm2

# renormalize only if the iterate norm leaves this range (overflow guard)
_NORM_FLOOR = 1e-150
_NORM_CEIL = 1e150
# accuracy contract of every step solve: ||K x - b|| <= _SOLVE_RTOL ||b||
_SOLVE_RTOL = 1e-12
# a run that stops must leave an approximate eigenpair: ||A U - lam M U|| <=
# EIGEN_RTOL lam ||M U||.  At the default dt the acceptance runs stay below
# 3e-7, a reduced run on a three-vector basis at 1.3e-3 and a one-vector
# basis at 0.08; dt = 1e-4 gives 4e-5.  A step too short to move the state
# (dt = 1e-12) stops at 0.8-5.
EIGEN_RTOL = 0.1


@dataclass
class ContinuationConfig:
    """Parameters of the fictitious-time iteration."""

    dt: float = 0.1
    stop_tol: float = 1e-8
    max_steps: int = 100_000
    seed: int = 0                 # of the full-order run's random start

    def __post_init__(self):
        # 1/dt is the shift of every step operator
        if not (self.dt > 0 and math.isfinite(1.0 / self.dt)):
            raise ValueError("dt must be positive, with 1/dt finite")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def check_unknowns(n: int) -> None:
    if n < 1:
        raise ValueError("the system has no free degrees of freedom")


def check_start(U) -> None:
    if not (np.any(U) and np.isfinite(U).all()):
        raise ValueError("initial state must be finite and nonzero")


@dataclass(eq=False)
class SolveTrace:
    """History of one full or reduced run that met its stopping rule."""

    lambda_history: np.ndarray
    final_vector: np.ndarray
    n_steps: int
    wall_time: float
    warnings: list = field(default_factory=list)
    converged = True    # a capped run raises; read by bench/tracer.py

    @property
    def eigenvalue(self) -> float:
        return float(self.lambda_history[-1])


def step_solver(A, M, dt: float):
    """Factor K = A + M/dt once and return ``solve(b)`` for K x = b.

    ``solve`` returns ``(x, A x, M x)``; one product with the stacked
    operator [A; M] gives both, and the caller's next step reuses them.
    The factorization is SuperLU with the minimum-degree ordering of
    K^T + K and diagonal pivots (K is SPD); a factorization that fails
    raises SolverError.  Every solve checks the true
    residual ||b - (A x + M x / dt)|| <= 1e-12 ||b||; if the check fails it
    makes one step of iterative refinement, and if it still fails it raises
    NonconvergenceError carrying the achieved relative residual.
    """
    # imported here: scipy.sparse.linalg is slow to import, and the CLI
    # should not pay for it before a solve runs
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    try:
        lu = splu((A + (1.0 / dt) * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:        # e.g. "Factor is exactly singular"
        raise SolverError(f"cannot factor the step operator A + M/dt: {exc}"
                          ) from exc
    AM = sp.vstack([A, M], format="csr")
    n = A.shape[0]

    def solve(b):
        b = np.asarray(b, dtype=np.float64)
        norm_b = norm2(b)
        x = lu.solve(b)
        amx = AM @ x
        ax, mx = amx[:n], amx[n:]
        r = b - (ax + mx / dt)
        if not norm2(r) <= _SOLVE_RTOL * norm_b:
            x += lu.solve(r)
            amx = AM @ x
            ax, mx = amx[:n], amx[n:]
            res = norm2(b - (ax + mx / dt))
            if not res <= _SOLVE_RTOL * norm_b:
                raise NonconvergenceError(
                    f"factored step solve missed rel_tol={_SOLVE_RTOL:g} "
                    "after one refinement step", residual=res / norm_b)
        return x, ax, mx

    return solve


def rayleigh_from_products(U, AU, MU) -> float:
    """The Rayleigh quotient of U from the products A U and M U."""
    denom = float(U.dot(MU))
    if denom <= 0:
        raise ValueError("U^T M U <= 0: zero vector or mass matrix not SPD")
    return float(U.dot(AU)) / denom


def eigen_residual(A, M, U, lam: float) -> float:
    """||A U - lam M U|| / ||M U||, a mesh-independent eigenpair diagnostic."""
    U = np.asarray(U, dtype=np.float64)
    if not np.any(U):
        raise ValueError("residual of the zero vector is undefined")
    return residual_from_products(A @ U, M @ U, lam)


def residual_from_products(AU, MU, lam: float) -> float:
    """||A U - lam M U|| / ||M U|| from the products A U and M U."""
    return norm2(AU - lam * MU) / norm2(MU)


def check_eigen_residual(residual: float, lam: float, what: str) -> None:
    """Raise NonconvergenceError unless a stopped run's residual <= EIGEN_RTOL lam."""
    if not residual <= EIGEN_RTOL * lam:
        raise NonconvergenceError(
            f"{what} stopped with eigen-residual ||AU - lam MU|| / ||MU|| = "
            f"{residual:.3g} > {EIGEN_RTOL:g} lam (lam = {lam:.6g}); dt may "
            "be too small, or stop_tol too large", residual=residual)


def _iterate(U, solve, products, config, t_start: float, what, stride=None):
    """The fictitious-time loop of the full-order and the reduced run, from
    the finite, nonzero state U.  ``solve(b)`` returns ``(x, A x, M x)`` for
    (A + M/dt) x = b and ``products(U)`` returns ``(A U, M U)``.  A state
    whose norm leaves (1e-150, 1e150) is rescaled to unit norm.

    Returns the trace (timed from ``t_start``), the list of every
    ``stride``-th state (None if no stride) and A U, M U of the final state.
    At ``config.max_steps`` it raises NonconvergenceError naming the run
    ``what``, with ||A U - lam M U|| / ||M U|| of its last state.
    """
    check_start(U)
    AU, MU = products(U)
    lam_history = []
    snapshots = [] if stride else None
    shift = 1.0 / config.dt
    for steps in range(1, config.max_steps + 1):
        lam = rayleigh_from_products(U, AU, MU)
        lam_history.append(lam)
        U_new, AU, MU = solve((lam + shift) * MU)
        if stride and steps % stride == 0:
            snapshots.append(U_new)
        norm = norm2(U_new)
        rel_change = norm2(U_new - U) / norm
        U = U_new
        if not _NORM_FLOOR < norm < _NORM_CEIL:
            U = U / norm
            AU, MU = products(U)
        if rel_change <= config.stop_tol:
            break
    else:
        lam = rayleigh_from_products(U, AU, MU)
        raise NonconvergenceError(f"{what} did not converge in {steps} steps",
                                  residual_from_products(AU, MU, lam))
    lam_history.append(rayleigh_from_products(U, AU, MU))
    trace = SolveTrace(np.array(lam_history), U, steps,
                       time.perf_counter() - t_start)
    return trace, snapshots, AU, MU


def run_fom(A, M, config: ContinuationConfig, stride: int, u0=None
            ) -> tuple[SolveTrace, np.ndarray]:
    """Iterate to the steady state and collect snapshots.

    Returns the trace and the (n, k) array of every ``stride``-th state (a
    stride below 1 is a ValueError).  The run starts from ``u0`` if given,
    else from ``np.random.default_rng(config.seed).standard_normal(n)``,
    whose odd-even modes give the transient the length the stride study
    needs; a zero or non-finite start is a ValueError.  Stops when
    ||U_new - U|| / ||U_new|| <= stop_tol (Euclidean coefficient norm).
    NonconvergenceError is raised by a run that reaches max_steps, a step
    solve that misses its residual check, and a run that stops away from an
    eigenpair (``check_eigen_residual``: with a tiny dt a step barely moves
    the state, and a large stop_tol is met by any step, so the stopping rule
    can fire far from the eigenpair).
    """
    n = A.shape[0]
    check_unknowns(n)
    if stride < 1:
        raise ValueError("strides must be positive")
    # the first import of the factorization's module takes ~0.1 s, which is
    # no part of the solve: it happens here, not inside the timed step_solver
    import scipy.sparse.linalg  # noqa: F401
    t_start = time.perf_counter()

    U0 = (np.array(u0, dtype=np.float64) if u0 is not None
          else np.random.default_rng(config.seed).standard_normal(n))
    if U0.shape != (n,):
        raise ValueError(f"u0 has shape {U0.shape}, the system has {n} unknowns")

    what = f"full-order run on {n} dofs"
    trace, snapshots, AU, MU = _iterate(
        U0, step_solver(A, M, config.dt), lambda U: (A @ U, M @ U), config,
        t_start, what, stride)
    check_eigen_residual(residual_from_products(AU, MU, trace.eigenvalue),
                         trace.eigenvalue, what)

    U, warnings = trace.final_vector, trace.warnings
    overlap = abs(U0 @ MU)
    scale = np.sqrt(U0 @ (M @ U0)) * np.sqrt(U @ MU)
    # the computed eigenvector carries ~10*stop_tol of transient leftovers,
    # so orthogonality of the start is only observable down to that floor
    if overlap <= max(1e-14, 100.0 * config.stop_tol) * scale:
        warnings.append("initial guess is numerically M-orthogonal to the "
                        f"computed eigenvector (M-cosine {overlap / scale:.1e}); the "
                        "start barely contained the vector the run reached")
    if U.min() * U.max() < 0 and min(abs(U.min()), abs(U.max())) > 1e-6 * abs(U).max():
        warnings.append("computed eigenvector changes sign; it may belong to a "
                        "higher mode")
    return trace, (np.column_stack(snapshots) if snapshots else np.empty((n, 0)))
