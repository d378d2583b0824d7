"""Galerkin reduction of the time-continuation iteration onto a basis V,
and the level pipeline that feeds it.

The reduced operators are the dense congruences V^T A V and V^T M V; the
reduced iteration mirrors the full-order one with a dense Cholesky solve
factored once per run, and the final state is lifted back as V U_N.
``solve_level`` is the one per-mesh pipeline of uniform and adaptive runs:
full-order run, then one POD basis and one reduced run per snapshot stride.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .continuation import ContinuationConfig, SolveTrace, run_fom
from .fem import eigen_residual
from .linalg import NonconvergenceError, NotSpdError
from .pod import build_pod

log = logging.getLogger(__name__)


@dataclass(eq=False)
class ReducedOperators:
    """Dense N x N restrictions of the stiffness and mass operators."""

    a_red: np.ndarray
    m_red: np.ndarray
    basis: np.ndarray        # (n_full, N), orthonormal columns

    @property
    def dim(self) -> int:
        return self.a_red.shape[0]


def reduce(A, M, V) -> ReducedOperators:
    """Form V^T A V and V^T M V (symmetrized to kill roundoff skew)."""
    V = np.asarray(getattr(V, "V", V), dtype=np.float64)
    if V.ndim != 2 or not A.shape == M.shape == (V.shape[0],) * 2:
        raise ValueError("basis shape does not match the operators")
    a_red = V.T @ (A @ V)
    m_red = V.T @ (M @ V)
    a_red = 0.5 * (a_red + a_red.T)
    m_red = 0.5 * (m_red + m_red.T)
    return ReducedOperators(a_red, m_red, V)


def run_rom(ops: ReducedOperators, u0, config: ContinuationConfig
            ) -> tuple[SolveTrace, np.ndarray]:
    """Reduced continuation run from the projection of the full-space u0.

    Returns the trace over reduced coefficients plus the lifted final vector.
    The stopping rule is the relative-change criterion of the full-order run,
    applied to the reduced coefficients (the basis is orthonormal, so the
    lifted norms agree).
    """
    if ops.dim < 1:
        raise ValueError("reduced dimension must be >= 1")
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (ops.basis.shape[0],):
        raise ValueError("u0 must be a full-space vector")
    t_start = time.perf_counter()

    y = ops.basis.T @ u0
    if not np.any(y):
        raise ValueError("initial state projects to zero in the reduced space")
    try:
        system = scipy.linalg.cho_factor(ops.a_red + ops.m_red / config.dt)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"reduced system is not SPD: {exc}") from exc

    lam_history = []
    converged = False
    steps = 0
    for k in range(config.max_steps):
        my = ops.m_red @ y
        lam = float(y @ (ops.a_red @ y)) / float(y @ my)
        lam_history.append(lam)
        y_new = scipy.linalg.cho_solve(system, (lam + 1.0 / config.dt) * my)
        steps = k + 1
        rel_change = np.linalg.norm(y_new - y) / np.linalg.norm(y_new)
        y = y_new
        if rel_change <= config.stop_tol:
            converged = True
            break
    lam_history.append(float(y @ (ops.a_red @ y)) / float(y @ (ops.m_red @ y)))
    trace = SolveTrace(np.array(lam_history), y, steps,
                       time.perf_counter() - t_start, converged)
    return trace, ops.basis @ y


def solve_level(A, M, cont: ContinuationConfig, strides, eps
                ) -> tuple[SolveTrace, list]:
    """Full-order run once, then one basis and reduced run per stride.

    The full-order run samples every ``min(strides)``-th step from the
    configured initial guess; each stride's basis takes a subsample of those
    snapshots, with N chosen by the energy tolerance ``eps`` (a float, or a
    function of the converged full-order vector that returns one).  Every
    reduced run starts from the all-ones vector, which is positive and so
    never M-orthogonal to the positive first eigenfunction.

    Returns the full-order trace and one ``(stride, basis, rom_trace,
    rom_time)`` per stride, where ``rom_time`` covers projection plus reduced
    iteration.  Raises NonconvergenceError if the full-order run or a reduced
    run stops at its step cap.
    """
    n = A.shape[0]
    trace, snaps = run_fom(A, M, replace(cont, snapshot_stride=min(strides)))
    for warning in trace.warnings:
        log.warning("full-order run on %d dofs: %s", n, warning)
    if not trace.converged:
        raise NonconvergenceError(
            f"continuation did not converge on {n} dofs",
            residual=eigen_residual(A, M, trace.final_vector, trace.eigenvalue))
    if callable(eps):
        eps = eps(trace.final_vector)

    per_stride = []
    for stride in strides:
        t0 = time.perf_counter()
        basis = build_pod(snaps.with_stride(stride), eps=eps)
        t_offline = time.perf_counter() - t0
        t0 = time.perf_counter()
        rom_trace, lifted = run_rom(reduce(A, M, basis.V), np.ones(n), cont)
        rom_time = time.perf_counter() - t0
        if not rom_trace.converged:
            raise NonconvergenceError(
                f"reduced run (stride {stride}, N={basis.N}) did not converge "
                f"on {n} dofs",
                residual=eigen_residual(A, M, lifted, rom_trace.eigenvalue))
        log.debug("%d dofs, stride %d: eps=%.3e N=%d offline=%.3fs online=%.3fs",
                  n, stride, eps, basis.N, t_offline, rom_time)
        per_stride.append((stride, basis, rom_trace, rom_time))
    return trace, per_stride
