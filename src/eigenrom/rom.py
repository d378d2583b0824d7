"""Galerkin reduction of the time-continuation iteration onto a basis V,
and the level pipeline that feeds it.

The reduced operators are the dense congruences V^T A V and V^T M V; the
reduced run is the full-order loop (``continuation._iterate``) on them, with
no snapshots, which raises NonconvergenceError at its step cap.  Its N x N
step matrix a_red + m_red/dt is Cholesky-factored once per run with LAPACK
``dpotrf``, each step is one ``dpotrs`` solve plus two small dense products,
and the final state is lifted back as V U_N.  The dense products go through
``ndarray.dot``, one per operator: a single product with the stacked
[a_red; m_red] is blocked differently by BLAS and is not bit-identical to the
two for N >= 9 not a multiple of 4.  ``solve_levels`` is the one level loop of
uniform and adaptive schedules and each level's whole pipeline; it samples
every stride from one full-order run by the rule ``check_strides``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .continuation import (ContinuationConfig, SolveTrace, _iterate,
                           check_eigen_residual, check_start, check_unknowns,
                           eigen_residual, run_fom)
from .fem import assemble, build_dofmap
from .linalg import NotSpdError, SolverError
from .mesh import Mesh
from .pod import PodBasis, build_pod

log = logging.getLogger(__name__)


class SnapshotStrideError(ValueError):
    """A snapshot stride longer than the full-order run: no snapshot to build
    the basis from.  The one input error that shows only once a run ends."""


def check_strides(strides) -> None:
    """Positive, distinct, and multiples of the smallest: ``solve_levels``
    samples every stride from one run at the smallest."""
    if not strides or min(strides) < 1:
        raise ValueError("strides must be positive")
    for stride in strides:
        if strides.count(stride) > 1:
            raise ValueError(f"stride {stride} is repeated")
        if stride % min(strides):
            raise ValueError(f"stride {stride} is not a multiple of the "
                             f"smallest stride {min(strides)}")


@dataclass(eq=False)
class ReducedOperators:
    """Dense N x N restrictions of the stiffness and mass operators."""

    a_red: np.ndarray
    m_red: np.ndarray
    basis: np.ndarray        # (n_full, N), orthonormal columns


def reduce(A, M, V) -> ReducedOperators:
    """Form V^T A V and V^T M V (symmetrized to kill roundoff skew)."""
    V = np.asarray(V, dtype=np.float64)
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
    The loop is the full-order run's (``continuation._iterate``), stopping
    rule, overflow renormalisation and the NonconvergenceError of its step
    cap (with the reduced residual) included, applied to the reduced
    coefficients (the basis is orthonormal, so the lifted norms agree).
    """
    # LAPACK directly: at N <= ~20 cho_factor/cho_solve's checks cost more
    # than the arithmetic; imported here to keep `import eigenrom.cli` light
    from scipy.linalg.lapack import dpotrf, dpotrs

    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (ops.basis.shape[0],):
        raise ValueError("u0 must be a full-space vector")
    check_start(u0)         # before the projection turns an inf into NaN
    t_start = time.perf_counter()

    a_red, m_red = ops.a_red, ops.m_red
    system = a_red + m_red / config.dt
    if not np.isfinite(system).all():
        raise NotSpdError("reduced system has non-finite entries")
    factor, info = dpotrf(system)
    if info != 0:
        raise NotSpdError(f"reduced system is not SPD: dpotrf info={info}")

    # ndarray.dot, not @: the same BLAS call without the matmul ufunc's
    # dispatch, which costs more than the arithmetic at these sizes
    def solve(b):
        x, info = dpotrs(factor, b)
        if info != 0:
            raise SolverError(f"reduced step solve failed: dpotrs info={info}")
        return x, a_red.dot(x), m_red.dot(x)

    trace = _iterate(ops.basis.T.dot(u0), solve,
                     lambda y: (a_red.dot(y), m_red.dot(y)), config, t_start,
                     f"reduced run (N={len(a_red)}) on {len(u0)} dofs")[0]
    return trace, ops.basis.dot(trace.final_vector)


@dataclass(eq=False)
class ReducedRun:
    """One stride's basis and reduced run; ``rom_s`` times reduce + run_rom."""

    stride: int
    basis: PodBasis
    trace: SolveTrace
    rom_s: float


@dataclass(eq=False)
class Level:
    """One solved level of a schedule: its full-order trace and one
    ``ReducedRun`` per stride."""

    index: int
    mesh: Mesh
    n_dof: int
    trace: SolveTrace
    per_stride: list[ReducedRun]


def solve_levels(mesh: Mesh, degree: int, cont: ContinuationConfig, strides,
                 eps, levels: int, refine):
    """Solve ``levels`` meshes from ``mesh``, yielding one ``Level`` each.

    A level numbers and assembles its mesh and runs the full-order iteration
    once (``run_fom`` at ``min(strides)``, from the random vector of
    ``cont.seed``).  Each stride's basis takes every ``stride //
    min(strides)``-th of its snapshot columns (SnapshotStrideError if none),
    with N chosen by the energy tolerance ``eps``: a float, or ``eps(dofmap,
    M, u)`` of the converged full-order vector u.  Every reduced run starts
    from the all-ones vector, which is positive and so never M-orthogonal to
    the positive first eigenfunction.  ``check_strides`` runs before the
    first mesh is numbered, ``check_unknowns`` before each full-order run.

    The next mesh, made only when its level is due, is ``refine(level,
    dofmap, M)`` of the last one.  A level's operators and snapshots are
    released before the next one is assembled.  A run that reaches its step
    cap or stops away from an eigenpair raises NonconvergenceError
    (``check_eigen_residual`` checks the lifted reduced vector, a test of the
    basis, outside ``rom_s``).
    """
    check_strides(strides)
    base = min(strides)
    for index in range(levels):
        if index:
            mesh = refine(level, dofmap, M)
            del dofmap, M
        dofmap = build_dofmap(mesh, degree)
        A, M = assemble(mesh, dofmap)
        n = A.shape[0]
        check_unknowns(n)
        trace, snaps = run_fom(A, M, cont, base)
        for warning in trace.warnings:
            log.warning("full-order run on %d dofs: %s", n, warning)
        tol = eps(dofmap, M, trace.final_vector) if callable(eps) else eps
        per_stride = []
        for stride in strides:
            t0 = time.perf_counter()
            sub = snaps[:, stride // base - 1::stride // base]
            if sub.shape[1] == 0:
                raise SnapshotStrideError(
                    f"the full-order run on {n} dofs stopped after "
                    f"{trace.n_steps} steps, before its first snapshot at "
                    f"stride {stride}")
            basis = build_pod(sub, eps=tol)
            t_offline = time.perf_counter() - t0
            t0 = time.perf_counter()
            rom_trace, lifted = run_rom(reduce(A, M, basis.V), np.ones(n), cont)
            run = ReducedRun(stride, basis, rom_trace, time.perf_counter() - t0)
            what = f"reduced run (stride {stride}, N={basis.N}) on {n} dofs"
            lam = rom_trace.eigenvalue
            check_eigen_residual(eigen_residual(A, M, lifted, lam), lam, what)
            log.debug("%d dofs, stride %d: eps=%.3e N=%d offline=%.3fs online=%.3fs",
                      n, stride, tol, basis.N, t_offline, run.rom_s)
            per_stride.append(run)
        # sub is a view of snaps and keeps it alive
        del A, snaps, sub, lifted
        level = Level(index, mesh, dofmap.n_dof_total, trace, per_stride)
        yield level
