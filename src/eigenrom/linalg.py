"""What the package needs beyond scipy's sparse arrays: the error types, the
vector norm of the step loops, a Jacobi-preconditioned conjugate-gradient
solver, and the descending-order eigendecomposition of small dense symmetric
matrices.

Operators are ``scipy.sparse.csr_array`` throughout the package.  The
full-order step operator A + M/dt is not solved here: the continuation
factors it once per run with SuperLU (``continuation.step_solver``).
``spd_solve`` is not exported from the package: it is the independent
reference the tests check that factorization against, and one of the
functions the benchmark's tracer (``bench/tracer.py``) wraps.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_RTOL = 1e-14


class SolverError(RuntimeError):
    """A numerical failure of a solve (the CLI's exit code 2); an input the
    solvers refuse is a ValueError instead."""


class NotSpdError(SolverError):
    """Matrix is not symmetric positive definite where one is required."""


class NonconvergenceError(SolverError):
    """Iteration cap reached, or a run stopped away from an eigenpair;
    carries the achieved relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def norm2(v) -> float:
    """Euclidean norm of a 1-D float64 array.

    ``math.sqrt(v.dot(v))`` is the call ``numpy.linalg.norm`` itself makes
    for a 1-D float array, so the result is the same bit for bit, without
    its argument handling, which the step loops would pay on every step.
    """
    return math.sqrt(v.dot(v))


def spd_solve(K, b, rel_tol: float = 1e-12, x0=None) -> np.ndarray:
    """Solve K x = b for a sparse SPD K by Jacobi-preconditioned conjugate
    gradients.

    Stops when ||K x - b|| <= rel_tol * ||b|| (true residual, re-verified);
    the iteration cap is 20 n for n unknowns.  ``x0`` is an optional warm start.

    Raises
    ------
    NotSpdError
        On a nonpositive diagonal entry or negative curvature.
    NonconvergenceError
        If the cap is reached; carries the achieved relative residual.
    """
    n = K.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError("dimension mismatch in spd_solve")
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    if n == 0:
        raise ValueError("empty system")

    diag = K.diagonal()
    if np.any(diag <= 0):
        raise NotSpdError("nonpositive diagonal entry; matrix is not SPD")

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    target = rel_tol * norm_b

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - K @ x
    res = np.linalg.norm(r)
    if res <= target:
        return x
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    best_true = res

    max_iter = 20 * n
    for _ in range(max_iter):
        Ap = K @ p
        curv = float(p @ Ap)
        if curv <= 0:
            # near the roundoff floor the direction degenerates even for SPD
            # matrices; report indefiniteness only if no real progress was made
            if res <= 1e-8 * norm_b:
                raise NonconvergenceError(
                    f"CG stagnated at the roundoff floor before reaching "
                    f"rel_tol={rel_tol:g}", residual=res / norm_b)
            raise NotSpdError("negative curvature encountered; matrix is not SPD")
        alpha = rz / curv
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r)
        if res <= target:
            r = b - K @ x
            res = np.linalg.norm(r)
            if res <= target:
                return x
            # the recursive residual drifted from the true one: restart the
            # recurrence cleanly, and give up once restarts stop helping
            # (the roundoff floor lies above the requested tolerance)
            if res >= 0.9 * best_true:
                break
            best_true = res
            z = r / diag
            p = z.copy()
            rz = float(r @ z)
            continue
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonconvergenceError(
        f"CG did not reach rel_tol={rel_tol:g} within {max_iter} iterations",
        residual=res / norm_b)


def sym_eig_desc(C) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a small dense symmetric matrix.

    LAPACK's symmetric solver through ``numpy.linalg.eigh``.  Returns the
    eigenvalues in descending order and the orthonormal eigenvectors as
    matching columns.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("expected a square matrix")
    if C.shape[0] > 10000:
        raise ValueError("matrix too large for the dense eigensolver")
    scale = np.abs(C).max(initial=0.0)
    if scale > 0 and np.abs(C - C.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(C)
    return w[::-1], V[:, ::-1]
