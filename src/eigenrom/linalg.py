"""Sparse symmetric matrices, an SPD conjugate-gradient solver, and a dense
Jacobi eigensolver for small symmetric matrices.

Dense matrices are plain 2-D float64 numpy arrays (row-major); CsrMatrix
stores the compressed-row triplet explicitly and delegates products to
scipy.sparse.  The full-order step operator A + M/dt is not solved here: the
continuation factors it once per run with SuperLU through scipy
(``continuation.step_solver``).  ``spd_solve`` is kept as public API and as
the independent reference the tests check that factorization against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

SYMMETRY_RTOL = 1e-14


class NotSpdError(ValueError):
    """Matrix is not symmetric positive definite where one is required."""


class NonconvergenceError(RuntimeError):
    """Iteration cap reached; carries the achieved relative residual and the
    records of any levels a multi-level run finished before it."""

    def __init__(self, message: str, residual: float, records=()):
        super().__init__(message)
        self.residual = residual
        self.records = list(records)


@dataclass(eq=False)
class CsrMatrix:
    """Square sparse matrix in compressed-row form."""

    n_rows: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _scipy: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if len(self.row_ptr) != self.n_rows + 1:
            raise ValueError("row_ptr length must be n_rows + 1")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        m = sp.csr_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError("CsrMatrix is square by contract")
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.shape[0], m.indptr.copy(), m.indices.copy(),
                   np.asarray(m.data, dtype=np.float64).copy(), _scipy=m)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    def to_scipy(self):
        if self._scipy is None:
            self._scipy = sp.csr_matrix(
                (self.values, self.col_idx, self.row_ptr),
                shape=(self.n_rows, self.n_rows))
        return self._scipy

    def diagonal(self) -> np.ndarray:
        return self.to_scipy().diagonal()

    def toarray(self) -> np.ndarray:
        return self.to_scipy().toarray()


def check_symmetric(K: CsrMatrix, rtol: float = SYMMETRY_RTOL) -> None:
    """Raise if max |a_ij - a_ji| exceeds rtol * max |a|."""
    m = K.to_scipy()
    if m.nnz == 0:
        return
    skew = abs(m - m.T)
    if skew.nnz and skew.max() > rtol * abs(m).max():
        raise NotSpdError("matrix is not symmetric within tolerance")


def spmv(K: CsrMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (K.n_rows,):
        raise ValueError(f"dimension mismatch: matrix {K.n_rows}, vector {x.shape}")
    return K.to_scipy() @ x


def dot(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch in dot")
    return float(np.dot(x, y))


def csr_quadratic_form(K: CsrMatrix, x) -> float:
    """x^T K x."""
    return dot(x, spmv(K, x))


def combine(a: float, A: CsrMatrix, b: float, B: CsrMatrix) -> CsrMatrix:
    """a*A + b*B as a new CsrMatrix."""
    return CsrMatrix.from_scipy(a * A.to_scipy() + b * B.to_scipy())


def spd_solve(K: CsrMatrix, b, rel_tol: float = 1e-12, x0=None) -> np.ndarray:
    """Solve K x = b for SPD K by Jacobi-preconditioned conjugate gradients.

    Stops when ||K x - b|| <= rel_tol * ||b|| (true residual, re-verified);
    the iteration cap is 20 * n_rows.  ``x0`` is an optional warm start.

    Raises
    ------
    NotSpdError
        On a nonpositive diagonal entry or negative curvature.
    NonconvergenceError
        If the cap is reached; carries the achieved relative residual.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (K.n_rows,):
        raise ValueError("dimension mismatch in spd_solve")
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    if K.n_rows == 0:
        raise ValueError("empty system")

    diag = K.diagonal()
    if np.any(diag <= 0):
        raise NotSpdError("nonpositive diagonal entry; matrix is not SPD")

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    target = rel_tol * norm_b

    A = K.to_scipy()
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    res = np.linalg.norm(r)
    if res <= target:
        return x
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    best_true = res

    max_iter = 20 * K.n_rows
    for _ in range(max_iter):
        Ap = A @ p
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
            r = b - A @ x
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

    Cyclic Jacobi rotations, iterated until the off-diagonal Frobenius norm
    drops below 1e-14 * ||C||_F.  Returns eigenvalues in descending order and
    the orthonormal eigenvectors as matching columns.
    """
    C = np.array(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("expected a square matrix")
    n = C.shape[0]
    if n > 10000:
        raise ValueError("matrix too large for the dense Jacobi eigensolver")
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    scale = np.abs(C).max()
    if scale > 0 and np.abs(C - C.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    C = 0.5 * (C + C.T)

    V = np.eye(n)
    norm_f = np.linalg.norm(C)
    if norm_f == 0.0 or n == 1:
        return C.diagonal().copy(), V
    tol_off = 1e-14 * norm_f

    for _ in range(60):
        off_mat = C.copy()
        np.fill_diagonal(off_mat, 0.0)
        off = np.linalg.norm(off_mat)
        if off <= tol_off:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = C[p, q]
                if abs(apq) <= 1e-30 * norm_f:
                    continue
                theta = (C[q, q] - C[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                cp = C[:, p].copy()
                cq = C[:, q].copy()
                C[:, p] = c * cp - s * cq
                C[:, q] = s * cp + c * cq
                cp = C[p, :].copy()
                cq = C[q, :].copy()
                C[p, :] = c * cp - s * cq
                C[q, :] = s * cp + c * cq
                C[p, q] = 0.0
                C[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise RuntimeError("Jacobi sweeps did not converge")

    w = C.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]
