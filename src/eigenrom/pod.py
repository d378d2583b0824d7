"""Orthonormal basis extraction from snapshot matrices.

The basis is built by the method of snapshots (Sirovich, 1987) from the
correlation matrix C = S^T S: its eigenpairs (mu_i, psi_i) give singular
values sigma_i = sqrt(mu_i) and basis columns S psi_i / sigma_i.  The basis
dimension is chosen by the energy criterion: the smallest N whose leading
modes carry at least 1 - eps^2 of the total squared singular values.
``build_pod(S, eps=...)`` takes the singular values, N and the basis from
one eigendecomposition of C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sym_eig_desc

# modes with mu_i <= (RANK_RTOL^2) mu_1 are below the precision attainable
# through the squared correlation matrix and are discarded
RANK_RTOL = 1e-14


@dataclass(eq=False)
class PodBasis:
    """Orthonormal basis V with the full singular-value ladder."""

    V: np.ndarray                  # (n_rows, N), orthonormal columns
    singular_values: np.ndarray    # all r positive values, descending
    N: int
    rank: int


def _as_matrix(S) -> np.ndarray:
    matrix = getattr(S, "matrix", S)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("snapshot data must be a 2-D array")
    return matrix


def _spectrum(S):
    """Snapshot matrix, its positive singular values (descending) and the
    correlation eigenvectors, from one eigendecomposition of S^T S."""
    X = _as_matrix(S)
    if X.shape[1] == 0:
        raise ValueError("empty snapshot matrix")
    mu, psi = sym_eig_desc(X.T @ X)
    if mu.size == 0 or mu[0] <= 0:
        raise ValueError("snapshot matrix is zero")
    rank = int(np.count_nonzero(mu > (RANK_RTOL ** 2) * mu[0]))
    return X, np.sqrt(mu[:rank]), psi


def singular_values(S) -> np.ndarray:
    """Positive singular values of the snapshot matrix, descending."""
    return _spectrum(S)[1]


def build_pod(S, N: int | None = None, *, eps: float | None = None) -> PodBasis:
    """First ``N`` basis vectors of the snapshot matrix.

    Give either ``N`` or the energy tolerance ``eps``, which chooses N by
    ``select_dim`` on the singular values of the same eigendecomposition.
    Each column S psi_j / sigma_j is re-orthonormalized by one modified
    Gram-Schmidt pass to guard against roundoff for clustered singular
    values, then sign-fixed so its largest-magnitude entry is positive.
    """
    if (N is None) == (eps is None):
        raise ValueError("give exactly one of N and eps")
    if N is not None and N < 1:
        raise ValueError("basis dimension must be >= 1")
    X, sigma, psi = _spectrum(S)
    rank = len(sigma)
    if N is None:
        N = select_dim(sigma, eps)
    if N > rank:
        raise ValueError(f"requested {N} modes but the numerical rank is {rank}")

    V = X @ (psi[:, :N] / sigma[:N])
    for j in range(N):                      # modified Gram-Schmidt, one pass
        for i in range(j):
            V[:, j] -= (V[:, i] @ V[:, j]) * V[:, i]
        V[:, j] /= np.linalg.norm(V[:, j])
    flip = np.sign(V[np.abs(V).argmax(axis=0), np.arange(N)])
    V *= np.where(flip == 0, 1.0, flip)
    return PodBasis(V, sigma, N, rank)


def select_dim(svals, eps: float) -> int:
    """Smallest N whose energy fraction I(N) reaches 1 - eps^2.

    Evaluated through the tail sum (sum_{i>N} sigma_i^2 <= eps^2 * total),
    which is the same criterion without the cancellation that makes the
    cumulative ratio saturate at 1 in floating point.
    """
    svals = np.asarray(svals, dtype=np.float64)
    if svals.size == 0:
        raise ValueError("empty singular value list")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    energy = svals ** 2
    # tail(N) = sum_{i>N} sigma_i^2, accumulated from the small end so that
    # tiny tails are not lost to cancellation
    tail = np.concatenate([np.cumsum(energy[:0:-1])[::-1], [0.0]])
    total = tail[0] + energy[0]
    ok = np.flatnonzero(tail <= eps ** 2 * total)
    return int(ok[0]) + 1


def projection_error_sq(S, V: np.ndarray) -> float:
    """Sum over snapshot columns u of ||u - V V^T u||^2."""
    X = _as_matrix(S)
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != X.shape[0]:
        raise ValueError("basis rows must match snapshot rows")
    if V.shape[1] == 0:
        return float(np.linalg.norm(X) ** 2)
    R = X - V @ (V.T @ X)
    return float(np.linalg.norm(R) ** 2)


def exact_reference_eps(M, u_reference, u_computed) -> float:
    """Basis-size tolerance from a known reference eigenvector.

    Both vectors are normalized in the M-norm and sign-aligned; the returned
    eps is the M-norm of their difference.
    """
    a = np.asarray(u_reference, dtype=np.float64)
    b = np.asarray(u_computed, dtype=np.float64)
    a = a / np.sqrt(a @ (M @ a))
    b = b / np.sqrt(b @ (M @ b))
    if a @ (M @ b) < 0:
        b = -b
    d = a - b
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


def write_singular_values(svals_or_basis, path) -> None:
    """One singular value per line, descending, 17 significant digits."""
    svals = getattr(svals_or_basis, "singular_values", svals_or_basis)
    with open(path, "w") as fh:
        for s in np.asarray(svals, dtype=np.float64):
            fh.write(f"{s:.17g}\n")
