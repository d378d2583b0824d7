"""Orthonormal basis extraction from snapshot matrices.

The basis is taken from one thin SVD of the snapshot matrix X = U Sigma W^T
(LAPACK ``gesdd``; Golub & Van Loan, Matrix Computations, section 8.6): its
left singular vectors are the basis columns.  Singular values at or below
max(n, k) * eps_mach * sigma_1, the size of the SVD's own rounding error on
an n x k matrix (and numpy.linalg.matrix_rank's default tolerance), are cut,
so the numerical rank never exceeds min(n, k).  The basis dimension is chosen
by the energy criterion: the smallest N whose leading modes carry at least
1 - eps^2 of the total squared singular values.  ``build_pod(S, eps=...)``
takes the singular values, N and the basis from the same SVD.  The tolerance
of ``--pod-eps exact`` is computed in ``harness._exact_eps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class PodBasis:
    """Orthonormal basis V with the full singular-value ladder."""

    V: np.ndarray                  # (n_rows, N), orthonormal columns
    singular_values: np.ndarray    # all r positive values, descending
    N: int


def _thin_svd(S) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values (descending) of the
    snapshot matrix, cut at its numerical rank."""
    X = np.asarray(S, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("snapshot data must be a 2-D array")
    if X.shape[1] == 0:
        raise ValueError("empty snapshot matrix")
    U, sigma, _ = np.linalg.svd(X, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0:
        raise ValueError("snapshot matrix is zero")
    cut = max(X.shape) * np.finfo(np.float64).eps * sigma[0]
    rank = int(np.count_nonzero(sigma > cut))
    return U[:, :rank], sigma[:rank]


def singular_values(S) -> np.ndarray:
    """Positive singular values of the snapshot matrix, descending."""
    return _thin_svd(S)[1]


def build_pod(S, N: int | None = None, *, eps: float | None = None) -> PodBasis:
    """First ``N`` left singular vectors of the snapshot matrix.

    Give either ``N`` or the energy tolerance ``eps``, which chooses N by
    ``select_dim`` on the singular values of the same SVD; ``eps = 0`` (an
    exact reference met exactly) keeps the numerical rank.  Each column is
    sign-fixed so its largest-magnitude entry is positive.
    """
    if (N is None) == (eps is None):
        raise ValueError("give exactly one of N and eps")
    if N is not None and N < 1:
        raise ValueError("basis dimension must be >= 1")
    U, sigma = _thin_svd(S)
    rank = len(sigma)
    if N is None:
        N = select_dim(sigma, eps) if eps != 0 else rank
    if N > rank:
        raise ValueError(f"requested {N} modes but the numerical rank is {rank}")

    V = U[:, :N].copy()
    flip = np.sign(V[np.abs(V).argmax(axis=0), np.arange(N)])
    V *= np.where(flip == 0, 1.0, flip)
    return PodBasis(V, sigma, N)


def check_eps(eps) -> None:
    if not 0 < eps < 1:
        raise ValueError("pod eps must lie in (0, 1)")


def select_dim(svals, eps: float) -> int:
    """Smallest N whose energy fraction I(N) reaches 1 - eps^2.

    Evaluated through the tail sum (sum_{i>N} sigma_i^2 <= eps^2 * total),
    which is the same criterion without the cancellation that makes the
    cumulative ratio saturate at 1 in floating point.
    """
    svals = np.asarray(svals, dtype=np.float64)
    if svals.size == 0:
        raise ValueError("empty singular value list")
    check_eps(eps)
    energy = svals ** 2
    # tail(N) = sum_{i>N} sigma_i^2, accumulated from the small end so that
    # tiny tails are not lost to cancellation
    tail = np.concatenate([np.cumsum(energy[:0:-1])[::-1], [0.0]])
    total = tail[0] + energy[0]
    ok = np.flatnonzero(tail <= eps ** 2 * total)
    return int(ok[0]) + 1


def write_singular_values(svals, path) -> None:
    """One singular value per line, descending, 17 significant digits."""
    with open(path, "w") as fh:
        for s in np.asarray(svals, dtype=np.float64):
            fh.write(f"{s:.17g}\n")
