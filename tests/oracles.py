"""Independent reference computations used to cross-check the library.

These deliberately take different routes than the code under test: the SVD
oracle runs power iteration with deflation on the Gram matrix, and eigenvalue
references come from scipy's shift-invert Lanczos.
"""

import math

import numpy as np
import scipy.sparse.linalg as spla


def power_svd(X, n_modes=None, iters=20000, tol=1e-14):
    """Singular values/vectors by power iteration plus Hotelling deflation.

    Works on the Gram matrix X^T X; each converged eigenpair is deflated by
    subtraction.  Adequate for the small, well-separated spectra used in
    tests; singular values below ~1e-9 of the largest are cut off.
    """
    X = np.asarray(X, dtype=np.float64)
    G = X.T @ X
    n = G.shape[0]
    if n_modes is None:
        n_modes = n
    rng = np.random.default_rng(12345)
    sigmas, rights = [], []
    work = G.copy()
    for _ in range(n_modes):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        mu = 0.0
        for _ in range(iters):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v_new = w / norm
            mu = float(v_new @ (work @ v_new))
            if np.linalg.norm(work @ v_new - mu * v_new) <= tol * max(mu, 1.0):
                v = v_new
                break
            v = v_new
        if mu <= 0 or (sigmas and mu <= 1e-18 * sigmas[0] ** 2):
            break
        sigmas.append(math.sqrt(mu))
        rights.append(v.copy())
        work = work - mu * np.outer(v, v)
    sigmas = np.array(sigmas)
    rights = np.array(rights).T if rights else np.empty((n, 0))
    lefts = X @ rights
    lefts = lefts / np.maximum(np.linalg.norm(lefts, axis=0), 1e-300)
    return sigmas, lefts, rights


def smallest_pencil_eigenpair(A, M):
    """Smallest generalized eigenpair of (A, M) via scipy shift-invert."""
    vals, vecs = spla.eigsh(A, k=1, M=M, sigma=0, which="LM")
    return float(vals[0]), vecs[:, 0]


def pencil_eigenvalues(A, M, k):
    """The k smallest generalized eigenvalues of (A, M)."""
    vals = spla.eigsh(A, k=k, M=M, sigma=0, which="LM",
                      return_eigenvectors=False)
    return np.sort(vals)
