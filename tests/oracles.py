"""Independent reference computations used to cross-check the library.

These deliberately take different routes than the code under test: the SVD
oracle runs power iteration with deflation on the Gram matrix, eigenvalue
references come from scipy's shift-invert Lanczos, newest-vertex bisection
is replayed one triangle at a time on vertex-pair edges, the reduced and
full-order loops run on scipy's checked Cholesky wrappers (the full-order
one on dense matrices), and the POD projection error is the residual of an
explicit projection.  The error indicators are
recomputed one triangle and one edge at a time, locating each edge quadrature
point in its triangles by solving for its barycentric coordinates.
"""

import math

import numpy as np
import scipy.linalg
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
    """Smallest generalized eigenpair of (A, M) via scipy shift-invert
    (dense ``eigh`` below three unknowns, where ARPACK cannot run)."""
    if A.shape[0] < 3:
        vals, vecs = scipy.linalg.eigh(A.toarray(), M.toarray(),
                                       subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    vals, vecs = spla.eigsh(A, k=1, M=M, sigma=0, which="LM")
    return float(vals[0]), vecs[:, 0]


def pencil_eigenvalues(A, M, k):
    """The k smallest generalized eigenvalues of (A, M)."""
    vals = spla.eigsh(A, k=k, M=M, sigma=0, which="LM",
                      return_eigenvectors=False)
    return np.sort(vals)


def bisect_recursive(mesh, marked):
    """Newest-vertex bisection with closure, one triangle at a time.

    The loop reference for ``mesh.bisect_refine``: edges are vertex pairs,
    the closure rescans every triangle until nothing changes, and each
    triangle is split recursively (edges through a new midpoint are never
    split in the same call).  Returns ``(nodes, triangles, refinement_edge)``.
    """
    tris = [tuple(int(v) for v in t) for t in mesh.triangles]
    ref = [int(r) for r in mesh.refinement_edge]

    def ref_pair(tri, r):
        return tuple(sorted((tri[(r + 1) % 3], tri[(r + 2) % 3])))

    split = {ref_pair(tris[t], ref[t]) for t in set(int(i) for i in marked)}
    changed = True
    while changed:
        changed = False
        for tri, r in zip(tris, ref):
            pairs = [ref_pair(tri, i) for i in range(3)]
            if pairs[r] not in split and any(p in split for p in pairs):
                split.add(pairs[r])
                changed = True
    pairs = sorted(split)
    mid = {p: mesh.n_nodes + k for k, p in enumerate(pairs)}
    nodes = np.vstack([mesh.nodes] + [0.5 * (mesh.nodes[a] + mesh.nodes[b])
                                      for a, b in pairs])
    out_tris, out_ref = [], []

    def bisect(tri, r):
        p = ref_pair(tri, r)
        if p not in split:
            out_tris.append(tri)
            out_ref.append(r)
            return
        a, b = (r + 1) % 3, (r + 2) % 3
        bisect((tri[b], tri[r], mid[p]), 2)
        bisect((tri[r], tri[a], mid[p]), 2)

    for tri, r in zip(tris, ref):
        bisect(tri, r)
    return nodes, np.array(out_tris, dtype=np.int64), np.array(out_ref, dtype=np.int64)


def rom_loop_cho(a_red, m_red, y0, dt, stop_tol, max_steps):
    """The reduced fictitious-time loop on scipy's ``cho_factor`` /
    ``cho_solve`` (the reference for ``rom.run_rom``'s direct LAPACK calls).

    Returns the Rayleigh-quotient history and the final reduced state.
    """
    system = scipy.linalg.cho_factor(a_red + m_red / dt)
    y = y0
    history = []
    for _ in range(max_steps):
        my = m_red @ y
        lam = float(y @ (a_red @ y)) / float(y @ my)
        history.append(lam)
        y_new = scipy.linalg.cho_solve(system, (lam + 1.0 / dt) * my)
        rel_change = np.linalg.norm(y_new - y) / np.linalg.norm(y_new)
        y = y_new
        if rel_change <= stop_tol:
            break
    history.append(float(y @ (a_red @ y)) / float(y @ (m_red @ y)))
    return np.array(history), y


def fom_loop_dense(A, M, u0, dt, stop_tol, stride, max_steps):
    """The full-order fictitious-time loop on dense matrices (the reference
    for ``continuation.run_fom``'s factored sparse steps).

    Each step solves (A + M/dt) U' = (lam + 1/dt) M U with a dense Cholesky
    factor and takes the Rayleigh quotient from fresh products; there is no
    overflow guard, which starts of moderate norm never reach.  Returns the
    Rayleigh-quotient history, the step count and the snapshot matrix of
    every ``stride``-th state.
    """
    A, M = A.toarray(), M.toarray()
    system = scipy.linalg.cho_factor(A + M / dt)
    U = np.array(u0, dtype=np.float64)
    history, snapshots = [], []
    steps = 0
    while steps < max_steps:
        lam = float(U @ A @ U) / float(U @ M @ U)
        history.append(lam)
        U_new = scipy.linalg.cho_solve(system, (lam + 1.0 / dt) * (M @ U))
        steps += 1
        if steps % stride == 0:
            snapshots.append(U_new)
        rel_change = np.linalg.norm(U_new - U) / np.linalg.norm(U_new)
        U = U_new
        if rel_change <= stop_tol:
            break
    history.append(float(U @ A @ U) / float(U @ M @ U))
    return np.array(history), steps, np.column_stack(snapshots)


def projection_error_sq(S, V):
    """Sum over snapshot columns u of ||u - V V^T u||^2 (the energy the
    basis V misses; for a POD basis, the Eckart-Young tail)."""
    X = np.asarray(S, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != X.shape[0]:
        raise ValueError("basis rows must match snapshot rows")
    if V.shape[1] == 0:
        return float(np.linalg.norm(X) ** 2)
    R = X - V @ (V.T @ X)
    return float(np.linalg.norm(R) ** 2)


def estimate_by_point_location(mesh, dofmap, u_full, lam):
    """Per-triangle residual indicators, one triangle and one edge at a time.

    The reference for ``adapt.estimate``: barycentric gradients come from
    the inverse of each triangle's [x; y; 1] vertex matrix, edges are vertex
    pairs found by a dictionary, and each edge Gauss point is located in its
    two triangles by solving for its barycentric coordinates.
    """
    from eigenrom.fem import QUAD_POINTS, QUAD_WEIGHTS, p2_dlambda, p2_values

    u_full = np.asarray(u_full, dtype=np.float64)
    n_tri = mesh.n_triangles
    inv = np.empty((n_tri, 3, 3))
    area = np.empty(n_tri)
    for t, tri in enumerate(mesh.triangles):
        B = np.vstack([mesh.nodes[tri].T, np.ones(3)])
        inv[t] = np.linalg.inv(B)
        area[t] = 0.5 * np.linalg.det(B)

    def gradient(t, lam_pt):
        grads = inv[t][:, :2]                            # grad lambda_k
        u_loc = u_full[dofmap.cell_dofs[t]]
        if dofmap.degree == 1:
            return u_loc @ grads
        return (u_loc @ p2_dlambda(lam_pt)) @ grads

    eta_sq = np.zeros(n_tri)
    for t, tri in enumerate(mesh.triangles):
        p = mesh.nodes[tri]
        h_k = max(math.dist(p[i], p[j]) for i, j in ((0, 1), (1, 2), (2, 0)))
        u_loc = u_full[dofmap.cell_dofs[t]]
        if dofmap.degree == 1:
            lap, uq = 0.0, QUAD_POINTS @ u_loc
        else:
            # second derivatives of the P2 basis in lambda: vertex i has
            # 4 at (i, i); the edge opposite i has 4 at (i+1, i+2), (i+2, i+1)
            gram = inv[t][:, :2] @ inv[t][:, :2].T
            lap = 0.0
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lap += u_loc[i] * 4.0 * gram[i, i]
                lap += u_loc[3 + i] * 8.0 * gram[j, k]
            uq = p2_values(QUAD_POINTS) @ u_loc
        eta_sq[t] = h_k ** 2 * area[t] * (QUAD_WEIGHTS @ (lap + lam * uq) ** 2)

    sides = {}
    for t, tri in enumerate(mesh.triangles):
        for i in range(3):
            a, b = sorted((int(tri[(i + 1) % 3]), int(tri[(i + 2) % 3])))
            sides.setdefault((a, b), []).append(t)
    for (a, b), tris in sides.items():
        if len(tris) < 2:
            continue
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        h_e = math.dist(pa, pb)
        normal = np.array([pb[1] - pa[1], pa[0] - pb[0]]) / h_e
        jump_sq = 0.0
        for s in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
            x = pa + s * (pb - pa)
            flux = [gradient(t, inv[t] @ np.array([x[0], x[1], 1.0])) @ normal
                    for t in tris]
            jump_sq += (flux[0] - flux[1]) ** 2
        for t in tris:
            eta_sq[t] += 0.5 * h_e * (0.5 * h_e * jump_sq)
    return np.sqrt(eta_sq)
