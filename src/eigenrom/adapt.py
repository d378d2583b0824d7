"""Residual error estimation, bulk marking, and adaptive refinement.

The elementwise indicator combines the interior residual of the eigenvalue
equation with the normal-derivative jumps across interior edges:

    eta_K^2 = h_K^2 ||lap u + lam u||_{L2(K)}^2
              + 1/2 sum_{interior edges e of K} h_e ||[grad u . n]_e||_{L2(e)}^2

Boundary edges carry no jump (homogeneous Dirichlet data).  The field is
normalized to unit M-norm before estimation so that totals are comparable
across refinement levels.  The geometry is the mesh's cache; the basis values,
derivatives and Laplacians at barycentric points (the edge Gauss points on
each side too) come from ``fem.local_basis`` and ``fem.ELEMENTS``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from itertools import permutations

import numpy as np

from .continuation import ContinuationConfig
from .fem import ELEMENTS, DofMap, QUAD_POINTS, QUAD_WEIGHTS, local_basis
from .mesh import Mesh, bisect_refine
from .rom import Level, solve_levels

log = logging.getLogger(__name__)

# two-point Gauss rule, exact for cubics, as positions s in [0, 1] along an edge
_EDGE_S = 0.5 * (np.array([-1.0, 1.0]) / np.sqrt(3.0) + 1.0)


def _edge_derivatives(degree: int) -> np.ndarray:
    """Basis lambda-derivatives at the edge Gauss points, (q, a, b, n_loc, 3).

    The Gauss point at s has barycentric coordinates 1 - s at the edge's
    first node (local vertex a), s at its second (b) and 0 at the vertex
    opposite the edge, on either side; so six (a, b) pairs per point cover
    every interior edge of every mesh.
    """
    lam = np.zeros((len(_EDGE_S), 3, 3, 3))
    for a, b in permutations(range(3), 2):
        lam[:, a, b, a], lam[:, a, b, b] = 1.0 - _EDGE_S, _EDGE_S
    return local_basis(degree, lam)[1]


_EDGE_DLAM = {degree: _edge_derivatives(degree) for degree in ELEMENTS}


@dataclass(eq=False)
class EtaField:
    """Per-triangle error indicators and their l2 total."""

    per_triangle: np.ndarray
    total: float


def estimate(mesh: Mesh, dofmap: DofMap, u_h, lambda_h: float) -> EtaField:
    """Residual indicators for an (approximate) eigenpair.

    ``u_h`` holds the free-dof coefficients (ValueError on a wrong length)
    and is expected M-normalized; the indicator itself is scale-covariant
    so marking is unaffected either way.  The basis Laplacians are constant
    per element (zero for P1); element and edge integrals use quadrature
    exact for the polynomial degrees present.
    """
    area = mesh.areas
    grads, gram = mesh.gradients
    h_k = mesh.edge_lengths.max(axis=1)
    u_loc = dofmap.full_vector(u_h)[dofmap.cell_dofs]     # (T, n_loc)

    hessian = ELEMENTS[dofmap.degree].hessian
    # one matmul, not einsum's generic loop; bit-identical, since every
    # partial sum of the constant Hessian entries is exact
    lap_basis = gram.reshape(-1, 9) @ hessian.reshape(-1, 9).T   # (T, n_loc)
    lap = np.einsum("ti,ti->t", u_loc, lap_basis)
    uq = u_loc @ local_basis(dofmap.degree, QUAD_POINTS)[0].T   # (T, Q)
    rq = lap[:, None] + lambda_h * uq
    eta_sq = h_k ** 2 * area * (rq ** 2 @ QUAD_WEIGHTS)

    edges, _, edge_tris = mesh.edge_table
    interior = np.flatnonzero(edge_tris[:, 1] >= 0)
    if interior.size:
        e_nodes = edges[interior]
        sides = edge_tris[interior]                       # (m, 2)
        tangent = mesh.nodes[e_nodes[:, 1]] - mesh.nodes[e_nodes[:, 0]]
        h_e = np.hypot(tangent[:, 0], tangent[:, 1])
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / h_e[:, None]

        edge_dlam = _EDGE_DLAM[dofmap.degree]
        flux = np.empty((2, len(_EDGE_S), interior.size))
        for side, tris in enumerate(sides.T):
            tri_nodes, u_side, g_side = mesh.triangles[tris], u_loc[tris], grads[tris]
            # local vertex (0, 1 or 2) of the edge's first and second node
            first, second = ((tri_nodes[:, 1] == v) + 2 * (tri_nodes[:, 2] == v)
                             for v in e_nodes.T)
            for q in range(len(_EDGE_S)):
                dlam = edge_dlam[q, first, second]              # (m, n_loc, 3)
                coef = np.einsum("mi,mik->mk", u_side, dlam)     # du/dlam_k
                grad = np.einsum("mk,mkd->md", coef, g_side)
                flux[side, q] = np.einsum("md,md->m", grad, normal)
        jump_sq = ((flux[0] - flux[1]) ** 2).sum(axis=0)
        edge_norm_sq = 0.5 * h_e * jump_sq                # (h_e/2) sum w_q J_q^2
        contrib = 0.5 * h_e * edge_norm_sq
        eta_sq += np.bincount(sides.reshape(-1), np.repeat(contrib, 2),
                              minlength=mesh.n_triangles)

    eta_sq = np.maximum(eta_sq, 0.0)
    return EtaField(np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum())))


def check_theta(theta: float) -> None:
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")


def mark(etas: EtaField, theta: float) -> np.ndarray:
    """Bulk marking: the smallest set of triangles, taken in descending
    indicator order (ties to the lower index), whose squared indicators reach
    theta^2 times the squared total.  Returns their indices as a sorted int64
    array."""
    check_theta(theta)
    eta_sq = etas.per_triangle ** 2
    total = eta_sq.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-eta_sq, kind="stable")
    running = np.cumsum(eta_sq[order])
    # tiny relative slack so that exact-fraction targets are not missed by
    # one rounding ulp of theta**2
    target = theta ** 2 * total * (1.0 - 1e-12)
    cut = int(np.flatnonzero(running >= target)[0]) + 1
    return np.sort(order[:cut]).astype(np.int64, copy=False)


def next_mesh(theta: float, level: Level, dofmap: DofMap, M) -> Mesh | None:
    """The adaptive refinement of ``rom.solve_levels``: estimate with the
    level's M-normalized full-order eigenpair, mark with ``theta``, bisect.
    Returns None once the estimate vanishes."""
    u = level.trace.final_vector
    etas = estimate(level.mesh, dofmap, u / np.sqrt(u @ (M @ u)),
                    level.trace.eigenvalue)
    log.info("level %d: dof=%d lambda=%.12f eta=%.3e pod=%d", level.index,
             level.n_dof, level.trace.eigenvalue, etas.total,
             level.per_stride[0].basis.N)
    if etas.total <= 1e-14:
        return None
    return bisect_refine(level.mesh, mark(etas, theta))


def adaptive_solve(initial_mesh: Mesh, fe_degree: int, theta: float,
                   n_refinements: int, continuation_config: ContinuationConfig,
                   stride: int, pod_eps: float = 1e-7) -> Mesh:
    """Solve-estimate-mark-refine: ``rom.solve_levels`` with ``next_mesh``
    at snapshot stride ``stride``.  Returns the last solved level's mesh;
    raises what the loop raises (NonconvergenceError, NotSpdError)."""
    mesh = initial_mesh
    for level in solve_levels(initial_mesh, fe_degree, continuation_config,
                              (stride,), pod_eps, n_refinements,
                              partial(next_mesh, theta)):
        mesh = level.mesh
    return mesh
