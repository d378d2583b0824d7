"""Residual error estimation, bulk marking, and adaptive refinement.

The elementwise indicator combines the interior residual of the eigenvalue
equation with the normal-derivative jumps across interior edges:

    eta_K^2 = h_K^2 ||lap u + lam u||_{L2(K)}^2
              + 1/2 sum_{interior edges e of K} h_e ||[grad u . n]_e||_{L2(e)}^2

Boundary edges carry no jump (homogeneous Dirichlet data).  The field is
normalized to unit M-norm before estimation so that totals are comparable
across refinement levels.  For P1 and P2 the gradient of u is affine on each
triangle, so its values at the three vertices carry everything the indicator
reads: the Laplacian is sum_v grad lambda_v . grad u(v), and the jump is
linear along an edge, so its squared L2 norm is exact from the two end
values, h_e (J_0^2 + J_0 J_1 + J_1^2) / 3.  The geometry is the mesh's cache
and the basis derivatives at the vertices come from ``fem.local_basis``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .continuation import ContinuationConfig
from .fem import DofMap, QUAD_POINTS, QUAD_WEIGHTS, local_basis
from .mesh import Mesh, bisect_refine
from .rom import Level, solve_levels

log = logging.getLogger(__name__)


@dataclass(eq=False)
class EtaField:
    """Per-triangle error indicators and their l2 total."""

    per_triangle: np.ndarray
    total: float


def estimate(mesh: Mesh, dofmap: DofMap, u_h, lambda_h: float) -> EtaField:
    """Residual indicators for an (approximate) eigenpair.

    ``u_h`` holds the free-dof coefficients (ValueError on a wrong length)
    and is expected M-normalized; the indicator itself is scale-covariant
    so marking is unaffected either way.  Everything is read from the
    gradient of u at the triangle vertices: the constant Laplacian (for P1
    zero up to rounding) and the two end values of each edge's linear jump.
    The element integral uses quadrature exact for quartics.
    """
    grads = mesh.gradients
    u_loc = dofmap.full_vector(u_h)[dofmap.cell_dofs]     # (T, n_loc)
    # du/dlam_k at local vertex v, then grad u there: (T, 3, 2)
    dlam = local_basis(dofmap.degree, np.eye(3))[1]        # (v, n_loc, k)
    coef = u_loc @ dlam.transpose(1, 0, 2).reshape(-1, 9)
    grad_u = coef.reshape(-1, 3, 3) @ grads

    # the six products summed in .sum(axis=(1, 2))'s order, column by column
    terms = (grads * grad_u).reshape(-1, 6).T
    lap = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5]
    uq = u_loc @ local_basis(dofmap.degree, QUAD_POINTS)[0].T   # (T, Q)
    rq = lap[:, None] + lambda_h * uq
    l0, l1, l2 = mesh.edge_lengths.T
    h_k = np.maximum(np.maximum(l0, l1), l2)
    eta_sq = h_k ** 2 * mesh.areas * (rq ** 2 @ QUAD_WEIGHTS)

    edges, _, edge_tris = mesh.edge_table
    interior = np.flatnonzero(~mesh.boundary_edge)
    e_nodes, sides = edges[interior], edge_tris[interior]      # (m, 2) each
    tangent = mesh.nodes[e_nodes[:, 1]] - mesh.nodes[e_nodes[:, 0]]
    h_e = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / h_e[:, None]
    # the local vertex (0, 1 or 2) of each end node in each side's triangle
    tri_nodes = mesh.triangles[sides]                           # (m, side, 3)
    local = ((tri_nodes[:, :, 1, None] == e_nodes[:, None])
             + 2 * (tri_nodes[:, :, 2, None] == e_nodes[:, None]))
    flux = np.einsum("msed,md->mse", grad_u[sides[:, :, None], local], normal)
    j0, j1 = (flux[:, 0] - flux[:, 1]).T                        # jump at each end
    contrib = 0.5 * h_e * (h_e * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0)
    eta_sq += np.bincount(sides.reshape(-1), np.repeat(contrib, 2),
                          minlength=mesh.n_triangles)
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
    # a slack of one rounding ulp of theta**2 for exact-fraction targets; the
    # cap, as the pairwise total can pass the cumsum's end by more than that
    target = min(theta ** 2 * total * (1.0 - 1e-12), running[-1])
    cut = int(np.flatnonzero(running >= target)[0]) + 1
    return np.sort(order[:cut]).astype(np.int64, copy=False)


def next_mesh(theta: float, level: Level, dofmap: DofMap, M) -> Mesh:
    """The adaptive refinement of ``rom.solve_levels``: estimate with the
    level's M-normalized full-order eigenpair, mark with ``theta``, bisect."""
    u = level.trace.final_vector
    etas = estimate(level.mesh, dofmap, u / np.sqrt(u @ (M @ u)),
                    level.trace.eigenvalue)
    log.info("level %d: dof=%d lambda=%.12f eta=%.3e pod=%d", level.index,
             level.n_dof, level.trace.eigenvalue, etas.total,
             level.per_stride[0].basis.N)
    return bisect_refine(level.mesh, mark(etas, theta))


def adaptive_solve(initial_mesh: Mesh, fe_degree: int, theta: float,
                   n_refinements: int, continuation_config: ContinuationConfig,
                   stride: int, pod_eps: float) -> Mesh:
    """Solve-estimate-mark-refine: ``rom.solve_levels`` with ``next_mesh``
    at snapshot stride ``stride``.  Returns the last solved level's mesh;
    raises what the loop raises (NonconvergenceError, NotSpdError)."""
    mesh = initial_mesh
    for level in solve_levels(initial_mesh, fe_degree, continuation_config,
                              (stride,), pod_eps, n_refinements,
                              partial(next_mesh, theta)):
        mesh = level.mesh
    return mesh
