"""Residual error estimation, bulk marking, and the adaptive loop.

The elementwise indicator combines the interior residual of the eigenvalue
equation with the normal-derivative jumps across interior edges:

    eta_K^2 = h_K^2 ||lap u + lam u||_{L2(K)}^2
              + 1/2 sum_{interior edges e of K} h_e ||[grad u . n]_e||_{L2(e)}^2

Boundary edges carry no jump (homogeneous Dirichlet data).  The field is
normalized to unit M-norm before estimation so that totals are comparable
across refinement levels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .continuation import ContinuationConfig
from .fem import (DiscreteField, DofMap, QUAD_POINTS, QUAD_WEIGHTS,
                  _barycentric_gradients, assemble, build_dofmap, p2_dlambda,
                  p2_values)
from .linalg import NonconvergenceError
from .mesh import Mesh, bisect_refine, edge_lengths, edge_table
from .rom import solve_level

log = logging.getLogger(__name__)

# two-point Gauss rule on [-1, 1], exact for cubics
_EDGE_T = np.array([-1.0, 1.0]) / np.sqrt(3.0)


@dataclass(eq=False)
class EtaField:
    """Per-triangle error indicators and their l2 total."""

    per_triangle: np.ndarray
    total: float


@dataclass
class AdaptiveRecord:
    n_dof: int
    lambda_fom: float
    lambda_rom: float
    eta_total: float
    n_pod: int
    fom_time: float
    rom_time: float


def _barycentric_at(mesh: Mesh, tris, points):
    """Barycentric coordinates of physical ``points`` (m, 2) inside the
    triangles ``tris`` (m,), returned with shape (m, 3)."""
    p = mesh.nodes[mesh.triangles[tris]]        # (m, 3, 2)
    v0 = p[:, 0]
    e1 = p[:, 1] - v0
    e2 = p[:, 2] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = points - v0
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])


def _gradients_at(u_loc, grads, lam_pts, degree):
    """Gradient of the local field at barycentric points.

    u_loc: (m, n_loc) local coefficients; grads: (m, 3, 2) barycentric
    gradients; lam_pts: (m, 3).  Returns (m, 2).
    """
    if degree == 1:
        return np.einsum("mi,mid->md", u_loc, grads)
    dl = p2_dlambda(lam_pts)                    # (m, 6, 3)
    coef = np.einsum("mi,mik->mk", u_loc, dl)   # d(u)/d(lambda_k)
    return np.einsum("mk,mkd->md", coef, grads)


def estimate(mesh: Mesh, dofmap: DofMap, u_h: DiscreteField, lambda_h: float
             ) -> EtaField:
    """Residual indicators for an (approximate) eigenpair.

    ``u_h`` is expected M-normalized; the indicator itself is scale-covariant
    so marking is unaffected either way.  The elementwise Laplacian vanishes
    for P1 and is constant for P2; element and edge integrals use quadrature
    exact for the polynomial degrees present.
    """
    u_full = u_h.full()
    return _estimate_full(mesh, dofmap, u_full, lambda_h)


def _estimate_full(mesh: Mesh, dofmap: DofMap, u_full, lambda_h: float) -> EtaField:
    grads, area = _barycentric_gradients(mesh)
    h_k = edge_lengths(mesh).max(axis=1)
    u_loc = np.asarray(u_full)[dofmap.cell_dofs]          # (T, n_loc)

    if dofmap.degree == 1:
        lap = np.zeros(mesh.n_triangles)
        uq = u_loc @ QUAD_POINTS.T                        # (T, Q)
    else:
        # laplacians of the P2 basis are constant per element:
        # vertex i: 4 |g_i|^2, edge opposite i: 8 g_{i+1}.g_{i+2}
        gram = np.einsum("tid,tjd->tij", grads, grads)
        lap_basis = np.empty((mesh.n_triangles, 6))
        for i in range(3):
            lap_basis[:, i] = 4.0 * gram[:, i, i]
            lap_basis[:, 3 + i] = 8.0 * gram[:, (i + 1) % 3, (i + 2) % 3]
        lap = np.einsum("ti,ti->t", u_loc, lap_basis)
        uq = u_loc @ p2_values(QUAD_POINTS).T             # (T, Q)

    rq = lap[:, None] + lambda_h * uq
    eta_sq = h_k ** 2 * area * (rq ** 2 @ QUAD_WEIGHTS)

    edges, tri_edges, edge_tris = edge_table(mesh)
    interior = np.flatnonzero(edge_tris[:, 1] >= 0)
    if interior.size:
        e_nodes = edges[interior]
        pa = mesh.nodes[e_nodes[:, 0]]
        pb = mesh.nodes[e_nodes[:, 1]]
        tangent = pb - pa
        h_e = np.hypot(tangent[:, 0], tangent[:, 1])
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / h_e[:, None]

        jump_sq = np.zeros(interior.size)
        for t_gauss in _EDGE_T:
            pts = pa + 0.5 * (t_gauss + 1.0) * tangent
            flux = []
            for side in range(2):
                tris = edge_tris[interior, side]
                lam_pts = _barycentric_at(mesh, tris, pts)
                g = _gradients_at(u_loc[tris], grads[tris], lam_pts, dofmap.degree)
                flux.append(np.einsum("md,md->m", g, normal))
            jump_sq += (flux[0] - flux[1]) ** 2
        edge_norm_sq = 0.5 * h_e * jump_sq                # (h_e/2) sum w_q J_q^2
        contrib = 0.5 * h_e * edge_norm_sq
        np.add.at(eta_sq, edge_tris[interior, 0], contrib)
        np.add.at(eta_sq, edge_tris[interior, 1], contrib)

    eta_sq = np.maximum(eta_sq, 0.0)
    return EtaField(np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum())))


def mark(etas: EtaField, theta: float) -> set:
    """Bulk marking: the smallest set of triangles, taken in descending
    indicator order (ties to the lower index), whose squared indicators reach
    theta^2 times the squared total."""
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    eta_sq = etas.per_triangle ** 2
    total = eta_sq.sum()
    if total == 0.0:
        return set()
    order = np.argsort(-eta_sq, kind="stable")
    running = np.cumsum(eta_sq[order])
    # tiny relative slack so that exact-fraction targets are not missed by
    # one rounding ulp of theta**2
    target = theta ** 2 * total * (1.0 - 1e-12)
    cut = int(np.flatnonzero(running >= target)[0]) + 1
    return set(int(i) for i in order[:cut])


def adaptive_solve(initial_mesh: Mesh, fe_degree: int, theta: float,
                   n_refinements: int, continuation_config: ContinuationConfig,
                   pod_eps: float = 1e-7
                   ) -> tuple[list[AdaptiveRecord], Mesh]:
    """Solve-estimate-mark-refine loop with a reduced solve per level.

    Per level: run ``solve_level`` (full-order continuation, basis from its
    snapshots at the configured stride, reduced run timed as the online
    stage), estimate with the full-order eigenpair, mark, bisect.  Returns
    one record per level and the final (unrefined) mesh.  A level that does
    not converge raises NonconvergenceError carrying the records of the
    levels finished before it.
    """
    mesh = initial_mesh
    records = []
    for level in range(n_refinements):
        dofmap = build_dofmap(mesh, fe_degree)
        A, M = assemble(mesh, dofmap)
        try:
            trace, [(_, basis, rom_trace, rom_time)] = solve_level(
                A, M, continuation_config,
                (continuation_config.snapshot_stride,), pod_eps)
        except NonconvergenceError as exc:
            raise NonconvergenceError(f"adaptive level {level}: {exc}",
                                      exc.residual, records) from exc

        u = trace.final_vector
        u = u / np.sqrt(u @ (M @ u))
        etas = estimate(mesh, dofmap, DiscreteField(dofmap, u), trace.eigenvalue)

        records.append(AdaptiveRecord(
            n_dof=dofmap.n_dof_total,
            lambda_fom=trace.eigenvalue,
            lambda_rom=rom_trace.eigenvalue,
            eta_total=etas.total,
            n_pod=basis.N,
            fom_time=trace.wall_time,
            rom_time=rom_time,
        ))
        log.info("level %d: dof=%d lambda=%.12f eta=%.3e pod=%d",
                 level, dofmap.n_dof_total, trace.eigenvalue, etas.total,
                 basis.N)
        if etas.total <= 1e-14:
            break
        if level + 1 < n_refinements:
            mesh = bisect_refine(mesh, mark(etas, theta))
    return records, mesh
