"""P1/P2 Lagrange assembly of mass and stiffness matrices on triangles.

Dirichlet conditions on the whole boundary are imposed by elimination: the
assembled operators act on the free (non-Dirichlet) degrees of freedom only,
which keeps both matrices symmetric positive definite.

Element integrals: P1 uses the exact closed-form triangle formulas; P2 uses
a six-point symmetric quadrature rule that is exact for quartics, so both
the mass (degree-4 integrand) and stiffness (degree-2 integrand) entries are
exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mesh import Mesh, edge_table, triangle_areas

if TYPE_CHECKING:
    import scipy.sparse as sp

# six-point symmetric triangle rule, exact for polynomials of degree 4;
# barycentric points and weights (weights sum to one)
_QA1, _QW1 = 0.445948490915965, 0.223381589678011
_QA2, _QW2 = 0.091576213509771, 0.109951743655322
QUAD_POINTS = np.array([
    [_QA1, _QA1, 1 - 2 * _QA1],
    [_QA1, 1 - 2 * _QA1, _QA1],
    [1 - 2 * _QA1, _QA1, _QA1],
    [_QA2, _QA2, 1 - 2 * _QA2],
    [_QA2, 1 - 2 * _QA2, _QA2],
    [1 - 2 * _QA2, _QA2, _QA2],
])
QUAD_WEIGHTS = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])


@dataclass(eq=False)
class DofMap:
    """Degree-of-freedom numbering for P1 or P2 Lagrange elements.

    Vertices come first in mesh order; for P2 the edge-midpoint dofs follow,
    numbered by the lexicographic order of their (min, max) vertex pairs.
    ``cell_dofs`` lists, per triangle, the three vertex dofs followed (for
    P2) by the midpoint dofs of the edges opposite each vertex.
    """

    degree: int
    n_dof_total: int
    free_dofs: np.ndarray
    cell_dofs: np.ndarray
    dof_coords: np.ndarray
    mesh: Mesh

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def full_vector(self, coeffs) -> np.ndarray:
        """Expand free-dof coefficients to all dofs (zeros on the boundary)."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.n_free,):
            raise ValueError("coefficient length must match the free dof count")
        out = np.zeros(self.n_dof_total)
        out[self.free_dofs] = coeffs
        return out


@dataclass(eq=False)
class DiscreteField:
    """Finite element function given by its free-dof coefficients."""

    dofmap: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.dofmap.n_free,):
            raise ValueError("coefficient length must match the free dof count")

    def full(self) -> np.ndarray:
        return self.dofmap.full_vector(self.coeffs)


def build_dofmap(mesh: Mesh, degree: int) -> DofMap:
    """Number the dofs of the P``degree`` space with Dirichlet elimination."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if degree == 1:
        dirichlet = mesh.boundary_node
        return DofMap(1, mesh.n_nodes, np.flatnonzero(~dirichlet),
                      mesh.triangles.copy(), mesh.nodes.copy(), mesh)

    edges, tri_edges, edge_tris = edge_table(mesh)
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    cell_dofs = np.hstack([mesh.triangles, mesh.n_nodes + tri_edges])
    boundary_edge = edge_tris[:, 1] < 0
    dirichlet = np.concatenate([mesh.boundary_node, boundary_edge])
    coords = np.vstack([mesh.nodes, midpoints])
    return DofMap(2, mesh.n_nodes + len(edges), np.flatnonzero(~dirichlet),
                  cell_dofs, coords, mesh)


def _barycentric_gradients(mesh: Mesh):
    """Per-triangle gradients of the barycentric coordinates, shape (T, 3, 2),
    together with the (positive) triangle areas."""
    p = mesh.nodes[mesh.triangles]
    area = triangle_areas(mesh)
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        # grad lambda_i = rot90(p_b - p_a) / (2 area)
        d = p[:, b] - p[:, a]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return grads, area


def p2_values(lam: np.ndarray) -> np.ndarray:
    """P2 basis values at barycentric points; shape (..., 6) for input (..., 3)."""
    lam = np.asarray(lam, dtype=np.float64)
    vals = np.empty(lam.shape[:-1] + (6,))
    for i in range(3):
        vals[..., i] = lam[..., i] * (2 * lam[..., i] - 1)
        vals[..., 3 + i] = 4 * lam[..., (i + 1) % 3] * lam[..., (i + 2) % 3]
    return vals


def p2_dlambda(lam: np.ndarray) -> np.ndarray:
    """Derivatives d(phi_i)/d(lambda_k) of the P2 basis, shape (..., 6, 3)."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros(lam.shape[:-1] + (6, 3))
    for i in range(3):
        out[..., i, i] = 4 * lam[..., i] - 1
        out[..., 3 + i, (i + 1) % 3] = 4 * lam[..., (i + 2) % 3]
        out[..., 3 + i, (i + 2) % 3] = 4 * lam[..., (i + 1) % 3]
    return out


def assemble_full(mesh: Mesh, dofmap: DofMap
                  ) -> tuple[sp.csr_array, sp.csr_array]:
    """Stiffness and mass matrices over all dofs (no Dirichlet elimination)."""
    # imported here, like splu in continuation.step_solver: scipy.sparse is
    # slow to import, and `import eigenrom.cli` should not pay for it
    import scipy.sparse as sp

    area = triangle_areas(mesh)
    if np.any(area <= 0):
        raise ValueError("degenerate triangle encountered during assembly")
    grads, _ = _barycentric_gradients(mesh)
    n_loc = 3 if dofmap.degree == 1 else 6

    if dofmap.degree == 1:
        # exact closed forms: K_ij = area * grad_i . grad_j, M = area/12 (1 + I)
        ke = np.einsum("tid,tjd->tij", grads, grads) * area[:, None, None]
        m_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
        me = area[:, None, None] * m_ref
    else:
        dl = p2_dlambda(QUAD_POINTS)                       # (Q, 6, 3)
        # W[i,j,k,l] = sum_q w_q dphi_i/dlam_k dphi_j/dlam_l
        w4 = np.einsum("q,qik,qjl->ijkl", QUAD_WEIGHTS, dl, dl)
        gram = np.einsum("tkd,tld->tkl", grads, grads)     # (T, 3, 3)
        ke = np.einsum("ijkl,tkl->tij", w4, gram) * area[:, None, None]
        phi = p2_values(QUAD_POINTS)                       # (Q, 6)
        m_ref = np.einsum("q,qi,qj->ij", QUAD_WEIGHTS, phi, phi)
        me = area[:, None, None] * m_ref

    # int32 indices where they fit, as scipy's sparse matrices choose them:
    # half the index memory, and SuperLU takes them without a copy
    idx = dofmap.cell_dofs.astype(sp.get_index_dtype(maxval=dofmap.n_dof_total))
    rows = np.repeat(idx, n_loc, axis=1).reshape(-1)
    cols = np.tile(idx, (1, n_loc)).reshape(-1)
    shape = (dofmap.n_dof_total, dofmap.n_dof_total)
    A = sp.coo_array((ke.reshape(-1), (rows, cols)), shape=shape).tocsr()
    M = sp.coo_array((me.reshape(-1), (rows, cols)), shape=shape).tocsr()
    return A, M


def assemble(mesh: Mesh, dofmap: DofMap
             ) -> tuple[sp.csr_array, sp.csr_array]:
    """Stiffness and mass matrices restricted to the free dofs."""
    A, M = assemble_full(mesh, dofmap)
    free = dofmap.free_dofs
    return A[free][:, free], M[free][:, free]


def rayleigh_quotient(A, M, U) -> float:
    """(U^T A U) / (U^T M U)."""
    return rayleigh_from_products(U, A @ U, M @ U)


def rayleigh_from_products(U, AU, MU) -> float:
    """The Rayleigh quotient of U from the products A U and M U."""
    denom = float(U @ MU)
    if denom <= 0:
        raise ValueError("U^T M U <= 0: zero vector or mass matrix not SPD")
    return float(U @ AU) / denom


def eigen_residual(A, M, U, lam: float) -> float:
    """||A U - lam M U|| / ||M U||, a mesh-independent eigenpair diagnostic."""
    U = np.asarray(U, dtype=np.float64)
    if not np.any(U):
        raise ValueError("residual of the zero vector is undefined")
    mu = M @ U
    return float(np.linalg.norm(A @ U - lam * mu) / np.linalg.norm(mu))


def interpolate(dofmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation of ``f(x, y)`` on all dofs of the space."""
    return np.asarray(f(dofmap.dof_coords[:, 0], dofmap.dof_coords[:, 1]),
                      dtype=np.float64)


def interpolate_free(dofmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation restricted to the free dofs."""
    return interpolate(dofmap, f)[dofmap.free_dofs]
