"""P1/P2 Lagrange assembly of mass and stiffness matrices on triangles.

Dirichlet conditions on the whole boundary are imposed by elimination: the
assembled operators act on the free (non-Dirichlet) degrees of freedom only,
which keeps both matrices symmetric positive definite.  ``assemble`` drops
the Dirichlet rows and columns from the element triplets before the one
sparse conversion per matrix.  The triangle areas and barycentric gradients
are the mesh's cached properties (``mesh.areas``, ``mesh.gradients``), shared
with the error estimator.

Element integrals: P1 uses the exact closed-form triangle formulas; P2 uses
a six-point symmetric quadrature rule that is exact for quartics, so both
the mass (degree-4 integrand) and stiffness (degree-2 integrand) entries are
exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import norm2
from .mesh import Mesh

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


def check_degree(degree: int) -> None:
    if degree not in (1, 2):
        raise ValueError("fe degree must be 1 or 2")


def build_dofmap(mesh: Mesh, degree: int) -> DofMap:
    """Number the dofs of the P``degree`` space with Dirichlet elimination."""
    check_degree(degree)
    if degree == 1:
        dirichlet = mesh.boundary_node
        return DofMap(1, mesh.n_nodes, np.flatnonzero(~dirichlet),
                      mesh.triangles, mesh.nodes)

    edges, tri_edges, edge_tris = mesh.edge_table
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    cell_dofs = np.hstack([mesh.triangles, mesh.n_nodes + tri_edges])
    boundary_edge = edge_tris[:, 1] < 0
    dirichlet = np.concatenate([mesh.boundary_node, boundary_edge])
    coords = np.vstack([mesh.nodes, midpoints])
    return DofMap(2, mesh.n_nodes + len(edges), np.flatnonzero(~dirichlet),
                  cell_dofs, coords)


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


# element matrices per unit area, independent of the triangle:
# P1 mass area/12 (1 + I); P2 mass sum_q w_q phi_i phi_j; P2 stiffness
# sum_kl W[i,j,k,l] grad lam_k . grad lam_l with
# W[i,j,k,l] = sum_q w_q dphi_i/dlam_k dphi_j/dlam_l
_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0
_P2_MASS = np.einsum("q,qi,qj->ij", QUAD_WEIGHTS, p2_values(QUAD_POINTS),
                     p2_values(QUAD_POINTS))
_P2_STIFFNESS = np.einsum("q,qik,qjl->ijkl", QUAD_WEIGHTS,
                          p2_dlambda(QUAD_POINTS), p2_dlambda(QUAD_POINTS))


def assemble(mesh: Mesh, dofmap: DofMap
             ) -> tuple[sp.csr_array, sp.csr_array]:
    """Stiffness and mass matrices restricted to the free dofs.

    Free dof ``dofmap.free_dofs[i]`` is row and column i; element entries at
    a Dirichlet dof are dropped before the sparse conversion.  A dofmap whose
    free dofs are all dofs gives the operators without Dirichlet elimination.
    """
    # imported here, like splu in continuation.step_solver: scipy.sparse is
    # slow to import, and `import eigenrom.cli` should not pay for it
    import scipy.sparse as sp

    area = mesh.areas
    _, gram = mesh.gradients
    if dofmap.degree == 1:
        # exact closed form: K_ij = area * grad_i . grad_j
        ke = gram * area[:, None, None]
        me = area[:, None, None] * _P1_MASS
    else:
        ke = np.einsum("ijkl,tkl->tij", _P2_STIFFNESS, gram) * area[:, None, None]
        me = area[:, None, None] * _P2_MASS
    n_loc = ke.shape[1]

    n = dofmap.n_free
    free_index = np.full(dofmap.n_dof_total, -1, dtype=np.int64)
    free_index[dofmap.free_dofs] = np.arange(n)
    # int32 indices where they fit, as scipy's sparse matrices choose them:
    # half the index memory, and SuperLU takes them without a copy
    idx = free_index[dofmap.cell_dofs].astype(sp.get_index_dtype(maxval=n))
    valid = idx >= 0
    keep = (valid[:, :, None] & valid[:, None, :]).reshape(-1)
    rows = np.repeat(idx, n_loc, axis=1).reshape(-1)[keep]
    cols = np.tile(idx, (1, n_loc)).reshape(-1)[keep]
    return tuple(sp.coo_array((e.reshape(-1)[keep], (rows, cols)),
                              shape=(n, n)).tocsr() for e in (ke, me))


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
    return residual_from_products(A @ U, M @ U, lam)


def residual_from_products(AU, MU, lam: float) -> float:
    """||A U - lam M U|| / ||M U|| from the products A U and M U."""
    return norm2(AU - lam * MU) / norm2(MU)


def interpolate(dofmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation of ``f(x, y)`` on all dofs of the space."""
    return np.asarray(f(dofmap.dof_coords[:, 0], dofmap.dof_coords[:, 1]),
                      dtype=np.float64)


def interpolate_free(dofmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation restricted to the free dofs."""
    return interpolate(dofmap, f)[dofmap.free_dofs]
