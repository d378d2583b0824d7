"""P1/P2 Lagrange elements on triangles: the dof numbering, the local basis,
and the assembly of the mass and stiffness matrices.

``local_basis`` holds the basis formulas and ``ELEMENTS`` each degree's mass
and stiffness tables; assembly reads the tables and ``adapt.estimate`` the
basis, with no degree branch of their own.  P1's tables are exact closed
forms; P2's use a six-point rule exact for quartics, so exact up to roundoff.

Dirichlet conditions on the whole boundary are imposed by elimination: the
assembled operators act on the free (non-Dirichlet) degrees of freedom only,
which keeps both matrices symmetric positive definite.  ``assemble`` drops
the Dirichlet rows and columns from the element triplets before the one
sparse conversion per matrix.  The triangle areas and barycentric gradients
are the mesh's cached properties (``mesh.areas``, ``mesh.gradients``); the
gradients' Gram matrices are formed here, their one use.  The P2 numbering
is read from the mesh: ``six_node_cells``, ``boundary_edge``, ``edge_midpoints``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mesh import Mesh

if TYPE_CHECKING:
    import scipy.sparse as sp

# six-point symmetric triangle rule, exact for polynomials of degree 4;
# barycentric points and weights (weights sum to one within 1e-15)
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

    Vertices come first in mesh order; P2's edge dofs follow in the order of
    ``mesh.edge_table``, and its ``cell_dofs`` are ``mesh.six_node_cells``.
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

    dirichlet = np.concatenate([mesh.boundary_node, mesh.boundary_edge])
    return DofMap(2, len(dirichlet), np.flatnonzero(~dirichlet), mesh.six_node_cells,
                  np.vstack([mesh.nodes, mesh.edge_midpoints]))


def local_basis(degree: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """Values (..., n_loc) and lambda-derivatives (..., n_loc, 3) of the
    P``degree`` basis at barycentric points (..., 3): P1 is lambda_i; P2 is
    lambda_i (2 lambda_i - 1) at vertex i and 4 lambda_{i+1} lambda_{i+2} on
    the edge opposite it."""
    lam = np.asarray(lam, dtype=np.float64)
    if degree == 1:
        return lam, np.broadcast_to(np.eye(3), lam.shape + (3,))
    vals, dlam = np.empty(lam.shape[:-1] + (6,)), np.zeros(lam.shape[:-1] + (6, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        vals[..., i] = lam[..., i] * (2 * lam[..., i] - 1)
        vals[..., 3 + i] = 4 * lam[..., j] * lam[..., k]
        dlam[..., i, i] = 4 * lam[..., i] - 1
        dlam[..., 3 + i, j] = 4 * lam[..., k]
        dlam[..., 3 + i, k] = 4 * lam[..., j]
    return vals, dlam


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """One degree's tables per unit area: ``mass`` (phi_i, phi_j), and
    ``stiffness`` W, with K_ij = sum_kl W[i,j,k,l] grad lam_k . grad lam_l."""

    mass: np.ndarray
    stiffness: np.ndarray


_P2_VALS, _P2_DLAM = local_basis(2, QUAD_POINTS)
# P1 in closed form: the six weights sum to one only within 1e-15
ELEMENTS = {
    1: ReferenceElement((np.ones((3, 3)) + np.eye(3)) / 12.0,
                        np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))),
    2: ReferenceElement(np.einsum("q,qi,qj->ij", QUAD_WEIGHTS, _P2_VALS, _P2_VALS),
                        np.einsum("q,qik,qjl->ijkl", QUAD_WEIGHTS, _P2_DLAM, _P2_DLAM)),
}


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

    element = ELEMENTS[dofmap.degree]
    area = mesh.areas[:, None, None]
    gx, gy = mesh.gradients[..., 0], mesh.gradients[..., 1]
    gram = np.empty((mesh.n_triangles, 3, 3))      # grad lam_i . grad lam_j
    for i in range(3):
        for j in range(3):
            gram[:, i, j] = gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]
    ke = np.einsum("ijkl,tkl->tij", element.stiffness, gram) * area
    me = area * element.mass
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
