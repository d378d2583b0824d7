import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from eigenrom.fem import (assemble, build_dofmap, eigen_residual,
                          interpolate, interpolate_free,
                          rayleigh_from_products)
from eigenrom.linalg import SYMMETRY_RTOL
from eigenrom.mesh import bisect_refine, generate_lshape, generate_square
from oracles import smallest_pencil_eigenpair

PI = math.pi


class TestDofmap:
    def test_p1_counts(self):
        mesh = generate_square("crisscross", 16, PI)
        dm = build_dofmap(mesh, 1)
        assert dm.n_dof_total == 545
        assert dm.n_free == 545 - mesh.boundary_node.sum()

    def test_p2_counts(self):
        mesh = generate_square("crisscross", 16, PI)
        dm = build_dofmap(mesh, 2)
        assert dm.n_dof_total == 2113

    def test_single_cell_free_dofs(self):
        mesh = generate_square("right", 1, 1.0)
        assert build_dofmap(mesh, 1).n_free == 0
        dm = build_dofmap(mesh, 2)
        # only the midpoint of the interior diagonal is free
        assert dm.n_free == 1
        assert np.allclose(dm.dof_coords[dm.free_dofs[0]], [0.5, 0.5])

    def test_p2_midpoint_coordinates(self):
        mesh = generate_square("right", 2, 1.0)
        dm = build_dofmap(mesh, 2)
        for t, dofs in enumerate(dm.cell_dofs):
            verts = mesh.nodes[mesh.triangles[t]]
            for i in range(3):
                mid = 0.5 * (verts[(i + 1) % 3] + verts[(i + 2) % 3])
                assert np.allclose(dm.dof_coords[dofs[3 + i]], mid, atol=1e-15)

    def test_boundary_edge_midpoints_not_free(self):
        mesh = generate_square("right", 3, 1.0)
        dm = build_dofmap(mesh, 2)
        coords = dm.dof_coords[dm.free_dofs]
        d = np.minimum.reduce([coords[:, 0], 1 - coords[:, 0],
                               coords[:, 1], 1 - coords[:, 1]])
        assert d.min() > 1e-12

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            build_dofmap(generate_square("right", 2, 1.0), 3)


def assemble_all_dofs(mesh, dm):
    """``assemble`` with every dof free (no Dirichlet elimination)."""
    return assemble(mesh, dataclasses.replace(
        dm, free_dofs=np.arange(dm.n_dof_total)))


class TestAssembly:
    def test_mass_sum_is_domain_area(self):
        # sum of all P1 mass entries = integral of 1 (partition of unity)
        mesh = generate_square("crisscross", 8, PI)
        _, M = assemble_all_dofs(mesh, build_dofmap(mesh, 1))
        assert M.sum() == pytest.approx(PI ** 2, rel=1e-13)

    def test_p2_mass_sum_is_domain_area(self):
        mesh = generate_lshape("mixed", 3)
        _, M = assemble_all_dofs(mesh, build_dofmap(mesh, 2))
        assert M.sum() == pytest.approx(3.0, rel=1e-12)

    def test_stiffness_annihilates_constants(self):
        mesh = generate_square("crisscross", 6, PI)
        A, _ = assemble_all_dofs(mesh, build_dofmap(mesh, 1))
        ones = np.ones(A.shape[0])
        assert np.abs(A @ ones).max() <= 1e-13

    @pytest.mark.parametrize("degree", [1, 2])
    def test_symmetric(self, degree):
        mesh = generate_lshape("crisscross", 2)
        dm = build_dofmap(mesh, degree)
        A, M = assemble(mesh, dm)
        for X in (A, M):
            assert abs(X - X.T).max() <= SYMMETRY_RTOL * abs(X).max()

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("mesh", [
        generate_square("crisscross", 3, PI), generate_square("right", 4, PI),
        generate_lshape("mixed", 2),
        bisect_refine(generate_lshape("crisscross", 2), range(0, 48, 5))],
        ids=["square-crisscross", "square-right", "lshape-mixed", "bisected"])
    def test_free_dof_operators_match_restricted_full_operators(self, mesh,
                                                                degree):
        # the same entries summed in another order: scipy sums duplicates
        # in the order its row sort leaves them, which depends on the
        # Dirichlet entries dropped from the row
        dm = build_dofmap(mesh, degree)
        free = dm.free_dofs
        for X, full in zip(assemble(mesh, dm), assemble_all_dofs(mesh, dm)):
            Y = full[free][:, free]
            assert np.array_equal(X.indptr, Y.indptr)
            assert np.array_equal(X.indices, Y.indices)
            assert np.abs(X.data - Y.data).max() <= 1e-15 * np.abs(Y.data).max()

    @pytest.mark.parametrize("degree", [1, 2])
    def test_assemble_returns_canonical_csr_array(self, degree):
        mesh = generate_lshape("crisscross", 2)
        dm = build_dofmap(mesh, degree)
        for X in assemble(mesh, dm):
            assert isinstance(X, sp.csr_array)
            assert X.shape == (dm.n_free, dm.n_free)
            assert X.has_canonical_format
            for r in range(X.shape[0]):
                cols = X.indices[X.indptr[r]:X.indptr[r + 1]]
                assert np.all(np.diff(cols) > 0)

    def test_patch_p1_linear_energy(self):
        # the P1 interpolant of f = x is exact: int |grad f|^2 = area
        mesh = generate_square("left", 5, PI)
        dm = build_dofmap(mesh, 1)
        A, _ = assemble_all_dofs(mesh, dm)
        f = interpolate(dm, lambda x, y: x)
        assert f @ (A @ f) == pytest.approx(PI ** 2, rel=1e-12)

    def test_patch_p2_quadratic_energy(self):
        # the P2 interpolant of f = x^2 is exact: int |grad f|^2 = 4 pi^4 / 3
        mesh = generate_square("crisscross", 4, PI)
        dm = build_dofmap(mesh, 2)
        A, _ = assemble_all_dofs(mesh, dm)
        f = interpolate(dm, lambda x, y: x ** 2)
        assert f @ (A @ f) == pytest.approx(4 * PI ** 4 / 3, rel=1e-12)

    def test_p2_mass_exact_quartic(self):
        # int x^2 y^2 over (0, pi)^2 = pi^6 / 9, quartic, exact for the rule
        mesh = generate_square("right", 3, PI)
        dm = build_dofmap(mesh, 2)
        _, M = assemble_all_dofs(mesh, dm)
        fx = interpolate(dm, lambda x, y: x * y)
        assert fx @ (M @ fx) == pytest.approx(PI ** 6 / 9, rel=1e-12)

    def test_mass_gershgorin_positive_definite(self):
        mesh = generate_lshape("crisscross", 3)
        for degree in (1, 2):
            _, m = assemble(mesh, build_dofmap(mesh, degree))
            diag = m.diagonal()
            offsum = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(diag)
            # P2 mass is not strictly diagonally dominant; smallest eigenvalue
            # must still be positive
            if np.all(diag > offsum):
                continue
            import scipy.sparse.linalg as spla
            w = spla.eigsh(m, k=1, which="SA", return_eigenvectors=False)
            assert w[0] > 0

    def test_triangle_order_invariance(self, rng):
        from eigenrom.mesh import Mesh
        mesh = generate_square("crisscross", 4, PI)
        perm = rng.permutation(mesh.n_triangles)
        shuffled = Mesh(mesh.nodes.copy(), mesh.triangles[perm],
                        mesh.refinement_edge[perm])
        A1, M1 = assemble_all_dofs(mesh, build_dofmap(mesh, 1))
        A2, M2 = assemble_all_dofs(shuffled, build_dofmap(shuffled, 1))
        for X1, X2 in ((A1, A2), (M1, M2)):
            diff = abs(X1 - X2).max()
            assert diff <= 1e-15 * abs(X1).max()

    def test_smallest_eigenvalue_matches_reference(self):
        # independent shift-invert Lanczos check of the assembled pencil
        mesh = generate_square("crisscross", 16, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        lam, _ = smallest_pencil_eigenpair(A, M)
        assert lam == pytest.approx(2.005363995049, abs=1e-9)


def rayleigh_quotient(A, M, u):
    return rayleigh_from_products(u, A @ u, M @ u)


class TestRayleighQuotient:
    def test_diagonal(self):
        A = sp.csr_array(np.diag([2.0, 6.0]))
        M = sp.csr_array(np.eye(2))
        assert rayleigh_quotient(A, M, np.array([1.0, 0.0])) == 2.0

    def test_lower_bound_on_square(self, rng):
        mesh = generate_square("right", 4, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        for _ in range(20):
            u = rng.standard_normal(A.shape[0])
            assert rayleigh_quotient(A, M, u) >= 2.0

    def test_eigenpair_consistency(self):
        mesh = generate_square("crisscross", 8, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        lam, u = smallest_pencil_eigenpair(A, M)
        assert rayleigh_quotient(A, M, u) == pytest.approx(lam, rel=1e-12)
        assert eigen_residual(A, M, u, lam) <= 1e-8

    def test_zero_vector_rejected(self):
        A = sp.csr_array(np.eye(2))
        with pytest.raises(ValueError):
            rayleigh_quotient(A, A, np.zeros(2))


class TestEigenResidual:
    def test_perturbation_bound(self):
        mesh = generate_square("crisscross", 8, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        lam, u = smallest_pencil_eigenpair(A, M)
        base = eigen_residual(A, M, u, lam)
        delta = 1e-4
        # || A u - (lam + d) M u || <= ||A u - lam M u|| + d ||M u||
        assert eigen_residual(A, M, u, lam + delta) <= base + delta + 1e-12

    def test_positive_for_non_eigenvector(self, rng):
        mesh = generate_square("right", 4, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        u = rng.standard_normal(A.shape[0])
        lam = rayleigh_quotient(A, M, u)
        assert eigen_residual(A, M, u, lam) > 1e-6

    def test_zero_vector_rejected(self):
        A = sp.csr_array(np.eye(3))
        with pytest.raises(ValueError):
            eigen_residual(A, A, np.zeros(3), 1.0)


class TestFields:
    def test_full_vector_layout(self):
        mesh = generate_square("right", 2, 1.0)
        dm = build_dofmap(mesh, 1)
        full = dm.full_vector(np.ones(dm.n_free))
        assert np.array_equal(full[dm.free_dofs], np.ones(dm.n_free))
        assert np.all(full[mesh.boundary_node] == 0)

    def test_interpolate_free_vanishing_boundary(self):
        mesh = generate_square("crisscross", 4, PI)
        dm = build_dofmap(mesh, 2)
        u = interpolate_free(dm, lambda x, y: np.sin(x) * np.sin(y))
        assert u.shape == (dm.n_free,)
        assert np.abs(u).max() <= 1.0

    def test_length_mismatch_rejected(self):
        mesh = generate_square("right", 2, 1.0)
        dm = build_dofmap(mesh, 1)
        with pytest.raises(ValueError):
            dm.full_vector(np.ones(dm.n_free + 1))
