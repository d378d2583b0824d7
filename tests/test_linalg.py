import numpy as np
import pytest
import scipy.sparse as sp

from eigenrom.linalg import (NonconvergenceError, NotSpdError, SolverError,
                             norm2, spd_solve, sym_eig_desc)
from oracles import power_svd


def csr_identity(n):
    return sp.csr_array(np.eye(n))


def random_spd(rng, n):
    # B B^T + n I: comfortably SPD, condition number O(1)
    B = rng.standard_normal((n, n))
    return sp.csr_array(B @ B.T + n * np.eye(n))


@pytest.mark.parametrize("error", [NotSpdError, NonconvergenceError])
def test_solver_errors_share_one_base_and_are_not_input_errors(error):
    # the CLI exits 2 exactly for a SolverError, 1 for a ValueError
    assert issubclass(error, SolverError)
    assert not issubclass(error, ValueError)


# every length up to 64, and two of the order of the workloads' systems
BIT_LENGTHS = list(range(1, 65)) + [503, 8011]


def test_norm2_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in BIT_LENGTHS:
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        assert norm2(v) == np.linalg.norm(v), n


class TestSpdSolve:
    def test_identity(self, rng):
        b = rng.standard_normal(17)
        assert np.allclose(spd_solve(csr_identity(17), b), b, rtol=0, atol=1e-14)

    def test_two_by_two_hand_inverse(self):
        K = sp.csr_array([[2.0, 1.0], [1.0, 2.0]])
        x = spd_solve(K, np.array([1.0, 0.0]))
        assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], rtol=0, atol=1e-14)

    def test_scalar_system(self):
        K = sp.csr_array([[4.0]])
        assert spd_solve(K, np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_rhs(self):
        K = sp.csr_array([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(spd_solve(K, np.zeros(2)), np.zeros(2))

    def test_residual_contract_on_random_spd(self):
        # 100 seeded instances, sizes 5..200
        rng = np.random.default_rng(7)
        sizes = rng.integers(5, 201, size=100)
        for n in sizes:
            K = random_spd(rng, int(n))
            b = rng.standard_normal(int(n))
            x = spd_solve(K, b, rel_tol=1e-12)
            res = np.linalg.norm(K @ x - b)
            assert res <= 1e-12 * np.linalg.norm(b)

    def test_warm_start_converges(self, rng):
        K = random_spd(rng, 40)
        b = rng.standard_normal(40)
        x1 = spd_solve(K, b)
        x2 = spd_solve(K, b, x0=x1 + 1e-6 * rng.standard_normal(40))
        assert np.linalg.norm(K @ x2 - b) <= 1e-12 * np.linalg.norm(b)

    def test_nonpositive_diagonal_rejected(self):
        K = sp.csr_array([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NotSpdError):
            spd_solve(K, np.ones(2))

    def test_indefinite_detected(self):
        K = sp.csr_array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3, -1
        with pytest.raises((NotSpdError, NonconvergenceError)):
            spd_solve(K, np.array([1.0, -1.0]))

    def test_unreachable_tolerance_reports_residual(self, rng):
        K = random_spd(rng, 30)
        b = rng.standard_normal(30)
        with pytest.raises(NonconvergenceError) as info:
            spd_solve(K, b, rel_tol=1e-300)
        assert info.value.residual > 0

    def test_bad_rel_tol(self, rng):
        with pytest.raises(ValueError):
            spd_solve(csr_identity(3), np.ones(3), rel_tol=2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spd_solve(csr_identity(3), np.ones(4))

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="empty system"):
            spd_solve(sp.csr_array((0, 0)), np.zeros(0))

    def test_warm_start_at_the_solution_is_returned(self, rng):
        b = rng.standard_normal(5)
        assert np.array_equal(spd_solve(csr_identity(5), b, x0=b), b)

    def test_deterministic(self, rng):
        K = random_spd(rng, 50)
        b = rng.standard_normal(50)
        assert np.array_equal(spd_solve(K, b), spd_solve(K, b))


class TestSymEigDesc:
    def test_diagonal(self):
        w, V = sym_eig_desc(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [3.0, 2.0, 1.0])
        perm = np.zeros((3, 3))
        perm[0, 0] = perm[2, 1] = perm[1, 2] = 1.0
        assert np.allclose(np.abs(V), perm, atol=1e-15)

    def test_two_by_two_hand_values(self):
        w, V = sym_eig_desc(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(V[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(V[:, 1]), [s, s], atol=1e-12)
        assert abs(np.dot(V[:, 0], V[:, 1])) <= 1e-12

    def test_gram_matrix_vs_power_iteration_oracle(self):
        rng = np.random.default_rng(42)
        S = rng.standard_normal((20, 5))
        w, _ = sym_eig_desc(S.T @ S)
        sig, _, _ = power_svd(S)
        assert np.allclose(w, sig ** 2, rtol=1e-9)

    def test_eigenpair_residual_and_orthonormality(self, rng):
        C = rng.standard_normal((40, 40))
        C = 0.5 * (C + C.T)
        w, V = sym_eig_desc(C)
        norm_f = np.linalg.norm(C)
        for i in range(40):
            assert np.linalg.norm(C @ V[:, i] - w[i] * V[:, i]) <= 1e-10 * norm_f
        assert np.abs(V.T @ V - np.eye(40)).max() <= 1e-12

    def test_reconstruction(self, rng):
        C = rng.standard_normal((25, 25))
        C = 0.5 * (C + C.T)
        w, V = sym_eig_desc(C)
        assert (np.linalg.norm(C - (V * w) @ V.T)
                <= 1e-10 * np.linalg.norm(C))

    def test_descending_order(self, rng):
        C = rng.standard_normal((30, 30))
        C = 0.5 * (C + C.T)
        w, _ = sym_eig_desc(C)
        assert np.all(np.diff(w) <= 0)

    def test_non_square_and_oversized_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig_desc(np.ones(3))
        # a zero-stride view: refused by its shape, none of its 800 MB is made
        with pytest.raises(ValueError, match="too large"):
            sym_eig_desc(np.broadcast_to(0.0, (10001, 10001)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig_desc(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_repeated_and_clustered_eigenvalues(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        C = (Q * [3.0, 3.0, 3.0, 1.0, 1e-12]) @ Q.T
        C = 0.5 * (C + C.T)
        w, V = sym_eig_desc(C)
        assert np.all(np.diff(w) <= 0)
        assert np.allclose(w, [3.0, 3.0, 3.0, 1.0, 1e-12], rtol=0, atol=1e-12)
        assert np.abs(V.T @ V - np.eye(5)).max() <= 1e-12
        assert np.abs(C @ V - V * w).max() <= 1e-12 * np.linalg.norm(C, 2)

    def test_empty_and_single(self):
        w, V = sym_eig_desc(np.empty((0, 0)))
        assert w.size == 0
        w, V = sym_eig_desc(np.array([[5.0]]))
        assert w[0] == 5.0 and V[0, 0] == 1.0
