import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from eigenrom.pod import (build_pod, exact_reference_eps, select_dim,
                          singular_values, write_singular_values)
from oracles import power_svd, projection_error_sq


class TestBuildPod:
    def test_orthogonal_columns_are_recovered(self):
        S = np.zeros((6, 2))
        S[0, 0] = 3.0
        S[3, 1] = 1.0
        basis = build_pod(S, 2)
        assert np.allclose(basis.singular_values, [3.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(basis.V[:, 0]), S[:, 0] / 3.0, atol=1e-14)
        assert np.allclose(np.abs(basis.V[:, 1]), S[:, 1], atol=1e-14)

    def test_single_column(self, rng):
        u = rng.standard_normal(12)
        basis = build_pod(u[:, None], 1)
        assert basis.singular_values[0] == pytest.approx(np.linalg.norm(u), rel=1e-14)
        aligned = basis.V[:, 0] * np.sign(u[np.abs(u).argmax()])
        assert np.allclose(aligned, u / np.linalg.norm(u), atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(2024)
        S = rng.standard_normal((50, 20))
        sig_ref, left_ref, _ = power_svd(S)
        basis = build_pod(S, 20)
        assert np.allclose(basis.singular_values, sig_ref[:len(basis.singular_values)], rtol=1e-8)
        for j in range(8):      # dominant, well-separated directions
            dot = abs(float(basis.V[:, j] @ left_ref[:, j]))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality(self, rng):
        S = rng.standard_normal((40, 15))
        basis = build_pod(S, 10)
        gram = basis.V.T @ basis.V
        assert np.abs(gram - np.eye(10)).max() <= 1e-10

    def test_sign_convention(self, rng):
        S = rng.standard_normal((30, 6))
        basis = build_pod(S, 6)
        for j in range(6):
            col = basis.V[:, j]
            assert col[np.abs(col).argmax()] > 0

    def test_accepts_snapshot_matrix(self, runs):
        # the snapshot array of a full-order run, and a strided column view
        # of it as ``rom.solve_level`` passes, give the basis of a copy
        _, _, _, _, _, _, snaps = runs.fom("square", "crisscross", 16, 1)
        for S in (snaps, snaps[:, 1::2]):
            basis = build_pod(S, 3)
            assert basis.V.shape == (481, 3)
            assert np.array_equal(basis.V, build_pod(S.copy(), 3).V)

    def test_rank_errors(self, rng):
        S = rng.standard_normal((10, 3))
        S[:, 2] = 0.0                       # exactly rank 2
        with pytest.raises(ValueError, match="rank is 2"):
            build_pod(S, 3)
        with pytest.raises(ValueError):
            build_pod(rng.standard_normal((10, 3)), 4)
        with pytest.raises(ValueError):
            build_pod(np.empty((4, 0)), 1)
        with pytest.raises(ValueError):
            build_pod(np.zeros((4, 2)), 1)

    def test_energy_tolerance_matches_two_step_selection(self, rng):
        S = rng.standard_normal((30, 4)) @ np.diag([1.0, 1e-2, 1e-5, 1e-9]) \
            @ rng.standard_normal((4, 12))
        basis = build_pod(S, eps=1e-6)
        n_pod = select_dim(singular_values(S), 1e-6)
        assert basis.N == n_pod == 3
        assert np.array_equal(basis.V, build_pod(S, n_pod).V)
        assert np.array_equal(basis.singular_values, singular_values(S))

    def test_exactly_one_of_n_and_eps(self, rng):
        S = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="exactly one"):
            build_pod(S)
        with pytest.raises(ValueError, match="exactly one"):
            build_pod(S, 2, eps=1e-3)

    def test_graded_spectrum_below_the_correlation_noise_floor(self):
        # sigma_i = 10^-i, i = 0..13, on a 40 x 300 matrix: forming X^T X
        # would lose every sigma_i / sigma_1 below ~1e-8 to rounding; the
        # thin SVD resolves all 14.  eps = 3e-7 keeps the selection off a
        # tie (at eps = 1e-7, sigma_8 = eps sits on the boundary and N is 7
        # or 8 with the draw of Q1, Q2)
        rng = np.random.default_rng(7)
        sigma = 10.0 ** -np.arange(14)
        Q1, _ = np.linalg.qr(rng.standard_normal((40, 14)))
        Q2, _ = np.linalg.qr(rng.standard_normal((300, 14)))
        basis = build_pod((Q1 * sigma) @ Q2.T, eps=3e-7)
        assert len(basis.singular_values) == 14
        assert basis.N == select_dim(sigma, 3e-7) == 7
        assert np.abs(basis.singular_values - sigma).max() <= 1e-12 * sigma[0]
        assert np.abs(basis.V.T @ basis.V - np.eye(7)).max() <= 1e-12

    @given(st.integers(2, 30), st.integers(1, 60), st.integers(1, 30),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_low_rank_matrices(self, n, k, r, seed):
        # k is drawn on both sides of n: tall and wide snapshot matrices
        rng = np.random.default_rng(seed)
        r = min(r, n, k)
        S = rng.standard_normal((n, r)) @ rng.standard_normal((r, k))
        sv = singular_values(S)
        assert len(sv) <= min(n, k)
        n_keep = int(rng.integers(1, len(sv) + 1))
        basis = build_pod(S, n_keep)
        assert len(basis.singular_values) == len(sv)
        assert np.abs(basis.V.T @ basis.V - np.eye(n_keep)).max() <= 1e-12
        tail = float(np.sum(sv[n_keep:] ** 2))
        assert projection_error_sq(S, basis.V) == pytest.approx(
            tail, rel=1e-9, abs=1e-12 * float(np.sum(sv ** 2)))

    def test_singular_values_descending_positive(self, rng):
        sv = singular_values(rng.standard_normal((25, 9)))
        assert np.all(sv > 0)
        assert np.all(np.diff(sv) <= 0)


class TestSelectDim:
    def test_arithmetic_example(self):
        # energies (4, 1, 1): one mode holds 4/6 < 0.8, two hold 5/6 >= 0.8
        assert select_dim([2.0, 1.0, 1.0], np.sqrt(0.2)) == 2

    def test_loose_tolerance_selects_one(self):
        assert select_dim([2.0, 1.0, 1.0], 0.999) == 1

    def test_machine_tolerance_selects_all(self):
        assert select_dim([2.0, 1.0, 1.0], 1e-16) == 3

    def test_tiny_tail_not_lost_to_cancellation(self):
        assert select_dim([1.0, 1e-9, 1e-9], 1e-16) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            select_dim([], 0.5)
        with pytest.raises(ValueError):
            select_dim([1.0], 0.0)
        with pytest.raises(ValueError):
            select_dim([1.0], 1.0)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                    max_size=30),
           st.floats(min_value=1e-8, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_selected_dim_is_minimal(self, values, eps):
        sv = np.sort(np.asarray(values))[::-1]
        n = select_dim(sv, eps)
        energy = sv ** 2
        total = energy.sum()
        assert 1 <= n <= len(sv)
        assert energy[:n].sum() >= (1 - eps ** 2) * total - 1e-12 * total
        if n > 1:
            assert energy[:n - 1].sum() < (1 - eps ** 2) * total + 1e-12 * total


class TestProjectionError:
    def test_full_basis_gives_zero(self, rng):
        S = rng.standard_normal((30, 8))
        basis = build_pod(S, 8)
        err = projection_error_sq(S, basis.V)
        assert err <= 1e-18 * np.linalg.norm(S) ** 2 + 1e-20

    def test_empty_basis_gives_total_energy(self, rng):
        S = rng.standard_normal((15, 4))
        assert projection_error_sq(S, np.empty((15, 0))) == pytest.approx(
            np.linalg.norm(S) ** 2, rel=1e-14)

    def test_tail_identity_against_oracle(self):
        # projection error onto the leading N modes equals the squared
        # singular-value tail (best rank-N approximation error)
        rng = np.random.default_rng(11)
        S = rng.standard_normal((50, 20))
        sig_ref, _, _ = power_svd(S)
        basis = build_pod(S, 5)
        tail = float(np.sum(sig_ref[5:] ** 2))
        assert projection_error_sq(S, basis.V) == pytest.approx(tail, rel=1e-10)

    def test_tail_identity_many_random_instances(self):
        rng = np.random.default_rng(5150)
        for trial in range(55):
            m = int(rng.integers(8, 40))
            k = int(rng.integers(2, min(m, 12)))
            S = rng.standard_normal((m, k))
            sv = singular_values(S)
            n_keep = min(int(rng.integers(1, k + 1)), len(sv))
            basis = build_pod(S, n_keep)
            tail = float(np.sum(sv[n_keep:] ** 2))
            got = projection_error_sq(S, basis.V)
            assert got == pytest.approx(tail, rel=1e-9, abs=1e-12)

    def test_optimality_against_random_bases(self, rng):
        S = rng.standard_normal((25, 10))
        basis = build_pod(S, 4)
        best = projection_error_sq(S, basis.V)
        for _ in range(20):
            W, _ = np.linalg.qr(rng.standard_normal((25, 4)))
            assert projection_error_sq(S, W) >= best - 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            projection_error_sq(rng.standard_normal((10, 3)),
                                rng.standard_normal((9, 2)))


class TestExactReferenceEps:
    def test_zero_for_identical_directions(self, rng):
        M = sp.csr_array(np.eye(6))
        u = rng.standard_normal(6)
        assert exact_reference_eps(M, u, 2.5 * u) <= 1e-12
        assert exact_reference_eps(M, u, -u) <= 1e-12   # sign aligned first

    def test_orthogonal_directions(self):
        M = sp.csr_array(np.eye(2))
        eps = exact_reference_eps(M, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert eps == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_discretization_error_scale(self, runs):
        # against the interpolated exact eigenfunction the tolerance is the
        # relative L2 eigenvector error, which is O(h^2) for P1
        from eigenrom.fem import interpolate_free
        _, dm, _, M, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        u_exact = interpolate_free(dm, lambda x, y: np.sin(x) * np.sin(y))
        eps = exact_reference_eps(M, u_exact, trace.final_vector)
        assert 1e-5 < eps < 1e-2


class TestSingularValueDump:
    def test_round_trip(self, tmp_path, rng):
        sv = np.sort(np.abs(rng.standard_normal(7)))[::-1]
        path = tmp_path / "sv.txt"
        write_singular_values(sv, path)
        back = np.array([float(line) for line in path.read_text().split()])
        assert np.array_equal(back, sv)
