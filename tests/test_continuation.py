import math

import numpy as np
import pytest
import scipy.sparse as sp

import eigenrom.continuation as continuation
from eigenrom.continuation import (ContinuationConfig, SnapshotMatrix,
                                   fom_step, run_fom, step_solver,
                                   write_snapshots)
from eigenrom.fem import assemble, build_dofmap, eigen_residual, rayleigh_quotient
from eigenrom.linalg import NonconvergenceError, spd_solve
from eigenrom.mesh import generate_lshape, generate_square
from oracles import smallest_pencil_eigenpair

PI = math.pi


def diag_csr(values):
    return sp.csr_array(np.diag(np.asarray(values, dtype=float)))


class TestConfig:
    def test_defaults(self):
        cfg = ContinuationConfig()
        assert cfg.dt == 0.1
        assert cfg.stop_tol == 1e-8
        assert cfg.max_steps == 100_000
        assert cfg.snapshot_stride == 4
        assert cfg.initial_guess == "ones"

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationConfig(dt=0.0)
        with pytest.raises(ValueError):
            ContinuationConfig(stop_tol=-1.0)
        with pytest.raises(ValueError):
            ContinuationConfig(snapshot_stride=0)
        with pytest.raises(ValueError):
            ContinuationConfig(initial_guess="zeros")


class TestFomStep:
    def test_scalar_formula(self):
        a, m, lam, dt = 3.0, 2.0, 1.5, 0.1
        u = np.array([0.7])
        out = fom_step(diag_csr([a]), diag_csr([m]), u, lam, dt)
        expected = (lam + 1 / dt) * m * u / (a + m / dt)
        assert out[0] == pytest.approx(expected[0], rel=1e-13)

    def test_linearity_in_state(self, rng):
        A = diag_csr([2.0, 5.0, 9.0])
        M = diag_csr([1.0, 1.0, 1.0])
        u = rng.standard_normal(3)
        lam = 2.3
        one = fom_step(A, M, u, lam, 0.1)
        scaled = fom_step(A, M, 3.5 * u, lam, 0.1)
        assert np.allclose(scaled, 3.5 * one, rtol=1e-12)

    def test_fixed_point_at_eigenpair(self, runs):
        _, _, A, M, cfg, trace, _ = runs.fom("square", "crisscross", 16, 1)
        u = trace.final_vector
        lam = rayleigh_quotient(A, M, u)
        moved = fom_step(A, M, u, lam, cfg.dt)
        rel = np.linalg.norm(moved - u) / np.linalg.norm(u)
        assert rel <= 10 * cfg.stop_tol

    def test_precomputed_system_agrees(self, rng):
        A = diag_csr([2.0, 5.0])
        M = diag_csr([1.0, 3.0])
        solve = step_solver(A, M, 0.1)
        u = rng.standard_normal(2)
        assert np.array_equal(fom_step(A, M, u, 2.0, 0.1),
                              fom_step(A, M, u, 2.0, 0.1, solve=solve))

    @pytest.mark.parametrize("domain,degree", [("square", 1), ("lshape", 2)])
    def test_factored_step_matches_cg_oracle(self, rng, domain, degree):
        if domain == "square":
            mesh = generate_square("crisscross", 16, PI)
        else:
            mesh = generate_lshape("crisscross", 8)
        A, M = assemble(mesh, build_dofmap(mesh, degree))
        dt, lam = 0.1, 3.0
        u = rng.standard_normal(A.shape[0])
        got = fom_step(A, M, u, lam, dt, solve=step_solver(A, M, dt))
        rhs = (lam + 1.0 / dt) * (M @ u)
        want = spd_solve(A + (1.0 / dt) * M, rhs, rel_tol=1e-12)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_failed_residual_check_raises(self, monkeypatch, rng):
        mesh = generate_square("crisscross", 4, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        solve = step_solver(A, M, 0.1)
        # no factorization reaches this in double precision, refined or not
        monkeypatch.setattr(continuation, "_SOLVE_RTOL", 1e-30)
        with pytest.raises(NonconvergenceError) as info:
            solve(rng.standard_normal(A.shape[0]))
        assert 0 < info.value.residual < 1e-12


class TestRunFom:
    def test_reaches_printed_eigenvalue(self, runs):
        _, _, _, _, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        assert trace.converged
        assert trace.eigenvalue == pytest.approx(2.005363995049, abs=1e-7)

    def test_matches_lanczos_reference(self, runs):
        _, _, A, M, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        lam_ref, _ = smallest_pencil_eigenpair(A, M)
        assert trace.eigenvalue == pytest.approx(lam_ref, abs=1e-10)
        assert eigen_residual(A, M, trace.final_vector, trace.eigenvalue) <= 1e-6

    @pytest.mark.parametrize("pattern,n", [("crisscross", 16), ("right", 32),
                                           ("left", 16), ("crisscross", 32)])
    def test_final_residual_small_on_table_configs(self, runs, pattern, n):
        _, _, A, M, _, trace, _ = runs.fom("square", pattern, n, 1)
        assert eigen_residual(A, M, trace.final_vector, trace.eigenvalue) <= 1e-6

    def test_lambda_history_monotone_and_bounded(self, runs):
        _, _, _, _, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        hist = trace.lambda_history
        assert np.all(np.diff(hist[1:]) <= 1e-12)
        assert np.all(hist >= 2.0)

    def test_snapshots_match_replayed_steps(self):
        mesh = generate_square("crisscross", 8, PI)
        dm = build_dofmap(mesh, 1)
        A, M = assemble(mesh, dm)
        cfg = ContinuationConfig(initial_guess="random", seed=3,
                                 snapshot_stride=4)
        trace, snaps = run_fom(A, M, cfg)
        # replay the iteration by hand and compare at the snapshot steps
        solve = step_solver(A, M, cfg.dt)
        U = np.random.default_rng(3).standard_normal(A.shape[0])
        col = 0
        for k in range(trace.n_steps):
            lam = rayleigh_quotient(A, M, U)
            U = fom_step(A, M, U, lam, cfg.dt, solve=solve)
            if (k + 1) % cfg.snapshot_stride == 0:
                assert np.array_equal(U, snaps.matrix[:, col])
                col += 1
        assert col == snaps.n_columns == trace.n_steps // cfg.snapshot_stride

    def test_max_steps_returns_unconverged(self):
        mesh = generate_square("right", 4, PI)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        cfg = ContinuationConfig(max_steps=3, initial_guess="random")
        trace, _ = run_fom(A, M, cfg)
        assert not trace.converged
        assert trace.n_steps == 3

    def test_empty_system_rejected(self):
        mesh = generate_square("right", 1, 1.0)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        with pytest.raises(ValueError):
            run_fom(A, M, ContinuationConfig())

    def test_u0_length_mismatch_rejected(self):
        A = diag_csr([2.0, 4.0, 4.5])
        with pytest.raises(ValueError, match="u0"):
            run_fom(A, A, ContinuationConfig(), u0=np.ones(2))

    def test_orthogonal_start_warning(self):
        # start dominated by a middle mode, with a 1e-15 trace of the lowest:
        # the slow transient forces the iteration onto the lowest mode, which
        # is then numerically orthogonal to the start
        A = diag_csr([2.0, 4.0, 4.5])
        M = diag_csr([1.0, 1.0, 1.0])
        u0 = np.array([1e-15, 1.0, 1.0])
        trace, _ = run_fom(A, M, ContinuationConfig(), u0=u0)
        assert trace.eigenvalue == pytest.approx(2.0, abs=1e-6)
        assert any("orthogonal" in w for w in trace.warnings)

    def test_higher_mode_sign_warning(self):
        A = sp.csr_array([[3.0, -1.0], [-1.0, 3.0]])
        M = diag_csr([1.0, 1.0])
        trace, _ = run_fom(A, M, ContinuationConfig(), u0=np.array([1.0, -1.0]))
        assert trace.eigenvalue == pytest.approx(4.0, abs=1e-9)
        assert any("sign" in w for w in trace.warnings)

    def test_clean_run_has_no_warnings(self, runs):
        _, _, _, _, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        assert trace.warnings == []


class TestSnapshotMatrix:
    def test_with_stride_subsampling(self):
        base = SnapshotMatrix(np.arange(20, dtype=float).reshape(2, 10), 2)
        sub = base.with_stride(4)
        assert sub.stride == 4
        assert np.array_equal(sub.matrix, base.matrix[:, 1::2])
        with pytest.raises(ValueError):
            base.with_stride(3)

    def test_column_count_floor(self, runs):
        _, _, _, _, cfg, trace, snaps = runs.fom("square", "crisscross", 16, 1)
        assert snaps.n_columns == trace.n_steps // snaps.stride
        for stride in (4, 8):
            assert snaps.with_stride(stride).n_columns == trace.n_steps // stride

    def test_columns_nonzero(self, runs):
        _, _, _, _, _, _, snaps = runs.fom("square", "crisscross", 16, 1)
        assert np.all(np.linalg.norm(snaps.matrix, axis=0) > 0)

    def test_dump_round_trip(self, tmp_path):
        snap = SnapshotMatrix(np.array([[1.0, 2.0], [0.125, -3.5]]), 2)
        path = tmp_path / "snaps.txt"
        write_snapshots(snap, path)
        rows = [[float(v) for v in line.split()]
                for line in path.read_text().splitlines()]
        assert np.array_equal(np.array(rows).T, snap.matrix)
