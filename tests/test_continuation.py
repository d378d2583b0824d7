import dataclasses
import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import eigenrom.continuation as continuation
from eigenrom.continuation import (ContinuationConfig, eigen_residual,
                                   rayleigh_from_products, run_fom, step_solver)
from eigenrom.fem import assemble, build_dofmap
from eigenrom.linalg import NonconvergenceError, SolverError, spd_solve
from eigenrom.mesh import generate, generate_lshape, generate_square
from oracles import fom_loop_dense, smallest_pencil_eigenpair


def diag_csr(values):
    return sp.csr_array(np.diag(np.asarray(values, dtype=float)))


class TestConfig:
    def test_defaults(self):
        cfg = ContinuationConfig()
        assert cfg.dt == 0.1
        assert cfg.stop_tol == 1e-8
        assert cfg.max_steps == 100_000
        assert cfg.seed == 0
        # the start is no setting: run_fom's u0, else the seeded random vector
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "dt", "stop_tol", "max_steps", "seed"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationConfig(dt=0.0)
        with pytest.raises(ValueError):
            ContinuationConfig(stop_tol=-1.0)
        with pytest.raises(ValueError):
            ContinuationConfig(seed=-1)
        # 1/dt overflows: the step operator A + M/dt cannot be formed
        with pytest.raises(ValueError, match="1/dt finite"):
            ContinuationConfig(dt=5e-324)

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_step_cap_below_one_rejected(self, max_steps):
        # a config error, not a run that "did not converge in 0 steps"
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            ContinuationConfig(max_steps=max_steps)

    def test_stride_is_no_config_field(self):
        # the snapshot stride is an argument of run_fom, never a setting
        with pytest.raises(TypeError):
            ContinuationConfig(snapshot_stride=8)


def rayleigh(A, M, U):
    return rayleigh_from_products(U, A @ U, M @ U)


class TestFomStep:
    """One implicit-Euler step (A + M/dt) U' = (lam + 1/dt) M U through
    ``step_solver``."""

    def test_scalar_formula(self):
        a, m, lam, dt = 3.0, 2.0, 1.5, 0.1
        u = np.array([0.7])
        M = diag_csr([m])
        out = step_solver(diag_csr([a]), M, dt)((lam + 1 / dt) * (M @ u))[0]
        expected = (lam + 1 / dt) * m * u / (a + m / dt)
        assert out[0] == pytest.approx(expected[0], rel=1e-13)

    def test_linearity_in_state(self, rng):
        A = diag_csr([2.0, 5.0, 9.0])
        M = diag_csr([1.0, 1.0, 1.0])
        u = rng.standard_normal(3)
        lam = 2.3
        solve = step_solver(A, M, 0.1)
        one = solve((lam + 10.0) * (M @ u))[0]
        scaled = solve((lam + 10.0) * (M @ (3.5 * u)))[0]
        assert np.allclose(scaled, 3.5 * one, rtol=1e-12)

    def test_fixed_point_at_eigenpair(self, runs):
        _, _, A, M, cfg, trace, _ = runs.fom("square", "crisscross", 16, 1)
        u = trace.final_vector
        lam = rayleigh(A, M, u)
        moved = step_solver(A, M, cfg.dt)((lam + 1.0 / cfg.dt) * (M @ u))[0]
        rel = np.linalg.norm(moved - u) / np.linalg.norm(u)
        assert rel <= 10 * cfg.stop_tol

    def test_precomputed_system_agrees(self, rng):
        # a solver built once and reused keeps no state between steps
        A = diag_csr([2.0, 5.0])
        M = diag_csr([1.0, 3.0])
        solve = step_solver(A, M, 0.1)
        solve(rng.standard_normal(2))
        b = rng.standard_normal(2)
        for got, want in zip(solve(b), step_solver(A, M, 0.1)(b)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("domain,n,degree", [("square", 16, 1), ("lshape", 8, 2)],
                             ids=["square-1", "lshape-2"])
    def test_factored_step_matches_cg_oracle(self, rng, domain, n, degree):
        mesh = generate(domain, "crisscross", n)
        A, M = assemble(mesh, build_dofmap(mesh, degree))
        dt, lam = 0.1, 3.0
        u = rng.standard_normal(A.shape[0])
        rhs = (lam + 1.0 / dt) * (M @ u)
        got = step_solver(A, M, dt)(rhs)[0]
        want = spd_solve(A + (1.0 / dt) * M, rhs, rel_tol=1e-12)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_failed_residual_check_raises(self, monkeypatch, rng):
        mesh = generate("square", "crisscross", 4)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        solve = step_solver(A, M, 0.1)
        # no factorization reaches this in double precision, refined or not
        monkeypatch.setattr(continuation, "_SOLVE_RTOL", 1e-30)
        with pytest.raises(NonconvergenceError) as info:
            solve(rng.standard_normal(A.shape[0]))
        assert 0 < info.value.residual < 1e-12

    @pytest.mark.parametrize("perturb", [0.0, 1e-6])
    def test_solve_returns_the_products(self, monkeypatch, rng, perturb):
        # a first solve that is off by ``perturb`` forces one refinement
        # step; the products returned are those of the refined solution
        real_splu = spla.splu
        solves = []

        class PerturbedFirstSolve:
            def __init__(self, *args, **kwargs):
                self.lu = real_splu(*args, **kwargs)

            def solve(self, b):
                solves.append(b)
                x = self.lu.solve(b)
                return x * (1.0 + perturb) if len(solves) == 1 else x

        monkeypatch.setattr(spla, "splu", PerturbedFirstSolve)
        mesh = generate_lshape("crisscross", 4)
        A, M = assemble(mesh, build_dofmap(mesh, 2))
        b = rng.standard_normal(A.shape[0])
        x, ax, mx = step_solver(A, M, 0.1)(b)
        assert len(solves) == (2 if perturb else 1)
        assert np.array_equal(ax, A @ x)
        assert np.array_equal(mx, M @ x)
        assert np.linalg.norm(A @ x + 10.0 * (M @ x) - b) <= 1e-12 * np.linalg.norm(b)


class TestRunFom:
    def test_reaches_printed_eigenvalue(self, runs):
        _, _, _, _, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
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
        mesh = generate("square", "crisscross", 8)
        dm = build_dofmap(mesh, 1)
        A, M = assemble(mesh, dm)
        cfg, stride = ContinuationConfig(seed=3), 4
        trace, snaps = run_fom(A, M, cfg, stride)
        # replay the iteration by hand and compare at the snapshot steps
        solve = step_solver(A, M, cfg.dt)
        U = np.random.default_rng(3).standard_normal(A.shape[0])
        col = 0
        for k in range(trace.n_steps):
            lam = rayleigh(A, M, U)
            U = solve((lam + 1.0 / cfg.dt) * (M @ U))[0]
            if (k + 1) % stride == 0:
                assert np.array_equal(U, snaps[:, col])
                col += 1
        assert col == snaps.shape[1] == trace.n_steps // stride

    @pytest.mark.parametrize("domain,n,degree", [("square", 8, 1),
                                                  ("lshape", 4, 2)])
    def test_matches_dense_oracle(self, domain, n, degree):
        # an independent replay: dense Cholesky steps and fresh products, so
        # a change in the factored step's arithmetic (or in the products it
        # hands back) shows here
        mesh = generate(domain, "crisscross", n)
        A, M = assemble(mesh, build_dofmap(mesh, degree))
        cfg = ContinuationConfig(seed=3)
        trace, snaps = run_fom(A, M, cfg, 4)
        u0 = np.random.default_rng(3).standard_normal(A.shape[0])
        history, steps, S = fom_loop_dense(A, M, u0, cfg.dt, cfg.stop_tol,
                                           4, cfg.max_steps)
        assert trace.n_steps == steps
        assert np.allclose(trace.lambda_history, history, rtol=1e-12, atol=0)
        assert snaps.shape == S.shape
        assert np.all(np.linalg.norm(snaps - S, axis=0)
                      <= 1e-12 * np.linalg.norm(S, axis=0))

    def test_failed_residual_check_stops_the_run(self, monkeypatch):
        mesh = generate("square", "crisscross", 4)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        monkeypatch.setattr(continuation, "_SOLVE_RTOL", 1e-30)
        with pytest.raises(NonconvergenceError) as info:
            run_fom(A, M, ContinuationConfig(), 4)
        assert 0 < info.value.residual < 1e-12

    def test_renormalised_run_matches_unscaled_run(self):
        # a start of norm ~1e-151 is renormalised after the first step, and
        # the products A U, M U are recomputed from the rescaled state
        mesh = generate("square", "crisscross", 8)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        u0 = np.random.default_rng(5).standard_normal(A.shape[0])
        ref, _ = run_fom(A, M, ContinuationConfig(), 4, u0=u0)
        tiny, _ = run_fom(A, M, ContinuationConfig(), 4, u0=1e-152 * u0)
        assert 0.1 < np.linalg.norm(tiny.final_vector) < 10
        assert tiny.eigenvalue == pytest.approx(ref.eigenvalue, rel=1e-12)
        assert eigen_residual(A, M, tiny.final_vector, tiny.eigenvalue) <= 1e-6

    def test_max_steps_raises(self):
        # the error carries the full residual of the third state, which a
        # replay of the three steps reproduces
        mesh = generate("square", "right", 4)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        cfg = ContinuationConfig(max_steps=3)
        with pytest.raises(NonconvergenceError, match=(
                f"^full-order run on {A.shape[0]} dofs did not converge in "
                "3 steps$")) as info:
            run_fom(A, M, cfg, 4)
        solve = step_solver(A, M, cfg.dt)
        U = np.random.default_rng(cfg.seed).standard_normal(A.shape[0])
        for _ in range(3):
            U = solve((rayleigh(A, M, U) + 1.0 / cfg.dt) * (M @ U))[0]
        assert info.value.residual == pytest.approx(
            eigen_residual(A, M, U, rayleigh(A, M, U)), rel=1e-12)

    def test_stride_below_one_rejected(self):
        A = diag_csr([2.0, 4.0])
        with pytest.raises(ValueError, match="strides must be positive"):
            run_fom(A, A, ContinuationConfig(), 0)

    def test_empty_system_rejected(self):
        mesh = generate_square("right", 1, 1.0)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        with pytest.raises(ValueError):
            run_fom(A, M, ContinuationConfig(), 4)

    def test_singular_step_operator_is_a_solver_error(self):
        # SuperLU's "Factor is exactly singular" is a numerical failure
        zero = sp.csr_array((2, 2))
        with pytest.raises(SolverError, match="cannot factor"):
            step_solver(zero, zero, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad):
        A = diag_csr([2.0, 4.0, 4.5])
        with pytest.raises(ValueError, match="finite"):
            run_fom(A, A, ContinuationConfig(), 4,
                    u0=np.array([1.0, bad, 1.0]))

    def test_u0_length_mismatch_rejected(self):
        A = diag_csr([2.0, 4.0, 4.5])
        with pytest.raises(ValueError, match="u0"):
            run_fom(A, A, ContinuationConfig(), 4, u0=np.ones(2))

    def test_orthogonal_start_warning(self):
        # start dominated by a middle mode, with a 1e-15 trace of the lowest:
        # the slow transient forces the iteration onto the lowest mode, which
        # is then numerically orthogonal to the start
        A = diag_csr([2.0, 4.0, 4.5])
        M = diag_csr([1.0, 1.0, 1.0])
        u0 = np.array([1e-15, 1.0, 1.0])
        trace, _ = run_fom(A, M, ContinuationConfig(), 4, u0=u0)
        assert trace.eigenvalue == pytest.approx(2.0, abs=1e-6)
        # the warning states the measured M-cosine, not a higher mode: the
        # run reached the lowest one
        [warning] = trace.warnings
        cosine = re.fullmatch(
            r"initial guess is numerically M-orthogonal to the computed "
            r"eigenvector \(M-cosine (\S+)\); the start barely contained the "
            r"vector the run reached", warning).group(1)
        assert 0 < float(cosine) <= 100 * ContinuationConfig().stop_tol

    @pytest.mark.parametrize("c", [1e-6, 1e-9])
    def test_which_warning_flags_a_higher_mode(self, c):
        # square crisscross P1 n=8 from u_2 + u_3 + c u_1, where u_2 + u_3
        # is an eigenvector of the double eigenvalue lam_2: at c = 1e-6 the
        # run reaches u_1 with only the M-orthogonal warning; at c = 1e-9
        # it stops at once on lam_2, and only the sign warning says so
        mesh = generate("square", "crisscross", 8)
        A, M = assemble(mesh, build_dofmap(mesh, 1))
        lam, V = scipy.linalg.eigh(A.toarray(), M.toarray())
        trace, _ = run_fom(A, M, ContinuationConfig(), 4,
                           u0=V[:, 1] + V[:, 2] + c * V[:, 0])
        lowest = c > 1e-8
        assert trace.eigenvalue == pytest.approx(lam[0 if lowest else 1],
                                                 rel=1e-9)
        orthogonal = ["M-orthogonal" in w for w in trace.warnings]
        sign = ["changes sign" in w for w in trace.warnings]
        assert (orthogonal, sign) == (([True], [False]) if lowest
                                      else ([False], [True])), trace.warnings

    def test_higher_mode_sign_warning(self):
        A = sp.csr_array([[3.0, -1.0], [-1.0, 3.0]])
        M = diag_csr([1.0, 1.0])
        trace, _ = run_fom(A, M, ContinuationConfig(), 4,
                           u0=np.array([1.0, -1.0]))
        assert trace.eigenvalue == pytest.approx(4.0, abs=1e-9)
        assert any("sign" in w for w in trace.warnings)

    def test_clean_run_has_no_warnings(self, runs):
        _, _, _, _, _, trace, _ = runs.fom("square", "crisscross", 16, 1)
        assert trace.warnings == []


class TestSnapshotMatrix:
    def test_column_count_floor(self, runs):
        _, _, A, _, _, trace, snaps = runs.fom("square", "crisscross", 16, 1,
                                               stride=2)
        assert snaps.shape == (A.shape[0], trace.n_steps // 2)

    def test_columns_nonzero(self, runs):
        _, _, _, _, _, _, snaps = runs.fom("square", "crisscross", 16, 1)
        assert np.all(np.linalg.norm(snaps, axis=0) > 0)


@functools.cache
def _uncapped_run():
    """The operators of square crisscross n=4 (P1) and their full-order run."""
    mesh = generate("square", "crisscross", 4)
    A, M = assemble(mesh, build_dofmap(mesh, 1))
    return A, M, run_fom(A, M, ContinuationConfig(), 2)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_step_cap_raises_below_the_run_and_changes_nothing_above(data):
    # a cap the run reaches raises with the residual of the state it left;
    # one it does not reach returns the uncapped run bit for bit
    A, M, (trace, snaps) = _uncapped_run()
    steps = trace.n_steps
    cap = data.draw(st.one_of(st.sampled_from([1, steps - 1, steps]),
                              st.integers(1, steps + 20)))
    cfg = ContinuationConfig(max_steps=cap)
    if cap < steps:
        with pytest.raises(NonconvergenceError,
                           match=f"did not converge in {cap} steps$") as info:
            run_fom(A, M, cfg, 2)
        assert 0 < info.value.residual < math.inf
    else:
        capped, capped_snaps = run_fom(A, M, cfg, 2)
        assert capped.n_steps == steps
        assert np.array_equal(capped.lambda_history, trace.lambda_history)
        assert np.array_equal(capped.final_vector, trace.final_vector)
        assert np.array_equal(capped_snaps, snaps)
