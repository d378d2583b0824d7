import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import eigenrom.rom as rom
from eigenrom.continuation import ContinuationConfig, _iterate, run_fom
from eigenrom.fem import assemble, build_dofmap
from eigenrom.linalg import NonconvergenceError, NotSpdError
from eigenrom.mesh import generate_square
from eigenrom.pod import build_pod
from eigenrom.rom import ReducedOperators, reduce, run_rom
from oracles import rom_loop_cho


def fom_start(A, cfg):
    """The start of ``run_fom(A, M, cfg, stride)``, which is given no u0."""
    return np.random.default_rng(cfg.seed).standard_normal(A.shape[0])


def embed_coordinates(n, cols):
    V = np.zeros((n, len(cols)))
    for j, c in enumerate(cols):
        V[c, j] = 1.0
    return V


class TestReduce:
    def test_coordinate_embedding_gives_principal_submatrix(self, rng):
        dense = rng.standard_normal((7, 7))
        dense = dense @ dense.T + 7 * np.eye(7)
        A = sp.csr_array(dense)
        V = embed_coordinates(7, [0, 1, 2])
        ops = reduce(A, A, V)
        assert np.allclose(ops.a_red, dense[:3, :3], atol=1e-14)

    def test_single_vector_reduces_to_quadratic_form(self, rng):
        dense = rng.standard_normal((6, 6))
        dense = dense @ dense.T + 6 * np.eye(6)
        A = sp.csr_array(dense)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        ops = reduce(A, A, v[:, None])
        assert ops.a_red[0, 0] == pytest.approx(
            v @ (A @ v), rel=1e-13)

    def test_congruence_quadratic_form_consistency(self, rng):
        dense = rng.standard_normal((12, 12))
        dense = dense @ dense.T + 12 * np.eye(12)
        A = sp.csr_array(dense)
        V, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        ops = reduce(A, A, V)
        for _ in range(5):
            y = rng.standard_normal(4)
            full = (V @ y) @ (A @ (V @ y))
            assert float(y @ (ops.a_red @ y)) == pytest.approx(full, rel=1e-12)

    def test_symmetrized(self, rng):
        dense = rng.standard_normal((9, 9))
        dense = dense @ dense.T + 9 * np.eye(9)
        A = sp.csr_array(dense)
        V, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        ops = reduce(A, A, V)
        assert np.array_equal(ops.a_red, ops.a_red.T)

    def test_dimension_mismatch(self, rng):
        A = sp.csr_array(np.eye(5))
        with pytest.raises(ValueError):
            reduce(A, A, rng.standard_normal((4, 2)))


class TestRunRom:
    def test_one_dimensional_basis_at_converged_eigenvector(self, runs):
        # a single-vector basis spanning the eigenvector is invariant: the
        # reduced run reproduces the full eigenvalue in at most two steps
        _, _, A, M, cfg, trace, _ = runs.fom("square", "crisscross", 16, 1)
        v = trace.final_vector / np.linalg.norm(trace.final_vector)
        ops = reduce(A, M, v[:, None])
        rom_trace, lifted = run_rom(ops, trace.final_vector, cfg)
        assert rom_trace.n_steps <= 2
        assert rom_trace.eigenvalue == pytest.approx(trace.eigenvalue, abs=1e-12)
        assert np.allclose(lifted, trace.final_vector, rtol=1e-9)

    def test_full_rank_basis_reproduces_fom_endpoint(self, runs):
        from eigenrom.pod import singular_values
        _, _, A, M, cfg, trace, snaps = runs.fom("square", "crisscross", 16, 1)
        basis = build_pod(snaps, len(singular_values(snaps)))
        ops = reduce(A, M, basis.V)
        u0 = fom_start(A, cfg)
        rom_trace, lifted = run_rom(ops, u0, cfg)
        fom_dir = trace.final_vector / np.linalg.norm(trace.final_vector)
        rom_dir = lifted / np.linalg.norm(lifted)
        if float(fom_dir @ rom_dir) < 0:
            rom_dir = -rom_dir
        assert np.linalg.norm(rom_dir - fom_dir) <= 1e-6

    def test_reduced_rayleigh_equals_lifted_rayleigh(self, runs):
        from eigenrom.fem import rayleigh_from_products
        _, _, A, M, cfg, _, snaps = runs.fom("square", "crisscross", 16, 1)
        basis = build_pod(snaps, 4)
        ops = reduce(A, M, basis.V)
        rom_trace, lifted = run_rom(ops, fom_start(A, cfg), cfg)
        assert rom_trace.eigenvalue == pytest.approx(
            rayleigh_from_products(lifted, A @ lifted, M @ lifted), rel=1e-12)

    def test_lower_bound_on_square(self, runs):
        _, _, A, M, cfg, _, snaps = runs.fom("square", "crisscross", 16, 1)
        basis = build_pod(snaps, 5)
        rom_trace, _ = run_rom(reduce(A, M, basis.V),
                               fom_start(A, cfg), cfg)
        assert np.all(rom_trace.lambda_history >= 2.0)

    def test_non_spd_reduced_system_rejected(self, rng):
        # shifted system a_red + m_red/dt = diag(-10, 11) is indefinite
        ops = ReducedOperators(np.diag([-20.0, 1.0]), np.eye(2),
                               rng.standard_normal((5, 2)))
        with pytest.raises(NotSpdError):
            run_rom(ops, rng.standard_normal(5), ContinuationConfig())

    @pytest.mark.parametrize("domain,pattern,n,degree", [
        ("square", "crisscross", 16, 1), ("lshape", "crisscross", 8, 2)])
    def test_matches_cholesky_oracle_bit_for_bit(self, runs, domain, pattern,
                                                 n, degree):
        _, _, A, M, cfg, _, snaps = runs.fom(domain, pattern, n, degree)
        ops = reduce(A, M, build_pod(snaps, eps=1e-7).V)
        u0 = np.ones(A.shape[0])
        trace, lifted = run_rom(ops, u0, cfg)
        history, y = rom_loop_cho(ops.a_red, ops.m_red, ops.basis.T @ u0,
                                  cfg.dt, cfg.stop_tol, cfg.max_steps)
        assert ops.a_red.shape[0] >= 4
        assert np.array_equal(trace.lambda_history, history)
        assert np.array_equal(trace.final_vector, y)
        assert np.array_equal(lifted, ops.basis @ y)

    @pytest.mark.parametrize("N", [1, 5, 9, 12, 13, 17])
    def test_matches_cholesky_oracle_on_synthetic_pencils(self, N):
        # beyond the workloads' N <= 8: BLAS blocks a product with the
        # stacked [a_red; m_red] differently from one with each operator
        # for N >= 9 not a multiple of 4, which the history would show
        rng = np.random.default_rng(N)
        L = np.eye(N) + 0.3 * rng.standard_normal((N, N)) / math.sqrt(N)
        m_red = L @ L.T
        a_red = L @ np.diag(2.0 * np.arange(N) + 1.0) @ L.T  # eigenvalues 1, 3, ...
        basis = np.linalg.qr(rng.standard_normal((4 * N + 3, N)))[0]
        ops = ReducedOperators(0.5 * (a_red + a_red.T), 0.5 * (m_red + m_red.T),
                               basis)
        cfg = ContinuationConfig(dt=1.0, stop_tol=1e-10)
        u0 = rng.standard_normal(basis.shape[0])
        trace, lifted = run_rom(ops, u0, cfg)
        history, y = rom_loop_cho(ops.a_red, ops.m_red, basis.T @ u0,
                                  cfg.dt, cfg.stop_tol, cfg.max_steps)
        assert trace.eigenvalue == pytest.approx(1.0, rel=1e-8)
        assert np.array_equal(trace.lambda_history, history)
        assert np.array_equal(trace.final_vector, y)
        assert np.array_equal(lifted, basis @ y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reduced_operator_rejected(self, rng, bad):
        a_red = np.diag([2.0, 3.0])
        a_red[1, 0] = bad          # a triangle dpotrf does not read
        ops = ReducedOperators(a_red, np.eye(2), rng.standard_normal((5, 2)))
        with pytest.raises(NotSpdError, match="non-finite"):
            run_rom(ops, rng.standard_normal(5), ContinuationConfig())

    def test_max_steps_raises(self, runs):
        # the error carries the reduced residual of the second state, which
        # a replay of the two steps with the Cholesky oracle reproduces
        _, _, A, M, cfg, _, snaps = runs.fom("square", "crisscross", 16, 1)
        ops = reduce(A, M, build_pod(snaps, 4).V)
        u0 = fom_start(A, cfg)
        short = ContinuationConfig(max_steps=2)
        with pytest.raises(NonconvergenceError, match=(
                f"^reduced run \\(N={ops.a_red.shape[0]}\\) on {A.shape[0]} "
                "dofs did not converge in 2 steps$")) as info:
            run_rom(ops, u0, short)
        _, y = rom_loop_cho(ops.a_red, ops.m_red, ops.basis.T @ u0,
                            short.dt, short.stop_tol, 2)
        ay, my = ops.a_red @ y, ops.m_red @ y
        assert info.value.residual == pytest.approx(
            np.linalg.norm(ay - (y @ ay) / (y @ my) * my) / np.linalg.norm(my),
            rel=1e-10)

    def test_reduced_run_keeps_no_snapshots(self, monkeypatch, runs):
        _, _, A, M, cfg, _, snaps = runs.fom("square", "crisscross", 16, 1)
        kept = []

        def recording_iterate(*args, **kwargs):
            result = _iterate(*args, **kwargs)
            kept.append(result[1])
            return result

        monkeypatch.setattr(rom, "_iterate", recording_iterate)
        trace, _ = run_rom(reduce(A, M, build_pod(snaps, 4).V),
                           np.ones(A.shape[0]), cfg)
        assert trace.n_steps > 4 and kept == [None]

    def test_zero_projection_rejected(self):
        ops = ReducedOperators(np.eye(1), np.eye(1), np.eye(3)[:, :1])
        with pytest.raises(ValueError):
            run_rom(ops, np.array([0.0, 1.0, 0.0]) * 0.0, ContinuationConfig())

    def test_non_finite_start_rejected(self):
        # an input error, not a run of max_steps steps that never converges
        ops = ReducedOperators(np.diag([2.0, 3.0]), np.eye(2), np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="finite"):
            run_rom(ops, np.array([1.0, np.nan, 1.0]), ContinuationConfig())

    def test_infinite_start_rejected_without_a_warning(self):
        # refused before the projection, which would turn the inf into NaN
        # with a "RuntimeWarning: invalid value encountered in matmul"
        ops = ReducedOperators(np.diag([2.0, 3.0]), np.eye(2), np.eye(3)[:, :2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                run_rom(ops, np.array([1.0, np.inf, 1.0]), ContinuationConfig())


class TestSolveLevel:
    @pytest.fixture()
    def pencil(self):
        mesh = generate_square("crisscross", 8, math.pi)
        return assemble(mesh, build_dofmap(mesh, 1))

    def test_stride_subsampling(self, monkeypatch, pencil):
        # each stride's basis is built from the columns of the one full-order
        # snapshot array that a run at that stride records on its own
        A, M = pencil
        cont = ContinuationConfig(seed=3)
        seen = []

        def recording_build_pod(S, **kwargs):
            seen.append(np.array(S))
            return build_pod(S, **kwargs)

        monkeypatch.setattr(rom, "build_pod", recording_build_pod)
        rom.solve_level(A, M, cont, (2, 4, 8), 1e-7)
        assert len(seen) == 3
        for stride, S in zip((2, 4, 8), seen):
            own = run_fom(A, M, cont, stride)[1]
            assert S.shape[1] >= 1 and np.array_equal(S, own)

    def test_stride_not_a_multiple_rejected_before_the_run(self, monkeypatch,
                                                           pencil):
        A, M = pencil
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="not a multiple"):
            rom.solve_level(A, M, ContinuationConfig(), (2, 3), 1e-7)
        assert calls == []


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_step_cap_raises_below_the_run_and_changes_nothing_above(runs, data):
    # a cap the reduced run reaches raises with the residual of the state it
    # left; one it does not reach returns the uncapped run bit for bit
    _, _, A, M, cfg, _, snaps = runs.fom("square", "crisscross", 16, 1)
    ops = reduce(A, M, build_pod(snaps, 4).V)
    u0 = np.ones(A.shape[0])
    trace, lifted = run_rom(ops, u0, cfg)
    steps = trace.n_steps
    cap = data.draw(st.one_of(st.sampled_from([1, steps - 1, steps]),
                              st.integers(1, steps + 20)))
    capped_cfg = ContinuationConfig(max_steps=cap)
    if cap < steps:
        with pytest.raises(NonconvergenceError,
                           match=f"did not converge in {cap} steps$") as info:
            run_rom(ops, u0, capped_cfg)
        assert 0 < info.value.residual < math.inf
    else:
        capped, capped_lifted = run_rom(ops, u0, capped_cfg)
        assert capped.n_steps == steps
        assert np.array_equal(capped.lambda_history, trace.lambda_history)
        assert np.array_equal(capped.final_vector, trace.final_vector)
        assert np.array_equal(capped_lifted, lifted)
