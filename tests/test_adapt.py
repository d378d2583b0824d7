import math
from dataclasses import replace
from functools import cached_property, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenrom.adapt import EtaField, adaptive_solve, estimate, mark, next_mesh
from eigenrom.continuation import ContinuationConfig
from eigenrom.fem import build_dofmap
from eigenrom.linalg import NonconvergenceError
from eigenrom.harness import EIGENPAIRS
from eigenrom.mesh import (Mesh, bisect_refine, generate, generate_lshape,
                           mesh_stats, validate_mesh)
from eigenrom.rom import solve_levels
from oracles import estimate_by_point_location
from test_mesh_golden import BISECTION_STARTS

LSHAPE_REF = EIGENPAIRS["lshape"][0]

# 12-point degree-6 rule used as an independent quadrature oracle
_ORACLE_BARY = np.array([
    [0.873821971016996, 0.063089014491502, 0.063089014491502],
    [0.063089014491502, 0.873821971016996, 0.063089014491502],
    [0.063089014491502, 0.063089014491502, 0.873821971016996],
    [0.501426509658179, 0.249286745170910, 0.249286745170910],
    [0.249286745170910, 0.501426509658179, 0.249286745170910],
    [0.249286745170910, 0.249286745170910, 0.501426509658179],
    [0.636502499121399, 0.310352451033785, 0.053145049844816],
    [0.636502499121399, 0.053145049844816, 0.310352451033785],
    [0.310352451033785, 0.636502499121399, 0.053145049844816],
    [0.310352451033785, 0.053145049844816, 0.636502499121399],
    [0.053145049844816, 0.636502499121399, 0.310352451033785],
    [0.053145049844816, 0.310352451033785, 0.636502499121399],
])
_ORACLE_W = np.array([0.050844906370207] * 3 + [0.116786275726379] * 3
                     + [0.082851075618374] * 6)


def all_free(dofmap):
    """The dofmap without Dirichlet elimination, so that estimate() takes
    fields that do not vanish on the boundary (every dof is free)."""
    return replace(dofmap, free_dofs=np.arange(dofmap.n_dof_total))


def oracle_element_integral(mesh, f):
    """Integral of f over each triangle by the degree-6 reference rule."""
    p = mesh.nodes[mesh.triangles]
    pts = np.einsum("qk,tkd->tqd", _ORACLE_BARY, p)
    vals = f(pts[..., 0], pts[..., 1])
    return mesh.areas * (vals @ _ORACLE_W)


class TestEstimate:
    def test_zero_field_gives_zero(self):
        mesh = generate("square", "crisscross", 4)
        dm = build_dofmap(mesh, 1)
        eta = estimate(mesh, dm, np.zeros(dm.n_free), 2.0)
        assert eta.total == 0.0
        assert np.all(eta.per_triangle == 0.0)

    def test_length_mismatch_rejected(self):
        mesh = generate("square", "crisscross", 4)
        dm = build_dofmap(mesh, 2)
        for n in (dm.n_free - 1, dm.n_free + 1, dm.n_dof_total):
            with pytest.raises(ValueError, match="free dof count"):
                estimate(mesh, dm, np.ones(n), 2.0)

    def test_globally_linear_p1_has_no_jumps(self):
        # u = x has continuous gradient: the indicator reduces to the
        # zero-order residual h_K^2 lam^2 ||u||^2 per element exactly
        mesh = generate("square", "right", 3)
        dm = build_dofmap(mesh, 1)
        u_full = dm.dof_coords[:, 0]
        lam = 1.7
        eta = estimate(mesh, all_free(dm), u_full, lam)
        h_k = mesh.edge_lengths.max(axis=1)
        mass = oracle_element_integral(mesh, lambda x, y: x ** 2)
        expected = h_k ** 2 * lam ** 2 * mass
        assert np.allclose(eta.per_triangle ** 2, expected, rtol=1e-12)

    def test_globally_quadratic_p2_residual_only(self):
        # u = x^2 is in the P2 space with continuous gradient; residual is
        # (2 + lam x^2)^2 integrated exactly (cross-checked by a finer rule)
        mesh = generate("square", "left", 2)
        dm = build_dofmap(mesh, 2)
        u_full = dm.dof_coords[:, 0] ** 2
        lam = 0.9
        eta = estimate(mesh, all_free(dm), u_full, lam)
        h_k = mesh.edge_lengths.max(axis=1)
        res = oracle_element_integral(mesh,
                                      lambda x, y: (2.0 + lam * x ** 2) ** 2)
        assert np.allclose(eta.per_triangle ** 2, h_k ** 2 * res, rtol=1e-12)

    @pytest.mark.parametrize("domain,pattern,n", [
        ("square", "crisscross", 3), ("square", "right", 3),
        ("lshape", "crisscross", 2), ("lshape", "mixed", 2)], ids=[
        "square-crisscross", "square-right", "lshape-crisscross", "lshape-mixed"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_point_location_oracle(self, domain, pattern, n, degree):
        # three bisection levels per mesh; the field has no symmetry, so the
        # indicators do not tie and the marked sets must agree exactly
        mesh = generate(domain, pattern, n)
        rng = np.random.default_rng(11)
        for _ in range(3):
            dm = build_dofmap(mesh, degree)
            x, y = dm.dof_coords.T
            u_full = np.sin(x + 0.3) * np.cos(0.7 * y) + 0.1 * x * y
            got = estimate(mesh, all_free(dm), u_full, 3.0)
            want = estimate_by_point_location(mesh, dm, u_full, 3.0)
            assert np.allclose(got.per_triangle, want, rtol=1e-12, atol=0)
            assert np.array_equal(mark(got, 0.5),
                                  mark(EtaField(want, 0.0), 0.5))
            mesh = bisect_refine(mesh, rng.choice(
                mesh.n_triangles, mesh.n_triangles // 4, replace=False))

    @given(start=st.sampled_from(BISECTION_STARTS),
           degree=st.sampled_from((1, 2)), rounds=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.5, 50.0),
           c=st.floats(0.1, 10.0), sign=st.sampled_from((1.0, -1.0)))
    @settings(max_examples=40, deadline=None)
    def test_scale_covariant(self, start, degree, rounds, seed, lam, c, sign):
        # eta(c u) = |c| eta(u): bit for bit where c is a power of two or -1,
        # whose products and sums round exactly like those of u
        rng = np.random.default_rng(seed)
        mesh = generate(*start)
        for _ in range(rounds):
            mesh = bisect_refine(mesh, rng.choice(
                mesh.n_triangles, mesh.n_triangles // 5, replace=False))
        dm = build_dofmap(mesh, degree)
        u = rng.standard_normal(dm.n_free)
        eta = estimate(mesh, dm, u, lam)
        marked = mark(eta, 0.5)
        for scale in (-1.0, *(2.0 ** k for k in range(-3, 4))):
            scaled = estimate(mesh, dm, scale * u, lam)
            assert np.array_equal(scaled.per_triangle, abs(scale) * eta.per_triangle)
            assert scaled.total == abs(scale) * eta.total
            assert np.array_equal(mark(scaled, 0.5), marked)
        scaled = estimate(mesh, dm, sign * c * u, lam)
        assert np.allclose(scaled.per_triangle, c * eta.per_triangle,
                           rtol=1e-13, atol=0)

    def test_total_consistent_with_components(self, runs):
        mesh, dm, A, M, _, trace, _ = runs.fom("lshape", "crisscross", 8, 1)
        u = trace.final_vector
        u = u / np.sqrt(u @ (M @ u))
        eta = estimate(mesh, dm, u, trace.eigenvalue)
        assert eta.total == pytest.approx(
            np.sqrt(np.sum(eta.per_triangle ** 2)), rel=1e-14)
        assert np.all(eta.per_triangle >= 0)

    def test_maximal_indicator_at_reentrant_corner(self, runs):
        mesh, dm, A, M, _, trace, _ = runs.fom("lshape", "crisscross", 8, 1)
        u = trace.final_vector
        u = u / np.sqrt(u @ (M @ u))
        eta = estimate(mesh, dm, u, trace.eigenvalue)
        worst = int(np.argmax(eta.per_triangle))
        corner_dist = np.linalg.norm(mesh.nodes[mesh.triangles[worst]],
                                     axis=1).min()
        assert corner_dist <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_reliability_proxy_on_square(self, degree, runs):
        # eta^2 and the eigenvalue error must decay at the same rate: their
        # ratio stays within a factor of 10 across three uniform refinements
        ratios = []
        for n in (8, 16, 32):
            mesh, dm, A, M, _, trace, _ = runs.fom("square", "crisscross", n,
                                                   degree)
            u = trace.final_vector
            u = u / np.sqrt(u @ (M @ u))
            eta = estimate(mesh, dm, u, trace.eigenvalue)
            ratios.append(eta.total ** 2 / (trace.eigenvalue - 2.0))
        assert max(ratios) <= 10 * min(ratios)


class TestMark:
    def test_theta_one_marks_all_positive(self):
        etas = EtaField(np.array([0.5, 0.0, 0.2, 0.1]), 0.0)
        marked = mark(etas, 1.0)
        assert marked.dtype == np.int64
        assert marked.tolist() == [0, 2, 3]

    def test_bulk_arithmetic_example(self):
        # squared indicators (4, 1, 1, 1, 1): the largest alone reaches half
        etas = EtaField(np.sqrt([4.0, 1.0, 1.0, 1.0, 1.0]), 0.0)
        assert mark(etas, math.sqrt(0.5)).tolist() == [0]

    def test_all_zero_gives_empty_set(self):
        marked = mark(EtaField(np.zeros(5), 0.0), 0.5)
        assert marked.dtype == np.int64 and marked.tolist() == []

    def test_tie_break_prefers_lower_index(self):
        etas = EtaField(np.array([1.0, 1.0, 1.0, 1.0]), 0.0)
        assert mark(etas, 0.5).tolist() == [0]

    def test_theta_one_when_pairwise_sum_exceeds_cumsum(self):
        # numpy's pairwise sum of the squares (1 + 1e-11) once exceeded their
        # sequential cumsum (1.0) by more than the 1e-12 slack, so no prefix
        # reached the target and indexing the empty match raised IndexError
        etas = EtaField(np.concatenate([[1.0], np.full(100_000, 1e-8)]), 0.0)
        assert mark(etas, 1.0).tolist() == [0]

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            mark(EtaField(np.ones(3), 0.0), 0.0)
        with pytest.raises(ValueError):
            mark(EtaField(np.ones(3), 0.0), 1.5)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                    max_size=40),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_marked_set_is_minimal(self, values, theta):
        eta_sq = np.asarray(values)
        etas = EtaField(np.sqrt(eta_sq), 0.0)
        marked = mark(etas, theta)
        assert marked.dtype == np.int64
        assert np.all(np.diff(marked) > 0)
        total = eta_sq.sum()
        if total == 0.0:
            assert marked.size == 0
            return
        got = eta_sq[marked].sum()
        assert got >= theta ** 2 * total - 1e-12 * total
        # dropping the weakest marked element must break the bulk bound;
        # compared as a fraction of the total, because theta^2 * total
        # underflows to zero when the total is subnormal
        weakest = min(marked, key=lambda i: (eta_sq[i], -i))
        assert (got - eta_sq[weakest]) / total < theta ** 2 + 1e-12


class TestAdaptiveSolve:
    def test_lshape_records_and_conformity(self):
        cfg = ContinuationConfig()
        levels = list(solve_levels(generate_lshape("crisscross", 4), 2, cfg,
                                   (4,), 1e-7, 5, partial(next_mesh, 0.5)))
        # five levels: the estimate never vanished, so every level refined
        assert [level.index for level in levels] == list(range(5))
        final_mesh = adaptive_solve(generate_lshape("crisscross", 4),
                                    2, 0.5, 5, cfg, 4, 1e-7)
        validate_mesh(final_mesh)
        assert np.array_equal(final_mesh.triangles, levels[-1].mesh.triangles)
        assert np.array_equal(final_mesh.nodes, levels[-1].mesh.nodes)
        dofs = [level.n_dof for level in levels]
        assert dofs == sorted(dofs)
        lams = [level.trace.eigenvalue for level in levels]
        assert all(l2 <= l1 + 1e-10 for l1, l2 in zip(lams, lams[1:]))
        assert all(lam >= LSHAPE_REF - 1e-12 for lam in lams)
        for level in levels:
            [run] = level.per_stride
            assert abs(run.trace.eigenvalue - level.trace.eigenvalue) <= 1e-8

    def test_geometry_built_once_per_mesh(self, monkeypatch):
        # validation, assembly, estimation and the stats all read one cache:
        # each cached property's builder runs once per mesh
        built = {name: [] for name in ("areas", "edge_lengths", "gradients",
                                       "edge_table")}
        for name, calls in built.items():
            def counted(mesh, _fn=getattr(Mesh, name).func, _calls=calls):
                _calls.append(mesh)
                return _fn(mesh)
            prop = cached_property(counted)
            prop.__set_name__(Mesh, name)
            monkeypatch.setattr(Mesh, name, prop)
        cfg = ContinuationConfig()
        final_mesh = adaptive_solve(generate_lshape("crisscross", 2),
                                    2, 0.5, 3, cfg, 4, 1e-7)
        mesh_stats(final_mesh)
        for calls in built.values():
            # one call per mesh of the three levels, each a distinct mesh
            assert len(calls) == 3
            assert len({id(m) for m in calls}) == 3
            assert calls[-1] is final_mesh

    def test_unconverged_fom_raises(self):
        cfg = ContinuationConfig(max_steps=3)
        # the step cap, not the eigen-residual check of a stopped run
        with pytest.raises(NonconvergenceError,
                           match="did not converge in 3 steps$") as info:
            adaptive_solve(generate_lshape("crisscross", 2), 2, 0.5, 2, cfg,
                           4, 1e-7)
        assert info.value.residual > 0
