import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenrom.adapt import (EtaField, adaptive_solve, estimate, mark,
                            _estimate_full)
from eigenrom.continuation import ContinuationConfig
from eigenrom.fem import DiscreteField, build_dofmap, interpolate
from eigenrom.linalg import NonconvergenceError
from eigenrom.mesh import (edge_lengths, generate_lshape, generate_square,
                           triangle_areas, validate_mesh)

PI = math.pi
LSHAPE_REF = 9.6397238440219

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


def oracle_element_integral(mesh, f):
    """Integral of f over each triangle by the degree-6 reference rule."""
    p = mesh.nodes[mesh.triangles]
    pts = np.einsum("qk,tkd->tqd", _ORACLE_BARY, p)
    vals = f(pts[..., 0], pts[..., 1])
    return triangle_areas(mesh) * (vals @ _ORACLE_W)


class TestEstimate:
    def test_zero_field_gives_zero(self):
        mesh = generate_square("crisscross", 4, PI)
        dm = build_dofmap(mesh, 1)
        eta = estimate(mesh, dm, DiscreteField(dm, np.zeros(dm.n_free)), 2.0)
        assert eta.total == 0.0
        assert np.all(eta.per_triangle == 0.0)

    def test_globally_linear_p1_has_no_jumps(self):
        # u = x has continuous gradient: the indicator reduces to the
        # zero-order residual h_K^2 lam^2 ||u||^2 per element exactly
        mesh = generate_square("right", 3, PI)
        dm = build_dofmap(mesh, 1)
        u_full = interpolate(dm, lambda x, y: x)
        lam = 1.7
        eta = _estimate_full(mesh, dm, u_full, lam)
        h_k = edge_lengths(mesh).max(axis=1)
        mass = oracle_element_integral(mesh, lambda x, y: x ** 2)
        expected = h_k ** 2 * lam ** 2 * mass
        assert np.allclose(eta.per_triangle ** 2, expected, rtol=1e-12)

    def test_globally_quadratic_p2_residual_only(self):
        # u = x^2 is in the P2 space with continuous gradient; residual is
        # (2 + lam x^2)^2 integrated exactly (cross-checked by a finer rule)
        mesh = generate_square("left", 2, PI)
        dm = build_dofmap(mesh, 2)
        u_full = interpolate(dm, lambda x, y: x ** 2)
        lam = 0.9
        eta = _estimate_full(mesh, dm, u_full, lam)
        h_k = edge_lengths(mesh).max(axis=1)
        res = oracle_element_integral(mesh,
                                      lambda x, y: (2.0 + lam * x ** 2) ** 2)
        assert np.allclose(eta.per_triangle ** 2, h_k ** 2 * res, rtol=1e-12)

    def test_total_consistent_with_components(self, runs):
        mesh, dm, A, M, _, trace, _ = runs.fom("lshape", "crisscross", 8, 1)
        u = trace.final_vector
        u = u / np.sqrt(u @ (M @ u))
        eta = estimate(mesh, dm, DiscreteField(dm, u), trace.eigenvalue)
        assert eta.total == pytest.approx(
            np.sqrt(np.sum(eta.per_triangle ** 2)), rel=1e-14)
        assert np.all(eta.per_triangle >= 0)

    def test_maximal_indicator_at_reentrant_corner(self, runs):
        mesh, dm, A, M, _, trace, _ = runs.fom("lshape", "crisscross", 8, 1)
        u = trace.final_vector
        u = u / np.sqrt(u @ (M @ u))
        eta = estimate(mesh, dm, DiscreteField(dm, u), trace.eigenvalue)
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
            eta = estimate(mesh, dm, DiscreteField(dm, u), trace.eigenvalue)
            ratios.append(eta.total ** 2 / (trace.eigenvalue - 2.0))
        assert max(ratios) <= 10 * min(ratios)


class TestMark:
    def test_theta_one_marks_all_positive(self):
        etas = EtaField(np.array([0.5, 0.0, 0.2, 0.1]), 0.0)
        assert mark(etas, 1.0) == {0, 2, 3}

    def test_bulk_arithmetic_example(self):
        # squared indicators (4, 1, 1, 1, 1): the largest alone reaches half
        etas = EtaField(np.sqrt([4.0, 1.0, 1.0, 1.0, 1.0]), 0.0)
        assert mark(etas, math.sqrt(0.5)) == {0}

    def test_all_zero_gives_empty_set(self):
        assert mark(EtaField(np.zeros(5), 0.0), 0.5) == set()

    def test_tie_break_prefers_lower_index(self):
        etas = EtaField(np.array([1.0, 1.0, 1.0, 1.0]), 0.0)
        assert mark(etas, 0.5) == {0}

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
        total = eta_sq.sum()
        if total == 0.0:
            assert marked == set()
            return
        got = eta_sq[sorted(marked)].sum()
        assert got >= theta ** 2 * total - 1e-12 * total
        # dropping the weakest marked element must break the bulk bound;
        # compared as a fraction of the total, because theta^2 * total
        # underflows to zero when the total is subnormal
        weakest = min(marked, key=lambda i: (eta_sq[i], -i))
        assert (got - eta_sq[weakest]) / total < theta ** 2 + 1e-12


class TestAdaptiveSolve:
    def test_lshape_records_and_conformity(self):
        cfg = ContinuationConfig(initial_guess="random", snapshot_stride=4)
        records, final_mesh = adaptive_solve(generate_lshape("crisscross", 4),
                                             2, 0.5, 5, cfg)
        assert len(records) == 5
        validate_mesh(final_mesh)
        dofs = [r.n_dof for r in records]
        assert dofs == sorted(dofs)
        lams = [r.lambda_fom for r in records]
        assert all(l2 <= l1 + 1e-10 for l1, l2 in zip(lams, lams[1:]))
        assert all(r.lambda_fom >= LSHAPE_REF - 1e-12 for r in records)
        assert all(abs(r.lambda_rom - r.lambda_fom) <= 1e-8 for r in records)
        assert all(r.eta_total > 0 for r in records)

    def test_unconverged_fom_raises(self):
        cfg = ContinuationConfig(max_steps=3)
        with pytest.raises(NonconvergenceError) as info:
            adaptive_solve(generate_lshape("crisscross", 2), 2, 0.5, 2, cfg)
        assert info.value.residual > 0
