"""Min-max principle for the full-order and the reduced run, and the reduced
run as the full-order run on a subspace.

Every Rayleigh quotient of a discrete vector is at least the smallest
eigenvalue lambda_1h of the pencil (A, M), and the reduced run takes its
quotients on the subspace spanned by the basis, so both runs must stay at or
above lambda_1h on any conforming mesh, including randomly bisected ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenrom.continuation import ContinuationConfig, run_fom
from eigenrom.fem import assemble, build_dofmap
from eigenrom.mesh import bisect_refine, generate_lshape, generate_square
from eigenrom.pod import build_pod
from eigenrom.rom import reduce, run_rom
from oracles import smallest_pencil_eigenpair

STARTS = {
    **{f"square-{p}-{n}": (lambda p=p, n=n: generate_square(p, n, math.pi))
       for p in ("crisscross", "right") for n in (2, 3, 4)},
    **{f"lshape-{p}-2": (lambda p=p: generate_lshape(p, 2))
       for p in ("crisscross", "mixed")},
}


@given(start=st.sampled_from(sorted(STARTS)), degree=st.sampled_from([1, 2]),
       dt=st.floats(min_value=1e-2, max_value=1.0), data=st.data(),
       rounds=st.integers(min_value=0, max_value=2))
@settings(max_examples=50, deadline=None)
def test_both_runs_stay_above_the_discrete_eigenvalue(start, degree, dt, data,
                                                      rounds):
    mesh = STARTS[start]()
    for _ in range(rounds):
        mesh = bisect_refine(mesh, data.draw(st.lists(
            st.integers(min_value=0, max_value=mesh.n_triangles - 1),
            max_size=mesh.n_triangles)))
    A, M = assemble(mesh, build_dofmap(mesh, degree))
    lam_h, _ = smallest_pencil_eigenpair(A, M)
    cfg = ContinuationConfig(dt=dt)
    trace, snapshots = run_fom(A, M, cfg, 1)
    basis = build_pod(snapshots, eps=1e-7)
    rom_trace, _ = run_rom(reduce(A, M, basis.V), np.ones(A.shape[0]), cfg)
    floor = lam_h * (1 - 1e-12)
    assert np.all(trace.lambda_history >= floor)
    assert np.all(rom_trace.lambda_history >= floor)


@pytest.mark.parametrize("domain,n,degree", [("square", 4, 1),
                                              ("lshape", 2, 2)])
def test_reduced_run_on_the_identity_basis_is_the_full_run(domain, n, degree):
    mesh = (generate_square("crisscross", n, math.pi) if domain == "square"
            else generate_lshape("crisscross", n))
    A, M = assemble(mesh, build_dofmap(mesh, degree))
    u0 = np.random.default_rng(7).standard_normal(A.shape[0])
    cfg = ContinuationConfig()
    fom, _ = run_fom(A, M, cfg, 4, u0)
    rom, _ = run_rom(reduce(A, M, np.eye(A.shape[0])), u0, cfg)
    assert rom.n_steps == fom.n_steps
    assert np.allclose(rom.lambda_history, fom.lambda_history,
                       rtol=1e-12, atol=0)
