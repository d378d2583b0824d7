import math

import numpy as np
import pytest

from eigenrom.continuation import ContinuationConfig, run_fom
from eigenrom.fem import assemble, build_dofmap
from eigenrom.mesh import generate_lshape, generate_square


class RunCache:
    """Session-wide cache of full-order runs keyed by configuration.

    The expensive continuation runs are shared between the module tests and
    the acceptance suite; everything is deterministic, so caching is safe.
    """

    def __init__(self):
        self._store = {}

    def fom(self, domain, pattern, n, degree, stride=2):
        key = (domain, pattern, n, degree, stride)
        if key not in self._store:
            if domain == "square":
                mesh = generate_square(pattern, n, math.pi)
            else:
                mesh = generate_lshape(pattern, n)
            dofmap = build_dofmap(mesh, degree)
            A, M = assemble(mesh, dofmap)
            cfg = ContinuationConfig(seed=0)
            trace, snaps = run_fom(A, M, cfg, stride)
            self._store[key] = (mesh, dofmap, A, M, cfg, trace, snaps)
        return self._store[key]


@pytest.fixture(scope="session")
def runs():
    return RunCache()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
