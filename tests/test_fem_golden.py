"""Golden digests of the assembled operators and the error estimator.

For each degree, one digest hashes, over every golden mesh of
``test_mesh_golden`` in key order, the ``data``, ``indices`` and ``indptr``
of A and M (dtype, shape and bytes) and the per-triangle indicators of
``adapt.estimate`` for a seeded random field.  Any rounding change in the
element matrices, the sparse conversion or the estimator shows here, not
only one that flips a marked triangle of the adaptive run.
"""

import hashlib

import numpy as np
import pytest

from eigenrom.adapt import estimate
from eigenrom.fem import assemble, build_dofmap
from test_mesh_golden import build, keys

GOLDEN = {
    1: "7ce7777449b6869623e74a47f75e1889a534cce89102be1b1824e2e494db50d2",
    2: "40c6add84bd5cd6e731e30e691643e03f3816e3618e3c078df1c7708980b4518",
}


def digest(degree) -> str:
    h = hashlib.sha256()

    def put(name, a):
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    for key in keys():
        mesh = build(key)
        dofmap = build_dofmap(mesh, degree)
        A, M = assemble(mesh, dofmap)
        u = np.random.default_rng(0).standard_normal(dofmap.n_free)
        h.update(key.encode())
        for name, op in (("A", A), ("M", M)):
            for part in ("data", "indices", "indptr"):
                put(f"{name}.{part}", getattr(op, part))
        put("eta", estimate(mesh, dofmap, u, 2.5).per_triangle)
    return h.hexdigest()


@pytest.mark.parametrize("degree", (1, 2))
def test_operators_and_estimator_match_golden_digest(degree):
    assert digest(degree) == GOLDEN[degree]
