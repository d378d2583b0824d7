"""Golden digests of the assembled operators and the error estimator.

For each degree, two digests hash, over every golden mesh of
``test_mesh_golden`` in key order: the ``data``, ``indices`` and ``indptr``
of A and M (dtype, shape and bytes), and the per-triangle indicators of
``adapt.estimate`` for a seeded random field.  Any rounding change in the
element matrices, the sparse conversion or the estimator shows here, not
only one that flips a marked triangle of the adaptive run, and the digest
that moved names the part that changed.
"""

import hashlib

import numpy as np
import pytest

from eigenrom.adapt import estimate
from eigenrom.fem import assemble, build_dofmap
from test_mesh_golden import build, keys

GOLDEN = {
    1: {"operators": "f5d8427e634e1edb62f3c98564234daa4f6cd63a2d8f91696df31ada3391db33",
        "estimator": "f95df9a66d3476e66c39b743ed8f1f102011736a9a41f5d4302b48fe6094515a"},
    2: {"operators": "d71f1a78b1f07acf0f364b22526854424791e5f6f09752b80e34f54cf0f0323c",
        "estimator": "1a9b7129e4fc93c963ce23b9127708261b16c593547818cd94ce0eab963df72d"},
}


def digests(degree) -> dict:
    hashes = {part: hashlib.sha256() for part in ("operators", "estimator")}

    def put(part, name, a):
        hashes[part].update(f"{name} {a.dtype.str} {a.shape}".encode())
        hashes[part].update(np.ascontiguousarray(a).tobytes())

    for key in keys():
        mesh = build(key)
        dofmap = build_dofmap(mesh, degree)
        A, M = assemble(mesh, dofmap)
        u = np.random.default_rng(0).standard_normal(dofmap.n_free)
        for h in hashes.values():
            h.update(key.encode())
        for name, op in (("A", A), ("M", M)):
            for part in ("data", "indices", "indptr"):
                put("operators", f"{name}.{part}", getattr(op, part))
        put("estimator", "eta", estimate(mesh, dofmap, u, 2.5).per_triangle)
    return {part: h.hexdigest() for part, h in hashes.items()}


@pytest.mark.parametrize("degree", (1, 2))
def test_operators_and_estimator_match_golden_digest(degree):
    assert digests(degree) == GOLDEN[degree]
