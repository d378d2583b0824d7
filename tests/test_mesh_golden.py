"""Golden digests of generated and refined meshes.

Each digest hashes the dtype, shape and bytes of ``nodes``, ``triangles``,
``boundary_node`` and ``refinement_edge``, in that order, so it pins both the
node order (the ``(y, x)`` sort) and the triangle order, which matters
because ``adapt.mark`` breaks ties by the lower triangle index.  The digests
were recorded with the loop-based generators and the recursive bisection
that the array code replaced; any change to a mesh shows here.  The adaptive
digest hashes the ``--dump-mesh`` file of a whole adaptive run, so a rounding
change anywhere upstream of the marking that flips a marked triangle shows
here too.  The ``write_mesh`` text of every golden mesh, hashed in key
order, pins the file format byte for byte.  The cached triangle geometry of
every golden mesh must equal the direct formulas bit for bit.
"""

import hashlib

import numpy as np
import pytest

from eigenrom.cli import main as cli_main
from eigenrom.mesh import bisect_refine, generate, uniform_refine, write_mesh

FIELDS = ("nodes", "triangles", "boundary_node", "refinement_edge")
PATTERNS = (("square", "crisscross"), ("square", "right"), ("square", "left"),
            ("lshape", "crisscross"), ("lshape", "mixed"))
BISECTION_STARTS = (("lshape", "mixed", 2), ("lshape", "crisscross", 2),
                    ("square", "right", 2))

GOLDEN = {
    "generated-square-crisscross-1":
        "9368d529f6674a61c2f79f006af687bd48ac86b4c443225ee8538c59e1119cca",
    "refined-square-crisscross-1":
        "7b2af5dfc1b7b21336f67b2c207a87413c1268e127f32176e81a1fc763768991",
    "generated-square-crisscross-2":
        "2f24873969fd5d2e203b9eca05f43b09533322a06b3710023655a22c9dc6d3a9",
    "refined-square-crisscross-2":
        "6b8e6ee5b97d8ed85aa024fa2cc9ca7a9a736ab917e0d3e36b3e1c74805fa698",
    "generated-square-crisscross-3":
        "ab189dbc372903c07f3ad9dfad1c2e5a76b57309d64699e99f3716262c449b1a",
    "refined-square-crisscross-3":
        "1fe6137848371ec20865f676579589a8f841d495648ae73e329567587c229385",
    "generated-square-crisscross-16":
        "1d0b26a82c33190ac81886ddd504afa3f863a34a4918573c2dbcb4602a6b98ee",
    "refined-square-crisscross-16":
        "9186ab0b2c8b6787a3e162ef0d1b526996f4136f7ea053478637870ef0f5c2f7",
    "generated-square-right-1":
        "6b88b00fb998575c6ca9e4ec9ffe9ffd5530b08481818ed75c47530eb2334f60",
    "refined-square-right-1":
        "2c775860a290f5bbc5400a50fcf2166e62b428383afd64ed59eacbd1fcbd7255",
    "generated-square-right-2":
        "4805b09d864fd8adf3589614e84a6b68106a2605937ce129f12f3419ab72e290",
    "refined-square-right-2":
        "61c3796505795b603874acb1825a278c9a39907b24819b0edb666ac60ce3cc20",
    "generated-square-right-3":
        "8d91035dca63e568f66e1ca88ded6cccc75b5e21ccfde724e63d01a8b2b35c4a",
    "refined-square-right-3":
        "6fe4b6974798c43b6355cabea718688f0859901900478fc29d4933e925ff84e8",
    "generated-square-right-16":
        "c022fb01cff7ab8545c28b259b74c496d78ead0a738a11d985aba20cefd5aa33",
    "refined-square-right-16":
        "b2b9f27ef1a68e3106d8a424e503364f645c3cdc93fcc24366174cb72b5864b9",
    "generated-square-left-1":
        "9eee9883128859e52267e3bd28fd86442bc1725d1d8af780d53cce76bbd4fd91",
    "refined-square-left-1":
        "5e20371f2f19f2f855badbd36e75a379cc030b3ba0ba821f10e2af3a88e3bd57",
    "generated-square-left-2":
        "e2d993868a228cfa717dd7f56c353761181e6a6d20fa46a54147d9fe2822e056",
    "refined-square-left-2":
        "3c41166130f5ba893bcf075196e5bfec394bf6f2d3e845231cf89649a430ff9c",
    "generated-square-left-3":
        "935dcc24641c3fde78e4c974df21f251b74a29c666e5d453ec7a0a19e854709c",
    "refined-square-left-3":
        "96f5f0fec47e41126dd3b11a85ebc1ccd68b64db3c2a4dc3c311398c6eff0b91",
    "generated-square-left-16":
        "dfb3a5e770bd487f8b604b15d07d6e021e6236457ae2aecf16aa127410f1fe87",
    "refined-square-left-16":
        "c9152a84c4fd826ef8317fccc943f5d0975fac4c421e743eb94ba99bfc429dc2",
    "generated-lshape-crisscross-1":
        "734e6e25d4b14eac5f7e761017f40e6b97d749d23325c6534cbe5093b4fc9788",
    "refined-lshape-crisscross-1":
        "697aba4effe53ec67eb69b6a5b5d773be25bba25242421c343a91145a5981f5b",
    "generated-lshape-crisscross-2":
        "378abca3757557786e72c37288fc94ccc08779cb9eae67d12bb308ac454c0037",
    "refined-lshape-crisscross-2":
        "f815b81289cf3887c8112856192dc9ea6472004a3c03719f81ed43300a046542",
    "generated-lshape-crisscross-3":
        "02efa0cd11c807915b5cc1bc33506abd623e8af7fc05f06920f61969561b8ba9",
    "refined-lshape-crisscross-3":
        "d7d6b996a31126ec3cba3ffa73d20cb6b1ad853c572b42b6009f0437319ebc47",
    "generated-lshape-crisscross-16":
        "5ecf4cd26885d3f92ed411c914e0bff4a7d855f04510bea9f908084d0b9973f5",
    "refined-lshape-crisscross-16":
        "26aeb7c9f31c82c996de346c410d343d9a2d7adf52aafdc8e433f1a994ff6c6b",
    "generated-lshape-mixed-1":
        "a88bde37ce1ffc7d731ac7af5800e726b635a5cce1fed2bfbfdf8c78639fcfdf",
    "refined-lshape-mixed-1":
        "274bdfd6cba81bfbdaeee8cb2c0ea9cda12dd6cc97e91fb4ab711269a4d7e7f0",
    "generated-lshape-mixed-2":
        "e415eb0a9055f5d375ba004290cfe9fb03e74acdc8be88f51a9f2dc7cf7f3131",
    "refined-lshape-mixed-2":
        "a2e59c138a2718c47c41328dc570d893f0b5f4c52153ae73141d08feafcf68d2",
    "generated-lshape-mixed-3":
        "03563a62378c50df86038bb3cbf809a718de7d94e168e682beeb2d8e345f5b5e",
    "refined-lshape-mixed-3":
        "1332160c726f9f8284c87fdb64685b7916a42b40632c68af4db24c38f75e5495",
    "generated-lshape-mixed-16":
        "0b1b385bae5b28eabd4b6f82e661f8efe19f895e6ebcb45a565a05d00cbb8e3f",
    "refined-lshape-mixed-16":
        "45cbd2b8795e6caef367f220517f8921ea3027d0b5cfaea91b954f64dfd7ab75",
    "bisected-lshape-mixed-2":
        "ab9e98c2811d884e2ec2a60728680f5e830ce6c6dc8a00aa263f07497a44d99e",
    "bisected-lshape-crisscross-2":
        "707756317ed494c1aadbae651f3cbc927babd9225c4c9fa72a4a963ad468008b",
    "bisected-square-right-2":
        "664c5e21896b1f293848a7eecefd491e13cca9433d23e5c3973e42d676d8d941",
}

# the benchmark's lshape-adaptive workload at seed 0 (24 P2 levels)
ADAPTIVE_ARGV = ("--domain", "lshape", "--mesh", "crisscross", "--fe", "2",
                 "--n-start", "4", "--adaptive", "--theta", "0.5",
                 "--levels", "24", "--seed", "0")
ADAPTIVE_GOLDEN = "ca1fef9f552dd7d5052bd7a86f3aa0972e71ceab74f84ebdc42ee5582207ada4"
# every GOLDEN key, then the write_mesh text of its mesh, in keys() order
TEXT_GOLDEN = "a9a34ee20c4f57f054ebe77305bd5a96c21ad58783f587189bb24a2a9df28731"


def digest(mesh) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(mesh, name))
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def build(key):
    """The mesh named by a GOLDEN key."""
    kind, domain, pattern, n = key.split("-")
    mesh = generate(domain, pattern, int(n))
    if kind == "refined":
        return uniform_refine(mesh)
    if kind == "bisected":
        # six rounds, each marking a random fifth of the triangles
        rng = np.random.default_rng(7)
        for _ in range(6):
            marked = rng.choice(mesh.n_triangles, size=max(1, mesh.n_triangles // 5),
                                replace=False)
            mesh = bisect_refine(mesh, marked.tolist())
    return mesh


def keys():
    for domain, pattern in PATTERNS:
        for n in (1, 2, 3, 16):
            yield f"generated-{domain}-{pattern}-{n}"
            yield f"refined-{domain}-{pattern}-{n}"
    for domain, pattern, n in BISECTION_STARTS:
        yield f"bisected-{domain}-{pattern}-{n}"


@pytest.mark.parametrize("key", list(keys()))
def test_mesh_matches_golden_digest(key):
    assert digest(build(key)) == GOLDEN[key]


def test_adaptive_mesh_sequence_matches_golden_digest(tmp_path):
    dump = tmp_path / "final.mesh"
    assert cli_main(["run", *ADAPTIVE_ARGV, "--out", str(tmp_path / "t.csv"),
                     "--dump-mesh", str(dump)]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == ADAPTIVE_GOLDEN


def test_mesh_text_matches_golden_digest(tmp_path):
    h = hashlib.sha256()
    path = tmp_path / "golden.mesh"
    for key in keys():
        write_mesh(build(key), path)
        h.update(key.encode() + b"\n")
        h.update(path.read_bytes())
    assert h.hexdigest() == TEXT_GOLDEN


@pytest.mark.parametrize("key", list(keys()))
def test_cached_geometry_matches_direct_formulas(key):
    mesh = build(key)
    x, y = (mesh.nodes[mesh.triangles, d] for d in (0, 1))     # (T, 3) each
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    # local edge i, opposite vertex i, runs from vertex a to vertex b
    ends = ((1, 2), (2, 0), (0, 1))
    lengths = np.column_stack([np.hypot(x[:, a] - x[:, b], y[:, a] - y[:, b])
                               for a, b in ends])
    grads = np.stack([np.column_stack([-(y[:, b] - y[:, a]), x[:, b] - x[:, a]])
                      for a, b in ends], axis=1) / (2.0 * area)[:, None, None]

    cached = (mesh.areas, mesh.edge_lengths, mesh.gradients)
    for got, want in zip(cached, (area, lengths, grads)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    # built once: every call returns the same arrays
    again = (mesh.areas, mesh.edge_lengths, mesh.gradients)
    assert all(a is b for a, b in zip(cached, again))
