"""Golden digests of whole runs through the command line.

Each case is one ``eigenrom run`` argument list at one seed, run in-process
with both dumps; a ``{name}`` in an argument is the path of the input mesh
file ``MESH_FILES[name]``, written to a folder of its own.  Its digest
hashes the first eight CSV columns of every row (everything but the wall
times ``fom_s`` and ``rom_s``) and then every dump file, in name order: the
finest mesh and the singular values of each stride.
So a rounding change anywhere in a run, from mesh generation to the reduced
iteration and the rates, shows here and names the run.

The digests were recorded once, at the commit that added each case.  A
change that moves rounding on purpose re-records them, and states the old
and new digests and the largest deviation it measured.  Run as a script,

    PYTHONPATH=src python tests/test_run_digests.py

prints the ``GOLDEN`` entries of the current code, to paste over the table.
"""

import csv
import hashlib
import tempfile
from pathlib import Path

import pytest

from eigenrom.cli import main as cli_main
from eigenrom.mesh import generate, write_mesh

# the input meshes of the file-mesh runs: name -> generate's arguments
MESH_FILES = {"square-right-4": ("square", "right", 4),
              "lshape-mixed-2": ("lshape", "mixed", 2)}

ARGVS = {
    # the benchmark's three workloads
    "square-uniform": ("--domain", "square", "--mesh", "crisscross", "--fe", "1",
                       "--n-start", "16", "--levels", "3", "--stride", "4"),
    "lshape-adaptive": ("--domain", "lshape", "--mesh", "crisscross", "--fe", "2",
                        "--n-start", "4", "--adaptive", "--theta", "0.5",
                        "--levels", "24"),
    "square-strides": ("--domain", "square", "--mesh", "crisscross", "--fe", "1",
                       "--n-start", "16", "--levels", "1", "--strides", "2,4,8"),
    # one run down each remaining branch of the schedule
    "square-right-p2-exact": ("--domain", "square", "--mesh", "right", "--fe", "2",
                              "--n-start", "4", "--levels", "3",
                              "--pod-eps", "exact"),
    "lshape-mixed-p1-uniform": ("--domain", "lshape", "--mesh", "mixed", "--fe", "1",
                                "--n-start", "4", "--levels", "3"),
    "lshape-p1-adaptive": ("--domain", "lshape", "--mesh", "crisscross", "--fe", "1",
                           "--n-start", "4", "--adaptive", "--levels", "20"),
    "lshape-mixed-p2-adaptive": ("--domain", "lshape", "--mesh", "mixed", "--fe", "2",
                                 "--n-start", "2", "--adaptive", "--theta", "0.3",
                                 "--levels", "20"),
    "file-square-right-p1": ("--domain", "square",
                             "--mesh", "file:{square-right-4}", "--fe", "1",
                             "--levels", "3"),
    "file-lshape-mixed-p2-adaptive": ("--domain", "lshape",
                                      "--mesh", "file:{lshape-mixed-2}",
                                      "--fe", "2", "--adaptive",
                                      "--levels", "12"),
}
SEEDS = (0, 1, 2)

GOLDEN = {
    "file-lshape-mixed-p2-adaptive-0":
        "ecf0df59e7ede8ba62d04167e090ca6dbf3236d1094b52f1b943a1c07f4daae4",
    "file-lshape-mixed-p2-adaptive-1":
        "e6b502a814be0a387efc5e7ff8ad76e15ff4ada698e1e242c79949e63b3e41e3",
    "file-lshape-mixed-p2-adaptive-2":
        "a8ea30de38f7ebb9285109e4ff4caee1e57f15be62e3f773377acd3818827a62",
    "file-square-right-p1-0":
        "84c1da767dd7873bc38fd2f629bb430c3d50d89b5391e131337f4d84b0124e77",
    "file-square-right-p1-1":
        "03fd9eb706a98b1b2c0ad6b9e571f1296710b58b5101ec35852c1f6607418a76",
    "file-square-right-p1-2":
        "18b69b3fe843b123ac3dbce3092b6ce44c8a7e49f34e0c39b618432aef491379",
    "lshape-adaptive-0":
        "96853bd57a05a4812ab1e0fa8012028287fa662a4408f6228f002fd8a9aab7a6",
    "lshape-adaptive-1":
        "c80843e53fda6ace2d03a778f3dff67630c42554996a2dfd319e87d9909a1bb2",
    "lshape-adaptive-2":
        "c024a5e07493aa227db8b94d8c3bd0ecfa8b6e0e0ca49f76e1ca04e830936b0f",
    "lshape-mixed-p1-uniform-0":
        "715421d14a2c96ca274c0b95a34e0da36bbcfe8b9cb7749e2144589e81d44b61",
    "lshape-mixed-p1-uniform-1":
        "d7782d7a78a3e5f68b5292191afe52ad5ba20f573a998b3cb03764cb084e9343",
    "lshape-mixed-p1-uniform-2":
        "1e800adf823eb4290b325a9be5c9866d6c8e279ccb23b8be7e34790a42cd2593",
    "lshape-mixed-p2-adaptive-0":
        "bd05ceb6ccc0f45a60848bfd4ee9d8313ffb9c5d64cf187f6ebb8e8a6ca9e719",
    "lshape-mixed-p2-adaptive-1":
        "901e6abf31c2b17bbfa7782fcbf9c5ced7a453398b46983c5fbb17dda9b4696d",
    "lshape-mixed-p2-adaptive-2":
        "d27f843ad9d4f05571ab9b8f715fcddd093d481b207bb19cd644bfcbb2a78d95",
    "lshape-p1-adaptive-0":
        "a85d225e9efa163e5f3ee4eb9b2f4e429208cc6086bb9668f986170ba7022afb",
    "lshape-p1-adaptive-1":
        "967accbdc17bda988a24b52a5cf600c9b8879bd8f16eeec9ad833758f971a166",
    "lshape-p1-adaptive-2":
        "8a380e397349c7a7a57d34e02bcbe842ccf0468ccbc28a8876065c502a22ec7d",
    "square-right-p2-exact-0":
        "15de6126ed744f79a5849684d165b1cc7df6ac28f7d6ceef2a73c0516cd0ce42",
    "square-right-p2-exact-1":
        "b7a120292b0003c00384b6bf41b412993bbed528c088ba754a084fa49e8f564b",
    "square-right-p2-exact-2":
        "647f29817e7e1a2157b882dcab9b07cad1ba9cf087d4014ae8ff724882c7df9d",
    "square-strides-0":
        "a857195a40f81a92c0757fc099ea3cad018ac5f168038503876ad4ddcc4b5a13",
    "square-strides-1":
        "c337dfc9b9eb58b48949b585c195cb6a8098e7ac3045ca3893d742e7c34f78ba",
    "square-strides-2":
        "ebc2f1d87b347e30ee3701daa75578885154337900e67f6baab870b5b78250de",
    "square-uniform-0":
        "92a1f9b0307582ccc0701a8780167f99b5a73e87ebb0b539135ab31184acbac7",
    "square-uniform-1":
        "5870d5db8f648957ce45422315871fee41964cd57aeb81565cc3e4ffaf907c6a",
    "square-uniform-2":
        "276ae061494c6d96e49ce5fa4ecce355c86e680aba75cd45fc217f73c9b961ca",
}


def write_mesh_files(folder) -> dict:
    """Write every MESH_FILES mesh into folder; return name -> path."""
    paths = {name: str(Path(folder) / f"{name}.mesh") for name in MESH_FILES}
    for name, args in MESH_FILES.items():
        write_mesh(generate(*args), paths[name])
    return paths


def run_digest(argv, seed, folder) -> str:
    out = folder / "table.csv"
    assert cli_main(["run", *argv, "--seed", str(seed), "--out", str(out),
                     "--dump-mesh", str(folder / "final.mesh"),
                     "--dump-singvals", str(folder / "singvals.txt")]) == 0
    h = hashlib.sha256()
    with open(out, newline="") as fh:
        for record in csv.reader(fh):
            h.update((",".join(record[:8]) + "\n").encode())
    for path in sorted(p for p in folder.iterdir() if p != out):
        h.update(path.name.encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


def case_digest(name, seed, folder, mesh_files) -> str:
    argv = [arg.format(**mesh_files) for arg in ARGVS[name]]
    return run_digest(argv, seed, folder)


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    return write_mesh_files(tmp_path_factory.mktemp("mesh_files"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(ARGVS))
def test_run_matches_golden_digest(tmp_path, mesh_files, name, seed):
    assert (case_digest(name, seed, tmp_path, mesh_files)
            == GOLDEN[f"{name}-{seed}"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = write_mesh_files(root)
        print("GOLDEN = {")
        for name in sorted(ARGVS):
            for seed in SEEDS:
                folder = root / f"{name}-{seed}"
                folder.mkdir()
                digest = case_digest(name, seed, folder, inputs)
                print(f'    "{name}-{seed}":\n        "{digest}",')
        print("}")
