"""Fuzz of ``eigenrom run`` over small argument lists, bad values included.

Whatever the arguments, the CLI must end with exit code 0, 1 or 2 and an
``eigenrom: error:`` line rather than a traceback, and a uniform run that
exits 0 writes one row per level and stride.  The exit code says where a
failure came from: 2 exactly when a solve failed with a ``SolverError``, and
1 only for an input refused before the first full-order solve, or for the
one input error that shows only once a run ends (``SnapshotStrideError``).
Most examples of the first property are refused before any solve; the second
draws valid arguments only, with stop tolerances loose enough, or steps short
enough, that many runs stop away from an eigenpair and exit 2.  The third
runs generated meshes written to a file with one mutation that breaks
conformity; each is refused as a ``MeshError`` before any solve.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenrom.cli as cli
import eigenrom.rom as rom
from eigenrom.continuation import run_fom
from eigenrom.harness import read_csv, run_experiment
from eigenrom.linalg import SolverError
from eigenrom.mesh import PATTERNS, MeshError, generate
from eigenrom.rom import SnapshotStrideError
from mesh_files import (duplicate_triangle, mesh_text, reverse_triangle,
                        split_one_side)

BAD = ["0", "-0.1", "nan", "inf", "-inf"]
MESHES = [(domain, p) for domain, patterns in PATTERNS.items() for p in patterns]
BAD_MESHES = [("square", "mixed"), ("lshape", "left"), ("square", "hexagon"),
              ("square", "file:no-such.mesh")]


def value(good, bad=BAD):
    """A good value about four times in five, else a bad one."""
    return st.sampled_from(good * (20 // len(good)) + bad)


@st.composite
def argvs(draw):
    domain, mesh = draw(st.sampled_from(MESHES * 4 + BAD_MESHES))
    levels = draw(st.sampled_from([1, 2, 3] * 3 + [0, -1]))
    strides = draw(st.lists(st.sampled_from([1, 2, 4, 8] * 4 + [3, 6, 0, -4]),
                            min_size=1, max_size=3))
    # ``--opt=value``: a negative value must reach the option, not look
    # like another option to argparse.  A --dt of 5e-324 has no finite 1/dt;
    # as a --stop-tol it would run every example to the step cap.
    argv = ["run", f"--domain={domain}", f"--mesh={mesh}",
            f"--fe={draw(st.sampled_from([1, 2] * 5 + [3]))}",
            f"--n-start={draw(st.sampled_from([*range(1, 9), 0]))}",
            f"--levels={levels}",
            f"--dt={draw(value(['0.1', '0.5', '1'], BAD + ['5e-324']))}",
            f"--stop-tol={draw(value(['1e-8', '1e-6']))}",
            f"--pod-eps={draw(value(['1e-7', '1e-4', 'exact']))}",
            f"--seed={draw(st.integers(min_value=-1, max_value=3))}"]
    # an option the CLI does not have, now and then
    argv += draw(st.sampled_from([[]] * 9 + [["--init=ones"]]))
    if len(strides) == 1:
        argv.append(f"--stride={strides[0]}")
    else:
        argv.append(f"--strides={','.join(map(str, strides))}")
    adaptive = draw(st.booleans())
    if adaptive:
        argv += ["--adaptive", f"--theta={draw(value(['0.3', '0.5', '1']))}"]
    # an output in a directory that does not exist, now and then
    dump = draw(st.sampled_from([None] * 8 + ["--dump-mesh", "--dump-singvals"]))
    return argv, adaptive, levels * len(strides), dump


def run_checked(folder, argv):
    """``eigenrom`` on argv with its CSV in folder; asserts the exit-code
    contract and returns the exit code, the CSV path and the cause of a
    failed schedule (None if there is none)."""
    out = folder / "t.csv"
    solves, raised = [], []

    def counted_run_fom(*args, **kwargs):
        solves.append(args[0].shape[0])
        return run_fom(*args, **kwargs)

    def recorded_run_experiment(cfg):
        try:
            return run_experiment(cfg)
        except Exception as exc:
            raised.append(exc)
            raise

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
        mp.setattr(rom, "run_fom", counted_run_fom)
        mp.setattr(cli, "run_experiment", recorded_run_experiment)
        code = cli.main([*argv, "--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    cause = raised[0].__cause__ if raised else None
    assert (code == 2) == isinstance(cause, SolverError), stderr.getvalue()
    if code == 1:
        assert not solves or isinstance(cause, SnapshotStrideError), \
            stderr.getvalue()
    return code, out, cause


@given(case=argvs())
@settings(max_examples=100, deadline=None)
def test_exit_code_and_rows(tmp_path_factory, case):
    argv, adaptive, rows, dump = case
    folder = tmp_path_factory.mktemp("fuzz")
    if dump:
        argv = [*argv, f"{dump}={folder / 'missing' / 'dump.txt'}"]
    code, out, _ = run_checked(folder, argv)
    if code == 0 and not adaptive:
        assert len(read_csv(out)) == rows


@st.composite
def solvable_argvs(draw):
    """Valid arguments on meshes of at most 4 x 4 cells and one or two
    levels.  The stop tolerance is log-uniform in [1e-8, 1]; one run in five
    takes steps of 1e-12, too short to move the state, so it stops at once.
    No draw runs to the step cap (a --dt of about 1e-10 to 1e-5 would)."""
    domain, mesh = draw(st.sampled_from(MESHES))
    strides = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1,
                            max_size=2, unique=True))
    adaptive = len(strides) == 1 and draw(st.booleans())
    stop_tol = 10.0 ** draw(st.floats(min_value=-8, max_value=0))
    dt = draw(st.sampled_from(["0.1", "0.5", "1"] * 4 + ["1e-12"] * 3))
    return ["run", f"--domain={domain}", f"--mesh={mesh}",
            f"--fe={draw(st.sampled_from([1, 2]))}",
            f"--n-start={draw(st.integers(min_value=2, max_value=4))}",
            f"--levels={draw(st.sampled_from([1, 2]))}",
            f"--dt={dt}", f"--stop-tol={stop_tol!r}",
            f"--strides={','.join(map(str, strides))}",
            *(["--adaptive"] if adaptive else [])]


@given(argv=solvable_argvs())
@settings(max_examples=100, deadline=None)
def test_exit_code_of_valid_runs(tmp_path_factory, argv):
    code, _, cause = run_checked(tmp_path_factory.mktemp("fuzz"), argv)
    # no valid input is refused: exit 1 is a stride longer than the run
    assert code != 1 or isinstance(cause, SnapshotStrideError)


MUTATIONS = {"duplicate": duplicate_triangle, "reverse": reverse_triangle,
             "split": split_one_side}


@given(data=st.data(), mesh=st.sampled_from(MESHES),
       n=st.integers(min_value=1, max_value=4),
       mutation=st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=60, deadline=None)
def test_mutated_mesh_file_is_refused(tmp_path_factory, data, mesh, n,
                                      mutation):
    domain, pattern = mesh
    # the square of the square domain, so that the mutation is the one fault
    generated = generate(domain, pattern, n)
    if mutation == "split":     # an interior edge, split on one side only
        _, _, edge_tris = generated.edge_table
        interior = np.flatnonzero(edge_tris[:, 1] >= 0)
        item = int(data.draw(st.sampled_from(interior)))
    else:
        item = data.draw(st.integers(min_value=0,
                                     max_value=generated.n_triangles - 1))
    folder = tmp_path_factory.mktemp("mutated")
    path = folder / f"{mutation}.mesh"
    path.write_text(mesh_text(*MUTATIONS[mutation](generated, item)))
    code, _, cause = run_checked(folder, ["run", f"--domain={domain}",
                                          f"--mesh=file:{path}"])
    assert code == 1 and isinstance(cause, MeshError)
