"""Fuzz of ``eigenrom run`` over small argument lists, bad values included.

Whatever the arguments, the CLI must end with exit code 0, 1 or 2 and an
``eigenrom: error:`` line rather than a traceback, and a uniform run that
exits 0 writes one row per level and stride.  An exception outside that
contract leaves ``cli.main`` as it is, so it fails the example with its
traceback.  The exit code says where a failure came from: 2 exactly when a
solve failed with a ``SolverError``, and 1 only for an input refused before
the first full-order solve, or for the one input error that shows only once
a run ends (``SnapshotStrideError``).
Each example of the first property draws at most one option from its bad
values, so about four in ten reach a full-order solve; the second draws
valid arguments only, with stop tolerances loose enough, or steps short
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
# the options an example may draw from their bad values
FAULTS = ["mesh", "fe", "n-start", "levels", "strides", "dt", "stop-tol",
          "pod-eps", "seed", "option", "theta", "dump"]


@st.composite
def argvs(draw):
    """An argument list with at most one option drawn from its bad values
    (none in about half the examples), the rows a uniform run writes, and
    the dump option pointed at a missing folder, if any."""
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))

    def pick(name, good, bad):
        return draw(st.sampled_from(bad if fault == name else good))

    domain, mesh = pick("mesh", MESHES, BAD_MESHES)
    levels = pick("levels", [1, 2, 3], [0, -1])
    adaptive = fault == "theta" or draw(st.booleans())
    # a bad stride list may repeat a stride, hold one that is not a multiple
    # of the smallest or is not positive, or give an adaptive run several
    if fault == "strides":
        strides = draw(st.lists(st.sampled_from([1, 2, 4, 8, 3, 6, 0, -4]),
                                min_size=1, max_size=3))
    else:
        strides = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1,
                                max_size=1 if adaptive else 3, unique=True))
    # the exact tolerance needs uniform levels on the square; an --n-start
    # of 1 leaves no free dof on some meshes
    exact = ["exact"] if domain == "square" and not adaptive else []
    pod_eps = pick("pod-eps", ["1e-7", "1e-4", *exact], BAD + ["exact"])
    # ``--opt=value``: a negative value must reach the option, not look
    # like another option to argparse.  A --dt of 5e-324 has no finite 1/dt;
    # as a --stop-tol it would run every example to the step cap.
    argv = ["run", f"--domain={domain}", f"--mesh={mesh}",
            f"--fe={pick('fe', [1, 2], [3])}",
            f"--n-start={pick('n-start', [*range(2, 9)], [0, 1])}",
            f"--levels={levels}",
            f"--dt={pick('dt', ['0.1', '0.5', '1'], BAD + ['5e-324'])}",
            f"--stop-tol={pick('stop-tol', ['1e-8', '1e-6'], BAD)}",
            f"--pod-eps={pod_eps}",
            f"--seed={pick('seed', [0, 1, 2, 3], [-1])}"]
    if fault == "option":           # an option the CLI does not have
        argv.append("--init=ones")
    if len(strides) == 1:
        argv.append(f"--stride={strides[0]}")
    else:
        argv.append(f"--strides={','.join(map(str, strides))}")
    if adaptive:
        argv += ["--adaptive",
                 f"--theta={pick('theta', ['0.3', '0.5', '1'], BAD)}"]
    dump = pick("dump", [None], ["--dump-mesh", "--dump-singvals"])
    return argv, adaptive, levels * len(strides), dump


def run_checked(folder, argv):
    """``eigenrom`` on argv with its CSV in folder; asserts the exit-code
    contract and returns the exit code, the CSV path and the failure raised
    by the schedule (None if there is none)."""
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
    failure = raised[0] if raised else None
    assert (code == 2) == isinstance(failure, SolverError), stderr.getvalue()
    if code == 1:
        assert not solves or isinstance(failure, SnapshotStrideError), \
            stderr.getvalue()
    return code, out, failure


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
    code, _, failure = run_checked(tmp_path_factory.mktemp("fuzz"), argv)
    # no valid input is refused: exit 1 is a stride longer than the run
    assert code != 1 or isinstance(failure, SnapshotStrideError)


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
    code, _, failure = run_checked(folder, ["run", f"--domain={domain}",
                                            f"--mesh=file:{path}"])
    assert code == 1 and isinstance(failure, MeshError)
