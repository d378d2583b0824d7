"""Fuzz of ``eigenrom run`` over small argument lists, bad values included.

Whatever the arguments, the CLI must end with exit code 0, 1 or 2 and an
``eigenrom: error:`` line rather than a traceback, and a uniform run that
exits 0 writes one row per level and stride.  The exit code says where a
failure came from: 2 exactly when a solve failed with a ``SolverError``, and
1 only for an input refused before the first full-order solve, or for the
one input error that shows only once a run ends (``SnapshotStrideError``).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import eigenrom.cli as cli
import eigenrom.rom as rom
from eigenrom.continuation import run_fom
from eigenrom.harness import read_csv, run_experiment
from eigenrom.linalg import SolverError
from eigenrom.rom import SnapshotStrideError

BAD = ["0", "-0.1", "nan", "inf", "-inf"]
MESHES = [("square", "crisscross"), ("square", "right"), ("square", "left"),
          ("lshape", "crisscross"), ("lshape", "mixed")]
BAD_MESHES = [("square", "mixed"), ("lshape", "left"), ("square", "hexagon"),
              ("square", "file:no-such.mesh")]


def value(good, bad=BAD):
    """A good value about four times in five, else a bad one."""
    return st.sampled_from(good * (20 // len(good)) + bad)


@st.composite
def argvs(draw):
    domain, mesh = draw(st.sampled_from(MESHES * 4 + BAD_MESHES))
    levels = draw(st.sampled_from([0, 1, 2] * 3 + [-1]))
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
            f"--init={draw(st.sampled_from(['ones', 'random'] * 5 + ['zeros']))}",
            f"--seed={draw(st.integers(min_value=-1, max_value=3))}"]
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


@given(case=argvs())
@settings(max_examples=100, deadline=None)
def test_exit_code_and_rows(tmp_path_factory, case):
    argv, adaptive, rows, dump = case
    folder = tmp_path_factory.mktemp("fuzz")
    out = folder / "t.csv"
    if dump:
        argv = [*argv, f"{dump}={folder / 'missing' / 'dump.txt'}"]
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
    if code == 0 and not adaptive:
        assert len(read_csv(out)) == rows
