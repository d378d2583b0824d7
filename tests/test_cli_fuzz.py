"""Fuzz of ``eigenrom run`` over small argument lists, bad values included.

Whatever the arguments, the CLI must end with exit code 0, 1 or 2 and an
``eigenrom: error:`` line rather than a traceback, and a uniform run that
exits 0 writes one row per level and stride.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from eigenrom.cli import main
from eigenrom.harness import read_csv

BAD = ["0", "-0.1", "nan", "inf", "-inf"]
MESHES = [("square", "crisscross"), ("square", "right"), ("square", "left"),
          ("lshape", "crisscross"), ("lshape", "mixed")]
BAD_MESHES = [("square", "mixed"), ("lshape", "left"), ("square", "hexagon"),
              ("square", "file:no-such.mesh")]


def value(good):
    """A good value about four times in five, else a bad one."""
    return st.sampled_from(good * (20 // len(good)) + BAD)


@st.composite
def argvs(draw):
    domain, mesh = draw(st.sampled_from(MESHES * 4 + BAD_MESHES))
    levels = draw(st.sampled_from([0, 1, 2] * 3 + [-1]))
    strides = draw(st.lists(st.sampled_from([1, 2, 4, 8] * 4 + [3, 6, 0, -4]),
                            min_size=1, max_size=3))
    # ``--opt=value``: a negative value must reach the option, not look
    # like another option to argparse
    argv = ["run", f"--domain={domain}", f"--mesh={mesh}",
            f"--fe={draw(st.sampled_from([1, 2]))}",
            f"--n-start={draw(st.sampled_from([*range(1, 9), 0]))}",
            f"--levels={levels}",
            f"--dt={draw(value(['0.1', '0.5', '1']))}",
            f"--stop-tol={draw(value(['1e-8', '1e-6']))}",
            f"--pod-eps={draw(value(['1e-7', '1e-4', 'exact']))}",
            f"--init={draw(st.sampled_from(['ones', 'random']))}",
            f"--seed={draw(st.integers(min_value=0, max_value=3))}"]
    if len(strides) == 1:
        argv.append(f"--stride={strides[0]}")
    else:
        argv.append(f"--strides={','.join(map(str, strides))}")
    adaptive = draw(st.booleans())
    if adaptive:
        argv += ["--adaptive", f"--theta={draw(value(['0.3', '0.5', '1']))}"]
    return argv, adaptive, levels * len(strides)


@given(case=argvs())
@settings(max_examples=100, deadline=None)
def test_exit_code_and_rows(tmp_path_factory, case):
    argv, adaptive, rows = case
    out = tmp_path_factory.mktemp("fuzz") / "t.csv"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0 and not adaptive:
        assert len(read_csv(out)) == rows
