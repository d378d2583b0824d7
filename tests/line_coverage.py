"""Line coverage check of ``src/eigenrom`` by the default test run: every
statement inside a function body must run, or be listed in ``UNREACHED``
with the reason no test runs it.

Run with ``python -m pytest -q tests/line_coverage.py``.  The file name does
not match ``test_*.py``, so the default test run does not collect it.

The check runs the default test run in one child pytest, with ``PYTHONPATH``
on ``src`` and ``tests`` (and the ini's ``pythonpath`` cleared) and this
module loaded as a plugin (``-p line_coverage``).  The plugin installs a
``sys.settrace`` hook that records the executed lines of the package's
files and writes them to the JSON file named by ``LINE_COVERAGE_OUT``.
The listed statements come from ``ast``: each statement of a function body
(its docstring excluded), inside compound statements too, down to the first
one that never ran.  A statement ran if a line of its own code (for a
compound statement, the lines before its first child) ran, or a statement
inside it did.  ``UNREACHED`` rows are anchored by exact text, found once in
the file, like the rows of ``mutation_checks.py``; a row that covers no
unexecuted statement is stale and fails the check.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eigenrom"
OUT_ENV = "LINE_COVERAGE_OUT"


@dataclass(frozen=True)
class Unreached:
    path: str           # under src/eigenrom
    text: str           # the exact text, found once in the file
    reason: str


# statements no test runs; only linalg's test oracles, which the benchmark's
# tracer wraps by name, keep defensive branches here
UNREACHED = [
    Unreached("linalg.py",
              "            if res >= 0.9 * best_true:\n"
              "                break\n"
              "            best_true = res\n"
              "            z = r / diag\n"
              "            p = z.copy()\n"
              "            rz = float(r @ z)\n"
              "            continue\n",
              "spd_solve's recursive residual never drifts from the true one "
              "on the tests' well-conditioned systems"),
    Unreached("linalg.py",
              "    raise NonconvergenceError(\n"
              '        f"CG did not reach rel_tol={rel_tol:g} within {max_iter} iterations",\n'
              "        residual=res / norm_b)\n",
              "reached only at the 20 n iteration cap or after a restart that "
              "stopped helping; no test system takes spd_solve there"),
]


# ---- the plugin, active in the child only -------------------------------

_LINES: defaultdict[str, set] = defaultdict(set)
_OURS: dict[str, str | None] = {}


def _local(frame, event, arg):
    if event == "line":
        _LINES[_OURS[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _OURS:
        path = Path(os.path.realpath(name))
        _OURS[name] = path.name if path.parent == PACKAGE else None
    return _local if _OURS[name] else None


def pytest_configure(config):
    if os.environ.get(OUT_ENV):
        sys.settrace(_global)


def pytest_unconfigure(config):
    if os.environ.get(OUT_ENV):
        sys.settrace(None)
        Path(os.environ[OUT_ENV]).write_text(
            json.dumps({k: sorted(v) for k, v in _LINES.items()}))


# ---- the statements of function bodies ----------------------------------

def _children(stmt) -> list:
    """The statements directly inside a compound statement, in order."""
    blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(stmt, "handlers", [])]
    return [s for block in blocks for s in block]


def _own_lines(stmt) -> range:
    """The lines of the statement's own code: all of a simple statement,
    the header of a compound one (up to its first child)."""
    children = _children(stmt)
    last = children[0].lineno - 1 if children else stmt.end_lineno
    return range(stmt.lineno, max(stmt.lineno, last) + 1)


def _ran(stmt, lines: set) -> bool:
    return (any(n in lines for n in _own_lines(stmt))
            or any(_ran(s, lines) for s in _children(stmt)))


def _body(func) -> list:
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def unexecuted(tree, lines: set) -> list:
    """Each outermost statement of a function body that never ran."""
    missed = []

    def visit(stmts):
        for stmt in stmts:
            if not _ran(stmt, lines):
                missed.append(stmt)
            elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                visit(_children(stmt))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(_body(node))
    return missed


def _span(text: str, snippet: str) -> range:
    start = text[:text.index(snippet)].count("\n") + 1
    return range(start, start + snippet.rstrip("\n").count("\n") + 1)


# ---- the check ----------------------------------------------------------

def test_every_statement_runs_or_is_listed(tmp_path):
    out = tmp_path / "lines.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    env[OUT_ENV] = str(out)
    env.pop("EIGENROM_LOG", None)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "line_coverage", "-o", "pythonpath="],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert child.returncode == 0, child.stdout[-2000:]
    executed = json.loads(out.read_text())

    spans = {}
    for row in UNREACHED:
        text = (PACKAGE / row.path).read_text()
        assert text.count(row.text) == 1, f"unreached anchor moved: {row.text!r}"
        spans[row] = _span(text, row.text)
    used, problems = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in unexecuted(tree, set(executed.get(path.name, []))):
            rows = [r for r in UNREACHED if r.path == path.name
                    and stmt.lineno in spans[r] and stmt.end_lineno in spans[r]]
            used.update(rows)
            if not rows:
                problems.append(f"{path.name}:{stmt.lineno}: "
                                f"{ast.unparse(stmt).splitlines()[0]}")
    problems += [f"stale unreached row: {r.path}: {r.text!r}"
                 for r in UNREACHED if r not in used]
    assert not problems, "\n".join(problems)
