"""Command line entry point: every ``run`` option sets a config field, and
``harness.run_experiment`` checks and writes every output file of the run.

Exit codes: 0 success; 2 exactly when a solve failed with a
``linalg.SolverError``; 1 for an input refused before the first solve, and
for ``rom.SnapshotStrideError`` (a snapshot stride longer than the run, known
only once it ends).  ``run_experiment`` re-raises a failure as it is, so
its type picks the code; any other exception is a bug and leaves ``main``
with its traceback, after the partial table.  The EIGENROM_LOG environment
variable (error|warning|info|debug, in any case) sets the level of
diagnostics on stderr; unset, it is warning: warnings and errors are shown.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import MISSING, fields

from .continuation import ContinuationConfig
from .harness import ExperimentConfig, run_experiment
from .linalg import SolverError
from .mesh import PATTERNS

log = logging.getLogger(__name__)

_DEFAULTS = {f.name: f.default for cls in (ExperimentConfig, ContinuationConfig)
             for f in fields(cls) if f.default is not MISSING}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _configure_logging():
    level = os.environ.get("EIGENROM_LOG", "warning").lower()
    levels = {"error": logging.ERROR, "warning": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ValueError(f"EIGENROM_LOG must be error|warning|info|debug, "
                         f"got {level!r}")
    # basicConfig adds the handler once; the level is set on every call, on
    # the root logger, as the row lines are logged as __main__ under -m
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(levels[level])


# argparse reports a ValueError of a type function as a usage error
def pod_eps(text: str):
    return text if text == "exact" else float(text)


def strides(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigenrom",
                     description="First Laplace-Dirichlet eigenpair by "
                                 "time continuation with a POD reduced model")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment schedule")
    run.add_argument("--domain", required=True, help="|".join(PATTERNS))
    patterns = dict.fromkeys(p for names in PATTERNS.values() for p in names)
    run.add_argument("--mesh", required=True, help="|".join([*patterns, "file:<path>"]))
    run.add_argument("--fe", dest="fe_degree", type=int,
                     help="polynomial degree of the finite element space, "
                          "1 or 2")
    run.add_argument("--n-start", type=int,
                     help="subintervals per side on the coarsest mesh")
    run.add_argument("--levels", type=int, help="number of mesh levels, >= 1")
    run.add_argument("--dt", type=float, help="fictitious time step")
    run.add_argument("--stop-tol", type=float, help="stopping tolerance")
    run.add_argument("--stride", "--strides", dest="strides", type=strides,
                     help="snapshot stride in time steps, or a comma "
                          "separated list, e.g. 2,4,8")
    run.add_argument("--pod-eps", type=pod_eps, help="energy tolerance, or "
                     "'exact' for uniform levels on the square")
    run.add_argument("--adaptive", action="store_true",
                     help="adaptive bisection refinement instead of uniform levels")
    run.add_argument("--theta", type=float,
                     help="bulk marking fraction for adaptive runs")
    run.add_argument("--seed", type=int,
                     help="seed of the full-order run's random start")
    run.add_argument("--out", dest="out_path", metavar="PATH", required=True,
                     help="output CSV path")
    run.add_argument("--dump-singvals", dest="singvals_path", metavar="PATH",
                     help="write the finest level's singular values here")
    run.add_argument("--dump-mesh", dest="mesh_dump_path", metavar="PATH",
                     help="write the finest mesh here (text format)")
    # an option's dest names the config field it sets, whose default it takes
    for action in run._actions:
        if action.dest in _DEFAULTS and not action.required:
            action.default = default = _DEFAULTS[action.dest]
            # a tuple shows as the comma list its option takes
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            action.help += f" (default: {default})"
    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        options = vars(build_parser().parse_args(argv))
        del options["command"]
        # the options that set no ExperimentConfig field set its continuation
        own = {f.name: options.pop(f.name) for f in fields(ExperimentConfig)
               if f.name in options}
        rows = run_experiment(ExperimentConfig(
            **own, continuation=ContinuationConfig(**options)))
    except (ValueError, OSError, SolverError) as exc:
        print(f"eigenrom: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SolverError) else 1
    for row in rows:
        log.info("%s n=%s dof=%d lambda_fom=%.12f lambda_rom=%.12f N=%d",
                 row.mesh, row.n, row.dof, row.lambda_fom, row.lambda_rom,
                 row.n_pod)
    return 0


if __name__ == "__main__":
    sys.exit(main())
