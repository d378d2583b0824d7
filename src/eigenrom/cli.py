"""Command line entry point.

Exit codes: 0 success; 2 exactly when a solve failed with a
``linalg.SolverError``; 1 for an input refused before the first solve, and
for ``rom.SnapshotStrideError`` (a snapshot stride longer than the run, known
only once it ends).  The EIGENROM_LOG environment variable
(error|warning|info|debug, in any case) sets the level of diagnostics on
stderr; unset, it is warning: warnings and errors are shown.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .continuation import ContinuationConfig
from .harness import ExperimentConfig, ExperimentError, emit_csv, run_experiment
from .linalg import SolverError

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _configure_logging():
    level = os.environ.get("EIGENROM_LOG", "warning").lower()
    levels = {"error": logging.ERROR, "warning": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise UsageError(f"EIGENROM_LOG must be error|warning|info|debug, "
                         f"got {level!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


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
    run.add_argument("--domain", required=True, help="square|lshape")
    run.add_argument("--mesh", required=True,
                     help="crisscross|right|left|mixed|file:<path>")
    run.add_argument("--fe", type=int, default=1,
                     help="polynomial degree of the finite element space, "
                          "1 or 2")
    run.add_argument("--n-start", type=int, default=16,
                     help="subintervals per side on the coarsest mesh")
    run.add_argument("--levels", type=int, default=1,
                     help="number of mesh levels (n doubles per level)")
    run.add_argument("--dt", type=float, default=0.1)
    run.add_argument("--stop-tol", type=float, default=1e-8)
    run.add_argument("--stride", "--strides", dest="strides", type=strides,
                     default=(4,),
                     help="snapshot stride in time steps, or a comma "
                          "separated list, e.g. 2,4,8")
    run.add_argument("--pod-eps", type=pod_eps, default=1e-7,
                     help="energy tolerance, or 'exact' for uniform levels on "
                          "the square (default: 1e-7)")
    run.add_argument("--adaptive", action="store_true",
                     help="adaptive bisection refinement instead of uniform levels")
    run.add_argument("--theta", type=float, default=0.5,
                     help="bulk marking fraction for adaptive runs")
    run.add_argument("--seed", type=int, default=0,
                     help="seed of the full-order run's random start")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--dump-singvals", default=None,
                     help="write the finest level's singular values here")
    run.add_argument("--dump-mesh", default=None,
                     help="write the finest mesh here (text format)")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cont = ContinuationConfig(dt=args.dt, stop_tol=args.stop_tol,
                              seed=args.seed)
    return ExperimentConfig(
        domain=args.domain, mesh=args.mesh,
        n_start=args.n_start, levels=args.levels, fe_degree=args.fe,
        adaptive=args.adaptive, theta=args.theta, continuation=cont,
        strides=args.strides, pod_eps=args.pod_eps,
        singvals_path=args.dump_singvals, mesh_dump_path=args.dump_mesh)


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        # an output that cannot be written is refused before the first solve
        for option, what, path in (("--out", "result table", args.out),
                                   ("--dump-mesh", "mesh", args.dump_mesh),
                                   ("--dump-singvals", "singular values",
                                    args.dump_singvals)):
            folder = os.path.dirname(path or "") or "."
            if path and (os.path.isdir(path) or not os.access(folder, os.W_OK)):
                raise UsageError(f"{option}: cannot write {what} {path}")
        rows = run_experiment(cfg)
        emit_csv(rows, args.out)
    except (UsageError, ValueError, OSError) as exc:
        print(f"eigenrom: error: {exc}", file=sys.stderr)
        return 1
    except ExperimentError as exc:
        if exc.rows:
            try:
                emit_csv(exc.rows, args.out)
                log.error("schedule aborted; partial table written to %s", args.out)
            except OSError:
                pass
        print(f"eigenrom: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.__cause__, SolverError) else 1
    for row in rows:
        log.info("%s n=%s dof=%d lambda_fom=%.12f lambda_rom=%.12f N=%d",
                 row.mesh, row.n, row.dof, row.lambda_fom, row.lambda_rom,
                 row.n_pod)
    return 0


if __name__ == "__main__":
    sys.exit(main())
