"""Experiment orchestration: mesh schedules, timed full/reduced runs,
convergence rates, and CSV export.

Reference eigenvalues for error and rate reporting: 2 on the square
(0, pi)^2 and 9.6397238440219 on the L-shaped domain.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .adapt import adaptive_solve
from .continuation import ContinuationConfig
from .fem import assemble, build_dofmap, interpolate_free
from .linalg import NonconvergenceError
from .mesh import (Mesh, edge_lengths, generate_lshape, generate_square,
                   read_mesh, uniform_refine, write_mesh)
from .pod import exact_reference_eps, write_singular_values
from .rom import solve_level

log = logging.getLogger(__name__)

SQUARE_SIDE = math.pi
LAMBDA_SQUARE = 2.0
LAMBDA_LSHAPE = 9.6397238440219

CSV_HEADER = ["mesh", "n", "dof", "lambda_fom", "lambda_rom",
              "rate_fom", "rate_rom", "n_pod", "fom_s", "rom_s"]

_GENERATED = ("crisscross", "right", "left", "mixed")


DEFAULT_POD_EPS = 1e-7


def default_continuation() -> ContinuationConfig:
    """Experiment-level iteration defaults.

    The full-order initial guess is seeded-random: a nonsymmetric start
    excites the odd-even modes too, which lengthens the transient to the step
    counts the snapshot-stride comparison needs (the all-ones vector is
    symmetric and converges in a third of the steps, leaving too few
    snapshots at the coarsest stride).  The reduced run always starts from
    the all-ones vector (``rom.solve_level``).
    """
    return ContinuationConfig(initial_guess="random")


@dataclass
class ExperimentConfig:
    """One experiment schedule (a sequence of meshes, or an adaptive run)."""

    domain: str                       # "square" | "lshape"
    mesh: str                         # crisscross|right|left|mixed|file
    n_start: int = 16
    levels: int = 1
    fe_degree: int = 1
    adaptive: bool = False
    theta: float = 0.5
    continuation: ContinuationConfig = field(default_factory=default_continuation)
    strides: tuple = (4,)
    pod_eps: object = None            # float, "exact", or None for the default
    mesh_file: str | None = None
    seed: int = 0
    out_csv: str | None = None
    singvals_path: str | None = None
    mesh_dump_path: str | None = None

    def resolved_pod_eps(self):
        return DEFAULT_POD_EPS if self.pod_eps is None else self.pod_eps


@dataclass
class ResultRow:
    mesh: str
    n: int
    dof: int
    lambda_fom: float
    lambda_rom: float
    rate_fom: float | None
    rate_rom: float | None
    n_pod: int
    fom_s: float
    rom_s: float


class ExperimentError(RuntimeError):
    """A schedule aborted mid-way; carries the rows completed so far."""

    def __init__(self, message: str, rows: list, nonconvergence: bool = False):
        super().__init__(message)
        self.rows = rows
        self.nonconvergence = nonconvergence


def _validate(cfg: ExperimentConfig):
    if cfg.domain not in ("square", "lshape"):
        raise ValueError(f"unknown domain {cfg.domain!r}")
    if cfg.mesh not in _GENERATED + ("file",):
        raise ValueError(f"unknown mesh kind {cfg.mesh!r}")
    if cfg.mesh in ("right", "left") and cfg.domain != "square":
        raise ValueError("right/left meshes exist only on the square")
    if cfg.mesh == "mixed" and cfg.domain != "lshape":
        raise ValueError("the mixed mesh exists only on the L-shape")
    if cfg.mesh == "file" and not cfg.mesh_file:
        raise ValueError("mesh 'file' requires a mesh file path")
    if cfg.fe_degree not in (1, 2):
        raise ValueError("fe degree must be 1 or 2")
    if cfg.levels < 0 or cfg.n_start < 1:
        raise ValueError("levels must be >= 0 and n_start >= 1")
    if not cfg.strides or any(s < 1 for s in cfg.strides):
        raise ValueError("strides must be positive")
    base = min(cfg.strides)
    for s in cfg.strides:
        if s % base:
            raise ValueError(f"stride {s} is not a multiple of the smallest "
                             f"stride {base}")
    if cfg.adaptive and len(cfg.strides) > 1:
        raise ValueError("adaptive runs take a single snapshot stride")
    eps = cfg.resolved_pod_eps()
    if eps == "exact":
        if cfg.domain != "square" or cfg.adaptive:
            raise ValueError("the exact-reference tolerance needs uniform "
                             "levels on the square domain, where the first "
                             "eigenfunction is known")
    elif not 0 < float(eps) < 1:
        raise ValueError("pod eps must lie in (0, 1)")
    if cfg.adaptive and not 0 < cfg.theta <= 1:
        raise ValueError("theta must lie in (0, 1]")


def reference_eigenvalue(domain: str) -> float:
    return LAMBDA_SQUARE if domain == "square" else LAMBDA_LSHAPE


def _level_meshes(cfg: ExperimentConfig) -> list[tuple[int, Mesh]]:
    """The (n, mesh) schedule; imported meshes refine uniformly per level."""
    out = []
    if cfg.mesh == "file":
        mesh = read_mesh(cfg.mesh_file)
        for level in range(cfg.levels):
            out.append((level, mesh))
            if level + 1 < cfg.levels:
                mesh = uniform_refine(mesh)
        return out
    for level in range(cfg.levels):
        n = cfg.n_start * 2 ** level
        if cfg.domain == "square":
            mesh = generate_square(cfg.mesh, n, SQUARE_SIDE)
        else:
            mesh = generate_lshape(cfg.mesh, n)
        out.append((n, mesh))
    return out


def _run_level(cfg: ExperimentConfig, cont: ContinuationConfig, mesh: Mesh):
    """Assemble one uniform level and run its solve_level pipeline."""
    dofmap = build_dofmap(mesh, cfg.fe_degree)
    if dofmap.n_free == 0:
        raise ValueError("mesh has no free degrees of freedom")
    A, M = assemble(mesh, dofmap)
    eps = cfg.resolved_pod_eps()
    if eps == "exact":
        eps = partial(exact_reference_eps, M, interpolate_free(
            dofmap, lambda x, y: np.sin(x) * np.sin(y)))
    return (dofmap, *solve_level(A, M, cont, cfg.strides, eps))


def compute_rate(errors, sizes, mode: str) -> list:
    """Convergence rates between consecutive levels (first entry None).

    ``mode='uniform'`` expects decreasing mesh sizes h and returns
    log(e_prev/e_cur) / log(h_prev/h_cur); ``mode='adaptive'`` expects
    increasing dof counts and returns 2 log(e_prev/e_cur) / log(dof_cur/dof_prev).
    Nonpositive errors give NaN rates with a warning instead of failing.
    """
    if mode not in ("uniform", "adaptive"):
        raise ValueError("mode must be 'uniform' or 'adaptive'")
    if len(errors) != len(sizes):
        raise ValueError("errors and sizes must have equal length")
    rates: list = [None] * min(1, len(errors))
    for k in range(1, len(errors)):
        e0, e1 = errors[k - 1], errors[k]
        if e0 <= 0 or e1 <= 0:
            log.warning("nonpositive error at level %d; rate set to NaN", k)
            rates.append(float("nan"))
            continue
        if mode == "uniform":
            rates.append(math.log(e0 / e1) / math.log(sizes[k - 1] / sizes[k]))
        else:
            rates.append(2.0 * math.log(e0 / e1) / math.log(sizes[k] / sizes[k - 1]))
    return rates


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run one schedule and return its table rows.

    Deterministic for a fixed config and seed, timing aside.  Component
    failures abort the schedule; the raised ExperimentError carries the rows
    already completed.
    """
    _validate(cfg)
    lam_ref = reference_eigenvalue(cfg.domain)
    cont = replace(cfg.continuation, seed=cfg.seed,
                   snapshot_stride=min(cfg.strides))

    if cfg.adaptive:
        if cfg.mesh == "file":
            mesh0 = read_mesh(cfg.mesh_file)
        elif cfg.domain == "square":
            mesh0 = generate_square(cfg.mesh, cfg.n_start, SQUARE_SIDE)
        else:
            mesh0 = generate_lshape(cfg.mesh, cfg.n_start)
        try:
            records, final_mesh = adaptive_solve(
                mesh0, cfg.fe_degree, cfg.theta, cfg.levels, cont,
                pod_eps=float(cfg.resolved_pod_eps()))
        except NonconvergenceError as exc:
            raise ExperimentError(
                f"schedule aborted: {exc}",
                _adaptive_rows(cfg, exc.records, lam_ref),
                nonconvergence=True) from exc
        if cfg.mesh_dump_path:
            write_mesh(final_mesh, cfg.mesh_dump_path)
        return _adaptive_rows(cfg, records, lam_ref)

    schedule = _level_meshes(cfg)
    results = []
    failure: Exception | None = None
    for n, mesh in schedule:
        try:
            results.append(_run_level(cfg, cont, mesh))
        except Exception as exc:
            failure = exc
            break

    rows = _format_rows(cfg, schedule[:len(results)], results, lam_ref)
    if failure is not None:
        raise ExperimentError(
            f"schedule aborted at n={schedule[len(results)][0]}: {failure}",
            rows, nonconvergence=isinstance(failure, NonconvergenceError)
        ) from failure

    if cfg.singvals_path and results:
        multi = len(cfg.strides) > 1
        for stride, basis, _, _ in results[-1][2]:
            path = cfg.singvals_path
            if multi:
                stem, dot_, ext = path.rpartition(".")
                path = f"{stem}_s{stride}{dot_}{ext}" if stem else f"{path}_s{stride}"
            write_singular_values(basis, path)
    return rows


def _adaptive_rows(cfg, records, lam_ref) -> list[ResultRow]:
    dofs = [r.n_dof for r in records]
    rf = compute_rate([r.lambda_fom - lam_ref for r in records], dofs, "adaptive")
    rr = compute_rate([r.lambda_rom - lam_ref for r in records], dofs, "adaptive")
    return [ResultRow(cfg.mesh, level + 1, rec.n_dof, rec.lambda_fom,
                      rec.lambda_rom, rf[level], rr[level], rec.n_pod,
                      rec.fom_time, rec.rom_time)
            for level, rec in enumerate(records)]


def _format_rows(cfg, schedule, results, lam_ref) -> list[ResultRow]:
    h_values = [float(edge_lengths(mesh).max()) for _, mesh in schedule]
    labels: dict = {}
    for (n, _), (dofmap, trace, per_stride) in zip(schedule, results):
        for stride, basis, rom_trace, rom_time in per_stride:
            label = cfg.mesh if len(cfg.strides) == 1 else f"{cfg.mesh}-s{stride}"
            labels.setdefault(label, []).append(
                (n, dofmap.n_dof_total, trace.eigenvalue, rom_trace.eigenvalue,
                 basis.N, trace.wall_time, rom_time))

    rows: list[ResultRow] = []
    for label, entries in labels.items():
        rf = compute_rate([e[2] - lam_ref for e in entries], h_values, "uniform")
        rr = compute_rate([e[3] - lam_ref for e in entries], h_values, "uniform")
        for k, (n, dof, lam_f, lam_r, n_pod, t_f, t_r) in enumerate(entries):
            rows.append(ResultRow(label, n, dof, lam_f, lam_r,
                                  rf[k], rr[k], n_pod, t_f, t_r))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write the result table; full-precision decimals, empty first rates."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in rows:
                writer.writerow([r.mesh, r.n, r.dof, _fmt(r.lambda_fom),
                                 _fmt(r.lambda_rom), _fmt(r.rate_fom),
                                 _fmt(r.rate_rom), r.n_pod, _fmt(r.fom_s),
                                 _fmt(r.rom_s)])
    except OSError as exc:
        raise OSError(f"cannot write result table {path}: {exc}") from exc


def read_csv(path) -> list[ResultRow]:
    """Parse a table written by emit_csv (round-trip exact)."""
    def opt_float(s):
        return None if s == "" else float(s)

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header")
        for rec in reader:
            rows.append(ResultRow(rec[0], int(rec[1]), int(rec[2]),
                                  float(rec[3]), float(rec[4]),
                                  opt_float(rec[5]), opt_float(rec[6]),
                                  int(rec[7]), float(rec[8]), float(rec[9])))
    return rows
