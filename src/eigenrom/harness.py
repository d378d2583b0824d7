"""Experiment orchestration: config validation, the schedule of meshes fed
to the one level loop (``rom.solve_levels``), table rows with convergence
rates, the mesh and singular-value dumps, and CSV export.  A config fixes
every input of a run, its start vectors included.

Reference eigenvalues for error and rate reporting: 2 on the square
(0, pi)^2 and 9.6397238440219 on the L-shaped domain.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .adapt import check_theta, next_mesh
from .continuation import ContinuationConfig, check_strides
from .fem import check_degree, interpolate_free
from .mesh import (PATTERNS, Mesh, MeshError, check_generator,
                   check_subintervals, generate_lshape, generate_square,
                   read_mesh, uniform_refine, write_mesh)
from .pod import check_eps, exact_reference_eps, write_singular_values
from .rom import solve_levels

log = logging.getLogger(__name__)

SQUARE_SIDE = math.pi
LAMBDA_SQUARE = 2.0
LAMBDA_LSHAPE = 9.6397238440219
# the boundary polygon of each domain, counterclockwise: (0, pi)^2, and
# (-1, 1)^2 minus the quadrant [0, 1] x [-1, 0]
BOUNDARIES = {"square": SQUARE_SIDE * np.array([[0.0, 0.0], [1.0, 0.0],
                                                [1.0, 1.0], [0.0, 1.0]]),
              "lshape": np.array([[-1.0, -1.0], [0.0, -1.0], [0.0, 0.0],
                                  [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])}
# a mesh file covers its domain if its triangle areas sum to the domain's
# area within DOMAIN_RTOL of it, and each boundary node lies within
# DOMAIN_RTOL times the longest side of the domain's boundary
DOMAIN_RTOL = 1e-9

@dataclass
class ExperimentConfig:
    """One experiment schedule (a sequence of meshes, or an adaptive run).
    Its full-order runs start from the random vector of ``continuation.seed``
    (``--seed``), its reduced runs from the all-ones vector."""

    domain: str                       # "square" | "lshape"
    mesh: str                         # crisscross|right|left|mixed|file:<path>
    n_start: int = 16
    levels: int = 1
    fe_degree: int = 1
    adaptive: bool = False
    theta: float = 0.5
    continuation: ContinuationConfig = field(default_factory=ContinuationConfig)
    strides: tuple = (4,)
    pod_eps: object = 1e-7            # float, or "exact"
    singvals_path: str | None = None
    mesh_dump_path: str | None = None


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


CSV_HEADER = [f.name for f in fields(ResultRow)]
# read_csv's parser of a column, by the type of its ResultRow field
_PARSE = {"str": str, "int": int, "float": float,
          "float | None": lambda s: None if s == "" else float(s)}


class ExperimentError(RuntimeError):
    """A schedule aborted mid-way; carries the rows completed so far, and
    the failure as its ``__cause__``."""

    def __init__(self, message: str, rows: list):
        super().__init__(message)
        self.rows = rows


def _validate(cfg: ExperimentConfig):
    """Refuse a bad config before the first solve, by each stage's checks."""
    if cfg.domain not in PATTERNS:
        raise ValueError(f"unknown domain {cfg.domain!r}")
    path = _mesh_file(cfg)
    if path is None:
        check_generator(cfg.domain, cfg.mesh, cfg.n_start)
    elif not path:
        raise ValueError("mesh 'file' requires a mesh file path")
    else:
        check_subintervals(cfg.n_start)
    check_degree(cfg.fe_degree)
    if cfg.levels < 0:
        raise ValueError("levels must be >= 0")
    check_strides(cfg.strides)
    if cfg.adaptive and len(cfg.strides) > 1:
        raise ValueError("adaptive runs take a single snapshot stride")
    if cfg.pod_eps == "exact":
        if cfg.domain != "square" or cfg.adaptive:
            raise ValueError("the exact-reference tolerance needs uniform "
                             "levels on the square domain, where the first "
                             "eigenfunction is known")
    else:
        check_eps(float(cfg.pod_eps))
    check_theta(cfg.theta)
    check_writable("mesh_dump_path", "mesh", cfg.mesh_dump_path)
    check_writable("singvals_path", "singular values", cfg.singvals_path)


def check_writable(name: str, what: str, path: str | None) -> None:
    """Refuse an output path (if given) that cannot be written as a file: an
    empty path, a directory, or one in a folder without write access."""
    if path is not None and (not path or os.path.isdir(path) or not os.access(
            os.path.dirname(path) or ".", os.W_OK)):
        raise ValueError(f"{name}: cannot write {what} {path or '(empty path)'}")


def reference_eigenvalue(domain: str) -> float:
    return LAMBDA_SQUARE if domain == "square" else LAMBDA_LSHAPE


def _mesh_file(cfg: ExperimentConfig) -> str | None:
    """The path of a ``file:<path>`` mesh; None for a generated one."""
    kind, _, path = cfg.mesh.partition(":")
    return path if kind == "file" else None


def _check_domain(mesh: Mesh, domain: str, path: str) -> None:
    """Refuse a mesh file that does not cover the named domain: the two
    conditions pin it, so a shifted, scaled, reflected or rotated domain
    fails, even where its lambda_1 is the same."""
    corners = BOUNDARIES[domain]
    sides = np.roll(corners, -1, axis=0) - corners
    area = 0.5 * np.sum(corners[:, 0] * sides[:, 1] - corners[:, 1] * sides[:, 0])
    total = mesh.areas.sum()
    if not abs(total - area) <= DOMAIN_RTOL * area:
        raise MeshError(f"{path}: the triangle areas sum to {total:.17g}, "
                        f"not to the {domain} domain's area {area:.17g}")
    ids = np.flatnonzero(mesh.boundary_node)
    # a node's distance from a side: its offset from the side's start, less
    # the offset's projection onto the side, clipped to the side's ends
    offset = mesh.nodes[ids, None, :] - corners
    along = np.clip((offset * sides).sum(axis=2) / (sides * sides).sum(axis=1),
                    0.0, 1.0)
    gap = offset - along[..., None] * sides
    distance = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
    off = np.flatnonzero(distance > DOMAIN_RTOL * np.hypot(*sides.T).max())
    if off.size:
        node = ids[off[0]]
        x, y = mesh.nodes[node].tolist()
        raise MeshError(f"{path}: boundary node {node} at ({x!r}, {y!r}) is "
                        f"off the {domain} domain's boundary")


def _mesh(cfg: ExperimentConfig, n: int) -> Mesh:
    """The configured mesh with n subintervals per side (a file ignores n,
    and must cover the configured domain)."""
    if (path := _mesh_file(cfg)) is not None:
        mesh = read_mesh(path)
        _check_domain(mesh, cfg.domain, path)
        return mesh
    if cfg.domain == "square":
        return generate_square(cfg.mesh, n, SQUARE_SIDE)
    return generate_lshape(cfg.mesh, n)


def _exact_eps(dofmap, M, u) -> float:
    """The M-distance of u from the square's interpolated eigenfunction."""
    return exact_reference_eps(M, interpolate_free(
        dofmap, lambda x, y: np.sin(x) * np.sin(y)), u)


def _label(cfg: ExperimentConfig, index: int) -> int:
    """A level's ``n`` column: n, the level index on a file mesh, or the
    level number from 1 on adaptive runs."""
    if cfg.adaptive:
        return index + 1
    return index if _mesh_file(cfg) is not None else cfg.n_start * 2 ** index


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
    """Run one schedule through ``rom.solve_levels`` and return its rows.

    Deterministic for a fixed config and seed, timing aside.  Both dumps are
    written from the last solved level.  Component failures abort the
    schedule; the raised ExperimentError carries the rows already completed.
    """
    _validate(cfg)
    lam_ref = reference_eigenvalue(cfg.domain)
    eps = _exact_eps if cfg.pod_eps == "exact" else float(cfg.pod_eps)

    def uniform(level, dofmap, M):
        if _mesh_file(cfg) is not None:
            return uniform_refine(level.mesh)
        return _mesh(cfg, 2 * _label(cfg, level.index))

    kind = cfg.mesh if _mesh_file(cfg) is None else "file"
    sizes, table, last = [], [], None
    levels = solve_levels(
        _mesh(cfg, cfg.n_start), cfg.fe_degree, cfg.continuation, cfg.strides,
        eps, cfg.levels, partial(next_mesh, cfg.theta) if cfg.adaptive else uniform)
    try:
        for last in levels:
            sizes.append(last.n_dof if cfg.adaptive
                         else float(last.mesh.edge_lengths.max()))
            table.append([
                ResultRow(f"{kind}-s{run.stride}" if len(cfg.strides) > 1
                          else kind, _label(cfg, last.index), last.n_dof,
                          last.trace.eigenvalue, run.trace.eigenvalue, None,
                          None, run.basis.N, last.trace.wall_time, run.rom_s)
                for run in last.per_stride])
    except Exception as exc:
        raise ExperimentError(
            f"schedule aborted at n={_label(cfg, len(table))}: {exc}",
            _rows(cfg, table, sizes, lam_ref)) from exc

    if last is not None and cfg.mesh_dump_path:
        write_mesh(last.mesh, cfg.mesh_dump_path)
    if last is not None and cfg.singvals_path:
        for run in last.per_stride:
            path = cfg.singvals_path
            if len(cfg.strides) > 1:
                stem, ext = os.path.splitext(path)
                path = f"{stem}_s{run.stride}{ext}"
            write_singular_values(run.basis.singular_values, path)
    return _rows(cfg, table, sizes, lam_ref)


def _rows(cfg, table, sizes, lam_ref) -> list[ResultRow]:
    """The table rows grouped by stride, with rates along each group:
    h-based on uniform schedules, dof-based on adaptive ones."""
    mode = "adaptive" if cfg.adaptive else "uniform"
    rows: list[ResultRow] = []
    for group in zip(*table):
        rf = compute_rate([r.lambda_fom - lam_ref for r in group], sizes, mode)
        rr = compute_rate([r.lambda_rom - lam_ref for r in group], sizes, mode)
        rows += [replace(r, rate_fom=f, rate_rom=g)
                 for r, f, g in zip(group, rf, rr)]
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write the result table; full-precision decimals, empty first rates."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(map(_fmt, astuple(r)) for r in rows)


def read_csv(path) -> list[ResultRow]:
    """Parse a table written by emit_csv (round-trip exact); a record with
    the wrong number of columns is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header")
        parsers = [_PARSE[f.type] for f in fields(ResultRow)]
        return [ResultRow(*(parse(v) for parse, v in
                            zip(parsers, rec, strict=True)))
                for rec in reader]
