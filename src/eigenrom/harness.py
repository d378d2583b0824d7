"""Experiment orchestration: config validation, the schedule of meshes fed
to the one level loop (``rom.solve_levels``), table rows with convergence
rates, the mesh and singular-value dumps, and CSV export.  A config fixes
every input of a run, its start vectors included.  A schedule has at least
one level; a row's ``n`` counts subintervals per side, or levels from 0 on a
mesh file and from 1 on an adaptive run.

Reference eigenpairs (``EIGENPAIRS``): lambda_1 = 2 and sin(x) sin(y) on the
square (0, pi)^2; 9.6397238440219 and no known eigenfunction on the L-shape.
The exact basis-size rule (``--pod-eps exact``) is all in ``_exact_eps``.
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
from .continuation import ContinuationConfig
from .fem import check_degree
from .mesh import (PATTERNS, Mesh, MeshError, check_generator,
                   check_subintervals, generate, read_mesh, uniform_refine,
                   write_mesh)
from .pod import check_eps, write_singular_values
from .rom import check_strides, solve_levels

log = logging.getLogger(__name__)

# each domain's (lambda_1, first eigenfunction or None where not known)
EIGENPAIRS = {"square": (2.0, lambda x, y: np.sin(x) * np.sin(y)),
              "lshape": (9.6397238440219, None)}
# a mesh file covers its domain if its triangle areas sum to the domain's
# area within DOMAIN_RTOL of it, and each boundary node lies on the domain's
# boundary to within DOMAIN_RTOL times the domain's width
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
    out_path: str | None = None       # the result table; None writes none
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
    if cfg.levels < 1:
        raise ValueError("levels must be >= 1")
    check_strides(cfg.strides)
    if cfg.adaptive and len(cfg.strides) > 1:
        raise ValueError("adaptive runs take a single snapshot stride")
    if cfg.pod_eps == "exact":
        if EIGENPAIRS[cfg.domain][1] is None or cfg.adaptive:
            raise ValueError("the exact-reference tolerance needs uniform "
                             "levels on the square domain, where the first "
                             "eigenfunction is known")
    else:
        check_eps(float(cfg.pod_eps))
    check_theta(cfg.theta)
    field_of = {} if path is None else {os.path.realpath(path): "mesh"}
    for name, what, out in _outputs(cfg):
        check_writable(name, what, out)
        other = field_of.setdefault(os.path.realpath(out), name)
        if other != name:
            raise ValueError(f"{other} and {name} both name the file {out}")


def _outputs(cfg: ExperimentConfig) -> list[tuple[str, str, str]]:
    """Every file the run writes, in writing order, as (config field, what
    it holds, path): the table, the mesh dump, then the singular values of
    each stride, with an ``_s<stride>`` suffix if there are several."""
    stem, ext = os.path.splitext(path := cfg.singvals_path or "")
    files = [("out_path", "result table", cfg.out_path),
             ("mesh_dump_path", "mesh", cfg.mesh_dump_path),
             *(("singvals_path", "singular values",
                f"{stem}_s{s}{ext}" if path and len(cfg.strides) > 1
                else cfg.singvals_path) for s in cfg.strides)]
    return [file for file in files if file[2] is not None]


def check_writable(name: str, what: str, path: str | None) -> None:
    """Refuse an output path (if given) that cannot be written as a file: an
    empty path, a directory, or one whose parent is no writable folder."""
    parent = os.path.dirname(path or "") or "."
    if path is not None and (not path or os.path.isdir(path) or not (
            os.path.isdir(parent) and os.access(parent, os.W_OK))):
        raise ValueError(f"{name}: cannot write {what} {path or '(empty path)'}")


def _mesh_file(cfg: ExperimentConfig) -> str | None:
    """The path of a ``file:<path>`` mesh; None for a generated one."""
    kind, _, path = cfg.mesh.partition(":")
    return path if kind == "file" else None


def _check_domain(mesh: Mesh, domain: str, path: str) -> None:
    """Refuse a mesh file that does not cover the named domain as its coarsest
    generated mesh does: the two conditions pin it, so a shifted, scaled,
    reflected or rotated domain fails, even where its lambda_1 is the same."""
    ref = generate(domain, PATTERNS[domain][0], 1)
    corners, ends = ref.nodes[ref.edge_table[0][ref.boundary_edge].T]
    sides, area = ends - corners, ref.areas.sum()
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
    off = np.flatnonzero(distance > DOMAIN_RTOL * np.ptp(ref.nodes, axis=0).max())
    if off.size:
        node = ids[off[0]]
        x, y = mesh.nodes[node].tolist()
        raise MeshError(f"{path}: boundary node {node} at ({x!r}, {y!r}) is "
                        f"off the {domain} domain's boundary")


def _exact_eps(eigenfunction, dofmap, M, u) -> float:
    """``--pod-eps exact``: the M-distance of u from the eigenfunction's nodal
    interpolant on the free dofs, both M-normalized and sign-aligned."""
    coords = dofmap.dof_coords[dofmap.free_dofs]
    a = np.asarray(eigenfunction(coords[:, 0], coords[:, 1]), dtype=np.float64)
    b = np.asarray(u, dtype=np.float64)
    a = a / np.sqrt(a @ (M @ a))
    b = b / np.sqrt(b @ (M @ b))
    if a @ (M @ b) < 0:
        b = -b
    d = a - b
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


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
    """Run a schedule of ``cfg.levels`` >= 1 levels through
    ``rom.solve_levels``; write its ``_outputs`` (the table, then both dumps
    from the last level); return its rows.

    Deterministic for a fixed config and seed, timing aside.  A failure
    aborts the schedule: the log names the failing level, the rows already
    completed go to the table, and the failure itself is re-raised."""
    _validate(cfg)
    lam_ref, eigenfunction = EIGENPAIRS[cfg.domain]
    eps = (partial(_exact_eps, eigenfunction) if cfg.pod_eps == "exact"
           else float(cfg.pod_eps))
    # the schedule, decided once: its first mesh, the next mesh of a level
    # (solve_levels' refine), a level's n label, and the rates' sizes
    if (path := _mesh_file(cfg)) is None:
        kind, mesh = cfg.mesh, generate(cfg.domain, cfg.mesh, cfg.n_start)
        label = lambda index: cfg.n_start * 2 ** index
        refine = lambda level, dofmap, M: generate(
            cfg.domain, cfg.mesh, 2 * label(level.index))
    else:
        kind, mesh = "file", read_mesh(path)
        _check_domain(mesh, cfg.domain, path)
        label = lambda index: index
        refine = lambda level, dofmap, M: uniform_refine(level.mesh)
    size, mode = lambda level: float(level.mesh.edge_lengths.max()), "uniform"
    if cfg.adaptive:
        refine, mode = partial(next_mesh, cfg.theta), "adaptive"
        label, size = lambda index: index + 1, lambda level: level.n_dof
    sizes, table = [], []
    try:
        for last in solve_levels(mesh, cfg.fe_degree, cfg.continuation,
                                 cfg.strides, eps, cfg.levels, refine):
            sizes.append(size(last))
            table.append([
                ResultRow(f"{kind}-s{run.stride}" if len(cfg.strides) > 1
                          else kind, label(last.index), last.n_dof,
                          last.trace.eigenvalue, run.trace.eigenvalue, None,
                          None, run.basis.N, last.trace.wall_time, run.rom_s)
                for run in last.per_stride])
    except Exception:
        log.error("schedule aborted at n=%s", label(len(table)))
        rows = _rows(table, sizes, mode, lam_ref)
        if rows and cfg.out_path:
            try:
                emit_csv(rows, cfg.out_path)
                log.error("partial table written to %s", cfg.out_path)
            except OSError:
                pass
        raise

    rows = _rows(table, sizes, mode, lam_ref)
    runs = iter(last.per_stride)
    for name, _, path in _outputs(cfg):
        if name == "out_path":
            emit_csv(rows, path)
        elif name == "mesh_dump_path":
            write_mesh(last.mesh, path)
        else:
            write_singular_values(next(runs).basis.singular_values, path)
    return rows


def _rows(table, sizes, mode: str, lam_ref) -> list[ResultRow]:
    """The table rows grouped by stride, with ``compute_rate``'s rates in
    ``mode`` over ``sizes`` along each group."""
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
