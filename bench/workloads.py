"""The benchmark's workloads and the correctness check of each.

Every workload is one ``eigenrom run`` argument list taken from the paper's
studies, in a full size (what the benchmark measures) and a tiny size (the
warm-up call of each run, and the smoke checks).  A check receives the rows
read back from the CSV the run wrote and returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# First eigenvalue of the L-shaped domain (the harness uses the same value).
LAMBDA_LSHAPE = 9.6397238440219

# Published P1 crisscross full-order eigenvalues on the square (0, pi)^2, the
# values acceptance criterion 1 checks.
TABLE_P1_CRISSCROSS = {
    16: 2.005363995049,
    32: 2.001339238351,
    64: 2.000334699425,
    128: 2.000083667969,
}
FOM_TABLE_TOL = 1e-7      # criterion 1
ROM_FOM_GAP = 5e-9        # criterion 4


@dataclass(frozen=True)
class Case:
    """One size of a workload: the argv after ``run`` and what to expect."""

    argv: tuple[str, ...]
    rows: int
    # adaptive runs only: bound on |lambda_fom - LAMBDA_LSHAPE| at the last
    # level, fixed from a seed-0 run (lambda does not depend on the seed)
    final_error: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Case
    tiny: Case
    check: Callable[[list, Case], list[str]]


def _common(rows, case: Case) -> list[str]:
    problems = []
    if len(rows) != case.rows:
        problems.append(f"expected {case.rows} rows, got {len(rows)}")
    for r in rows:
        gap = abs(r.lambda_rom - r.lambda_fom)
        if not gap <= ROM_FOM_GAP:
            problems.append(f"{r.mesh} n={r.n}: |lambda_rom - lambda_fom| = "
                            f"{gap:.3e} > {ROM_FOM_GAP:g}")
    return problems


def check_square(rows, case: Case) -> list[str]:
    """lambda_fom against the published table, lambda_rom against lambda_fom."""
    problems = _common(rows, case)
    for r in rows:
        ref = TABLE_P1_CRISSCROSS.get(r.n)
        if ref is None:
            problems.append(f"n={r.n}: no published reference value")
        elif not abs(r.lambda_fom - ref) <= FOM_TABLE_TOL:
            problems.append(f"{r.mesh} n={r.n}: |lambda_fom - table| = "
                            f"{abs(r.lambda_fom - ref):.3e} > {FOM_TABLE_TOL:g}")
    return problems


def check_strides(rows, case: Case) -> list[str]:
    """The square checks, plus basis size N non-increasing with stride."""
    problems = check_square(rows, case)
    by_stride = sorted((int(r.mesh.rsplit("-s", 1)[1]), r.n_pod) for r in rows)
    n_pod = [n for _, n in by_stride]
    if any(b > a for a, b in zip(n_pod, n_pod[1:])):
        problems.append(f"N is not non-increasing with stride: {by_stride}")
    return problems


def check_adaptive(rows, case: Case) -> list[str]:
    """lambda_fom approaches the L-shape value from above and ends within
    the case's tolerance; dofs grow; lambda_rom agrees with lambda_fom."""
    problems = _common(rows, case)
    if not rows:
        return problems
    errors = [r.lambda_fom - LAMBDA_LSHAPE for r in rows]
    if min(errors) < 0:
        problems.append("lambda_fom below the exact eigenvalue "
                        f"(min error {min(errors):.3e}); a conforming "
                        "Galerkin value cannot be")
    if any(b.dof <= a.dof for a, b in zip(rows, rows[1:])):
        problems.append("dofs do not increase from level to level")
    if not errors[-1] < errors[0]:
        problems.append(f"error does not decrease: first {errors[0]:.3e}, "
                        f"last {errors[-1]:.3e}")
    if not abs(errors[-1]) <= case.final_error:
        problems.append(f"final |lambda_fom - {LAMBDA_LSHAPE}| = "
                        f"{abs(errors[-1]):.3e} > {case.final_error:g}")
    return problems


_SQUARE_P1 = ("--domain", "square", "--mesh", "crisscross", "--fe", "1")
_LSHAPE_P2 = ("--domain", "lshape", "--mesh", "crisscross", "--fe", "2",
              "--n-start", "4", "--adaptive", "--theta", "0.5")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="square-uniform",
        why="convergence-table path n=16/32/64; FOM linear solves dominate, "
            "mesh generation is the next layer; no adaptivity",
        full=Case(_SQUARE_P1 + ("--n-start", "16", "--levels", "3",
                                "--stride", "4"), rows=3),
        tiny=Case(_SQUARE_P1 + ("--n-start", "16", "--levels", "2",
                                "--stride", "4"), rows=2),
        check=check_square,
    ),
    Workload(
        name="lshape-adaptive",
        why="24 small adaptive P2 levels; the only workload through "
            "estimate/mark/bisect, per-call overheads dominate",
        full=Case(_LSHAPE_P2 + ("--levels", "24"), rows=24,
                  final_error=1.3e-4),
        tiny=Case(_LSHAPE_P2 + ("--levels", "4"), rows=4, final_error=2.2e-2),
        check=check_adaptive,
    ),
    Workload(
        name="square-strides",
        why="snapshot-stride study at n=16 (strides 2,4,8): one small FOM "
            "feeds three bases, so the offline POD stage (correlation "
            "eigenproblem) dominates",
        full=Case(_SQUARE_P1 + ("--n-start", "16", "--levels", "1",
                                "--strides", "2,4,8"), rows=3),
        tiny=Case(_SQUARE_P1 + ("--n-start", "16", "--levels", "1",
                                "--strides", "4,8"), rows=2),
        check=check_strides,
    ),
)}
