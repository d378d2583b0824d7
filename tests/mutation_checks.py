"""Mutation check of the test suite: every mutant of ``src/eigenrom`` listed
here must make the tests named beside it fail.

Run with ``python -m pytest -q tests/mutation_checks.py``.  The file name
does not match ``test_*.py``, so the default test run does not collect it.

Each case copies ``src/eigenrom`` to a temporary folder, replaces one exact
text there, and runs the named tests in one child pytest with ``PYTHONPATH``
on the copy (and the ini's ``pythonpath`` cleared, so the copy is the package
the tests import).  The child must report failed tests, exit code 1: an
import error or a test id that no longer exists is not a kill.  A text that
is not found exactly once fails the case with "mutant anchor moved"; a
change that moves the code updates the row, it does not drop it.  The
control case runs every named test on an unmutated copy, which must pass.

``EQUIVALENT`` lists mutants no test can kill, with the reason; only their
anchors are checked.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eigenrom"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # under src/eigenrom
    old: str            # the exact text, found once in the file
    new: str
    tests: tuple        # node ids, relative to the repository root
    source: str         # where the mutant came from


MUTANTS = [
    Mutant("iterate-no-step-cap", "continuation.py",
           "    else:\n"
           "        lam = rayleigh_from_products(U, AU, MU)\n"
           "        raise NonconvergenceError(",
           "    if False:\n"
           "        lam = rayleigh_from_products(U, AU, MU)\n"
           "        raise NonconvergenceError(",
           ("tests/test_continuation.py::TestRunFom::test_max_steps_raises",
            "tests/test_rom.py::TestRunRom::test_max_steps_raises"),
           "CHANGES.md: the step cap raises inside the continuation loop"),
    Mutant("edge-keys-min-max-swapped", "mesh.py",
           "np.minimum(raw[:, 0], raw[:, 1]) * n + np.maximum(raw[:, 0], raw[:, 1])",
           "np.maximum(raw[:, 0], raw[:, 1]) * n + np.minimum(raw[:, 0], raw[:, 1])",
           ("tests/test_mesh_golden.py::test_mesh_matches_golden_digest",),
           "CHANGES.md: column-wise edge keys"),
    Mutant("renumbering-off-by-one", "mesh.py",
           "(np.cumsum(used) - 1)[tris.reshape(-1, 3)]",
           "np.cumsum(used)[tris.reshape(-1, 3)]",
           ("tests/test_mesh.py::TestGenerateSquare",),
           "CHANGES.md: column-wise node renumbering"),
    Mutant("red-refinement-children-swapped", "mesh.py",
           "[:, [0, 5, 4, 1, 3, 5, 2, 4, 3, 3, 4, 5]]",
           "[:, [0, 5, 4, 1, 3, 5, 2, 4, 3, 3, 5, 4]]",
           ("tests/test_mesh.py::TestUniformRefine",),
           "CHANGES.md: red refinement reads six_node_cells"),
    Mutant("start-finiteness-unchecked", "continuation.py",
           "if not (np.any(U) and np.isfinite(U).all()):",
           "if not np.any(U):",
           ("tests/test_continuation.py::TestRunFom::test_non_finite_start_rejected",
            "tests/test_rom.py::TestRunRom::test_non_finite_start_rejected"),
           "CHANGES.md: finite, nonzero start"),
    Mutant("refined-solve-returns-stale-mx", "continuation.py",
           "            ax, mx = amx[:n], amx[n:]\n"
           "            res = norm2(b - (ax + mx / dt))",
           "            ax = amx[:n]\n"
           "            res = norm2(b - (ax + M @ x / dt))",
           ("tests/test_continuation.py::TestFomStep::test_solve_returns_the_products",),
           "CHANGES.md: step_solver returns the products of the refined x"),
    Mutant("renormalised-state-keeps-old-products", "continuation.py",
           "            U = U / norm\n"
           "            AU, MU = products(U)\n",
           "            U = U / norm\n",
           ("tests/test_continuation.py::TestRunFom::test_renormalised_run_matches_unscaled_run",),
           "CHANGES.md: products recomputed after the overflow guard"),
    Mutant("dirichlet-columns-kept", "fem.py",
           "keep = (valid[:, :, None] & valid[:, None, :]).reshape(-1)",
           "keep = np.repeat(valid, n_loc, axis=1).reshape(-1)\n"
           "    idx = np.where(valid, idx, 0)",
           ("tests/test_fem.py::TestAssembly::test_free_dof_operators_match_restricted_full_operators",),
           "CHANGES.md: Dirichlet elimination before the sparse conversion"),
    Mutant("wrong-gauss-point", "fem.py",
           "_QA1, _QW1 = 0.445948490915965,",
           "_QA1, _QW1 = 0.445948490915865,",
           ("tests/test_fem.py::TestAssembly::test_p2_mass_exact_quartic",
            "tests/test_fem_golden.py::test_operators_and_estimator_match_golden_digest"),
           "CHANGES.md: mutation checks of the element tables"),
    Mutant("reduced-mass-is-gram-of-basis", "rom.py",
           "m_red = V.T @ (M @ V)",
           "m_red = V.T @ V",
           ("tests/test_rom.py::TestRunRom::test_full_rank_basis_reproduces_fom_endpoint",),
           "CHANGES.md: Galerkin reduction"),
    Mutant("reduced-shift-off-by-1e-4", "rom.py",
           "system = a_red + m_red / config.dt",
           "system = a_red + m_red / (1.0001 * config.dt)",
           ("tests/test_rom.py::TestRunRom::test_matches_cholesky_oracle_bit_for_bit",),
           "CHANGES.md: one LAPACK Cholesky per reduced run"),
    Mutant("non-integer-marks-accepted", "mesh.py",
           'if marked.dtype.kind not in "iu":',
           'if marked.dtype.kind not in "iubf":',
           ("tests/test_mesh.py::TestBisectRefine::test_out_of_range_mark_rejected",),
           "CHANGES.md: bisect_refine refuses non-integer marks"),
    Mutant("residual-sign-flipped", "continuation.py",
           "return norm2(AU - lam * MU) / norm2(MU)",
           "return norm2(AU + lam * MU) / norm2(MU)",
           ("tests/test_fem.py::TestRayleighQuotient::test_eigenpair_consistency",),
           "the eigenpair measures beside their gate in continuation"),
    Mutant("strides-need-no-common-base", "rom.py",
           "        if stride % min(strides):\n",
           "        if False:\n",
           ("tests/test_rom.py::TestSolveLevel::test_stride_not_a_multiple_rejected_before_the_run",),
           "the stride rule beside its sampler in rom"),
    Mutant("run-fom-accepts-stride-zero", "continuation.py",
           "    if stride < 1:\n"
           '        raise ValueError("strides must be positive")\n',
           "",
           ("tests/test_continuation.py::TestRunFom::test_stride_below_one_rejected",),
           "the stride rule beside its sampler in rom"),
    Mutant("eigen-residual-gate-open", "continuation.py",
           "if not residual <= EIGEN_RTOL * lam:",
           "if not residual <= 1e9 * lam:",
           ("tests/test_harness.py::TestCli::test_stop_before_any_progress_is_nonconvergence",),
           "CHANGES.md: a stop away from an eigenpair is nonconvergence"),
    Mutant("orthogonal-start-floor-too-low", "continuation.py",
           "max(1e-14, 100.0 * config.stop_tol)",
           "max(1e-14, 1e-3 * config.stop_tol)",
           ("tests/test_continuation.py::TestRunFom::test_which_warning_flags_a_higher_mode",),
           "the M-orthogonal-start warning states the M-cosine"),
    Mutant("zero-levels-accepted", "harness.py",
           "if cfg.levels < 1:",
           "if cfg.levels < 0:",
           ("tests/test_harness.py::TestRunExperiment::test_zero_levels_refused",),
           "CHANGES.md: every schedule has at least one level"),
    Mutant("mark-target-uncapped", "adapt.py",
           "target = min(theta ** 2 * total * (1.0 - 1e-12), running[-1])",
           "target = theta ** 2 * total * (1.0 - 1e-12)",
           ("tests/test_adapt.py::TestMark::test_theta_one_when_pairwise_sum_exceeds_cumsum",),
           "CHANGES.md: adapt.mark at theta = 1"),
    Mutant("pod-tail-summed-from-the-top", "pod.py",
           "tail = np.concatenate([np.cumsum(energy[:0:-1])[::-1], [0.0]])",
           "tail = energy.sum() - np.cumsum(energy)",
           ("tests/test_pod.py::TestSelectDim::test_tiny_tail_not_lost_to_cancellation",),
           "select_dim's tail sum against cancellation"),
    Mutant("level-skips-unknowns-check", "rom.py",
           "        n = A.shape[0]\n"
           "        check_unknowns(n)\n",
           "        n = A.shape[0]\n",
           ("tests/test_harness.py::TestCli::test_bad_config_rejected_before_any_solve",),
           "one level function: check_unknowns before the full-order run"),
    Mutant("exact-eps-not-sign-aligned", "harness.py",
           "    if a @ (M @ b) < 0:\n"
           "        b = -b\n",
           "",
           ("tests/test_harness.py::TestExactEps::test_zero_for_identical_directions",),
           "the exact basis-size rule in one home, harness._exact_eps"),
    Mutant("level-keeps-its-snapshots", "rom.py",
           "del A, snaps, sub, lifted",
           "del A, lifted",
           ("tests/test_rom.py::TestSolveLevel::test_operators_released_before_the_next_assembly",),
           "one level function: a level's operators released before the next"),
    Mutant("solver-failure-exits-1", "cli.py",
           "return 2 if isinstance(exc, SolverError) else 1",
           "return 1",
           ("tests/test_harness.py::TestCli::test_adaptive_nonconvergence_exit_code",
            "tests/test_harness.py::TestCli::test_exit_code_by_failure_type"),
           "a failure leaves run_experiment as itself; main reads its type"),
    Mutant("abort-writes-no-partial-table", "harness.py",
           "emit_csv(rows, cfg.out_path)",
           "pass",
           ("tests/test_harness.py::TestRunExperiment::test_abort_writes_the_partial_table_then_raises",),
           "a failure leaves run_experiment as itself; main reads its type"),
    Mutant("abort-swallows-the-failure", "harness.py",
           "                pass\n"
           "        raise\n",
           "                pass\n"
           "        return rows\n",
           ("tests/test_harness.py::TestRunExperiment::test_abort_writes_the_partial_table_then_raises",),
           "a failure leaves run_experiment as itself; main reads its type"),
    Mutant("main-catches-every-exception", "cli.py",
           "except (ValueError, OSError, SolverError) as exc:",
           "except Exception as exc:",
           ("tests/test_harness.py::TestCli::test_internal_error_is_not_a_refused_input",),
           "a failure leaves run_experiment as itself; main reads its type"),
    Mutant("closure-ignores-the-third-edge", "mesh.py",
           "need = (s0 | s1 | s2) & ~split[e_r]",
           "need = (s0 | s1) & ~split[e_r]",
           ("tests/test_mesh.py::TestBisectRefine::test_closure_reads_every_local_edge",
            "tests/test_mesh.py::TestBisectionProperties::test_random_markings_keep_invariants"),
           "the bisection closure loses its sweep cap"),
    Mutant("log-level-set-once", "cli.py",
           "    logging.getLogger().setLevel(levels[level])\n",
           "",
           ("tests/test_harness.py::TestCli::test_every_call_applies_its_own_log_level",),
           "every cli.main call applies its own EIGENROM_LOG"),
    Mutant("unwritable-partial-table-replaces-the-failure", "harness.py",
           "            except OSError:\n"
           "                pass\n",
           "            except OSError:\n"
           "                raise\n",
           ("tests/test_harness.py::TestRunExperiment::test_unwritable_partial_table_leaves_the_failure_as_it_is",),
           "tests for the reachable input checks no test ran"),
    Mutant("trailing-mesh-data-accepted", "mesh.py",
           'raise MeshError("trailing data after boundary section")',
           "pass",
           ("tests/test_mesh.py::TestMeshIO::test_token_after_boundary_section_rejected",),
           "tests for the reachable input checks no test ran"),
]

# mutants that change no behaviour any input can reach
EQUIVALENT = [
    (Mutant("boundary-edge-le-zero", "mesh.py",
            "self.edge_table[2][:, 1] < 0)", "self.edge_table[2][:, 1] <= 0)",
            (), "CHANGES.md: mutation checks of the edge data"),
     "an edge's second triangle has the larger index of its two, so it is "
     "never triangle 0: the column holds -1 or a value >= 1"),
    (Mutant("snapshot-test-on-the-list", "continuation.py",
            "if stride and steps % stride == 0:",
            "if snapshots is not None and steps % stride == 0:",
            (), "the reduced run shares the loop and samples nothing"),
     "snapshots is a list exactly when stride is truthy, so both conditions "
     "agree on every step"),
]


def mutated_copy(folder: Path, mutant: Mutant | None) -> Path:
    """Copy the package under folder/src, with mutant applied; return src."""
    src = folder / "src"
    shutil.copytree(PACKAGE, src / "eigenrom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "eigenrom" / mutant.path
        text = path.read_text()
        assert text.count(mutant.old) == 1, f"mutant anchor moved: {mutant.name}"
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("EIGENROM_LOG", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", "pythonpath=", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(tmp_path, mutant):
    child = run_tests(mutated_copy(tmp_path, mutant), mutant.tests)
    assert child.returncode == 1, (
        f"{mutant.name} survived (exit {child.returncode}):\n{child.stdout[-2000:]}")


def test_named_tests_pass_without_a_mutant(tmp_path):
    tests = sorted({t for m in MUTANTS for t in m.tests})
    child = run_tests(mutated_copy(tmp_path, None), tests)
    assert child.returncode == 0, child.stdout[-2000:]


@pytest.mark.parametrize("mutant, reason", EQUIVALENT,
                         ids=[m.name for m, _ in EQUIVALENT])
def test_equivalent_anchor_is_found_once(mutant, reason):
    text = (PACKAGE / mutant.path).read_text()
    assert text.count(mutant.old) == 1, f"mutant anchor moved: {mutant.name}"
