"""The benchmark's tracer (``bench/tracer.py``) wraps package functions by
name and reports the ones it cannot find as absent; a refactor that renames
or deletes one of them would leave a hole in the per-layer trace.  Its
counters read the arguments and results of the wrapped calls, so a change of
what ``run_fom`` returns or ``build_pod`` receives would leave a counter
failed.  The runner (``bench/run.py``) reads each run's CSV back with
``harness.read_csv`` and checks its ``ResultRow`` fields."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import eigenrom.cli as cli
import eigenrom.harness as harness
from eigenrom.mesh import PATTERNS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(monkeypatch, name):
    # in sys.modules: dataclasses look their defining module up there
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracer(monkeypatch):
    return load(monkeypatch, "tracer")


@pytest.fixture()
def runner(monkeypatch, tmp_path):
    """``bench/run.py`` writing under tmp_path; its import leaves nothing behind."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("tracer", "workloads"):
        monkeypatch.setitem(sys.modules, name, None)    # restored or removed
        del sys.modules[name]
    module = load(monkeypatch, "run")
    monkeypatch.setattr(module, "OUT", tmp_path)
    return module


def test_every_wrap_target_is_callable(tracer):
    assert tracer.TARGETS
    absent = [f"{layer}.{name}" for layer, name in tracer.TARGETS
              if not callable(getattr(importlib.import_module(
                  f"{tracer.PACKAGE}.{layer}"), name, None))]
    assert absent == []


@pytest.mark.parametrize("schedule", [
    ["--domain", "square", "--mesh", "crisscross", "--n-start", "4",
     "--levels", "2", "--strides", "1,2"],
    ["--domain", "lshape", "--mesh", "crisscross", "--fe", "2",
     "--n-start", "2", "--levels", "2", "--adaptive"],
])
def test_traced_run_fills_every_counter(tracer, tmp_path, schedule):
    with tracer.Tracer() as t:
        code = t.call("run", cli.main, ["run", *schedule,
                                        "--out", str(tmp_path / "t.csv")])
    assert code == 0
    assert t.absent == []
    assert t.failed_counters == set()
    counters = t.counters["run"]
    for name in ("continuation.steps", "pod.columns", "pod.n_pod",
                 "rom.steps", "fem.nnz", "mesh.triangles"):
        assert counters[name] > 0, name


@pytest.mark.parametrize("workload", ["square-uniform", "lshape-adaptive",
                                      "square-strides"])
def test_runner_reads_and_checks_every_workload(runner, workload):
    done = runner.attempt(cli, harness, runner.WORKLOADS[workload], "tiny", 0)
    assert (done.exit_code, done.problems) == (0, [])
    # the harness's reference eigenvalues, the workloads' among them
    assert harness.EIGENPAIRS.keys() == PATTERNS.keys()
    assert harness.EIGENPAIRS["square"][0] == 2.0
    assert harness.EIGENPAIRS["lshape"] == (9.6397238440219, None)
    assert importlib.import_module("workloads").LAMBDA_LSHAPE == 9.6397238440219
