"""The benchmark's tracer (``bench/tracer.py``) wraps package functions by
name and reports the ones it cannot find as absent; a refactor that renames
or deletes one of them would leave a hole in the per-layer trace.  Its
counters read the arguments and results of the wrapped calls, so a change of
what ``run_fom`` returns or ``build_pod`` receives would leave a counter
failed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from eigenrom.cli import main

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture()
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
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
        code = t.call("run", main, ["run", *schedule,
                                    "--out", str(tmp_path / "t.csv")])
    assert code == 0
    assert t.absent == []
    assert t.failed_counters == set()
    counters = t.counters["run"]
    for name in ("continuation.steps", "pod.columns", "pod.n_pod",
                 "rom.steps", "fem.nnz", "mesh.triangles"):
        assert counters[name] > 0, name
