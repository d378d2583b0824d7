"""The benchmark's tracer (``bench/tracer.py``) wraps package functions by
name and reports the ones it cannot find as absent; a refactor that renames
or deletes one of them would leave a hole in the per-layer trace."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_wrap_target_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    absent = [f"{layer}.{name}" for layer, name in tracer.TARGETS
              if not callable(getattr(importlib.import_module(
                  f"{tracer.PACKAGE}.{layer}"), name, None))]
    assert absent == []
