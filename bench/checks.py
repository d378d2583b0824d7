"""Smoke and consistency checks of the benchmark itself.

    python3 -m pytest -q bench/checks.py

The file name keeps these checks out of the repository's own test suite;
they run each workload at its tiny size.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tiny(workload, trace):
    return run.run_benchmark(workload, seed=0, seconds=0, trace=trace,
                             size="tiny", setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_reported(name, trace):
    result, detail = _tiny(WORKLOADS[name], trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["attempts"]
    assert detail["failed_fraction"] == 0.0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace:
        assert detail["absent_targets"] == [] and detail["failed_counters"] == []
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END)


@pytest.mark.parametrize("how", ["exit-code", "check"])
def test_forced_failure_raises_failed_fraction(how):
    workload = WORKLOADS["square-uniform"]
    if how == "exit-code":
        bad = dataclasses.replace(workload.tiny,
                                  argv=workload.tiny.argv + ("--dt", "-1"))
        workload = dataclasses.replace(workload, tiny=bad)
    else:
        workload = dataclasses.replace(
            workload, check=lambda rows, case: ["forced failure"])
    result, detail = _tiny(workload, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert detail["failed_fraction"] == 1.0


def _top_level_children(spans):
    """Spans of other layers whose parent is a harness span: together with
    the harness self time they cover the whole root span."""
    layer = {s.id: s.layer for s in spans}
    return [s for s in spans if s.layer != "harness" and s.parent is not None
            and layer[s.parent] == "harness"]


def test_traced_spans_add_up_to_solve_time():
    import eigenrom.harness
    original = eigenrom.harness.run_fom
    result, detail = _tiny(WORKLOADS["lshape-adaptive"], trace=True)
    assert eigenrom.harness.run_fom is original, "tracer left a wrapper behind"

    traced = [a for a in detail["attempts"] if a["traced"]]
    assert traced
    spans = [tracer.Span(**{k: s[k] for k in ("id", "name", "layer", "parent",
                                              "run_id", "start", "end")})
             for s in detail["spans"]]
    for a in traced:
        run_id = f"lshape-adaptive:tiny:{a['seed']}"
        mine = [s for s in spans if s.run_id == run_id]
        roots = [s for s in mine if s.parent is None]
        assert len(roots) == 1 and roots[0].name == tracer.ROOT_SPAN
        solve_s = a["solve_s"]
        assert roots[0].duration == solve_s
        children = sum(s.duration for s in _top_level_children(mine))
        assert children + a["layers"]["harness.self_s"] == pytest.approx(
            solve_s, rel=1e-9, abs=1e-9)
        layer_self = sum(a["layers"][f"{layer}.self_s"]
                         for layer in tracer.LAYERS)
        assert layer_self == pytest.approx(solve_s, rel=1e-9, abs=1e-9)
        assert {s.run_id for s in mine} == {run_id}
        # the layers this workload is chosen for did work
        for m in ("mesh.bisect_calls", "adapt.estimate_s", "adapt.mark_s",
                  "continuation.steps", "linalg.spd_solve_calls"):
            assert a["layers"][m] > 0, m


def test_absent_wrap_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, ("pod", "merged_away"), None)
    result, detail = _tiny(WORKLOADS["square-strides"], trace=True)
    assert result["correct"]
    assert detail["absent_targets"] == ["pod.merged_away"]


def test_each_level_fom_time_counted_once():
    Row = dataclasses.make_dataclass("Row", ["n", "fom_s"])
    rows = [Row(64, 1.5), Row(64, 1.5), Row(128, 4.0), Row(128, 4.0)]
    assert run.level_fom_s(rows) == 5.5


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["better"] == "lower" for m in spec["per_layer"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "square-uniform",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
