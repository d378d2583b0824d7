"""eigenrom benchmark: paper workloads through the user-facing CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each solve is ``eigenrom.cli.main(["run", ...])`` called
in-process with the CSV written to a temporary directory under ``bench/out``
and read back with ``harness.read_csv``; every solve's output is checked (see
``workloads.py``).  A run first makes one untimed tiny solve of the workload
(lazy imports), then repeats full solves, each with its own seed drawn from
``--seed``, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (medians over the run's solves).
``--trace 1`` alternates untraced and traced solves on the same seed and
reports the per-layer metrics of the traced ones (see ``tracer.py``).  Host,
per-solve records and spans go to ``bench/out/<workload>-<seed>-<trace>.json``;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

# name -> (unit, better, bound); mirrored by BENCHMARK.json
END_TO_END = {
    "solve_s": ("s", "lower", 0.25),
    "fom_s": ("s", "lower", 0.25),
    "rom_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
}
# name -> unit, all "lower is better"; mirrored by BENCHMARK.json
PER_LAYER = {
    "continuation.run_fom_s": "s",
    "continuation.steps": "count",
    "continuation.step_ms": "ms",
    "continuation.unconverged": "count",
    "continuation.warnings": "count",
    "linalg.spd_solve_s": "s",
    "linalg.spd_solve_calls": "count",
    "linalg.sym_eig_desc_s": "s",
    "linalg.sym_eig_desc_calls": "count",
    "mesh.generate_s": "s",
    "mesh.stats_s": "s",
    "mesh.triangles": "count",
    "mesh.bisect_s": "s",
    "mesh.bisect_calls": "count",
    "adapt.estimate_s": "s",
    "adapt.mark_s": "s",
    "adapt.marked_fraction": "1",
    "pod.singular_values_s": "s",
    "pod.build_pod_s": "s",
    "pod.columns": "count",
    "pod.n_pod": "count",
    "rom.reduce_s": "s",
    "rom.run_rom_s": "s",
    "rom.steps": "count",
    "rom.unconverged": "count",
    "fem.dofmap_s": "s",
    "fem.assemble_s": "s",
    "fem.nnz": "count",
    "mesh.self_s": "s",
    "fem.self_s": "s",
    "continuation.self_s": "s",
    "linalg.self_s": "s",
    "pod.self_s": "s",
    "rom.self_s": "s",
    "adapt.self_s": "s",
    "harness.self_s": "s",
    "process.peak_rss_mb": "MiB",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no package to import)."""


@dataclass
class Attempt:
    """One ``eigenrom run`` call and what came of it."""

    seed: int
    size: str                      # "full" or "tiny" (warm-up)
    traced: bool
    exit_code: int | None = None
    solve_s: float = 0.0
    fom_s: float = 0.0
    rom_s: float = 0.0
    problems: list = field(default_factory=list)
    layers: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def import_package():
    """Import ``eigenrom`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "eigenrom" / "cli.py").is_file():
        raise BenchError(f"no eigenrom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenrom.cli
    import eigenrom.harness
    where = Path(eigenrom.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"eigenrom was imported from {where}, not {SRC}")
    return eigenrom.cli, eigenrom.harness


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _source_digest() -> str:
    """sha256 over the package sources: identifies the code where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eigenrom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_info() -> dict:
    import numpy
    import scipy
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of a fresh interpreter importing ``eigenrom.cli``, after one
    untimed start that leaves the bytecode cache as a CLI user has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import eigenrom.cli"]
    times = []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError("fresh interpreter cannot import eigenrom.cli: "
                             + done.stderr.decode(errors="replace")[-500:])
        if k:
            times.append(elapsed)
    return times


def level_fom_s(rows) -> float:
    """Sum of the CSV fom_s column with each mesh level counted once (with
    several strides the CSV repeats a level's FOM time on every row)."""
    first = {}
    for r in rows:
        first.setdefault(r.n, r.fom_s)
    return sum(first.values())


def attempt(cli, harness, workload: Workload, size: str, seed: int,
            tracer: Tracer | None = None) -> Attempt:
    """One checked ``eigenrom run`` call; any failure is recorded, not raised."""
    case: Case = getattr(workload, size)
    rec = Attempt(seed=seed, size=size, traced=tracer is not None)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        csv_path = os.path.join(tmp, "table.csv")
        argv = ["run", *case.argv, "--seed", str(seed), "--out", csv_path]
        run_id = f"{workload.name}:{size}:{seed}"
        try:
            t0 = time.perf_counter()
            if tracer is None:
                rec.exit_code = cli.main(argv)
            else:
                rec.exit_code = tracer.call(run_id, cli.main, argv)
            rec.solve_s = time.perf_counter() - t0
            if rec.exit_code != 0:
                rec.problems.append(f"exit code {rec.exit_code}")
                return rec
            rows = harness.read_csv(csv_path)
        except Exception:
            # the benchmark keeps going: the failure is counted
            rec.problems.append("exception: " + traceback.format_exc(limit=3))
            return rec
    rec.fom_s = level_fom_s(rows)
    rec.rom_s = sum(r.rom_s for r in rows)
    rec.problems.extend(workload.check(rows, case))
    if tracer is not None:
        spans = tracer.run_spans(run_id)
        rec.layers = layer_metrics(spans, tracer.counters[run_id])
        rec.solve_s = next(s.duration for s in spans if s.parent is None)
    return rec


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  size: str = "full", setup_repeats: int = SETUP_REPEATS):
    """Measure one workload; returns (result dict, detail dict)."""
    cli, harness = import_package()
    rng = random.Random(seed)
    attempts = [attempt(cli, harness, workload, "tiny", rng.randrange(2**31))]
    tracer = Tracer() if trace else None
    setup = [] if trace else measure_setup(setup_repeats)
    deadline = time.perf_counter() + seconds
    pairs = []
    while True:
        sub_seed = rng.randrange(2**31)
        plain = attempt(cli, harness, workload, size, sub_seed)
        attempts.append(plain)
        if tracer is not None:
            with tracer:
                traced = attempt(cli, harness, workload, size, sub_seed, tracer)
            attempts.append(traced)
            pairs.append((plain, traced))
        if time.perf_counter() >= deadline:
            break

    measured = [a for a in attempts if a.size == size and not a.traced
                and not a.failed]
    failed = sum(a.failed for a in attempts)
    if trace:
        good = [(p, t) for p, t in pairs if not p.failed and not t.failed]
        layers = median_metrics([t.layers for _, t in good]) if good else {}
        layers["trace.overhead_s"] = _median(t.solve_s - p.solve_s
                                             for p, t in good)
        layers["process.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "solve_s": _median(a.solve_s for a in measured),
            "fom_s": _median(a.fom_s for a in measured),
            "rom_s": _median(a.rom_s for a in measured),
            "setup_s": _median(setup),
        }
        metrics = {name: {"value": values[name], "unit": spec[0]}
                   for name, spec in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(attempts),
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size,
        "failed_fraction": failed / len(attempts),
        "setup_s": setup,
        "attempts": [vars(a) | {"failed": a.failed} for a in attempts],
        "absent_targets": tracer.absent if tracer else [],
        "failed_counters": sorted(tracer.failed_counters) if tracer else [],
        "spans": [{"id": s.id, "name": s.name, "layer": s.layer,
                   "parent": s.parent, "run_id": s.run_id,
                   "start": s.start, "end": s.end}
                  for s in tracer.spans] if tracer else [],
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # one BLAS thread, set before numpy loads (fresh interpreters started for
    # setup_s inherit it): the solver is single-threaded apart from small
    # dense products, and idle BLAS threads spinning on a small shared host
    # only add noise
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    try:
        result, detail = run_benchmark(WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    detail["host"] = host_info()
    out_path = OUT / f"{args.workload}-{args.seed}-{args.trace}.json"
    out_path.write_text(json.dumps(detail))

    print("host: " + json.dumps(detail["host"]))
    if detail["absent_targets"]:
        print("absent wrap targets (reported as 0): "
              + ", ".join(detail["absent_targets"]))
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:16s} {'failed_fraction':28s} "
          f"{detail['failed_fraction']:14.6g} 1")
    for a in detail["attempts"]:
        for problem in a["problems"]:
            print(f"FAILED seed={a['seed']} size={a['size']}: {problem}")
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
