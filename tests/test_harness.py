import argparse
import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import eigenrom.rom as rom
from eigenrom.cli import build_parser, main as cli_main
from eigenrom.continuation import ContinuationConfig, run_fom
from eigenrom.harness import (CSV_HEADER, ExperimentConfig, ExperimentError,
                              ResultRow, compute_rate, emit_csv, read_csv,
                              run_experiment)
from eigenrom.linalg import NonconvergenceError, NotSpdError
from eigenrom.mesh import (generate_lshape, generate_square, read_mesh,
                           write_mesh)
from eigenrom.rom import SnapshotStrideError, run_rom
from mesh_files import FOLD, hanging_square, mesh_text

PI = math.pi


def small_config(**overrides):
    base = dict(domain="square", mesh="crisscross", n_start=8, levels=1,
                fe_degree=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def run_cli_child(argv, log_level=None):
    """``python -m eigenrom.cli argv`` in a fresh interpreter, with
    EIGENROM_LOG set to ``log_level`` (None: unset).  The child imports the
    same package as this suite, however the suite found it (installed,
    PYTHONPATH, or pytest's pythonpath).  Only a child shows what reaches
    stderr: pytest's log capture takes the records that basicConfig would
    send there in-process."""
    src = os.path.dirname(os.path.dirname(rom.__file__))
    env = {k: v for k, v in os.environ.items() if k != "EIGENROM_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if log_level is not None:
        env["EIGENROM_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "eigenrom.cli", *argv],
                          capture_output=True, text=True, env=env)


# an in-domain run whose full-order start is numerically M-orthogonal to
# the computed eigenvector at its ninth level (263 free dofs), so the run
# logs a warning; the warning is a false alarm, as that level reaches u_1
WARNING_ARGV = ["run", "--domain", "lshape", "--mesh", "crisscross",
                "--n-start", "4", "--levels", "9", "--adaptive"]
WARNING = ("WARNING eigenrom.rom: full-order run on 263 dofs: initial guess "
           "is numerically M-orthogonal to the computed eigenvector")


class TestComputeRate:
    def test_uniform_halving(self):
        rates = compute_rate([4e-2, 1e-2], [0.2, 0.1], "uniform")
        assert rates[0] is None
        assert rates[1] == pytest.approx(2.0, abs=1e-12)

    def test_adaptive_error_halving_with_dof_doubling(self):
        rates = compute_rate([2e-3, 1e-3], [100, 200], "adaptive")
        assert rates[1] == pytest.approx(2.0, abs=1e-12)

    def test_published_table_pair(self):
        # crisscross refinement 16 -> 32 against the exact eigenvalue 2
        errors = [2.005363995049 - 2.0, 2.001339238351 - 2.0]
        rates = compute_rate(errors, [PI / 16, PI / 32], "uniform")
        assert rates[1] == pytest.approx(2.0, abs=0.01)
        assert abs(rates[1] - 2.1) <= 0.1

    def test_nonpositive_error_yields_nan(self):
        rates = compute_rate([1e-3, -1e-12], [0.2, 0.1], "uniform")
        assert math.isnan(rates[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_rate([1.0], [1.0, 2.0], "uniform")
        with pytest.raises(ValueError):
            compute_rate([1.0], [1.0], "geometric")


class TestCsv:
    def rows(self):
        return [
            ResultRow("crisscross", 8, 145, 2.021568066, 2.0215680662,
                      None, None, 4, 0.01, 0.001),
            ResultRow("crisscross", 16, 545, 2.0053639950494,
                      2.00536399505, 2.0039, 2.0041, 5, 0.02, 0.001),
        ]

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = self.rows()
        emit_csv(rows, path)
        back = read_csv(path)
        assert back == rows

    def test_header_is_the_column_contract(self):
        # the header is derived from ResultRow, so a new field would change
        # the table's columns; this pins them
        assert CSV_HEADER == ["mesh", "n", "dof", "lambda_fom", "lambda_rom",
                              "rate_fom", "rate_rom", "n_pod", "fom_s",
                              "rom_s"]

    @pytest.mark.parametrize("cut", [-1, 10])
    def test_record_with_wrong_column_count_rejected(self, tmp_path, cut):
        path = tmp_path / "table.csv"
        emit_csv(self.rows(), path)
        header, first, _ = path.read_text().splitlines()
        fields = first.split(",")
        fields = fields[:cut] if cut < 0 else fields + ["1.0"]
        path.write_text(f"{header}\n{','.join(fields)}\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_unwritable_path_reports_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], "/no/such/dir/table.csv")


class TestRunExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(domain="disk"))
        with pytest.raises(ValueError):
            run_experiment(small_config(mesh="mixed"))
        with pytest.raises(ValueError):
            run_experiment(small_config(domain="lshape", mesh="right"))
        with pytest.raises(ValueError):
            run_experiment(small_config(mesh="file"))
        with pytest.raises(ValueError):
            run_experiment(small_config(domain="lshape", mesh="crisscross",
                                        pod_eps="exact"))
        with pytest.raises(ValueError):
            run_experiment(small_config(fe_degree=3))
        with pytest.raises(ValueError):
            run_experiment(small_config(strides=()))

    def test_empty_schedule(self, tmp_path):
        rows = run_experiment(small_config(levels=0))
        assert rows == []
        path = tmp_path / "empty.csv"
        emit_csv(rows, path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)

    def test_single_level_row(self):
        rows = run_experiment(small_config())
        assert len(rows) == 1
        r = rows[0]
        assert r.mesh == "crisscross" and r.n == 8 and r.dof == 145
        assert r.lambda_fom == pytest.approx(2.0215680, abs=1e-6)
        assert abs(r.lambda_rom - r.lambda_fom) <= 1e-8
        assert r.rate_fom is None

    def test_multi_stride_labels_and_rates(self):
        rows = run_experiment(small_config(levels=2, strides=(2, 4)))
        labels = {r.mesh for r in rows}
        assert labels == {"crisscross-s2", "crisscross-s4"}
        for label in labels:
            group = [r for r in rows if r.mesh == label]
            assert [r.n for r in group] == [8, 16]
            assert group[0].rate_fom is None
            assert group[1].rate_fom == pytest.approx(2.0, abs=0.1)

    def test_exact_reference_mode_runs(self):
        rows = run_experiment(small_config(pod_eps="exact"))
        assert rows[0].n_pod >= 1

    def test_determinism_modulo_timing(self):
        cfg = small_config(levels=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert (ra.mesh, ra.n, ra.dof, ra.n_pod) == (rb.mesh, rb.n, rb.dof, rb.n_pod)
            assert ra.lambda_fom == rb.lambda_fom
            assert ra.lambda_rom == rb.lambda_rom
            assert ra.rate_fom == rb.rate_fom

    def test_uniform_and_adaptive_levels_agree(self):
        # both paths run one square level through the same solve_level
        cont = ContinuationConfig(seed=3)
        uniform = run_experiment(small_config(continuation=cont))
        adaptive = run_experiment(small_config(continuation=cont,
                                               adaptive=True))
        assert len(uniform) == len(adaptive) == 1
        for field_ in ("lambda_fom", "lambda_rom", "n_pod"):
            assert getattr(uniform[0], field_) == getattr(adaptive[0], field_)

    def test_explicit_default_continuation_is_the_default(self):
        # the start of the full-order run is no setting: spelling out the
        # default iteration settings changes no row
        cfg = small_config(n_start=16, levels=2, strides=(2, 4, 8))
        default = run_experiment(cfg)
        explicit = run_experiment(replace(
            cfg, continuation=ContinuationConfig(dt=0.1)))
        for a, b in zip(default, explicit, strict=True):
            assert (a.lambda_fom, a.lambda_rom, a.n_pod) == (
                b.lambda_fom, b.lambda_rom, b.n_pod)

    def test_continuation_seed_is_the_cli_seed(self, tmp_path):
        # the configured seed is the one the run uses, as --seed on the CLI
        cont = ContinuationConfig(seed=5)
        rows = run_experiment(small_config(continuation=cont))
        out = tmp_path / "t.csv"
        assert cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "8", "--seed", "5",
                         "--out", str(out)]) == 0
        untimed = [replace(r, fom_s=0.0, rom_s=0.0) for r in read_csv(out)]
        assert untimed == [replace(r, fom_s=0.0, rom_s=0.0) for r in rows]

    def test_config_fields(self):
        # a file mesh is the one value "file:<path>" of the mesh field
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "domain", "mesh", "n_start", "levels", "fe_degree", "adaptive",
            "theta", "continuation", "strides", "pod_eps", "singvals_path",
            "mesh_dump_path"]

    def test_file_mesh_schedule(self, tmp_path):
        path = tmp_path / "imported.mesh"
        write_mesh(generate_square("right", 4, PI), path)
        cfg = small_config(mesh=f"file:{path}", levels=2)
        rows = run_experiment(cfg)
        assert [r.dof for r in rows] == [25, 81]
        assert [(r.mesh, r.n) for r in rows] == [("file", 0), ("file", 1)]
        assert rows[1].rate_fom == pytest.approx(2.0, abs=0.2)

    def test_nonconvergence_aborts_with_partial_rows(self):
        cont = ContinuationConfig(max_steps=5)
        cfg = small_config(levels=2, continuation=cont)
        with pytest.raises(ExperimentError) as info:
            run_experiment(cfg)
        assert isinstance(info.value.__cause__, NonconvergenceError)
        assert info.value.rows == []

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_fom_warnings_are_logged(self, monkeypatch, caplog, adaptive):
        # the M-orthogonal start of the continuation tests, built from each
        # level's own pencil: two higher modes plus a 1e-15 trace of the
        # lowest, which the slow transient lets take over
        def orthogonal_start_fom(A, M, cfg, stride):
            _, V = scipy.linalg.eigh(A.toarray(), M.toarray())
            return run_fom(A, M, cfg, stride,
                           u0=V[:, 1] + V[:, 2] + 1e-15 * V[:, 0])

        monkeypatch.setattr(rom, "run_fom", orthogonal_start_fom)
        cfg = ExperimentConfig(domain="lshape", mesh="crisscross", n_start=2,
                               levels=1, fe_degree=1, adaptive=adaptive)
        with caplog.at_level(logging.WARNING, logger="eigenrom"):
            run_experiment(cfg)
        warned = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.WARNING]
        assert any("M-orthogonal" in m for m in warned), warned

    def test_adaptive_lshape_rows(self):
        cfg = ExperimentConfig(domain="lshape", mesh="crisscross", n_start=2,
                               levels=3, fe_degree=2, adaptive=True)
        rows = run_experiment(cfg)
        assert len(rows) == 3
        assert [r.n for r in rows] == [1, 2, 3]
        assert rows[1].rate_fom is not None
        assert all(r.lambda_fom >= 9.6397238440219 for r in rows)

    def test_singular_value_dump(self, tmp_path):
        path = tmp_path / "sv.txt"
        run_experiment(small_config(singvals_path=str(path)))
        values = [float(v) for v in path.read_text().split()]
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)

    def test_full_order_run_samples_at_the_smallest_stride(self, monkeypatch):
        sampled = []

        def recording_run_fom(A, M, cont, stride):
            sampled.append(stride)
            return run_fom(A, M, cont, stride)

        monkeypatch.setattr(rom, "run_fom", recording_run_fom)
        rows = run_experiment(small_config(levels=2, strides=(16, 8)))
        assert sampled == [8, 8]
        assert [r.mesh for r in rows] == ["crisscross-s16"] * 2 + [
            "crisscross-s8"] * 2

    def test_singular_value_dump_multi_stride(self, tmp_path):
        path = tmp_path / "sv.txt"
        run_experiment(small_config(strides=(2, 4), singvals_path=str(path)))
        assert (tmp_path / "sv_s2.txt").exists()
        assert (tmp_path / "sv_s4.txt").exists()

    @pytest.mark.parametrize("field_", ["mesh_dump_path", "singvals_path"])
    @pytest.mark.parametrize("where", ["missing folder", "folder", "empty"])
    def test_unwritable_dump_refused_before_any_solve(self, tmp_path,
                                                      monkeypatch, field_,
                                                      where):
        # a dump is written after the last level: a path that cannot take
        # it is refused before the first, not after every level is solved
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        path = {"missing folder": str(tmp_path / "missing" / "f"),
                "folder": str(tmp_path), "empty": ""}[where]
        with pytest.raises(ValueError, match=f"^{field_}: cannot write "):
            run_experiment(small_config(levels=3, **{field_: path}))
        assert calls == []


class TestCli:
    def test_option_defaults_are_the_config_defaults(self):
        # each run option with a value sets the config field its dest names,
        # and its parser default is that field's default, so leaving an
        # option out of a CLI call and out of a library config mean the same
        defaults = {f.name: f.default
                    for cls in (ExperimentConfig, ContinuationConfig)
                    for f in dataclasses.fields(cls)}
        args = vars(build_parser().parse_args(
            ["run", "--domain", "square", "--mesh", "crisscross",
             "--out", "t.csv"]))
        # the command and the required options have no default to compare
        for dest in ("command", "domain", "mesh", "out"):
            del args[dest]
        assert sorted(set(defaults) - set(args)) == [
            "continuation", "domain", "max_steps", "mesh"]
        for dest, default in args.items():
            assert default == defaults[dest], dest

    def test_run_writes_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--fe", "1", "--n-start", "8", "--levels", "1",
                         "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0].n == 8
        assert rows[0].lambda_fom == pytest.approx(2.0215680, abs=1e-6)

    def test_mesh_dump(self, tmp_path):
        out = tmp_path / "table.csv"
        dump = tmp_path / "final.mesh"
        code = cli_main(["run", "--domain", "lshape", "--mesh", "crisscross",
                         "--fe", "2", "--n-start", "2", "--levels", "2",
                         "--adaptive", "--out", str(out),
                         "--dump-mesh", str(dump)])
        assert code == 0
        read_mesh(dump)

    def test_uniform_mesh_dump_writes_the_finest_mesh(self, tmp_path):
        dump = tmp_path / "u.mesh"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "8", "--levels", "2",
                         "--out", str(tmp_path / "t.csv"),
                         "--dump-mesh", str(dump)])
        assert code == 0
        finest = generate_square("crisscross", 16, PI)
        written = read_mesh(dump)
        assert np.array_equal(written.triangles, finest.triangles)
        assert np.allclose(written.nodes, finest.nodes, rtol=0, atol=1e-15)

    def test_adaptive_singular_value_dump(self, tmp_path):
        out, dump = tmp_path / "t.csv", tmp_path / "a.sv"
        code = cli_main(["run", "--domain", "lshape", "--mesh", "crisscross",
                         "--fe", "2", "--n-start", "2", "--levels", "3",
                         "--adaptive", "--out", str(out),
                         "--dump-singvals", str(dump)])
        assert code == 0
        values = [float(v) for v in dump.read_text().split()]
        assert values == sorted(values, reverse=True) and values[-1] > 0
        assert len(values) >= read_csv(out)[-1].n_pod

    def test_stride_suffix_ignores_a_dot_in_a_directory(self, tmp_path):
        folder = tmp_path / "run.1"
        folder.mkdir()
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "8", "--strides", "2,4",
                         "--out", str(folder / "t.csv"),
                         "--dump-singvals", str(folder / "sv")])
        assert code == 0
        assert sorted(p.name for p in folder.iterdir()) == ["sv_s2", "sv_s4",
                                                            "t.csv"]

    def test_config_error_exit_code(self, tmp_path):
        code = cli_main(["run", "--domain", "square", "--mesh", "mixed",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1

    def test_exact_eps_on_one_dof(self, tmp_path):
        # one unknown: the computed vector is the reference exactly, eps is
        # 0, and the basis keeps the numerical rank
        out = tmp_path / "t.csv"
        code = cli_main(["run", "--domain", "square", "--mesh", "right",
                         "--fe", "2", "--n-start", "1", "--pod-eps", "exact",
                         "--stride", "1", "--out", str(out)])
        assert code == 0
        [row] = read_csv(out)
        assert row.dof == 9 and row.n_pod == 1

    def test_zero_pod_eps_is_a_config_error(self, tmp_path, capsys):
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--pod-eps", "0",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "pod eps must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["--stride", "--strides"])
    def test_stride_spellings_are_one_option(self, tmp_path, spelling):
        out = tmp_path / "t.csv"
        argv = ["run", "--domain", "square", "--mesh", "crisscross",
                "--n-start", "4", "--out", str(out)]
        assert cli_main([*argv, spelling, "2,4"]) == 0
        assert [r.mesh for r in read_csv(out)] == ["crisscross-s2",
                                                    "crisscross-s4"]
        assert cli_main([*argv, spelling, "2"]) == 0
        assert [r.mesh for r in read_csv(out)] == ["crisscross"]
        assert cli_main([*argv, spelling, "2,x"]) == 1

    def test_usage_error_exit_code(self, tmp_path):
        code = cli_main(["run", "--domain", "cube",
                         "--mesh", "crisscross",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        # an unreachable stop tolerance cannot converge within max steps
        import eigenrom.cli as cli_mod

        def tiny_steps(**kwargs):
            kwargs["max_steps"] = 4
            return ContinuationConfig(**kwargs)

        monkeypatch.setattr(cli_mod, "ContinuationConfig", tiny_steps)
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "8", "--levels", "1",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_adaptive_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        import eigenrom.cli as cli_mod

        def tiny_steps(**kwargs):
            kwargs["max_steps"] = 3
            return ContinuationConfig(**kwargs)

        monkeypatch.setattr(cli_mod, "ContinuationConfig", tiny_steps)
        code = cli_main(["run", "--domain", "lshape", "--mesh", "crisscross",
                         "--fe", "2", "--n-start", "2", "--levels", "2",
                         "--adaptive", "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize("bad", [
        ["--strides", "2,3"],
        ["--strides", "4,4"],                      # one basis twice
        ["--adaptive", "--strides", "2,4"],
        ["--adaptive", "--pod-eps", "exact"],
        ["--dt", "5e-324"],
        ["--seed=-1"],
        ["--fe", "3"],
        ["--init", "ones"],                        # no such option
        ["--mesh", "mixed"],
        ["--n-start", "0"],
        ["--levels=-1"],
        ["--strides", "0"],
        ["--pod-eps", "1"],
        ["--adaptive", "--theta", "0"],
        ["--mesh", "right", "--n-start", "1"],     # no free dof
        ["--mesh", "file:"],                       # no path
        ["--theta", "7"],                          # theta without --adaptive
        ["--theta", "0"],
        ["--theta", "nan"],
        ["--theta=-1"],
        ["--mesh", "file:{mesh}", "--n-start=-5"],  # a file ignores n
    ])
    def test_bad_config_rejected_before_any_solve(self, tmp_path, monkeypatch,
                                                  capsys, bad):
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        out, mesh = tmp_path / "t.csv", tmp_path / "square.mesh"
        write_mesh(generate_square("right", 4, PI), mesh)
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--levels", "1",
                         *(arg.format(mesh=mesh) for arg in bad),
                         "--out", str(out)])
        assert code == 1
        assert calls == []
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_adaptive_nonconvergence_keeps_finished_levels(self, tmp_path,
                                                           monkeypatch):
        calls = []

        def failing_from_third_level(A, M, cfg, stride):
            calls.append(A.shape[0])
            if len(calls) >= 3:
                cfg = replace(cfg, max_steps=3)
            return run_fom(A, M, cfg, stride)

        monkeypatch.setattr(rom, "run_fom", failing_from_third_level)
        out = tmp_path / "t.csv"
        code = cli_main(["run", "--domain", "lshape", "--mesh", "crisscross",
                         "--fe", "2", "--n-start", "2", "--levels", "4",
                         "--adaptive", "--out", str(out)])
        assert code == 2
        rows = read_csv(out)
        assert [r.n for r in rows] == [1, 2]
        assert rows[0].rate_fom is None and rows[1].rate_fom is not None
        assert all(r.lambda_fom >= 9.6397238440219 for r in rows)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rom_nonconvergence_exit_code(self, tmp_path, monkeypatch, capsys,
                                          adaptive):
        # the reduced run reaches its step cap; the full-order run does not
        def capped_rom(ops, u0, cfg):
            return run_rom(ops, u0, replace(cfg, max_steps=2))

        monkeypatch.setattr(rom, "run_rom", capped_rom)
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--levels", "2",
                         *(["--adaptive"] if adaptive else []),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "reduced run (N=" in err and "did not converge in 2 steps" in err

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_non_spd_reduced_system_keeps_finished_levels(
            self, tmp_path, monkeypatch, capsys, adaptive):
        calls = []

        def failing_at_third_level(ops, u0, cfg):
            calls.append(ops.a_red.shape[0])
            if len(calls) >= 3:
                raise NotSpdError("reduced system is not SPD: dpotrf info=1")
            return run_rom(ops, u0, cfg)

        monkeypatch.setattr(rom, "run_rom", failing_at_third_level)
        out = tmp_path / "t.csv"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--levels", "3",
                         *(["--adaptive"] if adaptive else []),
                         "--out", str(out)])
        assert code == 2
        assert "not SPD" in capsys.readouterr().err
        assert [r.n for r in read_csv(out)] == ([1, 2] if adaptive else [4, 8])

    @pytest.mark.parametrize("option, name, empty", [
        pytest.param(option, name, empty, id=option + ("=''" if empty else ""))
        for option, name in (
            ("--out", "--out"), ("--dump-mesh", "mesh_dump_path"),
            ("--dump-singvals", "singvals_path"))
        for empty in (False, True)])
    def test_unwritable_output_refused_before_any_solve(
            self, tmp_path, monkeypatch, capsys, option, name, empty):
        # --out is checked by the CLI, the dumps by run_experiment, which
        # names the config field the option sets; the empty path is no file
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        out = tmp_path / "t.csv"
        path = "" if empty else str(tmp_path / "missing" / "f.txt")
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--out", str(out), option, path])
        assert code == 1
        assert calls == []
        assert f"{name}: cannot write" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_dpotrs_failure_is_a_solver_error(self, tmp_path,
                                                     monkeypatch, capsys):
        import scipy.linalg.lapack as lapack
        monkeypatch.setattr(lapack, "dpotrs", lambda c, b: (b, -1))
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "dpotrs info=-1" in capsys.readouterr().err

    def test_missing_mesh_file_is_an_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.mesh"
        code = cli_main(["run", "--domain", "square",
                         "--mesh", f"file:{missing}",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("eigenrom: error: ")
        assert str(missing) in err

    @pytest.mark.parametrize("unusable", ["unused node", "no triangles"])
    def test_unusable_mesh_file_is_an_input_error(self, tmp_path, monkeypatch,
                                                  capsys, unusable):
        # a node that belongs to no triangle is a free dof with a zero row,
        # which once reached the solver as a singular step operator (exit 2)
        mesh = generate_square("crisscross", 4, PI)
        nodes, tris = mesh.nodes, mesh.triangles
        if unusable == "unused node":
            nodes = np.vstack([nodes, [[1.0, 1.0]]])
        else:
            tris = tris[:0]
        path = tmp_path / "unusable.mesh"
        path.write_text(mesh_text(nodes, tris))
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        code = cli_main(["run", "--domain", "square", "--mesh", f"file:{path}",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert calls == []
        unused = mesh.n_nodes if unusable == "unused node" else 0
        assert (f"{path}: node {unused} belongs to no triangle"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("case", ["fold", "repeated", "hanging"])
    def test_nonconforming_mesh_file_is_an_input_error(
            self, tmp_path, monkeypatch, capsys, case):
        # a repeated triangle left no boundary node, so the solve failed on
        # 3 free dofs (exit 2); the hanging square was read as two Dirichlet
        # rectangles (exit 0, lambda_fom 5.1065)
        nodes, tris = {"fold": FOLD,
                       "repeated": (FOLD[0][:3], [[0, 1, 2], [0, 1, 2]]),
                       "hanging": hanging_square()}[case]
        message = ("hangs on boundary edge" if case == "hanging"
                   else "triangles 0 and 1 overlap across a shared edge")
        path = tmp_path / f"{case}.mesh"
        path.write_text(mesh_text(nodes, tris))
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        code = cli_main(["run", "--domain", "square", "--mesh", f"file:{path}",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"eigenrom: error: {path}: ") and message in err

    @pytest.mark.parametrize("domain, case, message", [
        ("square", "lshape", "the triangle areas sum to 3, not to the square "
                             "domain's area 9.869604401089358"),
        ("lshape", "square", "not to the lshape domain's area 3"),
        ("square", "unit square", "the triangle areas sum to 1, not"),
        ("square", "shifted square", "is off the square domain's boundary"),
        ("lshape", "reflected lshape", "is off the lshape domain's boundary"),
        ("lshape", "rotated lshape", "is off the lshape domain's boundary")])
    def test_mesh_file_of_another_domain_is_an_input_error(
            self, tmp_path, monkeypatch, capsys, domain, case, message):
        # the L-shape file once ran as the square with exit 0, its rates
        # (0.0595, 0.0194) taken against the square's lambda = 2
        square, lshape = generate_square("crisscross", 4, PI), generate_lshape(
            "crisscross", 4)
        nodes, tris = {
            "lshape": (lshape.nodes, lshape.triangles),
            "square": (square.nodes, square.triangles),
            "unit square": (square.nodes / PI, square.triangles),
            "shifted square": (square.nodes + [0.5, 0.0], square.triangles),
            # a reflection reverses the orientation of every triangle
            "reflected lshape": (lshape.nodes * [-1.0, 1.0],
                                 lshape.triangles[:, ::-1]),
            "rotated lshape": (lshape.nodes[:, ::-1] * [-1.0, 1.0],
                               lshape.triangles)}[case]
        path = tmp_path / "other.mesh"
        path.write_text(mesh_text(nodes, tris))
        calls = []
        monkeypatch.setattr(rom, "run_fom", lambda *a, **k: calls.append(a))
        code = cli_main(["run", "--domain", domain, "--mesh", f"file:{path}",
                         "--levels", "3", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"eigenrom: error: {path}: ") and message in err

    def test_lshape_mesh_files_run(self, tmp_path):
        # a generated L-shape and an adaptively bisected one, written and
        # read back, cover the L-shape
        generated, dump = tmp_path / "mixed.mesh", tmp_path / "adaptive.mesh"
        write_mesh(generate_lshape("mixed", 2), generated)
        assert cli_main(["run", "--domain", "lshape", "--mesh", "crisscross",
                         "--n-start", "2", "--levels", "4", "--adaptive",
                         "--dump-mesh", str(dump),
                         "--out", str(tmp_path / "a.csv")]) == 0
        for path in (generated, dump):
            out = tmp_path / f"{path.stem}.csv"
            assert cli_main(["run", "--domain", "lshape", "--mesh",
                             f"file:{path}", "--levels", "2",
                             "--out", str(out)]) == 0
            assert [r.n for r in read_csv(out)] == [0, 1]

    def test_unwritable_out_path_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("eigenrom: error: ")
        assert f"cannot write result table {out}" in err

    def test_small_dt_basis_stays_within_the_free_dofs(self, tmp_path):
        # dt=1e-4 at stride 1 gives ~25 000 snapshot columns of 25 free dofs
        # (9 interior vertices and 16 cell centres of the n=4 crisscross
        # mesh); the rank, and so N, cannot exceed the 25 rows
        out, dump = tmp_path / "t.csv", tmp_path / "sv.txt"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--dt", "1e-4", "--stride", "1",
                         "--dump-singvals", str(dump), "--out", str(out)])
        assert code == 0
        n_svals = len(dump.read_text().split())
        assert n_svals <= 25
        [row] = read_csv(out)
        assert row.n_pod <= n_svals
        assert abs(row.lambda_rom - row.lambda_fom) <= 5e-9

    def test_stop_before_any_progress_is_nonconvergence(self, tmp_path, capsys):
        # at dt=1e-12 a step barely moves the random start, so the stopping
        # rule fires after one step; the start's Rayleigh quotient (413.29,
        # where the eigenvalue is 2.0054) used to be written as the result
        out = tmp_path / "t.csv"
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "16", "--dt", "1e-12", "--stride", "1",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "full-order run on 481 dofs stopped with eigen-residual" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--dt", "1e-12"],
                                        ["--stop-tol", "1e300"]])
    def test_stop_away_from_an_eigenpair_names_both_causes(self, tmp_path,
                                                           capsys, option):
        # a step too short to move the state and a tolerance any first step
        # meets stop the run at once, far from the eigenpair
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", *option,
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert ("dt may be too small, or stop_tol too large"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_reduced_stop_before_any_progress_is_nonconvergence(
            self, tmp_path, monkeypatch, capsys, adaptive):
        def short_step_rom(ops, u0, cfg):
            return run_rom(ops, u0, replace(cfg, dt=1e-12))

        monkeypatch.setattr(rom, "run_rom", short_step_rom)
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--levels", "2",
                         *(["--adaptive"] if adaptive else []),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert re.search(r"reduced run \(stride 4, N=\d+\) on 25 dofs stopped "
                         r"with eigen-residual", capsys.readouterr().err)

    def test_snapshot_free_run_names_steps_and_stride(self, tmp_path, capsys):
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "1", "--stride", "100000",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"stopped after \d+ steps, before its first snapshot "
                         r"at stride 100000", err), err
        with pytest.raises(ExperimentError) as info:
            run_experiment(small_config(n_start=1, strides=(100000,)))
        assert isinstance(info.value.__cause__, SnapshotStrideError)

    def test_console_script_entry(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = run_cli_child(["run", "--domain", "square", "--mesh", "right",
                              "--n-start", "4", "--levels", "1",
                              "--out", str(out)], "error")
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_cli_loads_no_scipy(self):
        # scipy is imported inside the functions that use it, so --help and
        # rejected configs do not pay for it
        src = os.path.dirname(os.path.dirname(rom.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, eigenrom.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_help_shows_the_config_defaults(self):
        # each option that sets a config field prints that field's default,
        # in a fresh interpreter as a user calls it; the others print none
        proc = run_cli_child(["run", "--help"])
        assert proc.returncode == 0, proc.stderr
        # an option's entry runs from its first flag to the next option
        entries = {chunk.split()[0].rstrip(","): " ".join(chunk.split())
                   for chunk in re.split(r"\n  (?=-)", proc.stdout)[1:]}
        defaults = {f.name: f.default
                    for cls in (ExperimentConfig, ContinuationConfig)
                    for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING}
        [sub] = [action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
        actions = sub.choices["run"]._actions
        assert sorted(entries) == sorted(a.option_strings[0] for a in actions)
        for action in actions:
            entry = entries[action.option_strings[0]]
            if action.dest in defaults:
                default = defaults[action.dest]
                # a tuple is the comma list its option takes
                if isinstance(default, tuple):
                    default = ",".join(map(str, default))
                assert entry.endswith(f"(default: {default})"), entry
            else:
                assert "(default:" not in entry, entry

    def test_first_row_fom_time_excludes_the_solver_import(self, tmp_path):
        # a fresh interpreter imports scipy.sparse.linalg (~0.1 s) before
        # the first timed solve; row 1 (545 dofs) then takes less than
        # row 2 (2 113 dofs)
        out = tmp_path / "t.csv"
        proc = run_cli_child(["run", "--domain", "square", "--mesh", "crisscross",
                              "--n-start", "16", "--levels", "2",
                              "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        first, second = read_csv(out)
        assert first.dof == 545 and second.dof == 2113
        assert first.fom_s < second.fom_s

    def test_fom_warning_reaches_stderr_at_the_default_log_level(self, tmp_path):
        proc = run_cli_child([*WARNING_ARGV, "--out", str(tmp_path / "child.csv")])
        assert proc.returncode == 0, proc.stderr
        assert WARNING in proc.stderr, proc.stderr
        assert cli_main([*WARNING_ARGV, "--out", str(tmp_path / "t.csv")]) == 0
        child, here = ([replace(r, fom_s=0.0, rom_s=0.0)
                        for r in read_csv(tmp_path / name)]
                       for name in ("child.csv", "t.csv"))
        assert len(child) == 9 and child == here

    def test_warning_log_level_is_the_default(self, tmp_path):
        runs = []
        for level in (None, "warning", "WARNING"):
            out = tmp_path / f"{level}.csv"
            proc = run_cli_child([*WARNING_ARGV, "--out", str(out)], level)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stderr, [replace(r, fom_s=0.0, rom_s=0.0)
                                       for r in read_csv(out)]))
        assert WARNING in runs[0][0]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_bad_log_level_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENROM_LOG", "chatty")
        code = cli_main(["run", "--domain", "square", "--mesh", "crisscross",
                         "--n-start", "4", "--levels", "1",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 1
