import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csdesign
from csdesign.cli import MAX_GRID_POINTS, _parse_grid, main
from csdesign.coherence import welch_bound
from csdesign.experiments import (SWEEP_METHODS, ExperimentParams, run_dimension_sweeps,
                                  run_lambda_sweep, run_snr_sweep, write_records_csv)
from csdesign.matio import read_keyvalues, read_matrix_csv, write_matrix_csv
from csdesign.synth import gen_dictionary


def run(*argv):
    return main(list(argv))


class TestGridParsing:
    def test_colon_grid_endpoint_inclusive(self):
        grid = _parse_grid("0:0.01:2")
        assert len(grid) == 201
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0, abs=1e-12)

    def test_snr_grid(self):
        assert _parse_grid("5:10:45") == [5.0, 15.0, 25.0, 35.0, 45.0]

    def test_comma_list(self):
        assert _parse_grid("0.1,0.5,1") == [0.1, 0.5, 1.0]

    def test_single_value(self):
        assert _parse_grid("0.7") == [0.7]

    def test_uneven_range_excludes_end(self):
        assert _parse_grid("0:1:4.5") == [0.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("text, end, count", [("0:1:1000000.5", 1000000.5, 1000001),
                                                   ("0:1:0.9999999", 0.9999999, 1)])
    def test_no_point_past_the_end(self, text, end, count):
        # a step count within rounding of the next integer must not add a
        # point beyond the end when the end is not itself a grid point
        grid = _parse_grid(text)
        assert len(grid) == count and grid[-1] <= end

    def test_evenly_dividing_grids_keep_their_values(self):
        assert _parse_grid("0:0.05:1") == list(np.linspace(0, 1, 21))
        assert _parse_grid("-5:5:15") == [-5.0, 0.0, 5.0, 10.0, 15.0]

    @staticmethod
    def assert_usage_error(err, text, capsys, tmp_path):
        # a usage error, not an OSError: main exits 2 on the same grid
        assert not isinstance(err.value, OSError)
        assert run("sweep", "--axis", "lambda", "--grid", text,
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"csdesign sweep: {err.value}\n"

    def test_malformed_token_named(self, capsys, tmp_path):
        with pytest.raises(ValueError) as err:
            _parse_grid("0,abc,1")
        assert "abc" in str(err.value)
        self.assert_usage_error(err, "0,abc,1", capsys, tmp_path)

    def test_malformed_range(self, capsys, tmp_path):
        for text in ("0:0.1", "1:0:2", "2:0.1:1", "0:nan:1", "0:0.1:inf"):
            with pytest.raises(ValueError) as err:
                _parse_grid(text)
            self.assert_usage_error(err, text, capsys, tmp_path)
            assert text in str(err.value)


class TestDesignCommand:
    def test_synth_design_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "design", "--synth", "60,100", "--m", "20", "--method", "mt",
            "--lambda", "0.1", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        phi = read_matrix_csv(out / "phi.csv")
        assert phi.shape == (20, 60)
        assert read_matrix_csv(out / "psi.csv").shape == (60, 100)
        manifest = read_keyvalues(out / "manifest.txt")
        assert manifest["command"] == "design"
        trace_rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert int(manifest["n_f_evals"]) == len(trace_rows)
        assert manifest["n_sd_restarts"] == "0"
        assert float(manifest["xi"]) == pytest.approx(welch_bound(20, 100), rel=1e-15)
        assert (out / "trace.csv").read_text().splitlines()[0] == "outer_iter,cg_iter,f,grad_norm"

    def test_non_convergence_exits_4_with_artifacts(self, tmp_path, capsys, monkeypatch):
        import csdesign.cli as cli_mod
        from csdesign.solver import DesignResult, TracePoint

        def stalled_design(method, params, psi, phi0, lam, sre=None, cfg=None):
            trace = (TracePoint(1, 0, 5.0, 1.0), TracePoint(1, 1, 4.0, 0.5))
            return DesignResult(phi=phi0, trace=trace, method=method,
                                stop_reason="line-search stall", n_sd_restarts=1)

        monkeypatch.setattr(cli_mod, "design_for_method", stalled_design)
        out = tmp_path / "slow"
        code = run("design", "--synth", "30,40", "--m", "8", "--out", str(out))
        assert code == 4
        assert read_matrix_csv(out / "phi.csv").shape == (8, 30)
        manifest = read_keyvalues(out / "manifest.txt")
        assert manifest["converged"] == "false"
        assert manifest["stop_reason"] == "line-search stall"
        assert (manifest["n_f_evals"], manifest["n_sd_restarts"]) == ("2", "1")
        err = capsys.readouterr().err
        assert "did not converge (line-search stall)" in err
        assert "iteration budget" not in err

    @pytest.mark.parametrize("xi", ["1.5", "-0.1", "nan"])
    def test_xi_outside_unit_interval_exits_2(self, tmp_path, capsys, xi):
        out = tmp_path / "bad-xi"
        code = run("design", "--synth", "30,40", "--m", "8", "--method", "mt",
                   "--xi", xi, "--out", str(out))
        assert code == 2
        assert "xi must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_reproduces_bytes(self, tmp_path):
        args = ("design", "--synth", "30,40", "--m", "8", "--method", "mt",
                "--lambda", "0.3", "--seed", "5")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert (out1 / "phi.csv").read_bytes() == (out2 / "phi.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_manifest_replay_reproduces_bytes(self, tmp_path):
        out1 = tmp_path / "orig"
        assert run("design", "--synth", "30,40", "--m", "8", "--lambda", "0.2",
                   "--seed", "9", "--out", str(out1)) == 0
        phi_bytes = (out1 / "phi.csv").read_bytes()
        out2 = tmp_path / "replay"
        assert run("design", "--config", str(out1 / "manifest.txt"), "--out", str(out2)) == 0
        assert (out2 / "phi.csv").read_bytes() == phi_bytes

    def test_lh_requires_sre(self, tmp_path, capsys):
        code = run("design", "--synth", "30,40", "--m", "8", "--method", "lh",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--sre" in capsys.readouterr().err

    def test_lh_with_sre(self, tmp_path):
        sre_path = tmp_path / "sre.csv"
        rng = np.random.default_rng(0)
        write_matrix_csv(0.1 * rng.standard_normal((30, 50)), sre_path)
        out = tmp_path / "run"
        code = run("design", "--synth", "30,40", "--m", "8", "--method", "lh",
                   "--lambda", "0.4", "--sre", str(sre_path), "--out", str(out))
        assert code == 0
        assert read_matrix_csv(out / "phi.csv").shape == (8, 30)

    def test_dictionary_with_extra_rows_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("2,2\n1,0\n0,1\n1,1\n")
        code = run("design", "--dict", str(path), "--m", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "long.csv" in capsys.readouterr().err

    def test_missing_dictionary_file(self, tmp_path, capsys):
        code = run("design", "--dict", str(tmp_path / "absent.csv"), "--m", "4",
                   "--out", str(tmp_path / "x"))
        assert code == 3
        assert "absent.csv" in capsys.readouterr().err

    def test_out_under_a_regular_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory\n")
        out = blocker / "run"
        code = run("design", "--synth", "20,30", "--m", "6", "--out", str(out))
        assert code == 3
        assert str(out) in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_etf_method(self, tmp_path):
        out = tmp_path / "etf"
        code = run("design", "--synth", "20,30", "--m", "6", "--method", "mt-etf",
                   "--iter", "3", "--seed", "2", "--out", str(out))
        assert code == 0
        trace = (out / "trace.csv").read_text().splitlines()[1:]
        outer = {int(line.split(",")[0]) for line in trace}
        assert outer == {1, 2, 3}

    def test_unknown_method(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("design", "--synth", "20,30", "--m", "6", "--method", "qr",
                   "--out", str(out)) == 2
        assert "unknown method 'qr'; expected one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    def test_bad_rounds_rejected_before_the_output_directory(self, tmp_path, capsys, rounds):
        out = tmp_path / "x"
        assert run("design", "--synth", "20,30", "--m", "6", "--method", "mt-etf",
                   "--iter", rounds, "--out", str(out)) == 2
        assert "outer_iters must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_non_finite_lambda_usage_error(self, tmp_path, capsys, designs, lam):
        out = tmp_path / "x"
        assert run("design", "--synth", "20,30", "--m", "6", "--lambda", lam,
                   "--out", str(out)) == 2
        assert "lam must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert designs == []

    def test_designed_m_equal_to_n_accepted(self, tmp_path):
        # the shape rule is 1 <= M <= N <= L, for a design as for a sweep
        out = tmp_path / "square"
        assert run("design", "--synth", "12,20", "--m", "12", "--out", str(out)) == 0
        assert read_matrix_csv(out / "phi.csv").shape == (12, 12)


    @pytest.mark.parametrize("method", ["mt", "mt-etf", "randn"])
    def test_sre_with_a_method_that_reads_none_usage_error(self, tmp_path, capsys, designs,
                                                           method):
        # only the lh methods read --sre; elsewhere the manifest would record a file
        # that nothing read, here one that does not even exist
        out = tmp_path / "x"
        assert run("design", "--synth", "20,30", "--m", "6", "--method", method,
                   "--sre", str(tmp_path / "absent.csv"), "--out", str(out)) == 2
        assert f"--sre applies to lh, lh-etf only, not {method!r}" in capsys.readouterr().err
        assert not out.exists()
        assert designs == []


class TestEvalCommand:
    def test_noiseless_feasible_recovery(self, tmp_path):
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(30, 40, 3), psi_path)
        out_design = tmp_path / "design"
        assert run("design", "--dict", str(psi_path), "--m", "12", "--lambda", "0.3",
                   "--seed", "3", "--out", str(out_design)) == 0
        out_eval = tmp_path / "eval"
        code = run("eval", "--phi", str(out_design / "phi.csv"), "--dict", str(psi_path),
                   "--snr", "inf", "--p", "50", "--k", "1", "--seed", "3",
                   "--tag", "mt", "--out", str(out_eval))
        assert code == 0
        lines = (out_eval / "records.csv").read_text().splitlines()
        assert lines[0].startswith("method,param_name,param_value,seed,rho_mse")
        row = lines[1].split(",")
        assert row[0] == "mt"
        assert float(row[4]) <= 1e-10  # rho_mse

    def test_manifest_reports_achieved_snr(self, tmp_path):
        out = tmp_path / "eval"
        assert self._eval_with_tag(tmp_path, "mt", out) == 0
        manifest = read_keyvalues(out / "manifest.txt")
        assert float(manifest["snr"]) == 15.0
        achieved = float(manifest["achieved_snr_db"])
        assert achieved != 15.0 and achieved == pytest.approx(15.0, abs=0.5)

    def test_replay_ignores_achieved_snr(self, tmp_path):
        out = tmp_path / "eval"
        assert self._eval_with_tag(tmp_path, "mt", out) == 0
        replay = tmp_path / "replay"
        assert run("eval", "--config", str(out / "manifest.txt"), "--out", str(replay)) == 0
        assert (replay / "records.csv").read_bytes() == (out / "records.csv").read_bytes()
        assert (read_keyvalues(replay / "manifest.txt")["achieved_snr_db"]
                == read_keyvalues(out / "manifest.txt")["achieved_snr_db"])

    def test_scaled_phi_same_rho_mse(self, tmp_path):
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 4), psi_path)
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((8, 20))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(phi, pa)
        write_matrix_csv(2.0 * phi, pb)  # power-of-two scale: exact arithmetic
        oa, ob = tmp_path / "ea", tmp_path / "eb"
        assert run("eval", "--phi", str(pa), "--dict", str(psi_path), "--snr", "20",
                   "--p", "40", "--k", "2", "--seed", "4", "--out", str(oa)) == 0
        assert run("eval", "--phi", str(pb), "--dict", str(psi_path), "--snr", "20",
                   "--p", "40", "--k", "2", "--seed", "4", "--out", str(ob)) == 0
        mse_a = (oa / "records.csv").read_text().splitlines()[1].split(",")[4]
        mse_b = (ob / "records.csv").read_text().splitlines()[1].split(",")[4]
        assert mse_a == mse_b

    def test_negative_infinite_snr_usage_error(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 5), psi_path)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(np.ones((4, 20)), phi_path)
        assert run("eval", "--phi", str(phi_path), "--dict", str(psi_path), "--snr=-inf",
                   "--p", "10", "--out", str(tmp_path / "x")) == 2
        assert "-inf" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--snr", "nan"), "snr_db must not be NaN"),
            (("--p", "0"), "p must be an integer >= 1, got 0"),
            (("--k", "9"), "K <= M <= N <= L"),
        ],
        ids=["snr-nan", "p-zero", "k-above-m"],
    )
    def test_bad_value_usage_error_creates_no_directory(self, tmp_path, capsys, monkeypatch,
                                                        flags, message):
        import csdesign.cli as cli_mod

        def must_not_run(*args, **kwargs):
            raise AssertionError("a dataset was drawn before the values were checked")

        monkeypatch.setattr(cli_mod, "make_dataset", must_not_run)
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 5), psi_path)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(np.ones((8, 20)), phi_path)
        out = tmp_path / "x"
        assert run("eval", "--phi", str(phi_path), "--dict", str(psi_path), "--p", "10",
                   *flags, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_infinite_snr_as_a_separate_token(self, tmp_path, capsys):
        # the token after a value-taking flag is its value, even when it begins with '-'
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 5), psi_path)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(np.ones((4, 20)), phi_path)
        assert run("eval", "--phi", str(phi_path), "--dict", str(psi_path), "--snr", "-inf",
                   "--p", "10", "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "-inf" in err and "expected one argument" not in err

    def test_dimension_mismatch(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 5), psi_path)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(np.zeros((4, 11)), phi_path)
        assert run("eval", "--phi", str(phi_path), "--dict", str(psi_path),
                   "--out", str(tmp_path / "x")) == 2

    @staticmethod
    def _eval_with_tag(tmp_path, tag, out):
        psi_path = tmp_path / "psi.csv"
        write_matrix_csv(gen_dictionary(20, 30, 6), psi_path)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(np.random.default_rng(6).standard_normal((8, 20)), phi_path)
        return run("eval", "--phi", str(phi_path), "--dict", str(psi_path), "--p", "20",
                   "--k", "2", "--tag", tag, "--out", str(out))

    def test_comma_in_tag_usage_error(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert self._eval_with_tag(tmp_path, "a,b", out) == 2
        assert "'a,b'" in capsys.readouterr().err
        records = out / "records.csv"
        assert not records.exists() or all(
            line.count(",") == 10 for line in records.read_text().splitlines())
        assert not (out / "manifest.txt").exists()

    def test_bad_tag_rejected_before_evaluation(self, tmp_path, capsys, monkeypatch):
        import csdesign.cli as cli_mod

        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluated before the tag was checked")

        monkeypatch.setattr(cli_mod, "evaluate_system", must_not_run)
        monkeypatch.setattr(cli_mod, "_read_matrix", must_not_run)
        out = tmp_path / "eval"
        assert run("eval", "--phi", "missing.csv", "--dict", "missing.csv",
                   "--tag", "a,b", "--out", str(out)) == 2
        assert "'a,b'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_tag_leaves_records_untouched(self, tmp_path):
        out = tmp_path / "eval"
        assert self._eval_with_tag(tmp_path, "mt", out) == 0
        before = (out / "records.csv").read_bytes()
        (out / "manifest.txt").unlink()
        assert self._eval_with_tag(tmp_path, "\u00e9", out) == 2
        assert (out / "records.csv").read_bytes() == before
        assert not (out / "manifest.txt").exists()


    @pytest.mark.parametrize("flag", ["--phi", "--dict"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix_rejected_before_a_dataset(self, tmp_path, capsys, monkeypatch,
                                                         flag, bad):
        import csdesign.cli as cli_mod

        drawn = []
        monkeypatch.setattr(cli_mod, "make_dataset", lambda *args, **kwargs: drawn.append(args))
        paths = {"--phi": tmp_path / "phi.csv", "--dict": tmp_path / "psi.csv"}
        matrices = {"--phi": np.ones((8, 20)), "--dict": gen_dictionary(20, 30, 5)}
        matrices[flag][1, 3] = float(bad)
        for name, path in paths.items():
            write_matrix_csv(matrices[name], path)
        out = tmp_path / "x"
        assert run("eval", "--phi", str(paths["--phi"]), "--dict", str(paths["--dict"]),
                   "--p", "10", "--out", str(out)) == 2
        assert f"{flag} has non-finite entries in 1 of" in capsys.readouterr().err
        assert drawn == []
        assert not out.exists()


class TestSweepCommand:
    def test_small_snr_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = run("sweep", "--axis", "snr", "--grid", "10:10:20", "--methods", "randn,mt",
                   "--seeds", "1", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "40", "--lambda", "0.3", "--out", str(out))
        assert code == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        manifest = read_keyvalues(out / "manifest.txt")
        assert manifest["axis"] == "snr"
        assert manifest["seeds"] == "1"

    def test_single_value_grid(self, tmp_path):
        out = tmp_path / "one"
        code = run("sweep", "--axis", "lambda", "--grid", "0.4", "--methods", "mt",
                   "--seeds", "2", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "30", "--out", str(out))
        assert code == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("grid", ["-5,0,5", "-5:5:5"])
    def test_negative_snr_grid(self, tmp_path, grid):
        out = tmp_path / "sweep"
        assert run("sweep", "--axis", "snr", "--grid", grid, "--methods", "randn",
                   "--seeds", "1", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "40", "--out", str(out)) == 0
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["-5", "0", "5"]
        assert read_keyvalues(out / "manifest.txt")["grid"] == grid

    @pytest.mark.parametrize(
        "flags",
        [
            ("--axis", "m", "--grid", "4,6", "--k", "0"),
            ("--axis", "lambda", "--grid", "0.5", "--k", "9", "--m", "8"),
            ("--axis", "lambda", "--grid", "0.5", "--m", "25", "--n", "20"),
            ("--axis", "snr", "--grid", "5", "--n", "90"),
        ],
        ids=["m-axis-k-zero", "lambda-k-above-m", "lambda-m-above-n", "snr-n-above-l"],
    )
    def test_no_feasible_dimension_point_usage_error(self, tmp_path, capsys, designs, flags):
        out = tmp_path / "x"
        assert run("sweep", *flags, "--p", "10", "--out", str(out)) == 2
        assert "K <= M <= N <= L" in capsys.readouterr().err
        assert not out.exists()
        assert designs == []

    @pytest.mark.parametrize(
        "axis, value, sizes",
        [("m", 6, dict(m=20, n=12)), ("k", 2, dict(m=3, k=4)), ("l", 30, dict(n=25, l=20))],
        ids=["m-above-n", "k-above-m", "l-below-n"],
    )
    def test_swept_size_outside_the_shape_is_replaced_by_each_point(self, tmp_path, axis, value,
                                                                    sizes):
        # the swept size given for the base is never used: a point that
        # fits runs, as the library runs it from a base that fits
        sizes = {**dict(m=4, n=20, l=30, k=2), **sizes}
        flags = [token for name, size in sizes.items() for token in (f"--{name}", str(size))]
        out, lib = tmp_path / "cli", tmp_path / "lib.csv"
        assert run("sweep", "--axis", axis, "--grid", str(value), "--methods", "randn,mt",
                   "--seeds", "1", "--p", "20", *flags, "--out", str(out)) == 0
        params = ExperimentParams(p=20, **{**sizes, axis: value})
        write_records_csv(run_dimension_sweeps(params, axis, [value], [1],
                                               methods=("randn", "mt")), lib)
        assert (out / "records.csv").read_bytes() == lib.read_bytes()

    def test_malformed_grid_usage_error(self, tmp_path, capsys):
        code = run("sweep", "--axis", "snr", "--grid", "5:ten:45",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "ten" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--axis", "lambda", "--grid", "nan"),
            ("--axis", "lambda", "--grid", "-0.5,0.5"),
            ("--axis", "snr", "--grid", "5", "--lambda-grid", "nan"),
            ("--axis", "snr", "--grid", "5", "--lambda-grid", "-1"),
        ],
        ids=["lambda-nan", "lambda-negative", "snr-search-nan", "snr-search-negative"],
    )
    def test_non_finite_lambda_grid_usage_error(self, tmp_path, capsys, designs, flags):
        out = tmp_path / "x"
        assert run("sweep", *flags, "--m", "8", "--n", "20",
                   "--l", "30", "--k", "2", "--p", "30", "--out", str(out)) == 2
        assert "lam must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert designs == []

    @pytest.mark.parametrize("axis, grid", [("lambda", "0.1"), ("m", "6")])
    def test_lambda_grid_off_the_snr_axis_usage_error(self, tmp_path, capsys, designs,
                                                      axis, grid):
        # the candidates are searched on the snr axis only; elsewhere they would be ignored
        out = tmp_path / "x"
        assert run("sweep", "--axis", axis, "--grid", grid, "--lambda-grid", "0.1",
                   "--out", str(out)) == 2
        assert "--lambda-grid applies to the snr axis only" in capsys.readouterr().err
        assert not out.exists()
        assert designs == []

    def test_unknown_axis(self, tmp_path):
        assert run("sweep", "--axis", "q", "--grid", "1", "--out", str(tmp_path / "x")) == 2

    def test_unknown_method_rejected_before_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("sweep", "--axis", "snr", "--grid", "5", "--methods", "mt,qr",
                   "--out", str(out)) == 2
        assert "unknown method 'qr'; expected one of" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_axis_requires_integers(self, tmp_path, capsys):
        assert run("sweep", "--axis", "m", "--grid", "4.5,6", "--p", "10",
                   "--out", str(tmp_path / "x")) == 2
        assert "axis 'm' requires integer grid values, got 4.5" in capsys.readouterr().err

    def test_dimension_sweep_resolves_welch_per_point(self, tmp_path):
        # the Welch level of an -etf design follows each point's M, so the
        # CLI, the library and a replay of the CLI's manifest agree
        out, replay, lib = tmp_path / "cli", tmp_path / "replay", tmp_path / "lib.csv"
        assert run("sweep", "--axis", "m", "--grid", "4:2:8", "--methods", "randn,mt-etf",
                   "--seeds", "1", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "30", "--iter", "2", "--out", str(out)) == 0
        params = ExperimentParams(m=8, n=20, l=30, k=2, p=30, xi=None, outer_iters=2)
        write_records_csv(run_dimension_sweeps(params, "m", [4, 6, 8], [1],
                                               methods=("randn", "mt-etf")), lib)
        assert (out / "records.csv").read_bytes() == lib.read_bytes()
        assert read_keyvalues(out / "manifest.txt")["xi"] == "welch"
        assert run("sweep", "--config", str(out / "manifest.txt"), "--out", str(replay)) == 0
        assert (replay / "records.csv").read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("axis, grid", [("lambda", [0.1, 0.5]), ("snr", [10.0, 30.0]),
                                            ("m", [4, 8])])
    def test_sweep_is_the_library_harness_with_the_same_inputs(self, tmp_path, axis, grid):
        # the CLI and the library share one rule on every axis, defaults
        # included: the snr axis runs every method at --lambda, as the harness does
        params, seeds = ExperimentParams(m=8, n=20, l=30, k=2, p=30), [1, 2]
        harness = {
            "lambda": lambda: run_lambda_sweep(params, grid, seeds),
            "snr": lambda: run_snr_sweep(params, grid, SWEEP_METHODS["snr"], seeds),
            "m": lambda: run_dimension_sweeps(params, "m", grid, seeds),
        }[axis]
        out, lib = tmp_path / "cli", tmp_path / "lib.csv"
        assert run("sweep", "--axis", axis, "--grid", ",".join(map(str, grid)), "--seeds", "1,2",
                   "--m", "8", "--n", "20", "--l", "30", "--k", "2", "--p", "30",
                   "--out", str(out)) == 0
        write_records_csv(harness(), lib)
        assert (out / "records.csv").read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--axis", "lambda", "--grid", "0:1e-300:1e300"),
            ("--axis", "lambda", "--grid", "-1e308:1:1e308"),
            ("--axis", "snr", "--grid", "5", "--lambda-grid", "0:1e-300:1e300"),
            # finite step counts: 1e9 points would take 8 GB, were they made
            ("--axis", "lambda", "--grid", "0:1e-9:1"),
            ("--axis", "lambda", "--grid", "0:1e-300:1"),
            ("--axis", "lambda", "--grid", "0:3e-300:1"),
            ("--axis", "lambda", "--grid", f"0:1:{MAX_GRID_POINTS}"),
        ],
        ids=["tiny-step", "huge-span", "lambda-grid", "1e9-steps", "1e300-steps",
             "3e299-steps", "at-the-bound"],
    )
    def test_grid_with_too_many_points_usage_error(self, tmp_path, capsys, designs, flags):
        out = tmp_path / "x"
        assert run("sweep", *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"csdesign sweep: grid {flags[-1]!r} has too many points\n"
        assert not out.exists()
        assert designs == []

    def test_snr_sweep_lambda_grid_matches_library(self, tmp_path):
        out, lib = tmp_path / "cli", tmp_path / "lib.csv"
        assert run("sweep", "--axis", "snr", "--grid", "10,20", "--methods", "randn,mt",
                   "--seeds", "1", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "30", "--lambda-grid", "0.1,1", "--out", str(out)) == 0
        params = ExperimentParams(m=8, n=20, l=30, k=2, p=30)
        write_records_csv(run_snr_sweep(params, [10.0, 20.0], ("randn", "mt"), [1],
                                        lambda_grid=(0.1, 1.0)), lib)
        assert (out / "records.csv").read_bytes() == lib.read_bytes()

    def test_manifest_in_current_format_replays_bytes(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(SWEEP_MANIFEST)
        replay, direct = tmp_path / "replay", tmp_path / "direct"
        assert run("sweep", "--config", str(manifest), "--out", str(replay)) == 0
        assert run("sweep", "--axis", "snr", "--grid", "10,20", "--methods", "randn,mt",
                   "--seeds", "1", "--m", "8", "--n", "20", "--l", "30", "--k", "2",
                   "--p", "40", "--lambda", "0.3", "--out", str(direct)) == 0
        records = (replay / "records.csv").read_bytes()
        assert records == (direct / "records.csv").read_bytes()
        assert len(records.splitlines()) == 1 + 2 * 2

        def fixed_lines(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("out=", "version=", "timestamp="))]

        assert fixed_lines((replay / "manifest.txt").read_text()) == fixed_lines(SWEEP_MANIFEST)

    def test_out_that_cannot_be_made_is_io_error_before_any_design(self, tmp_path, capsys,
                                                                   designs):
        # the nearest existing ancestor of --out is a regular file, so no directory
        # can be made there: the run stops before its first design
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" / "run"
        assert run("sweep", "--axis", "lambda", "--grid", "0.1,0.5", "--m", "8", "--n", "20",
                   "--l", "30", "--p", "200", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert str(out) in err and f"{blocker} is not a directory" in err
        assert designs == []
        assert blocker.read_text() == "not a directory\n"


# written by ``sweep --axis snr --grid 10,20 --methods randn,mt --seeds 1 --m 8
# --n 20 --l 30 --k 2 --p 40 --lambda 0.3 --out orig``
SWEEP_MANIFEST = """\
command=sweep
axis=snr
grid=10,20
methods=randn,mt
seeds=1
m=8
n=20
l=30
k=2
p=40
lambda=0.29999999999999999
xi=0.30794088102571987
iter=50
snr=15
lambda_grid=
out=orig
timing=false
version=0.1.0
timestamp=2026-10-17T22:40:23+00:00
"""


#: a sweep that takes well under a second
TINY_SWEEP = ("sweep", "--axis", "lambda", "--grid", "0.5", "--methods", "randn", "--m", "4",
              "--n", "20", "--l", "30", "--k", "2", "--p", "10")


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv, key, bad",
        [
            (("design", "--synth", "20,30"), "m", "abc"),
            (("design", "--synth", "20,30", "--m", "6"), "lambda", "x"),
            (("eval",), "p", "x"),
            (("eval",), "snr", "x"),
            (("sweep", "--axis", "snr", "--grid", "10"), "k", "x"),
            (("sweep", "--axis", "snr", "--grid", "10"), "snr", "x"),
            (("lemma1", "--random", "4,6"), "p", "x"),
            (("lemma1", "--random", "4,6"), "sigma", "x"),
        ],
    )
    def test_wrong_type_usage_error_names_key(self, tmp_path, capsys, argv, key, bad):
        if argv[0] == "eval":
            psi_path, phi_path = tmp_path / "psi.csv", tmp_path / "phi.csv"
            write_matrix_csv(gen_dictionary(20, 30, 5), psi_path)
            write_matrix_csv(np.ones((4, 20)), phi_path)
            argv += ("--phi", str(phi_path), "--dict", str(psi_path))
        config = tmp_path / "config.txt"
        config.write_text(f"{key}={bad}\n")
        assert run(*argv, "--config", str(config), "--out", str(tmp_path / "x")) == 2
        assert f"{key} expects" in capsys.readouterr().err

    @pytest.mark.parametrize("text, on", [("1", True), ("TRUE", True), ("Yes", True),
                                          ("0", False), ("False", False), ("no", False)])
    def test_bool_value_in_any_case(self, tmp_path, text, on):
        config = tmp_path / "config.txt"
        config.write_text(f"timing={text}\n")
        out = tmp_path / "x"
        assert run(*TINY_SWEEP, "--config", str(config), "--out", str(out)) == 0
        assert read_keyvalues(out / "manifest.txt")["timing"] == ("true" if on else "false")

    def test_bool_value_that_is_not_true_or_false_is_usage_error(self, tmp_path, capsys):
        # the boundary test below refuses more such texts; this one checks the message
        config = tmp_path / "config.txt"
        config.write_text("timing=maybe\n")
        out = tmp_path / "x"
        assert run(*TINY_SWEEP, "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == ("csdesign sweep: timing expects true or false, "
                                           "got 'maybe'\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (TINY_SWEEP, "lamda"),
            (TINY_SWEEP, "config"),
            (("design", "--synth", "20,30", "--m", "4", "--method", "randn"), "lam"),
            (("lemma1", "--random", "4,6", "--p", "100"), "sigm"),
        ],
        ids=["sweep-misspelled", "sweep-config", "design-prefix", "lemma1-misspelled"],
    )
    def test_key_that_names_no_parameter_is_usage_error(self, tmp_path, capsys, designs,
                                                        argv, key):
        # a misspelled key would leave the parameter it meant at its default
        config = tmp_path / "config.txt"
        config.write_text(f"{key}=0.9\n")
        out = tmp_path / "x"
        assert run(*argv, "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"csdesign {argv[0]}: config key {key!r} names no "
                                           f"{argv[0]} parameter\n")
        assert not out.exists()
        assert designs == []

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "absent-config.txt"
        code = run("design", "--synth", "20,30", "--m", "6", "--config", str(missing),
                   "--out", str(tmp_path / "x"))
        assert code == 3
        assert str(missing) in capsys.readouterr().err


class TestLemma1Command:
    def test_random_matrix_report(self, capsys):
        code = run("lemma1", "--random", "20,60", "--sigma", "1", "--p", "100000",
                   "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out
        report = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        mean = float(report["mean_estimate"])
        pred = float(report["predicted_mean"])
        assert abs(mean - pred) / pred <= 0.02
        assert abs(float(report["z_score"])) <= 4.0

    def test_minimum_p_runs(self, capsys):
        assert run("lemma1", "--random", "4,6", "--sigma", "0.5", "--p", "2") == 0

    @pytest.mark.parametrize("sigma", ["1e80", "1e-90"])
    def test_extreme_sigma_reads_the_unit_z_score(self, capsys, sigma):
        # the z-score is scale-free; only the reported means and variances
        # scale, saturating to inf or 0 where sigma^4 leaves the float range
        def report(sigma):
            assert run("lemma1", "--random", "4,6", "--sigma", sigma, "--p", "1000") == 0
            out = capsys.readouterr().out
            return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)

        unit, extreme = report("1"), report(sigma)
        assert np.isfinite(float(extreme["z_score"]))
        assert extreme["z_score"] == unit["z_score"]
        scale = float(sigma) ** 2
        assert float(extreme["predicted_mean"]) == pytest.approx(
            scale * float(unit["predicted_mean"]), rel=1e-15)

    def test_p_below_two_usage_error(self, capsys):
        assert run("lemma1", "--random", "4,6", "--p", "1") == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_usage_error(self, capsys, sigma):
        assert run("lemma1", "--random", "4,6", "--sigma", sigma, "--p", "10") == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err

    def test_predicted_mean_matches_phi_file(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        phi = rng.standard_normal((5, 9))
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(phi, phi_path)
        sigma = 0.7
        assert run("lemma1", "--phi", str(phi_path), "--sigma", str(sigma), "--p", "100",
                   "--seed", "2") == 0
        out = capsys.readouterr().out
        report = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        recomputed = sigma**2 * float(np.sum(read_matrix_csv(phi_path) ** 2))
        assert float(report["predicted_mean"]) == pytest.approx(recomputed, rel=1e-15)

    def test_out_writes_report_and_manifest_that_replays(self, tmp_path, capsys):
        first, replay = tmp_path / "a", tmp_path / "b"
        assert run("lemma1", "--random", "4,6", "--p", "50", "--seed", "3",
                   "--out", str(first)) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert sorted(path.name for path in first.iterdir()) == ["manifest.txt", "report.txt"]
        report = read_keyvalues(first / "report.txt")
        assert list(report)[:2] == ["trials", "mean_estimate"]
        assert report == {key: printed[key] for key in report}
        manifest = read_keyvalues(first / "manifest.txt")
        assert manifest["command"] == "lemma1" and manifest["random"] == "4,6"
        assert run("lemma1", "--config", str(first / "manifest.txt"), "--out", str(replay)) == 0
        assert (replay / "report.txt").read_bytes() == (first / "report.txt").read_bytes()


    @pytest.mark.parametrize(
        "entry, message",
        [("nan", "--phi has non-finite entries in 1 of 9 columns"),
         ("inf", "--phi has non-finite entries in 1 of 9 columns"),
         ("0", "the predicted variance is 0")],
        ids=["nan", "inf", "all-zero"],
    )
    def test_bad_phi_usage_error_prints_no_report(self, tmp_path, capsys, entry, message):
        phi = np.zeros((5, 9)) if entry == "0" else np.ones((5, 9))
        phi[2, 4] = float(entry)
        phi_path = tmp_path / "phi.csv"
        write_matrix_csv(phi, phi_path)
        assert run("lemma1", "--phi", str(phi_path), "--p", "10") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"csdesign lemma1: {message}")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("design", "--synth", "0,5", "--m", "2"),
        ("lemma1", "--random", "0,5"),
        ("design", "--synth", "10,5", "--m", "8", "--method", "randn"),
        ("sweep", "--axis", "lambda", "--grid", "0.5", "--m", "90", "--l", "80"),
        ("design", "--synth", "30,20", "--m", "8"),
        ("design", "--synth", "20,30", "--m", "25", "--method", "randn"),
        ("sweep", "--axis", "snr", "--grid", "nan"),
        ("sweep", "--axis", "lambda", "--grid", "0.5", "--p", "0"),
        ("sweep", "--axis", "k", "--grid", "2", "--p", "0"),
    ],
    ids=["design-empty-dictionary", "lemma1-empty-matrix", "design-m-above-l",
         "sweep-m-above-l", "design-l-below-n", "design-randn-m-above-n", "sweep-snr-nan",
         "sweep-p-zero", "sweep-k-axis-p-zero"],
)
def test_library_value_error_is_usage_error(tmp_path, capsys, designs, argv):
    # the library rejects these values with ValueError; the CLI reports
    # them as one usage-error line, without a traceback, before any design
    # runs or any directory is made
    if argv[0] != "lemma1":
        argv += ("--out", str(tmp_path / "x"))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"csdesign {argv[0]}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x").exists()
    assert designs == []


@pytest.mark.parametrize(
    "argv",
    [
        ("design", "--dict", "f.csv", "--synth", "20,30", "--m", "4"),
        ("design", "--m", "4"),
        ("lemma1", "--phi", "f.csv", "--random", "4,6"),
        ("lemma1",),
    ],
    ids=["design-both", "design-neither", "lemma1-both", "lemma1-neither"],
)
def test_matrix_input_needs_exactly_one_source(tmp_path, capsys, argv):
    # a command's matrix is read from a CSV path or drawn from a shape:
    # giving both or neither is a usage error that names both flags
    flags = ("--dict", "--synth") if argv[0] == "design" else ("--phi", "--random")
    out = tmp_path / "x"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"csdesign {argv[0]}: ")
    assert all(flag in err for flag in flags)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("eval", "--tag", " mt "), "--tag"),
        (("eval", "--tag", ""), "--tag"),
        (("design", "--synth", "20,30", "--m", "4", "--out", "x\ny"), "--out"),
        # a name that is not UTF-8 (os.fsdecode gives it a lone surrogate)
        (("design", "--synth", "20,30", "--m", "4", "--out", os.fsdecode(b"run-\xff")),
         "--out"),
    ],
    ids=["eval-padded-tag", "eval-empty-tag", "design-out-line-break", "design-out-not-utf8"],
)
def test_value_a_manifest_would_not_replay_is_usage_error(tmp_path, capsys, monkeypatch,
                                                           designs, argv, flag):
    # a manifest strips each value and reads an empty one as unset, so a
    # replay would not see these values as given: exit 2 before any work
    import csdesign.cli as cli_mod

    evaluated = []
    monkeypatch.setattr(cli_mod, "evaluate_system", lambda *args, **kw: evaluated.append(args))
    monkeypatch.chdir(tmp_path)
    if argv[0] == "eval":
        write_matrix_csv(gen_dictionary(20, 30, 5), "psi.csv")
        write_matrix_csv(np.ones((8, 20)), "phi.csv")
        argv += ("--phi", "phi.csv", "--dict", "psi.csv", "--p", "10", "--out", "x")
    before = sorted(tmp_path.iterdir())
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"csdesign {argv[0]}: {flag}: cannot write")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    assert designs == [] and evaluated == []


class TestUsageAndInputErrors:
    """Error branches of parameter resolution and matrix reading; none makes a directory."""

    def _run(self, tmp_path, capsys, *argv):
        out = tmp_path / "x"
        code = run(*argv, "--out", str(out))
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_missing_required_parameter(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "design", "--synth", "20,30")
        assert code == 2
        assert "missing required parameter --m" in err

    def test_shape_that_is_not_a_pair(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "design", "--synth", "20", "--m", "4")
        assert code == 2
        assert "--synth expects two comma-separated integers" in err

    def test_config_of_another_command(self, tmp_path, capsys):
        config = tmp_path / "manifest.txt"
        config.write_text("command=eval\np=10\n")
        code, err = self._run(tmp_path, capsys, "design", "--synth", "20,30", "--m", "4",
                              "--config", str(config))
        assert code == 2
        assert "config was written by command 'eval', not 'design'" in err

    def test_config_line_without_equals(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("m=4\nseed 3\n")
        code, err = self._run(tmp_path, capsys, "design", "--synth", "20,30",
                              "--config", str(config))
        assert code == 3
        assert f"{config}:2: expected key=value" in err

    def test_matrix_header_with_negative_dimensions(self, tmp_path, capsys):
        path = tmp_path / "psi.csv"
        path.write_text("-2,3\n")
        code, err = self._run(tmp_path, capsys, "design", "--dict", str(path), "--m", "1")
        assert code == 3
        assert "negative dimensions" in err and "psi.csv" in err


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert run() == 2

    def test_unknown_flag(self, capsys):
        assert run("design", "--bogus", "1") == 2

    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out == f"csdesign {csdesign.__version__}\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command(self, capsys, flag):
        from csdesign.cli import COMMANDS

        assert run(flag) == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS) and "--version" in out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", ["design", "eval", "sweep", "lemma1"])
    def test_command_help_lists_every_flag(self, tmp_path, capsys, command, flag):
        from csdesign.cli import COMMANDS

        # help in flag position wins over the flags around it, and runs nothing
        assert run(command, "--out", str(tmp_path / "x"), flag, "--bogus") == 0
        lines = capsys.readouterr().out.splitlines()
        for param in COMMANDS[command][1]:
            line = next(line for line in lines if line.split()[:1] == [param.flag])
            assert param.help in line
        assert any(line.split()[:1] == ["--config"] for line in lines)
        assert not (tmp_path / "x").exists()


#: a design that runs in milliseconds, and the flags each grammar case adds to it
DESIGN = ("design", "--synth", "20,30", "--m", "4", "--method", "randn", "--out", "out")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        ((), "csdesign: "),
        (("desing", "--m", "4"), "csdesign: "),
        ((*DESIGN, "--bogus", "1"), "csdesign design: "),
        (("design", "--bogus", "1"), "csdesign design: "),
        ((*DESIGN, "stray"), "csdesign design: "),
        ((*TINY_SWEEP, "--out", "out", "--timing=1"), "csdesign sweep: "),
        ((*TINY_SWEEP, "--out", "out", "--seed", "3"), "csdesign sweep: "),
        ((*DESIGN, "--lam", "0.3"), "csdesign design: "),
        (("design", "--synth", "20,30", "--m", "--out", "out"), "csdesign design: "),
        (("design", "--synth", "20,30", "--out", "out", "--m"), "csdesign design: "),
        (("--version", "design"), "csdesign: "),
    ],
    ids=["no-command", "unknown-command", "unknown-flag", "unknown-flag-alone", "positional",
         "bool-flag-with-value", "prefix-of-seeds", "prefix-of-lambda", "value-is-a-flag",
         "value-missing-at-the-end", "command-after-version"],
)
def test_grammar_error_is_one_line(tmp_path, capsys, monkeypatch, designs, argv, prefix):
    # a flag name must match exactly, a value-taking flag needs its value,
    # a bool flag takes none, and nothing else may stand among the flags:
    # each breach exits 2 with one stderr line and creates nothing
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    assert designs == []


def test_flag_equals_value_reads_as_flag_then_value(tmp_path, monkeypatch):
    # --flag=value and --flag value are one grammar, a value beginning with
    # '-' included, so both spellings write the same files
    flags = {"--axis": "snr", "--grid": "-5:5:5", "--methods": "randn,mt", "--seeds": "1,2",
             "--m": "4", "--n": "20", "--l": "30", "--k": "2", "--p": "10", "--xi": "0.5",
             "--lambda": "0.1", "--out": "out"}
    for form, argv in [("split", [token for pair in flags.items() for token in pair]),
                       ("joined", [f"{flag}={value}" for flag, value in flags.items()])]:
        (tmp_path / form).mkdir()
        monkeypatch.chdir(tmp_path / form)
        assert run("sweep", *argv) == 0
    for name in ("records.csv", "manifest.txt"):
        split, joined = ((tmp_path / form / "out" / name).read_text().splitlines()
                         for form in ("split", "joined"))
        assert [line for line in split if not line.startswith("timestamp=")] == \
            [line for line in joined if not line.startswith("timestamp=")]


def test_repeated_flag_keeps_its_last_value(capsys):
    assert run("lemma1", "--random", "4,6", "--p", "100", "--seed", "1", "--p", "200") == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["p"] == report["trials"] == "200"


def test_bytes_do_not_depend_on_blas_threads_at_ci_shape(tmp_path):
    # reruns are byte-identical for the same seeds, numpy/BLAS build and
    # BLAS thread count; at CI's shape the thread count must not matter
    # either, so a change that makes small products thread-dependent shows
    write_matrix_csv(0.1 * np.random.default_rng(3).standard_normal((40, 200)),
                     tmp_path / "sre.csv")
    script = ("import json, sys; from csdesign.cli import main; "
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = str(Path(csdesign.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        out = tmp_path / threads
        commands = [
            ["design", "--synth", "40,60", "--m", "12", "--method", "mt", "--out", f"{out}/mt"],
            ["design", "--synth", "40,60", "--m", "12", "--method", "lh",
             "--sre", str(tmp_path / "sre.csv"), "--out", f"{out}/lh"],
            ["eval", "--phi", f"{out}/mt/phi.csv", "--dict", f"{out}/mt/psi.csv", "--p", "200",
             "--seed", "3", "--out", f"{out}/eval"],
        ]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env, check=True)
    for name in ("mt/phi.csv", "mt/psi.csv", "mt/trace.csv", "lh/phi.csv", "lh/trace.csv",
                 "eval/records.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


# --- one boundary test per (command, parameter, bad value), generated from cli.COMMANDS ---

#: a valid small run of each command; the case under test replaces one of its values
BOUNDARY_BASE = {
    "design": {"synth": "20,30", "m": "4", "out": "out"},
    "eval": {"phi": "phi.csv", "dict": "psi.csv", "p": "10", "out": "out"},
    "sweep": {"axis": "lambda", "grid": "0.5", "m": "4", "n": "20", "l": "30", "k": "2",
              "p": "10", "out": "out"},
    "lemma1": {"random": "4,6", "p": "100", "out": "out"},
}
#: the base's changes (None drops a value) that make a valid run read a parameter the
#: base does not: a matrix from a file, not its other source, and the method or axis
#: that reads the parameter at all
BOUNDARY_NEEDS = {
    ("design", "dict"): {"synth": None, "dict": "psi.csv"},
    ("design", "sre"): {"method": "lh", "sre": "sre.csv"},
    ("lemma1", "phi"): {"random": None, "phi": "phi.csv"},
    ("sweep", "lambda_grid"): {"axis": "snr", "grid": "10", "lambda_grid": "0.1,0.3"},
}
#: the parameters that name a file or directory
BOUNDARY_PATHS = {"dict", "phi", "sre", "out"}
#: the bad values of each type, by name
BOUNDARY_BAD = {
    int: {"zero": "0", "negative": "-1", "fraction": "1.5", "nan": "nan", "word": "many"},
    float: {"nan": "nan", "inf": "inf", "minus-inf": "-inf", "empty": ""},
    str: {"empty": "", "padded": " padded ", "line-break": "line\nbreak",
          "lone-surrogate": os.fsdecode(b"\xff")},
    bool: {"word": "maybe", "number": "2", "on": "on"},  # a bool's text comes from a config
}
#: the value of a flag given as the last token, with no value after it
MISSING = object()
#: the bad value of a path parameter beyond its type's: a path under a regular file
UNDER_A_FILE = "blocker.txt/x"
#: values of the type that the library's rule accepts for this parameter
BOUNDARY_ACCEPTED = {
    "seed": {"0", "-1"},  # any integer, taken modulo 2**64
    "snr": {"inf"},  # noiseless
}


def _boundary_cases():
    from csdesign.cli import COMMANDS

    for command, (_, params, _) in COMMANDS.items():
        for param in params:
            bad = {label: value for label, value in BOUNDARY_BAD.get(param.type, {}).items()
                   if value not in BOUNDARY_ACCEPTED.get(param.name, ())}
            if param.name in BOUNDARY_PATHS:
                bad["under-a-file"] = UNDER_A_FILE
            if param.type is not bool:
                bad["missing-value"] = MISSING
            for label, value in bad.items():
                yield pytest.param(command, param.name, value, id=f"{command}-{param.name}-{label}")


def test_boundary_table_names_real_parameters():
    from csdesign.cli import COMMANDS

    names = {(command, p.name) for command, (_, params, _) in COMMANDS.items() for p in params}
    assert set(BOUNDARY_NEEDS) <= names
    assert {name for _, name in names} >= BOUNDARY_PATHS | set(BOUNDARY_ACCEPTED)
    assert all(set(base) <= {name for c, name in names if c == command}
               for command, base in BOUNDARY_BASE.items())


def _boundary_argv(tmp_path, monkeypatch, command, values):
    """The argv of `command` with `values`, run in `tmp_path` beside the files they name."""
    from csdesign.cli import COMMANDS

    monkeypatch.chdir(tmp_path)
    write_matrix_csv(gen_dictionary(20, 30, 5), "psi.csv")
    write_matrix_csv(np.ones((4, 20)), "phi.csv")
    write_matrix_csv(np.ones((20, 40)), "sre.csv")
    Path("blocker.txt").write_text("not a directory\n")
    params = {p.name: p for p in COMMANDS[command][1]}
    argv = [command]
    for key, text in values.items():
        if params[key].type is bool:  # a bool flag takes no value: give its text by config
            Path("config.txt").write_text(f"{key}={text}\n")
            argv += ["--config", "config.txt"]
        elif text is not None and text is not MISSING:
            argv += [params[key].flag, text]
    return argv + [params[key].flag for key, text in values.items() if text is MISSING]


@pytest.mark.parametrize(
    "command, needs",
    [(command, {}) for command in BOUNDARY_BASE]
    + [(command, needs) for (command, _), needs in BOUNDARY_NEEDS.items()],
    ids=[*BOUNDARY_BASE, *(f"{command}-{name}" for command, name in BOUNDARY_NEEDS)],
)
def test_boundary_base_runs(tmp_path, monkeypatch, command, needs):
    # each bad-value case below changes one value of a run that succeeds
    values = {**BOUNDARY_BASE[command], **needs}
    assert run(*_boundary_argv(tmp_path, monkeypatch, command, values)) == 0
    assert (tmp_path / "out" / "manifest.txt").exists()


@pytest.mark.parametrize("command, name, value", list(_boundary_cases()))
def test_every_bad_value_is_refused_at_the_boundary(tmp_path, capsys, monkeypatch, designs,
                                                    command, name, value):
    # each parameter of each command, given a bad value of its type or no
    # value at all, exits 2 (3 for a path that cannot be read or made) with
    # one stderr line, before any design runs or any directory is made
    values = {**BOUNDARY_BASE[command], **BOUNDARY_NEEDS.get((command, name), {}), name: value}
    argv = _boundary_argv(tmp_path, monkeypatch, command, values)
    before = sorted(tmp_path.iterdir())
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == (3 if value == UNDER_A_FILE else 2), err
    assert err.startswith(f"csdesign {command}: ") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before
    assert designs == []
