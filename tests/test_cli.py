"""End-to-end checks of the command line driver and its file contract."""

import dataclasses
import importlib
import json
import math
import os
import pathlib
import pkgutil
import runpy
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import nel
import nel.cli
import nel.runio
import nel.spectra
from nel.cli import COMMANDS, MODEL_SCHEMAS, SPECTRUM_CSV_HEADER, main
from nel.errors import ComputationalError, ValidationError, usable_cpus
from nel.fields import save_field
from nel.forcing import ForcingSpec
from nel.lax import darboux_shear_example
from nel.models import GLParams, SGParams
from nel.runio import build_from_status, parse_config_lines
from nel.spectra import NuStarResult

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def read_out(path):
    """Split an output file into (header dict, payload lines)."""
    lines = path.read_text().splitlines()
    head = lines[0]
    if head.startswith("# "):
        head = head[2:]
    return json.loads(head), lines[1:]


class TestConfigContract:
    def test_parse_skips_comments_and_blank_lines(self):
        text = "# comment\nnu = 0.05\nk1 = 1   # trailing\n\nk2 = 0\n"
        assert parse_config_lines(text) == ({"nu": "0.05", "k1": "1", "k2": "0"}, {"nu": 2, "k1": 3, "k2": 5})

    def test_duplicate_key_exits_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("k1 = 1\nk1 = 2\n")
        assert run_cli("spectrum", "--config", str(cfg), "--nu", "0.1") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "duplicate" in err

    def test_unknown_key_exits_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "unk.cfg"
        cfg.write_text("k1 = 1\n\nbogus = 3\n")
        assert run_cli("spectrum", "--config", str(cfg), "--nu", "0.1") == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "bogus" in err

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k1 = 0\nk2 = 1\nnu = 0.1\ntrunc = 4\n")
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--nu", "0.2", "--out", str(out)) == 0
        header, _ = read_out(out)
        assert header["params"]["nu"] == 0.2

    @pytest.mark.parametrize("command", ["simulate", "poincare", "lyapunov"])
    def test_model_keys_default_as_their_dataclasses(self, command):
        defaults = COMMANDS[command].defaults
        for cls, prefix in ((SGParams, ""), (GLParams, ""), (ForcingSpec, "forcing_")):
            for f in dataclasses.fields(cls):
                key = prefix + f.name
                if key in defaults and key != "forcing_eps":  # None: the model's eps
                    assert defaults[key] == f.default, (cls.__name__, key)

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run_cli("spectrum", "--config", str(missing), "--nu", "0.1") == 4


class TestValidationFailures:
    def test_missing_required_flag_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--k1", "1", "--k2", "0", "--out", str(out)) == 2
        assert "nu" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no file, no .partial

    def test_negative_viscosity_exits_2_naming_parameter(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run_cli("spectrum", "--k1", "1", "--k2", "0", "--nu", "-1", "--out", str(out))
        assert code == 2
        assert "nu" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", ["0.98", "1.2"])
    def test_nustar_alpha_outside_its_bracket_exits_2(self, alpha, tmp_path, capsys):
        """The lower bound of the nu* bracket takes a square root that is real
        only for 0 < alpha < 0.964399."""
        assert run_cli("nustar", "--alpha", alpha, "--out", str(tmp_path / "ns.jsonl")) == 2
        assert "nu* needs 0 < alpha < 0.964399" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("simulate", "--model", "abc", "--dt", "0"), "dt"),
            (("simulate", "--model", "abc", "--t-end", "nan"), "t_end"),
            (("lyapunov", "--model", "abc", "--t-end", "nan"), "t_end"),
            (("laxcheck", "--t-end", "nan"), "t_end"),
            (("simulate", "--model", "abc", "--t-end", "inf"), "t_end"),
            (("poincare", "--model", "sg", "--period", "nan"), "period"),
            (("lyapunov", "--model", "abc", "--renorm-dt", "nan"), "renorm_dt"),
            (("spectrum", "--k1", "1", "--k2", "0", "--nu", "nan"), "nu"),
            (("nustar", "--tol", "nan"), "tol"),
            (("lyapunov", "--model", "abc", "--theta0", "1,-inf,2"), "theta0"),
            (("simulate", "--model", "sg", "--kick", "1:nan"), "kick"),
            (("simulate", "--model", "pnls", "--q0", "nan+0j"), "q0"),
            (("simulate", "--model", "pnls", "--q0", "0.5+infj"), "q0"),
            # step counts that overflow a float
            (("simulate", "--model", "abc", "--t-end", "1e300", "--dt", "1e-300"), "t_end"),
            (("poincare", "--model", "sg", "--period", "1e300", "--dt", "1e-300"), "period"),
            (("lyapunov", "--model", "abc", "--renorm-dt", "1e300", "--dt", "1e-300"), "renorm_dt"),
            (("lyapunov", "--model", "abc", "--t-end", "1e300", "--renorm-dt", "1e-300", "--dt", "1e-300"), "t_end"),
            (("laxcheck", "--t-end", "1e300", "--dt", "1e-300"), "t_end"),
            (("laxcheck", "--t-end", "1e-4", "--dt", "1e-3"), "t_end must cover at least one step"),
            # (alpha k1)^2 or its reciprocal out of range, and a viscosity ratio that underflows
            (("spectrum", "--k1", "1", "--k2", "0", "--nu", "0.1", "--alpha", "1e200", "--trunc", "3"), "alpha"),
            (("spectrum", "--k1", "1", "--k2", "0", "--nu", "0.1", "--alpha", "1e-200", "--trunc", "3"), "alpha"),
            (("zvtrack", "--nu-max", "1e300", "--nu-min", "1e-300", "--n-nus", "3"), "nu_min"),
        ],
    )
    def test_invalid_real_exits_2_naming_the_key(self, argv, key, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(f"nel: error: {key}")
        assert not list(tmp_path.iterdir())

    def test_invalid_real_in_config_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = abc\n\nt_end = nan\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("nel: error: line 3: t_end: expected a finite real")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "q0, message",
        [("nan+0j", "expected finite real and imaginary parts"), ("1+", "expected a complex literal")],
    )
    def test_bad_q0_in_config_names_the_line(self, q0, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = pnls\nq0 = {q0}\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("nel: error: line 2: q0: " + message)
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_jsonl_only_command_rejects_csv(self, capsys):
        assert run_cli("nustar", "--format", "csv") == 2

    def test_inapplicable_model_key_exits_2(self, capsys):
        assert run_cli("simulate", "--model", "abc", "--kick", "1:0.5") == 2
        assert "kick" in capsys.readouterr().err

    def test_quasiperiodic_key_under_the_cos_t_drive_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        assert run_cli("simulate", "--model", "sg", "--forcing-betas", "9,9,9,9", "--t-end", "0.02", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "nel: error: parameters ['forcing_betas'] do not apply to model 'sg' with forcing_mode 'cos_t'\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (("laxcheck", "--dim", "2", "--mode", "free", "--amp-u", "7"), ["amp_u", "mode"]),
            (("laxcheck", "--mode", "curl"), ["mode"]),
            (("laxcheck", "--dim", "3", "--alpha", "0.3"), ["alpha"]),
            (("laxcheck", "--dim", "3", "--amp-u", "0.3"), ["amp_u"]),
            (("laxcheck", "--dim", "3", "--mode", "free", "--alpha", "0.3", "--amp-u", "0.3"), ["alpha"]),
        ],
    )
    def test_laxcheck_rejects_keys_that_do_not_apply(self, argv, keys, tmp_path, capsys):
        small = ("--grid", "8", "--t-end", "0.01", "--dt", "0.01")  # a run that is cheap if it is not rejected
        assert run_cli(*argv, *small, "--out", str(tmp_path / "out")) == 2
        assert f"parameters {keys} do not apply" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, shape",
        [
            (("laxcheck", "--grid", "7"), "(7, 7)"),
            (("laxcheck", "--dim", "3", "--grid", "7"), "(7, 7, 7)"),
            (("darboux", "--nx", "7"), "(7, 8)"),
        ],
    )
    def test_odd_grid_size_exits_2(self, argv, shape, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nel: error: grid sizes must be even and >= 4, got shape {shape}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("control", ["false", "true"])
    @pytest.mark.parametrize("dim", [("--dim", "2"), ("--dim", "3", "--mode", "curl"), ("--dim", "3", "--mode", "free")])
    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_laxcheck_without_modes_exits_2(self, dim, control, kmax, tmp_path, capsys):
        # kmax < 1 draws zero fields, whose residual is 0 even for the negative control
        argv = ("laxcheck", *dim, "--kmax", kmax, "--control", control, "--grid", "8", "--t-end", "0.01", "--dt", "0.01")
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nel: error: kmax must be >= 1, got {kmax}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--nu-min=-1e-3",), "need 0 < nu_min < nu_max"),
            (("--nu-min", "0.2"), "need 0 < nu_min < nu_max"),
            (("--n-nus", "2"), "n_nus must be >= 3, got 2"),
        ],
    )
    def test_zvtrack_schedule_exits_2(self, argv, message, tmp_path, capsys):
        assert run_cli("zvtrack", "--trunc", "8", *argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nel: error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_blowup_exits_3_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "blow.jsonl"
        code = run_cli(
            "simulate", "--model", "dernls", "--q0", "5+0j", "--eps", "0",
            "--kcut", "4", "--n-modes", "8", "--dt", "1", "--t-end", "30",
            "--out", str(out),
        )
        assert code == 3
        assert not list(tmp_path.iterdir())


class TestSpectrumCommand:
    def test_diffusion_class_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli(
            "spectrum", "--k1", "0", "--k2", "1", "--nu", "0.1", "--trunc", "8",
            "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert header["schema_version"] == 1
        assert header["command"] == "spectrum"
        assert payload[0] == SPECTRUM_CSV_HEADER
        rows = [line.split(",") for line in payload[1:]]
        assert len(rows) == 16  # modes (0, n) with n in 1-8..1+8, minus (0,0)
        res = sorted({float(r[6]) for r in rows})
        want = sorted({-0.1 * n * n for n in range(-7, 10) if n != 0})
        assert np.allclose(res, want, atol=1e-10)
        assert all(float(r[7]) == 0.0 for r in rows)

    def test_jsonl_alternative(self, tmp_path):
        out = tmp_path / "spec.jsonl"
        code = run_cli(
            "spectrum", "--k1", "1", "--k2", "0", "--nu", "0.05", "--trunc", "16",
            "--format", "jsonl", "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        recs = [json.loads(line) for line in payload]
        assert all(r["class"] == [1, 0] for r in recs)
        # descending real parts, rightmost first
        res = [r["re"] for r in recs]
        assert res == sorted(res, reverse=True)
        assert res[0] > 0.04  # the unstable mode


class TestNuStarCommand:
    def test_result_sits_in_its_bracket(self, tmp_path):
        out = tmp_path / "nustar.jsonl"
        assert run_cli("nustar", "--trunc", "40", "--out", str(out)) == 0
        header, payload = read_out(out)
        rec = json.loads(payload[0])
        assert rec["bracket_lo"] <= rec["nu_star"] <= rec["bracket_hi"]
        assert 0.16 < rec["nu_star"] < 0.17
        assert rec["trunc"] == 80  # doubled for the refinement check
        assert header["summary"]["nu_star"] == rec["nu_star"]

    def test_at_most_two_eigensolves(self, tmp_path, eig_counter):
        assert run_cli("nustar", "--trunc", "20", "--out", str(tmp_path / "ns.jsonl")) == 0
        assert 0 < len(eig_counter) <= 2


@pytest.fixture
def eig_counter(monkeypatch):
    """The truncations of every class spectrum the test computes."""
    calls = []
    solve = nel.spectra.compute_spectrum

    def counted(cls, alpha, gamma, nu, trunc):
        calls.append(trunc)
        return solve(cls, alpha, gamma, nu, trunc)

    monkeypatch.setattr(nel.spectra, "compute_spectrum", counted)
    monkeypatch.setattr(nel.cli, "compute_spectrum", counted)  # spectrum's own solve
    return calls


class TestSpectrumRefine:
    def summary(self, tmp_path, *argv):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", *argv, "--out", str(out)) == 0
        return read_out(out)[0]["summary"]

    def test_newton_replaces_the_dense_2n_solve(self, tmp_path, eig_counter):
        s = self.summary(tmp_path, "--k1", "1", "--k2", "0", "--nu", "0.05", "--trunc", "400")
        assert eig_counter == [400]
        assert s["rightmost_refine_delta"] < 1e-12

    def test_under_resolved_start_falls_back_to_the_dense_solve(self, tmp_path, eig_counter):
        # lambda(4) is 0.065 from lambda(8): Newton's root there is not trusted
        s = self.summary(tmp_path, "--k1", "2", "--k2", "0", "--nu", "0.001", "--trunc", "4")
        assert eig_counter == [4, 8]
        assert s["rightmost_refine_delta"] == pytest.approx(0.0654187, rel=1e-5)

    def test_diagonal_class_zero_pivot_is_finite(self, tmp_path, eig_counter):
        # k1 = 0: lambda(N) is an exact diagonal entry, an exact zero pivot
        s = self.summary(tmp_path, "--k1", "0", "--k2", "1", "--nu", "0.1", "--trunc", "8")
        assert eig_counter == [8]
        assert s["rightmost_refine_delta"] == 0.0


class TestZvtrackCommand:
    def test_diffusion_class_is_singular(self, tmp_path):
        out = tmp_path / "track.jsonl"
        code = run_cli(
            "zvtrack", "--k1", "0", "--k2", "1", "--trunc", "16",
            "--n-nus", "5", "--nu-max", "0.1", "--nu-min", "0.001",
            "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert header["summary"]["class_label"] == "Singularity"
        recs = [json.loads(line) for line in payload]
        assert len(recs) == 2 * 16  # one trajectory per mode on the class line
        for rec in recs:
            assert set(rec) == {"class", "nus", "re", "im", "label", "limit_re", "limit_im"}
            assert len(rec["nus"]) == len(rec["re"]) == len(rec["im"]) == 5
            assert abs(rec["limit_re"]) < 1e-12

    def test_shear_class_persists(self, tmp_path):
        out = tmp_path / "track.jsonl"
        code = run_cli(
            "zvtrack", "--trunc", "24", "--n-nus", "6", "--nu-max", "0.1",
            "--nu-min", "0.01", "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        s = header["summary"]
        assert s["class_label"] == "Persistence"
        assert s["lambda0"] == pytest.approx(0.128, abs=5e-3)
        labels = {json.loads(line)["label"] for line in payload}
        assert "Persistence" in labels

    @pytest.mark.parametrize(
        "argv", [["zvtrack", "--trunc", "16", "--n-nus", "6"], ["spectrum", "--nu", "0.05", "--trunc", "40"]]
    )
    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (1, -3), (0, 2), (0, -3), (0, 10)])
    def test_k2_names_the_operator_of_k1_0(self, argv, k1, k2, tmp_path):
        # every k2 is the operator of (k1, 0), or of (0, 1) for k1 = 0; the payload echoes the class as given
        base = 0 if k1 else 1
        records, summaries = {}, {}
        for k in (k2, base):
            out = tmp_path / f"{k}.jsonl"
            assert run_cli(*argv, "--k1", str(k1), "--k2", str(k), "--format", "jsonl", "--out", str(out)) == 0
            header, payload = read_out(out)
            records[k], summaries[k] = [json.loads(line) for line in payload], header["summary"]
        assert {tuple(r.pop("class")) for r in records[k2]} == {(k1, k2)}
        assert {tuple(r.pop("class")) for r in records[base]} == {(k1, base)}
        assert records[k2] == records[base] and len(records[base]) > 1
        assert summaries[k2] == summaries[base]

    def test_portrait_script_writes_the_same_records(self, tmp_path):
        out = tmp_path / "track.jsonl"
        args = ["--trunc", "12", "--n-nus", "5"]
        assert run_cli("zvtrack", "--k1", "2", "--k2", "1", *args, "--out", str(out)) == 0
        script = runpy.run_path(str(ROOT / "scripts" / "zero_viscosity_portrait.py"))
        assert script["main"](["--classes", "2,1", *args, "--outdir", str(tmp_path / "portrait")]) == 0
        portrait = (tmp_path / "portrait" / "class_2_1.jsonl").read_text().splitlines()
        assert portrait == read_out(out)[1]

    @pytest.mark.parametrize("k1,k2,alpha", [(1, 0, "0.3"), (2, 1, "0.7"), (0, 1, "0.7")])
    def test_portrait_summary_has_the_zvtrack_header_deltas(self, k1, k2, alpha, tmp_path):
        # at trunc 12, (1,0) has an isolated inviscid eigenvalue at alpha 0.3 only
        args = ["--alpha", alpha, "--trunc", "12", "--n-nus", "5"]
        out = tmp_path / "track.jsonl"
        assert run_cli("zvtrack", "--k1", str(k1), "--k2", str(k2), *args, "--out", str(out)) == 0
        summary = read_out(out)[0]["summary"]
        script = runpy.run_path(str(ROOT / "scripts" / "zero_viscosity_portrait.py"))
        outdir = tmp_path / "portrait"
        assert script["main"](["--classes", f"{k1},{k2}", *args, "--outdir", str(outdir)]) == 0
        header, row = (outdir / "summary.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["label"] == summary["class_label"]
        for key in ("lambda0", "cluster_extent", "cluster_extent_refined", "lambda0_refine_delta"):
            assert cells[key] == ("" if summary[key] is None else repr(summary[key])), key
        assert (summary["lambda0_refine_delta"] is None) == ((k1, alpha) != (1, "0.3"))
        assert sorted(p.name for p in outdir.iterdir()) == [f"class_{k1}_{k2}.jsonl", "summary.csv"]  # no .partial

    def test_portrait_script_rejects_a_schedule_that_is_not_decreasing_and_positive(self, tmp_path):
        script = runpy.run_path(str(ROOT / "scripts" / "zero_viscosity_portrait.py"))
        with pytest.raises(ValidationError, match="need 0 < nu_min < nu_max"):
            script["main"](["--classes", "1,0", "--trunc", "8", "--nu-min=-1e-3", "--outdir", str(tmp_path / "p")])
        assert not list(tmp_path.iterdir())

    def test_portrait_summary_leaves_missing_lambda0_empty(self, tmp_path):
        # class (0,1) has no isolated inviscid eigenvalue: zvtrack writes null
        script = runpy.run_path(str(ROOT / "scripts" / "zero_viscosity_portrait.py"))
        argv = ["--classes", "0,1", "--trunc", "8", "--n-nus", "4", "--outdir", str(tmp_path)]
        assert script["main"](argv) == 0
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["lambda0"] == ""
        assert float(cells["cluster_extent"]) >= 0.0


class TestLaxcheckCommand:
    def test_payloads_are_deterministic(self, tmp_path):
        args = ("laxcheck", "--grid", "16", "--t-end", "0.05", "--dt", "0.005", "--seed", "7")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
        _, payload = read_out(a)
        rec = json.loads(payload[0])
        assert rec["check"] == "transport-compatibility-2d"
        assert rec["residual_inf"] < 1e-2

    def test_seed_changes_the_draw(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("laxcheck", "--grid", "16", "--t-end", "0.05", "--seed", "1", "--out", str(a))
        run_cli("laxcheck", "--grid", "16", "--t-end", "0.05", "--seed", "2", "--out", str(b))
        assert a.read_text().splitlines()[1:] != b.read_text().splitlines()[1:]


class TestDarbouxCommand:
    def test_builtin_example(self, tmp_path):
        out = tmp_path / "darboux.jsonl"
        assert run_cli("darboux", "--out", str(out)) == 0
        header, payload = read_out(out)
        rec = json.loads(payload[0])
        assert rec["check"] == "gauge-transform"
        assert rec["residual_inf"] < 1e-8
        assert rec["masked_fraction"] == pytest.approx(2 / 128)

    def test_partial_field_set_rejected(self, tmp_path, capsys):
        assert run_cli("darboux", "--omega", "omega.json") == 2
        assert "all four" in capsys.readouterr().err

    def test_wrong_kind_names_its_file(self, tmp_path, capsys):
        from nel.fields import SpectralField, save_field
        from nel.grids import TorusGrid
        from nel.lax import darboux_shear_example

        inp = darboux_shear_example(16, 8)
        argv = []
        for flag, fld in (("--omega", inp.omega), ("--p", inp.p), ("--f", inp.f)):
            save_field(tmp_path / flag[2:], fld)
            argv += [flag, str(tmp_path / flag[2:])]
        grid = TorusGrid((4, 4, 4))
        save_field(tmp_path / "bigf", SpectralField(grid, np.zeros(grid.spectral_shape, complex)))
        assert run_cli("darboux", *argv, "--bigf", str(tmp_path / "bigf")) == 2
        err = capsys.readouterr().err
        assert f"field snapshot {tmp_path / 'bigf'}: " in err and "2D scalar" in err
        assert str(tmp_path / "omega") not in err

    def test_x_independent_omega_exits_2(self, tmp_path, capsys):
        """Omega = cos y passes every precondition but has no gauge factor."""
        from nel.fields import SpectralField, save_field
        from nel.grids import TorusGrid

        grid = TorusGrid((32, 16))
        y = np.zeros((32, 1)) + np.arange(16) * (2 * np.pi / 16)
        argv = []
        for flag, values in (("--omega", np.cos(y)), ("--p", np.sin(y)), ("--f", 2.0 + 0 * y), ("--bigf", 0 * y)):
            save_field(tmp_path / flag[2:], SpectralField.from_physical(grid, values))
            argv += [flag, str(tmp_path / flag[2:])]
        out = tmp_path / "darboux.jsonl"
        assert run_cli("darboux", *argv, "--out", str(out)) == 2
        assert "Omega_x" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "darboux.jsonl.partial").exists()

    @pytest.mark.parametrize(
        "snapshot, message",
        [
            ("{not json", "malformed field snapshot"),
            ('{"version": 1, "kind": "field2d"}', "no key 'grid'"),
            (
                '{"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 8, "ny": 8},'
                ' "re": [1.0, 2.0], "im": [0.0, 0.0]}',
                "cannot reshape",
            ),
            (
                '{"version": 1, "kind": "field3d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4, "nz": 4},'
                f' "components": 1, "re": {[0.0] * 64}, "im": {[0.0] * 64}}}',
                "2D scalar",
            ),
            (
                '{"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4},'
                f' "components": 2, "re": {[0.0] * 32}, "im": {[0.0] * 32}}}',
                "2D scalar",
            ),
            (
                '{"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4},'
                f' "components": 3, "re": {[0.0] * 48}, "im": {[0.0] * 48}}}',
                "3 components, not 1 or 2",
            ),
            (
                '{"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4},'
                f' "re": [NaN, {", ".join(["0.0"] * 15)}], "im": {[0.0] * 16}}}',
                "non-finite",
            ),
            (  # e^{i(x + y)} alone: a complex field, which is two real snapshots
                '{"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4},'
                f' "re": {[0.0] * 5 + [1.0] + [0.0] * 10}, "im": {[0.0] * 16}}}',
                "not a real field",
            ),
        ],
        ids=[
            "not-json", "no-grid", "too-few-coefficients", "3d-field", "2d-vector", "2d-three-components",
            "nan-coefficient", "not-real",
        ],
    )
    def test_malformed_snapshot_exits_2(self, tmp_path, capsys, snapshot, message):
        bad = tmp_path / "bad.json"
        bad.write_text(snapshot)
        out = tmp_path / "darboux.jsonl"
        argv = ["--omega", bad, "--p", bad, "--f", bad, "--bigf", bad, "--out", out]
        assert run_cli("darboux", *map(str, argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("nel: error:") and message in err
        assert err.count(str(bad)) == 1  # a snapshot error names the file once, never wrapped twice
        assert not out.exists()


class TestSimulateCommand:
    def test_limit_cycle_summary(self, tmp_path):
        out = tmp_path / "cycle.jsonl"
        code = run_cli(
            "simulate", "--model", "dernls", "--eps", "0.05", "--t-end", "2",
            "--sample-every", "100", "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert header["summary"]["max_limit_cycle_err"] < 1e-6
        recs = [json.loads(line) for line in payload]
        assert recs[0]["t"] == 0.0
        assert recs[-1]["t"] == pytest.approx(2.0)
        assert len(recs[0]["coeffs_re"]) == 65

    def test_angle_model_records(self, tmp_path):
        out = tmp_path / "abc.jsonl"
        code = run_cli(
            "simulate", "--model", "abc", "--t-end", "1", "--dt", "0.01",
            "--sample-every", "50", "--out", str(out),
        )
        assert code == 0
        _, payload = read_out(out)
        recs = [json.loads(line) for line in payload]
        assert [r["t"] for r in recs] == [0.0, 0.5, 1.0]
        assert recs[0]["coeffs_re"] == [4.0, 1.0, 5.5]
        assert all(r["coeffs_im"] == [] for r in recs)

    def test_wave_kick_excites_named_mode(self, tmp_path):
        out = tmp_path / "sg.jsonl"
        code = run_cli(
            "simulate", "--model", "sg", "--n-modes", "8", "--kick", "2:0.1",
            "--t-end", "0.2", "--sample-every", "20", "--out", str(out),
        )
        assert code == 0
        _, payload = read_out(out)
        first = json.loads(payload[0])
        assert first["coeffs_re"][2] == pytest.approx(0.1)
        assert sum(c != 0.0 for c in first["coeffs_re"]) == 1


class TestPoincareCommand:
    def test_csv_column_count_tracks_state_size(self, tmp_path):
        out = tmp_path / "section.csv"
        code = run_cli(
            "poincare", "--model", "dernls", "--eps", "0.02", "--gamma", "0.4",
            "--n-modes", "4", "--iterates", "2", "--out", str(out),
        )
        assert code == 0
        _, payload = read_out(out)
        assert payload[0] == "iterate,t," + ",".join(f"s{j}" for j in range(10))
        rows = [line.split(",") for line in payload[1:]]
        assert len(rows) == 2
        assert all(len(r) == 12 for r in rows)
        # section map of the attracting cycle: consecutive hits nearly coincide
        assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), abs=1e-6)

    def test_quasiperiodic_strobe_needs_period(self, capsys):
        code = run_cli(
            "poincare", "--model", "sg", "--n-modes", "4",
            "--forcing-mode", "quasiperiodic", "--iterates", "1",
        )
        assert code == 2
        assert "period" in capsys.readouterr().err


class TestLyapunovCommand:
    def test_frozen_flow_is_exactly_zero(self, tmp_path):
        out = tmp_path / "lyap.csv"
        code = run_cli(
            "lyapunov", "--model", "abc", "--abc", "0,0,0", "--t-end", "5",
            "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert payload[0] == "t,lambda_running"
        assert header["summary"]["lambda"] == 0.0
        assert header["summary"]["escaped"] is False

    def test_damped_envelope_contracts(self, tmp_path):
        out = tmp_path / "lyap.jsonl"
        code = run_cli(
            "lyapunov", "--model", "pnls", "--omega", "0.55", "--eps", "0.5",
            "--alpha", "2", "--beta", "1.1", "--q0", "0.549", "--n-modes", "8",
            "--t-end", "10", "--format", "jsonl", "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert header["params"]["q0"] == "0.549"  # echoed as given
        assert header["summary"]["lambda"] < -0.5
        rec = json.loads(payload[-1])
        assert rec["t"] == pytest.approx(10.0)

    def test_odd_parity_wave(self, tmp_path):
        # the shadow direction skips slot 0 of u and v, which odd parity forbids
        out = tmp_path / "lyap.csv"
        code = run_cli(
            "lyapunov", "--model", "sg", "--parity", "odd", "--kick", "1:0.1",
            "--n-modes", "16", "--t-end", "2", "--out", str(out),
        )
        assert code == 0
        header, payload = read_out(out)
        assert np.isfinite(header["summary"]["lambda"])
        assert len(payload) == 1 + 4


def test_sg_lyapunov_scan_script(tmp_path, capsys):
    # the one script no command mirrors: it breaks if the model or diagnostics API moves
    script = runpy.run_path(str(ROOT / "scripts" / "sg_lyapunov_scan.py"))
    out = tmp_path / "scan.csv"
    argv = ["--n-eps", "2", "--n-a", "2", "--n-modes", "8", "--t-end", "2"]
    assert script["main"]([*argv, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "eps,a,lambda,escaped"
    assert len(rows) == 4
    for row in rows:
        eps, a, lam, escaped = row.split(",")
        assert all(math.isfinite(float(v)) for v in (eps, a, lam)) and escaped in ("True", "False")
    assert capsys.readouterr().out == ""
    # without --out the rows go to stdout and the progress lines to stderr
    assert script["main"](argv) == 0
    std = capsys.readouterr()
    assert std.out == out.read_text()
    assert len(std.err.splitlines()) == 4 and all(" -> lambda=" in line for line in std.err.splitlines())


class TestParamsEcho:
    """The resolved parameters a run echoes, exactly: tuples as lists, and a
    model command's None values and keys of other models left out."""

    def test_wave_model_header(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        code = run_cli(
            "simulate", "--model", "sg", "--n-modes", "8", "--kick", "1:0.1,3:-0.05",
            "--forcing-mode", "quasiperiodic", "--forcing-betas", "0.3,0.2,0.1,0.1",
            "--t-end", "0.02", "--sample-every", "1", "--out", str(out),
        )
        assert code == 0
        header, _ = read_out(out)
        assert header["params"] == {
            "a": 1.0, "c": 0.9, "dt": 0.01, "eps": 0.0, "kick": [[1, 0.1], [3, -0.05]],
            "forcing_abc": [1.0, 1.0, 1.0], "forcing_abc_state": [0.0, 0.0, 0.0],
            "forcing_alpha0": 0.0, "forcing_betas": [0.3, 0.2, 0.1, 0.1],
            "forcing_mode": "quasiperiodic", "forcing_mu": 2.0,
            "forcing_omegas": [1.0, 1.4142135623730951, 1.7320508075688772, 2.23606797749979],
            "forcing_phases": [0.0, 0.0, 0.0, 0.0], "model": "sg", "n_modes": 8,
            "parity": "even", "sample_every": 1, "t_end": 0.02, "u0": 0.0, "v0": 0.0,
        }

    def test_cos_t_wave_model_header_leaves_out_the_quasiperiodic_keys(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        assert run_cli("simulate", "--model", "sg", "--n-modes", "8", "--t-end", "0.02", "--out", str(out)) == 0
        header, _ = read_out(out)
        assert header["params"] == {
            "a": 1.0, "c": 0.9, "dt": 0.01, "eps": 0.0, "forcing_mode": "cos_t", "kick": [], "model": "sg",
            "n_modes": 8, "parity": "even", "sample_every": 10, "t_end": 0.02, "u0": 0.0, "v0": 0.0,
        }

    def test_angle_model_header(self, tmp_path):
        out = tmp_path / "lyap.csv"
        assert run_cli("lyapunov", "--model", "abc", "--theta0", "0.5,2,3", "--t-end", "2", "--out", str(out)) == 0
        header, _ = read_out(out)
        assert header["params"] == {
            "abc": [1.0, 1.0, 1.0], "d0": 1e-08, "dt": 0.01, "model": "abc",
            "renorm_dt": 0.5, "t_end": 2.0, "theta0": [0.5, 2.0, 3.0],
        }

    def test_laxcheck_payload(self, tmp_path):
        out = tmp_path / "lax.jsonl"
        assert run_cli("laxcheck", "--grid", "16", "--t-end", "0.01", "--dt", "0.01", "--out", str(out)) == 0
        _, payload = read_out(out)
        assert json.loads(payload[0])["params"] == {
            "alpha": 1.0, "amp_omega": 0.1, "amp_phi": 5.0, "amp_u": 0.2, "control": False,
            "dim": "2", "dt": 0.01, "grid": 16, "kmax": 4, "mode": "curl", "t_end": 0.01,
        }

    @pytest.mark.parametrize(
        "argv, dropped",
        [
            (("--dim", "2"), {"mode", "amp_u"}),
            (("--dim", "3", "--mode", "curl"), {"alpha", "amp_u"}),
            (("--dim", "3", "--mode", "free"), {"alpha"}),
        ],
    )
    def test_laxcheck_header_leaves_out_the_keys_that_do_not_apply(self, argv, dropped, tmp_path):
        out = tmp_path / "lax.jsonl"
        assert run_cli("laxcheck", *argv, "--grid", "8", "--t-end", "0.01", "--dt", "0.01", "--out", str(out)) == 0
        header, payload = read_out(out)
        every = {
            "alpha": 1.0, "amp_omega": 0.1, "amp_phi": 5.0, "amp_u": 0.2, "control": False,
            "dim": argv[1], "dt": 0.01, "grid": 8, "kmax": 4, "mode": argv[3] if len(argv) > 2 else "curl",
            "t_end": 0.01,
        }
        assert header["params"] == {k: v for k, v in every.items() if k not in dropped}
        assert json.loads(payload[0])["params"] == every  # the payload still echoes every key

    def test_darboux_example_header_leaves_out_the_unset_snapshot_paths(self, tmp_path):
        out = tmp_path / "dx.jsonl"
        assert run_cli("darboux", "--nx", "32", "--out", str(out)) == 0
        assert read_out(out)[0]["params"] == {"eta": 0.001, "nx": 32, "ny": 8}

    def test_darboux_snapshot_header(self, tmp_path, capsys):
        d = darboux_shear_example(32, 8, 1e-3)
        paths = {}
        for key, fld in zip(("omega", "p", "f", "bigf"), (d.omega, d.p, d.f, d.F)):
            paths[key] = str(tmp_path / f"{key}.json")
            save_field(paths[key], fld)
        argv = [f"--{key}={path}" for key, path in paths.items()]
        out = tmp_path / "dx.jsonl"
        # the grid is the snapshots', so nx and ny do not apply
        assert run_cli("darboux", *argv, "--nx", "7", "--out", str(out)) == 2
        assert capsys.readouterr().err == "nel: error: parameters ['nx'] do not apply to darboux from field snapshots\n"
        assert not out.exists() and not (tmp_path / "dx.jsonl.partial").exists()
        assert run_cli("darboux", *argv, "--out", str(out)) == 0
        assert read_out(out)[0]["params"] == {**paths, "eta": 0.001}


class TestApplicability:
    """Which keys apply to a run is stated once per command, by its foreign rule."""

    VARIANTS = [
        *((name, {}) for name in ("spectrum", "nustar", "zvtrack", "darboux")),
        *(("laxcheck", v) for v in ({"dim": "2"}, {"dim": "3", "mode": "curl"}, {"dim": "3", "mode": "free"})),
        *((name, {"model": m}) for name in ("simulate", "poincare", "lyapunov") for m in MODEL_SCHEMAS),
        ("darboux", {"omega": "omega.json", "p": "p.json", "f": "f.json", "bigf": "bigf.json"}),
        *((name, {"model": "sg", "forcing_mode": "quasiperiodic"}) for name in ("simulate", "poincare", "lyapunov")),
    ]

    QUASI = {
        "forcing_alpha0", "forcing_betas", "forcing_omegas", "forcing_phases",
        "forcing_mu", "forcing_eps", "forcing_abc", "forcing_abc_state",
    }

    @pytest.mark.parametrize("name, variant", VARIANTS)
    def test_foreign_keys_lie_in_the_schema(self, name, variant):
        cmd = COMMANDS[name]
        _, foreign = cmd.foreign({**cmd.defaults, **variant})
        assert foreign <= cmd.schema.keys()
        if "model" in variant:
            # the other models' keys that this model does not share, and the
            # quasiperiodic drive's keys when the wave model runs the cos_t drive
            others = set().union(*MODEL_SCHEMAS.values()) - MODEL_SCHEMAS[variant["model"]].keys()
            cos_t = variant["model"] == "sg" and variant.get("forcing_mode", "cos_t") == "cos_t"
            assert foreign == others | (self.QUASI if cos_t else set())

    def test_every_command_and_variant_is_covered(self):
        assert {name for name, _ in self.VARIANTS} == COMMANDS.keys()

    def test_a_key_shared_by_models_has_one_caster(self):
        # a command's schema holds the union of the model tables, where a later table would win
        schema = COMMANDS["simulate"].schema
        shared = {k for k in schema if sum(k in s for s in MODEL_SCHEMAS.values()) > 1}
        assert shared == {"eps", "gamma", "n_modes", "q0"}
        for key in shared:
            assert {s[key] for s in MODEL_SCHEMAS.values() if key in s} == {schema[key]}, key


class TestBuildId:
    OID = "# branch.oid 0123456789abcdef0123456789abcdef01234567\n# branch.head main\n"

    def test_clean_tree(self):
        assert build_from_status(self.OID + "# branch.ab +0 -0\n") == "0123456"

    def test_modified_tree_is_dirty(self):
        entry = "1 .M N... 100644 100644 100644 0123 0123 src/nel/cli.py\n"
        assert build_from_status(self.OID + entry) == "0123456-dirty"

    def test_no_commit_or_no_output(self):
        assert build_from_status("# branch.oid (initial)\n# branch.head main\n") is None
        assert build_from_status("") is None


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(nel.__path__)))
def test_module_all_resolves(module):
    mod = importlib.import_module(f"nel.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestInterpreterEntry:
    def test_version_banner(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nel.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "output schema 1" in proc.stdout
        assert "config schema 1" in proc.stdout

    def test_no_command_prints_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nel.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported by the first spectrum match (zvtrack), not at start-up
        code = "import sys, nel.cli; sys.exit(3 if 'scipy' in sys.modules else 0)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv", [["nustar", "--trunc", "20"], ["spectrum", "--k1", "1", "--k2", "0", "--nu", "0.05"]]
    )
    def test_spectra_commands_leave_scipy_unloaded(self, argv, tmp_path):
        # only zvtrack's assignment needs scipy; nu* and the refine stay numpy-only
        argv = [*argv, "--out", str(tmp_path / "out")]
        code = f"import sys, nel.cli; assert nel.cli.main({argv!r}) == 0; sys.exit(3 if 'scipy' in sys.modules else 0)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_zvtrack_loads_only_scipys_assignment_module(self, tmp_path):
        # the matching loads scipy's compiled solver alone, never the scipy.optimize
        # package; with that package imported first, the job writes the same payload
        payloads = []
        for first, check in [
            ("", "'scipy.optimize' not in sys.modules and 'scipy.optimize._lsap' in sys.modules"),
            ("import scipy.optimize; ", "nel.spectra._assignment_solver() is scipy.optimize.linear_sum_assignment"),
        ]:
            out = tmp_path / f"zv{len(payloads)}.jsonl"
            argv = ["zvtrack", "--trunc", "20", "--out", str(out)]
            code = f"import sys, nel.cli; {first}assert nel.cli.main({argv!r}) == 0; sys.exit(0 if {check} else 3)"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            header, lines = read_out(out)
            payloads.append((header["summary"], lines))
        assert payloads[0] == payloads[1]


class TestOutputFailures:
    def test_non_finite_json_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def nan_nustar(*args):
            return NuStarResult(float("nan"), (0.1, 0.2), 1, 0.0, 8)

        monkeypatch.setattr(nel.cli, "critical_viscosity", nan_nustar)
        assert run_cli("nustar", "--out", str(tmp_path / "ns.jsonl")) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_leaves_no_partial(self, tmp_path, monkeypatch, step):
        def fail(*args):
            raise OSError(f"{step} failed")

        monkeypatch.setattr(nel.runio.os, step, fail)
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--k1", "0", "--k2", "1", "--nu", "0.1", "--trunc", "4", "--out", str(out)) == 4
        assert not list(tmp_path.iterdir())

    def test_a_broken_pipe_while_writing_out_is_an_io_failure(self, tmp_path, monkeypatch, capsys):
        # only a closed stdout is a quiet stop
        def fail(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(nel.runio.os, "fsync", fail)
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--k1", "0", "--k2", "1", "--nu", "0.1", "--trunc", "4", "--out", str(out)) == 4
        assert capsys.readouterr().err == "nel: i/o failure: [Errno 32] Broken pipe\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "script, argv",
        [
            ("zero_viscosity_portrait.py", ["--classes", "0,1", "--trunc", "8", "--n-nus", "4", "--outdir", "."]),
            ("sg_lyapunov_scan.py", ["--n-eps", "1", "--n-a", "1", "--n-modes", "8", "--t-end", "2", "--out", "x.csv"]),
        ],
    )
    def test_a_script_whose_rename_fails_leaves_no_file(self, script, argv, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("replace failed")

        main = runpy.run_path(str(ROOT / "scripts" / script))["main"]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(nel.runio.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            main(argv)
        assert not list(tmp_path.iterdir())  # neither the file nor its .partial


SIMULATE_EVERY_STEP = ["simulate", "--model", "dernls", "--eps", "0.05", "--sample-every", "1"]

# a fresh interpreter: peaks of tracemalloc over a short and a ten times longer run
SPOOL_PEAKS = """
import pathlib, sys, tracemalloc
import nel.cli
argv = [*sys.argv[2:], "--out", sys.argv[1]]
assert nel.cli.main([*argv, "--t-end", "0.1"]) == 0  # first-call work, untraced
tracemalloc.start()
for t_end in ("4", "40"):
    tracemalloc.reset_peak()
    assert nel.cli.main([*argv, "--t-end", t_end]) == 0
    print(tracemalloc.get_traced_memory()[1], pathlib.Path(sys.argv[1]).read_text().count("\\n"))
"""


# a fresh interpreter that prints "ready", runs nel.cli.main(argv) and prints
# the pid of each child that the run forks
FORKS_NOTED = """
import os, sys
import nel.cli
fork = os.fork
def noted_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = noted_fork
print("ready", flush=True)
sys.exit(nel.cli.main(sys.argv[1:]))
"""


class TestPayloadSpool:
    """Payload lines are spooled to an anonymous file beside the output as a
    run makes them, and copied out after the header."""

    def test_failure_after_records_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        record, calls, spools = nel.cli._record, [], []

        def third_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ComputationalError("planted on the third record")
            return record(*args)

        def spy(**kwargs):
            spools.append((kwargs["dir"], temporary_file(**kwargs)))
            return spools[-1][1]

        temporary_file = nel.runio.tempfile.TemporaryFile
        monkeypatch.setattr(nel.cli, "_record", third_fails)
        monkeypatch.setattr(nel.runio, "tempfile", types.SimpleNamespace(TemporaryFile=spy))
        assert run_cli(*SIMULATE_EVERY_STEP, "--t-end", "0.1", "--out", str(tmp_path / "sim.jsonl")) == 3
        assert "planted on the third record" in capsys.readouterr().err
        assert [where for where, _ in spools] == [str(tmp_path)]  # two records went to a spool beside the output
        assert all(spool.closed for _, spool in spools)  # closed by the run, not left to the collector
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            [*SIMULATE_EVERY_STEP, "--t-end", "0.5"],
            ["poincare", "--model", "sg", "--u0", "3.0", "--iterates", "3"],
            ["lyapunov", "--model", "abc", "--t-end", "20"],
        ],
    )
    def test_stdout_carries_the_out_file_bytes(self, argv, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.setattr(nel.cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))  # duration_s 0
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert run_cli(*argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert len(out.read_bytes().splitlines()) > 3

    def test_stdout_closed_mid_payload_is_a_quiet_stop(self):
        # the reader takes the header and goes, as `| head -1` does; 300 KB of
        # records are left, more than a pipe holds, so the copy meets the closed pipe
        argv = ["-m", "nel.cli", *SIMULATE_EVERY_STEP, "--t-end", "5"]
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert json.loads(proc.stdout.readline())["command"] == "simulate"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141  # 128 + SIGPIPE
        assert proc.stderr.read().decode() == ""  # no message, and no ignored exception at the final flush
        proc.stderr.close()

    def test_interrupt_exits_130_and_leaves_nothing(self, tmp_path):
        # Ctrl-C in the middle of a run that would take hours; the run prints
        # the pid of each child it forks (the reference orbit's, on 2+ CPUs)
        argv = ["lyapunov", "--model", "abc", "--t-end", "1e6", "--out", str(tmp_path / "x.csv")]
        proc = subprocess.Popen([sys.executable, "-c", FORKS_NOTED, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"ready\n"
            time.sleep(0.5)  # into the two-orbit loop
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130  # 128 + SIGINT
        assert err.decode() == "nel: interrupted\n"
        assert not list(tmp_path.iterdir())  # no output, no .partial, no spool
        children = [int(pid) for pid in out.split()]
        assert len(children) == (usable_cpus() > 1)
        for pid in children:  # killed and reaped before the run exited
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_peak_memory_does_not_grow_with_the_record_count(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", SPOOL_PEAKS, str(out), *SIMULATE_EVERY_STEP],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (short_peak, short_lines), (long_peak, long_lines) = (map(int, row.split()) for row in proc.stdout.splitlines())
        assert (short_lines, long_lines) == (402, 4002)  # header + one record per step, and t = 0
        assert out.stat().st_size > 2_000_000
        assert long_peak - short_peak < 500_000, (short_peak, long_peak)
