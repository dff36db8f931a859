"""End-to-end checks of the command line driver and its file contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

import nel.cli
import nel.runio
from nel.cli import SPECTRUM_CSV_HEADER, main
from nel.errors import ValidationError
from nel.runio import parse_config_text, serialize_config, worker_count
from nel.spectra import NuStarResult


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
    def test_roundtrip_is_byte_identical(self, tmp_path):
        text = "# comment\nnu = 0.05\nk1 = 1   # trailing\n\nk2 = 0\n"
        first = parse_config_text(text)
        canon = serialize_config(first)
        assert parse_config_text(canon) == first
        assert serialize_config(parse_config_text(canon)) == canon
        assert canon == "k1 = 1\nk2 = 0\nnu = 0.05\n"  # alphabetical

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

    def test_jsonl_only_command_rejects_csv(self, capsys):
        assert run_cli("nustar", "--format", "csv") == 2

    def test_inapplicable_model_key_exits_2(self, capsys):
        assert run_cli("simulate", "--model", "abc", "--kick", "1:0.5") == 2
        assert "kick" in capsys.readouterr().err

    def test_blowup_exits_3_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "blow.jsonl"
        code = run_cli(
            "simulate", "--model", "dernls", "--q0", "5+0j", "--eps", "0",
            "--kcut", "4", "--n-modes", "8", "--dt", "1", "--t-end", "30",
            "--out", str(out),
        )
        assert code == 3
        assert not list(tmp_path.iterdir())

    def test_bad_threads_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("NEL_THREADS", "many")
        assert run_cli("zvtrack", "--trunc", "8", "--n-nus", "3") == 2

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("NEL_THREADS", "3")
        assert worker_count(10) == 3
        assert worker_count(2) == 2
        monkeypatch.setenv("NEL_THREADS", "0")
        with pytest.raises(ValidationError):
            worker_count(10)


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
        ],
        ids=["not-json", "no-grid", "too-few-coefficients", "3d-field", "2d-vector"],
    )
    def test_malformed_snapshot_exits_2(self, tmp_path, capsys, snapshot, message):
        bad = tmp_path / "bad.json"
        bad.write_text(snapshot)
        out = tmp_path / "darboux.jsonl"
        argv = ["--omega", bad, "--p", bad, "--f", bad, "--bigf", bad, "--out", out]
        assert run_cli("darboux", *map(str, argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("nel: error:") and message in err
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
        assert header["summary"]["lambda"] < -0.5
        rec = json.loads(payload[-1])
        assert rec["t"] == pytest.approx(10.0)


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
