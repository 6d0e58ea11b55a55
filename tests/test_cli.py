"""Command-line surface: runs, reports, reductions, comparisons."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import golden_runs
from holodisc import ConfigError, ConvTerm, cli, reduce_by_parts
from holodisc.cli import _macro_assemble, _mode_pattern, main
from holodisc.macromodel import alternating_signs


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def invoke_entry(*args):
    """Run the installed entry point so package errors map to exit code 2."""
    return subprocess.run(
        [sys.executable, "-m", "holodisc.cli", *args],
        capture_output=True, text=True,
    )


class TestTopLevel:
    def test_version(self):
        result = invoke("--version")
        assert result.exit_code == 0

    def test_help_lists_commands(self):
        result = invoke("--help")
        assert result.exit_code == 0
        for cmd in ("micro", "macro", "weak", "reduce", "compare"):
            assert cmd in result.output


class TestSharedOptions:
    @pytest.mark.parametrize("command", ["micro", "macro", "weak"])
    def test_runs_list_the_recorded_options_defaults_and_types(self, command):
        """Recorded before the shared options were declared once."""
        with open(golden_runs.CLI_OPTIONS_DATA) as fh:
            recorded = json.load(fh)[command]
        got = [{"opts": p.opts, "default": p.default, "type": p.type.name,
                "choices": list(getattr(p.type, "choices", None) or []) or None,
                "is_flag": bool(getattr(p, "is_flag", False))}
               for p in main.commands[command].params]
        assert got == recorded
        help_text = invoke(command, "--help").output
        for option in recorded:
            assert option["opts"][0] in help_text


class TestMicro:
    def test_writes_a_run_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        result = invoke(
            "micro", "--n", "16", "--dx", str(np.pi / 8.0),
            "--tend", "0.05", "--dt", "0.01", "--record-every", "1",
            "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines[0].split(",")) == 1 + 16
        assert len(lines) == 1 + 6

    def test_seeded_runs_are_bit_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            result = invoke(
                "micro", "--n", "16", "--dx", str(np.pi / 8.0),
                "--profile", "cos2x", "--forcing", '{"kind": "lorenz"}',
                "--seed", "3",
                "--tend", "0.05", "--dt", "0.01", "--out", str(out),
            )
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_skew_lorenz_run_prints_its_summary(self):
        """A skew-form run under a Lorenz signal, its summary line pinned."""
        result = invoke(
            "micro", "--n", "16", "--form", "skew", "--profile", "cos2x",
            "--dt", "0.01", "--tend", "0.5", "--forcing", '{"kind": "lorenz"}',
        )
        assert result.exit_code == 0, result.output
        assert result.output == "steps=50 final_mean=1 sup=1.10924\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_a_ring_of_no_points_exits_two(self, n):
        """Refused before any array is built, not a numpy traceback."""
        result = invoke_entry("micro", "--n", n, "--tend", "0.01")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: --n must be at least 1 grid point, got {n}"]
        assert result.stdout == ""

    def test_bad_signal_json_exits_two(self):
        result = invoke_entry("micro", "--forcing", "{not json", "--tend", "0.01")
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "forcing" in result.stderr


class TestMacro:
    def test_ssm1_run_writes_csv(self, tmp_path):
        out = tmp_path / "macro.csv"
        result = invoke(
            "macro", "--model", "ssm1", "--tend", "0.1", "--dt", "0.01",
            "--forcing", '{"kind": "harmonic", "omega": 2.0}',
            "--record-every", "5", "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["t", "U0", "U1", "U2", "U3"]

    def test_dump_bank_appends_memory_columns(self, tmp_path):
        plain = tmp_path / "plain.csv"
        full = tmp_path / "full.csv"
        for flag, path in ((False, plain), (True, full)):
            args = [
                "macro", "--model", "ssm1", "--tend", "0.05", "--dt", "0.01",
                "--forcing", '{"kind": "harmonic", "omega": 2.0}',
                "--out", str(path),
            ]
            if flag:
                args.append("--dump-bank")
            result = invoke(*args)
            assert result.exit_code == 0, result.output
        n_plain = len(plain.read_text().splitlines()[0].split(","))
        n_full = len(full.read_text().splitlines()[0].split(","))
        assert n_full == n_plain + 28

    def test_lattice_rejects_structured_profiles(self):
        result = invoke_entry(
            "macro", "--model", "lattice", "--profile", "alternating",
            "--tend", "0.05",
        )
        assert result.returncode == 2
        assert "uniform" in result.stderr

    def test_ssm1_rejects_odd_element_counts(self):
        result = invoke_entry("macro", "--model", "ssm1", "--m", "5",
                              "--tend", "0.05")
        assert result.returncode == 2

    @pytest.mark.parametrize("model", ["lowg", "strongquad"])
    def test_odd_alternating_profile_exits_two_before_the_run(self, model):
        with pytest.raises(ConfigError, match="even element count"):
            _macro_assemble(model, "alternating", 5)
        result = invoke_entry("macro", "--model", model, "--profile",
                              "alternating", "--m", "5", "--tend", "0.05")
        assert result.returncode == 2
        assert ("alternating profile needs an even element count"
                in result.stderr)

    def test_rejects_a_step_that_does_not_divide_the_run(self):
        result = invoke_entry("macro", "--tend", "1.0", "--dt", "0.3")
        assert result.returncode == 2
        assert "1.0" in result.stderr and "0.3" in result.stderr


class TestModePattern:
    @pytest.mark.parametrize("profile, col", [("uniform", 0), ("alternating", 1)])
    def test_macro_and_weak_lay_the_signal_on_one_pattern(
            self, monkeypatch, profile, col):
        seen = {}

        def macro_run(cfg, U0, signals, assemble, *args, **kwargs):
            seen["macro"] = assemble([1.0], 0.0)
            raise RuntimeError("stop before the run")

        def weak_build(cfg, signal, pattern, scales):
            seen["weak"] = pattern
            raise RuntimeError("stop before the run")

        monkeypatch.setattr(cli, "run_macro_forced", macro_run)
        monkeypatch.setattr(cli, "build_weak_model", weak_build)
        for command, kind in (("macro", "lorenz"), ("weak", "harmonic")):
            result = invoke(command, "--model", "strongquad", "--profile", profile,
                            "--m", "6", "--forcing", json.dumps({"kind": kind}))
            assert str(result.exception) == "stop before the run"
        want = np.zeros((6, 3))
        want[:, col] = alternating_signs(6) if col else 1.0
        assert np.array_equal(_mode_pattern(profile, 6), want)
        assert np.array_equal(seen["macro"], want)
        assert np.array_equal(seen["weak"], want)


class TestWeak:
    def test_report_prints_drift_json(self):
        result = invoke(
            "weak", "--model", "ssm1", "--report", "--tend", "0.1",
            "--forcing", '{"kind": "harmonic", "omega": 2.0, "phase": 0.3}',
        )
        assert result.exit_code == 0, result.output
        blob = result.output[: result.output.rfind("}") + 1]
        report = json.loads(blob)
        assert report["variant"] == "ssm1"
        assert set(report["drifts"]) == {"z1", "z21", "z41", "z61"}
        assert report["noise_streams"] == 0

    def test_constant_signal_rejected(self):
        result = invoke_entry(
            "weak", "--model", "ssm1", "--tend", "0.1",
            "--forcing", '{"kind": "constant", "value": 1.0}',
        )
        assert result.returncode == 2
        assert "harmonic or white-noise" in result.stderr

    def test_rejects_a_step_that_does_not_divide_the_run(self):
        result = invoke_entry("weak", "--tend", "1.0", "--dt", "0.3",
                              "--forcing", '{"kind": "harmonic"}')
        assert result.returncode == 2
        assert "1.0" in result.stderr and "0.3" in result.stderr

    def test_unread_mode_scales_exit_two(self):
        result = invoke_entry(
            "weak", "--model", "ssm1", "--m", "4", "--dt", "0.01",
            "--tend", "0.1", "--forcing", '{"kind": "harmonic", "omega": 2.0}',
            "--mode-scales", "7,7",
        )
        assert result.returncode == 2
        assert "mode_scales" in result.stderr and result.stdout == ""


class TestReduce:
    def test_matches_library_reduction(self):
        result = invoke(
            "reduce", "--coefficient", "1.5", "--left-rates", "1,2",
            "--right-rates", "3", "--left", "rho", "--right", "mu",
        )
        assert result.exit_code == 0, result.output
        got = json.loads(result.output)
        expected = reduce_by_parts(
            ConvTerm(coeff=1.5, left_rates=(1.0, 2.0), right_rates=(3.0,),
                     left="rho", right="mu")
        ).to_dict()
        assert got == expected
        assert len(got["canonical"]) == 3

    def test_bad_rates_exit_two(self):
        result = invoke_entry(
            "reduce", "--left-rates", "1,zebra", "--right-rates", "3",
        )
        assert result.returncode == 2
        assert "rates" in result.stderr


class TestCompare:
    def test_consistency_experiment_passes(self, tmp_path):
        result = invoke(
            "compare", "--experiment", "consistency",
            "--out-dir", str(tmp_path),
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "consistency_report.json").read_text())
        assert report["passed"] is True
        assert report["name"] == "consistency"

    def test_unknown_experiment_rejected(self):
        result = invoke("compare", "--experiment", "fig9")
        assert result.exit_code != 0

    def test_bad_extras_exit_two_before_the_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"extras": {"periods": 0}}))
        result = invoke_entry("compare", "--experiment", "weak-drift",
                              "--config", str(cfg))
        assert result.returncode == 2
        assert "'periods' must be a whole number >= 1, got 0" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("dt, shown", [("NaN", "nan"), ("Infinity", "inf"),
                                           ("0", "0")])
    def test_a_time_step_not_finite_and_positive_exits_two_naming_dt(
            self, tmp_path, dt, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dt": %s}' % dt)
        result = invoke_entry("compare", "--experiment", "fig1",
                              "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: time step dt must be positive and finite, got {shown}"]
        assert result.stdout == ""

    @pytest.mark.parametrize("field", ["amplitude", "phase", "xi0", "eta0"])
    def test_a_signal_number_not_finite_exits_two_naming_it(self, tmp_path, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"signal": {"kind": "lorenz", "%s": NaN}}' % field)
        result = invoke_entry("compare", "--experiment", "fig3",
                              "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: signal {field} must be finite, got nan"]
        assert result.stdout == ""

    @pytest.mark.parametrize("command, shown", [
        (("macro", "--model", "ssm1", "--u0", "nan", "--m", "4"),
         "initial amplitudes U0 must be finite, got nan"),
        (("micro", "--u0", "inf"), "initial field u0 must be finite, got inf"),
        (("weak", "--model", "ssm1", "--u0", "nan", "--m", "4", "--forcing",
          '{"kind": "harmonic", "omega": 2.0}'),
         "initial amplitudes U0 must be finite, got nan"),
    ])
    def test_a_non_finite_initial_state_exits_two_naming_it(self, command,
                                                            shown):
        """Refused before the first step, not blamed on dt."""
        result = invoke_entry(*command, "--tend", "0.01")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [f"error: {shown}"]
        assert result.stdout == ""

    @pytest.mark.parametrize("field", ["sede", "seed"])
    def test_unknown_signal_field_exits_two_naming_it(self, tmp_path, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": {"kind": "lorenz", field: 7}}))
        result = invoke_entry("compare", "--experiment", "fig3",
                              "--config", str(cfg))
        assert result.returncode == 2
        assert "error: bad signal fields" in result.stderr
        assert repr(field) in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_a_field_the_experiment_does_not_read_exits_two_naming_it(
            self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": {"kind": "lorenz"}}))
        result = invoke_entry("compare", "--experiment", "lattice",
                              "--config", str(cfg))
        assert result.returncode == 2
        assert "error: lattice reads no spec fields ['signal']" in result.stderr
        assert result.stdout == ""

    def test_out_dir_holds_the_report_and_no_metrics_copy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"extras": {"periods": 2}}))
        result = invoke("compare", "--experiment", "weak-drift",
                        "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        saved = json.loads((tmp_path / "out" / "weak-drift_report.json").read_text())
        assert saved == json.loads(result.output)
        assert [p.name for p in (tmp_path / "out").iterdir()] == [
            "weak-drift_report.json"]

    def test_config_overrides_are_applied(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.123}))
        result = invoke(
            "compare", "--experiment", "consistency",
            "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "consistency_report.json").read_text())
        assert report["config"]["alpha"] == 0.123
