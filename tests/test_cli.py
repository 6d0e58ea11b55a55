"""Command-line surface: runs, reports, reductions, comparisons."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from holodisc import ConfigError, ConvTerm, reduce_by_parts
from holodisc.cli import _macro_assemble, main


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
