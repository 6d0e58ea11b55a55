"""Experiment specs, reports, paired engines, and the analysis helpers."""

import json

import numpy as np
import pytest

import golden_runs
from holodisc import (
    CoarseSide,
    ComparisonReport,
    ConfigError,
    DataError,
    EXPERIMENTS,
    ExperimentSpec,
    FineSide,
    ModelConfig,
    SignalSpec,
    StabilityError,
    convergence_order,
    default_spec,
    fit_emergence_rate,
    nsm_series,
    rms,
    run_macro_forced,
    run_micro_field,
    run_paired,
    spec_from_dict,
)
from holodisc.harness import consistency_experiment, default_window_start


class TestHelpers:
    def test_rms(self):
        assert np.isclose(rms([3.0, 4.0]), np.sqrt(12.5))

    def test_convergence_order_recovers_power(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        errs = 3.0 * h**2.5
        assert np.isclose(convergence_order(h, errs), 2.5, atol=1e-10)

    def test_emergence_rate_fit(self):
        t = np.linspace(0.0, 4.0, 400)
        dev = 2.0 * np.exp(-1.7 * t)
        assert np.isclose(fit_emergence_rate(t, dev, 0.5, 3.5), 1.7, atol=1e-6)

    def test_emergence_rate_needs_decaying_samples(self):
        with pytest.raises(DataError):
            fit_emergence_rate([0.0, 1.0], [1.0, 0.5], 0.0, 1.0)
        with pytest.raises(DataError):
            fit_emergence_rate(
                np.linspace(0.0, 1.0, 50),
                np.zeros(50),
                0.0,
                1.0,
            )

    def test_window_start_scales_with_the_slowest_mode(self):
        assert np.isclose(default_window_start(np.pi), 8.0)


class TestExperimentSpec:
    def test_defaults_are_fig_friendly(self):
        spec = ExperimentSpec(name="demo")
        assert spec.alpha == 0.3
        assert spec.eps == 0.05
        assert spec.m == 4

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="bad", t0=0.0)
        with pytest.raises(ConfigError):
            ExperimentSpec(name="bad", t0=2.0, t1=1.0)

    def test_paired_runs_must_share_seed(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="bad", micro_seed=1, macro_seed=2)

    def test_resolved_seed_prefers_explicit(self):
        spec = ExperimentSpec(name="demo", seed=5, micro_seed=9, macro_seed=9)
        assert spec.resolved_seed == 9

    def test_to_dict_round_trips_fields(self):
        spec = ExperimentSpec(name="demo", alpha=0.7)
        d = spec.to_dict()
        assert d["alpha"] == 0.7
        assert d["name"] == "demo"


class TestSpecFromDict:
    def test_overrides_defaults(self):
        spec = spec_from_dict("fig3", {"alpha": 0.5, "t1": 5.0})
        assert spec.alpha == 0.5
        assert spec.t1 == 5.0
        assert spec.signal.kind == "lorenz"

    def test_signal_subdict(self):
        spec = spec_from_dict(
            "fig3", {"signal": {"kind": "harmonic", "omega": 3.0}}
        )
        assert spec.signal.kind == "harmonic"
        assert spec.signal.omega == 3.0

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict("fig3", {"alpa": 0.5})

    def test_every_experiment_has_defaults(self):
        for name in EXPERIMENTS:
            spec = default_spec(name)
            assert spec.name == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            default_spec("fig9")


class TestComparisonReport:
    def report(self, **kw):
        base = dict(
            name="demo",
            config={"alpha": 0.3},
            metrics={"gap": 0.1},
            checks={"ok": True},
        )
        base.update(kw)
        return ComparisonReport(**base)

    def test_passed_requires_every_check(self):
        assert self.report().passed
        assert not self.report(checks={"ok": True, "tight": False}).passed

    def test_non_finite_metric_rejected(self):
        with pytest.raises(DataError):
            self.report(metrics={"gap": np.nan})

    def test_save_embeds_config_and_schema(self, tmp_path):
        path = tmp_path / "report.json"
        self.report().save(str(path))
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["config"]["alpha"] == 0.3
        assert data["passed"] is True


class TestPairedEngines:
    def micro_args(self):
        n = 32
        x = (np.pi / 16.0) * np.arange(n)
        profile = np.cos(2.0 * x)
        signal = SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0)
        return x, np.ones(n), profile, signal

    def test_micro_runs_are_seed_reproducible(self):
        x, u0, profile, signal = self.micro_args()
        out = []
        for _ in range(2):
            times, hist, vals = run_micro_field(
                x, u0, 0.3, 0.05, [(profile, signal)], 1e-3, 0.2,
                seed=77, record_every=10,
            )
            out.append((times, hist, vals))
        assert np.array_equal(out[0][1], out[1][1])
        assert np.array_equal(out[0][2], out[1][2])

    def test_micro_seed_changes_the_path(self):
        x, u0, profile, signal = self.micro_args()
        _, hist_a, _ = run_micro_field(
            x, u0, 0.3, 0.05, [(profile, signal)], 1e-3, 0.2, seed=77,
        )
        _, hist_b, _ = run_micro_field(
            x, u0, 0.3, 0.05, [(profile, signal)], 1e-3, 0.2, seed=78,
        )
        assert not np.array_equal(hist_a, hist_b)

    def test_micro_and_macro_share_forcing_paths(self):
        """The pairing invariant: same spec and seed, bit-identical signals."""
        x, u0, profile, signal = self.micro_args()
        _, _, vals_micro = run_micro_field(
            x, u0, 0.3, 0.05, [(profile, signal)], 1e-3, 0.5,
            seed=77, record_every=10,
        )
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4)
        times, U_hist, bank_hist, vals_macro = run_macro_forced(
            cfg, np.ones(4), [signal], lambda v, t: v[0], 0.5,
            seed=77, record_every=10,
        )
        assert np.array_equal(vals_micro, vals_macro)
        assert nsm_series(cfg, U_hist, bank_hist).shape == U_hist.shape

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_macro_blowup_is_diagnosed(self):
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, dt=40.0)
        with pytest.raises(StabilityError):
            run_macro_forced(
                cfg, 1e3 * np.array([1.0, -1.0, 1.0, -1.0]),
                [SignalSpec(kind="constant", value=0.0)],
                lambda v, t: v[0], 400.0, seed=1,
            )

    def test_white_macro_values_are_the_draws(self):
        """Both call forms record the white draws, not NaN."""
        x, u0, profile, _ = self.micro_args()
        white = SignalSpec(kind="white-noise", intensity=1.0)
        _, _, vals_micro = run_micro_field(
            x, u0, 0.3, 0.05, [(profile, white)], 1e-3, 0.05, seed=5,
            scheme="euler-maruyama", record_every=10,
        )
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, scheme="euler-maruyama")
        *_, vals_macro = run_macro_forced(
            cfg, np.ones(4), [white], lambda v, t: v[0], 0.05, seed=5,
            record_every=10,
        )
        assert np.all(np.isfinite(vals_macro)) and vals_macro[0, 0] == 0.0
        assert np.array_equal(vals_micro, vals_macro)


def _fig3_pair(scheme, signal):
    """fig3's fine grid and ssm1 model under one signal."""
    n, m = 32, 4
    x = (np.pi / 16.0) * np.arange(n)
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=1e-3, scheme=scheme)
    micro = dict(x=x, u0=np.ones(n), alpha=0.3, eps=0.05,
                 pairs=[(np.cos(2.0 * x), signal)])
    return micro, cfg, np.ones(m), [signal], lambda v, t: float(v[0])


def _lattice_pair():
    """The lattice experiment's first level: two harmonic signals."""
    spec = default_spec("lattice")
    H, m = spec.H, spec.m
    x = (H / 2.0) * np.arange(2 * m)
    L = m * H
    profiles = np.stack([1.0 + 0.8 * np.cos(2.0 * np.pi * x / L + 0.7),
                         0.6 * np.cos(4.0 * np.pi * x / L + 1.9)])
    signals = [SignalSpec(kind="harmonic", omega=0.37, phase=0.3),
               SignalSpec(kind="harmonic", omega=0.23, phase=1.1)]
    cfg = ModelConfig(variant="lattice", alpha=spec.alpha, eps=spec.eps, H=H,
                      m=m, dt=spec.dt)
    micro = dict(x=x, u0=np.full(2 * m, 0.4), alpha=spec.alpha, eps=spec.eps,
                 pairs=list(zip(profiles, signals)), rhs_kind="lattice", H=H)
    return micro, cfg, np.full(m, 0.4), signals, lambda v, t: profiles.T @ v


PAIRS = {
    "fig3-lorenz-rk4": lambda: _fig3_pair(
        "rk4", SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0)),
    "white-euler-maruyama": lambda: _fig3_pair(
        "euler-maruyama", SignalSpec(kind="white-noise", intensity=1.0)),
    "lattice-two-harmonics": _lattice_pair,
}


class TestPairedRun:
    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_joint_run_equals_separate_runs(self, pair):
        """One joint state reproduces both separate runs bit for bit."""
        micro, cfg, U0, signals, assemble = PAIRS[pair]()
        t_end, seed, every = 0.3, 17, 7
        t_u, u, vals_u = run_micro_field(
            dt=cfg.dt, t_end=t_end, seed=seed, scheme=cfg.scheme,
            record_every=every, **micro)
        t_U, U, bank, vals_U = run_macro_forced(
            cfg, U0, signals, assemble, t_end, seed, record_every=every)
        fine = FineSide(micro["x"], micro["u0"], micro["alpha"], micro["eps"],
                        np.stack([p for p, _ in micro["pairs"]]),
                        micro.get("rhs_kind", "burgers"), micro.get("H"))
        run = run_paired(signals, seed, t_end, cfg.dt, cfg.scheme, fine=fine,
                         coarse=CoarseSide(cfg, U0, assemble),
                         record_every=every)
        assert run.times[-1] == pytest.approx(t_end)
        for joint, alone in ((run.times, t_u), (run.times, t_U),
                             (run.values, vals_u), (run.values, vals_U),
                             (run.u, u), (run.U, U), (run.bank, bank)):
            assert np.array_equal(joint, alone)

    @pytest.mark.parametrize("scheme, signal", [
        ("euler-maruyama", {"kind": "white-noise", "intensity": 1.0}),
        ("euler", {"kind": "lorenz", "xi0": 10.0, "eta0": 8.0}),
    ])
    def test_euler_fig3_reports_are_paired(self, scheme, signal):
        spec = spec_from_dict("fig3", {"t0": 0.2, "t1": 0.4, "dt": 1e-3,
                                       "scheme": scheme, "signal": signal})
        report = EXPERIMENTS["fig3"](spec)
        assert report.metrics["forcing_path_gap"] == 0.0
        assert report.checks["paths_paired"]

    def test_paired_reports_match_their_recording(self):
        """Short fig3 and lattice reports, recorded before the joint engine."""
        with open(golden_runs.PAIRED_DATA) as fh:
            assert golden_runs.paired_reports() == json.load(fh)

    def test_run_length_must_be_whole_steps(self):
        micro, cfg, U0, signals, assemble = PAIRS["fig3-lorenz-rk4"]()
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, dt=0.3)
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            run_micro_field(dt=0.3, t_end=1.0, seed=1, **micro)
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            run_macro_forced(cfg, U0, signals, assemble, 1.0, 1)
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            run_paired(signals, 1, 1.0, 0.3,
                       coarse=CoarseSide(cfg, U0, assemble))
        run = run_paired([SignalSpec(kind="harmonic")], 1, 1.2, 0.3)
        assert run.times.size == 5 and run.times[-1] == pytest.approx(1.2)

    def test_coarse_side_must_share_the_step(self):
        _, cfg, U0, signals, assemble = PAIRS["fig3-lorenz-rk4"]()
        with pytest.raises(ConfigError, match="dt"):
            run_paired(signals, 1, 0.1, 2 * cfg.dt,
                       coarse=CoarseSide(cfg, U0, assemble))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_fine_field(self):
        micro, *_ = PAIRS["fig3-lorenz-rk4"]()
        micro["pairs"] = [(np.zeros(32), SignalSpec(kind="constant"))]
        micro["u0"] = np.cos(micro["x"])
        with pytest.raises(StabilityError, match="fine field"):
            run_micro_field(dt=1.0, t_end=200.0, seed=1, **micro)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_memory_chain(self):
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, dt=0.1)
        with pytest.raises(StabilityError, match="memory chain"):
            run_macro_forced(cfg, np.zeros(4),
                             [SignalSpec(kind="constant", value=1.0)],
                             lambda v, t: v[0], 50.0, seed=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_signal_driver(self):
        lorenz = SignalSpec(kind="lorenz")
        with pytest.raises(StabilityError, match="signal driver"):
            run_paired([lorenz], 1, 50.0, 0.5)


class TestConsistencyExperiment:
    def test_report_shape_and_outcome(self, tmp_path):
        report = consistency_experiment(out_dir=str(tmp_path))
        assert report.passed
        assert report.metrics["order_full"] > 1.9
        assert report.metrics["order_linear"] > 3.8
        assert report.config["name"] == "consistency"
