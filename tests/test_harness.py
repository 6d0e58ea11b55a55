"""Experiment specs, reports, paired engines, and the analysis helpers."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

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
    build_bank,
    convergence_order,
    default_spec,
    fit_emergence_rate,
    lowg_rhs,
    nsm_series,
    rms,
    run_macro_forced,
    run_paired,
    spec_from_dict,
)
from holodisc import harness
from holodisc.cli import main
from holodisc.harness import consistency_experiment, default_window_start
from holodisc.macromodel import ChainBank
from holodisc.microscale import burgers_form, lattice_form
from test_paired_stage import nsm_field_at_grid


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

    def test_window_checks_bind_only_the_fields_read(self):
        """fig1 reads t1 alone: its run end is checked, not against a t0
        it never reads; fig3 and lattice read both."""
        assert spec_from_dict("fig1", {"t1": 0.5}).t1 == 0.5
        with pytest.raises(ConfigError, match="run end must be positive"):
            spec_from_dict("fig1", {"t1": 0.0})
        for name in ("fig3", "lattice"):
            with pytest.raises(ConfigError, match="must exceed its start"):
                spec_from_dict(name, {"t0": 2.0, "t1": 1.0})
            with pytest.raises(ConfigError, match="start must be positive"):
                spec_from_dict(name, {"t0": 0.0})

    def test_paired_runs_must_share_seed(self):
        """One seed drives both sides; a per-side seed is no spec field."""
        for knob in ("micro_seed", "macro_seed"):
            with pytest.raises(ConfigError):
                spec_from_dict("fig3", {knob: 1})

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

    @pytest.mark.parametrize("name, extras, match", [
        ("weak-drift", {"periods": 0}, r"'periods' must be a whole number >= 1, got 0$"),
        ("weak-drift", {"periods": -1}, r"'periods' .* >= 1, got -1$"),
        ("weak-drift", {"periods": 2.5}, r"'periods' .* >= 1, got 2\.5$"),
        ("weak-drift", {"periods": True}, r"'periods' must be a whole number"),
        ("weak-drift", {"period": 2},
         r"reads no extras \['period'\]; it reads \['periods'\]"),
        ("lattice", {"levels": 0}, r"'levels' must be a whole number >= 2, got 0$"),
        ("lattice", {"levels": 1}, r"'levels' must be a whole number >= 2, got 1$"),
        ("fig3", {"record_every": 0}, r"'record_every' must be a whole number >= 1"),
        ("fig1", {"record_every": "5"}, r"'record_every' must be a whole number >= 1"),
        ("fig1", {"levels": 3}, r"fig1 reads no extras \['levels'\]"),
        ("consistency", {"periods": 2}, r"reads no extras \['periods'\]; it reads none"),
    ])
    def test_bad_extras_are_refused_with_their_limit(self, name, extras, match):
        with pytest.raises(ConfigError, match=match):
            spec_from_dict(name, {"extras": extras})

    def test_extras_are_filled_with_their_defaults(self):
        assert default_spec("weak-drift").extras == {"periods": 200}
        whole = spec_from_dict("weak-drift", {"extras": {"periods": 2.0}})
        assert whole.extras == {"periods": 2}
        assert spec_from_dict("lattice", {"extras": {"levels": 2}}).extras == {
            "levels": 2, "record_every": 10}
        assert spec_from_dict("fig3", {"alpha": 0.5}).extras == {"record_every": 10}
        assert default_spec("consistency").extras == {}


class TestExperimentTable:
    """One declaration per experiment: its defaults, the fields it reads,
    and the files its shell writes.  The defaults, the benchmark's override
    sets and the CSV headers were recorded before the declarations moved
    to the experiments' definitions."""

    # The spec fields each experiment reads, besides name, seed and extras.
    READS = {
        "fig1": ["alpha", "dt", "dx", "eps", "scheme", "t1"],
        "fig3": ["H", "alpha", "dt", "dx", "eps", "gamma", "m", "scheme",
                 "signal", "t0", "t1"],
        "consistency": ["alpha"],
        "emergence": ["H"],
        "lattice": ["H", "alpha", "dt", "eps", "m", "scheme", "t0", "t1"],
        "weak-drift": ["H", "alpha", "dt", "eps", "m", "scheme", "signal"],
    }

    def test_default_specs_are_the_recorded_ones(self):
        with open(golden_runs.DEFAULT_SPECS_DATA) as fh:
            recorded = json.load(fh)
        assert sorted(EXPERIMENTS) == sorted(recorded)
        for name, want in recorded.items():
            got = json.loads(json.dumps(default_spec(name).to_dict()))
            assert got == want, name

    @pytest.mark.parametrize("name, field, value", [
        ("lattice", "signal", {"kind": "lorenz"}),
        ("fig1", "signal", {"kind": "lorenz"}),
        ("fig1", "t0", 0.5),
        ("weak-drift", "t1", 20.0),
        ("weak-drift", "gamma", 0.5),
        ("consistency", "m", 8),
        ("emergence", "alpha", 0.1),
        ("fig3", "alpa", 0.5),
    ])
    def test_a_field_the_experiment_does_not_read_is_refused(self, name, field,
                                                             value):
        reads = self.READS[name]
        match = (rf"^{name} reads no spec fields \['{field}'\]; "
                 rf"it reads {re.escape(repr(reads))}$")
        with pytest.raises(ConfigError, match=match):
            spec_from_dict(name, {field: value, "alpha": 0.1})

    @pytest.mark.parametrize("name", sorted(READS))
    def test_every_field_the_experiment_reads_is_taken(self, name):
        base = default_spec(name).to_dict()
        data = {key: base[key] for key in self.READS[name] if key != "signal"}
        spec = spec_from_dict(name, {**data, "name": name, "seed": 7,
                                     "extras": {}})
        assert spec.to_dict() == {**base, "seed": 7}

    @pytest.mark.parametrize("name, overrides", [
        ("fig3", {"t0": 0.2, "t1": 0.4, "dt": 1e-3}),
        ("fig1", {"t1": 10.0, "dt": 0.01}),
        ("weak-drift", {"dt": 0.0039986521016740165, "extras": {"periods": 2}}),
        ("lattice", {"t0": 0.4, "t1": 1.0, "dt": 2e-3}),
    ])
    def test_the_benchmark_override_sets_are_taken(self, name, overrides):
        spec = spec_from_dict(name, {**overrides, "seed": 3})
        assert spec.seed == 3
        for key, value in overrides.items():
            if key != "extras":
                assert getattr(spec, key) == value

    @pytest.mark.parametrize("name, overrides, tables", [
        ("fig1", {"t1": 1.5}, {"fig1.csv": (
            ",".join(["t"] + [f"u{i}" for i in range(32)]), 31)}),
        ("fig3", {"t0": 0.2, "t1": 0.4},
         {"fig3.csv": ("t,u_probe,U_probe,v_probe,eps_phi", 41)}),
        ("consistency", None, {"consistency.csv": ("H,err_full,err_linear", 4)}),
        ("emergence", None, {}),
        ("lattice", {"t0": 0.4, "t1": 1.0},
         {"lattice.csv": ("level,alpha,eps,sup_error", 3)}),
        ("weak-drift", {"extras": {"periods": 2}}, {}),
    ])
    def test_a_run_with_an_out_dir_writes_its_tables_and_report(
            self, tmp_path, name, overrides, tables):
        out = tmp_path / "out"
        report = EXPERIMENTS[name](spec_from_dict(name, overrides), str(out))
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*tables, f"{name}_report.json"])
        for file, (header, rows) in tables.items():
            lines = (out / file).read_text().splitlines()
            assert lines[0] == header and len(lines) == 1 + rows
        saved = json.loads((out / f"{name}_report.json").read_text())
        assert saved == json.loads(json.dumps(report.to_dict(), default=str))


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


def fig3_fine(u0=None, profile=None):
    """fig3's fine side: n = 32 points of the ring, forced by cos 2x."""
    x = (np.pi / 16.0) * np.arange(32)
    return FineSide(np.ones(32) if u0 is None else u0(x),
                    (np.cos(2.0 * x) if profile is None else profile(x))[None],
                    burgers_form(np.pi / 16.0, 0.3, 0.05))


class TestPairedEngines:
    LORENZ = SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0)

    def micro(self, signal, t_end, seed, scheme="rk4", record_every=1):
        """The fine side alone under signal: run_paired's fine-only call."""
        return run_paired([signal], seed, t_end, 1e-3, scheme, fig3_fine(),
                          record_every=record_every)

    def test_micro_runs_are_seed_reproducible(self):
        out = [self.micro(self.LORENZ, 0.2, seed=77, record_every=10)
               for _ in range(2)]
        assert np.array_equal(out[0].u, out[1].u)
        assert np.array_equal(out[0].values, out[1].values)

    def test_micro_seed_changes_the_path(self):
        hist_a = self.micro(self.LORENZ, 0.2, seed=77).u
        hist_b = self.micro(self.LORENZ, 0.2, seed=78).u
        assert not np.array_equal(hist_a, hist_b)

    def test_micro_and_macro_share_forcing_paths(self):
        """The pairing invariant: same spec and seed, bit-identical signals."""
        signal = self.LORENZ
        vals_micro = self.micro(signal, 0.5, seed=77, record_every=10).values
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4)
        times, U_hist, bank_hist, vals_macro = run_macro_forced(
            cfg, np.ones(4), [signal], lambda v, t: v[0], 0.5,
            seed=77, record_every=10,
        )
        assert np.array_equal(vals_micro, vals_macro)
        assert nsm_series(cfg, U_hist, bank_hist).shape == U_hist.shape

    @pytest.mark.parametrize("m", [4, 64])
    def test_nsm_series_is_the_unpack_loop_bit_for_bit(self, m):
        """The whole-history reconstruction against the loop it replaced:
        one bank.unpack and nsm_field_at_grid per recorded row."""
        cfg = ModelConfig(variant="ssm1", alpha=0.7, eps=0.3, gamma=0.6,
                          H=np.pi / 2.0, m=m)
        bank = build_bank(cfg)
        rng = np.random.default_rng(m)
        U_hist = rng.normal(size=(9, m))
        bank_hist = rng.normal(size=(9, bank.n_states)) * 10.0 ** rng.integers(
            -6, 4, size=(9, 1))
        want = np.empty_like(U_hist)
        for k in range(U_hist.shape[0]):
            bank.unpack(bank_hist[k])
            want[k] = nsm_field_at_grid(U_hist[k], bank, cfg)
        assert np.array_equal(nsm_series(cfg, U_hist, bank_hist), want)
        with pytest.raises(ConfigError, match=f"{bank.n_states}"):
            nsm_series(cfg, U_hist, bank_hist[:, :-1])
        with pytest.raises(ConfigError, match="9 rows"):
            nsm_series(cfg, U_hist, bank_hist[:-1])

    @pytest.mark.parametrize("variant", ["lowg", "strongquad"])
    def test_nsm_series_refuses_other_variants(self, variant):
        """Only ssm1 has a reconstruction; another variant's history of the
        right size is refused by name, not unpacked."""
        cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4)
        bank_hist = np.zeros((3, build_bank(cfg).n_states))
        with pytest.raises(ConfigError, match=repr(variant)):
            nsm_series(cfg, np.ones((3, 4)), bank_hist)

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
        white = SignalSpec(kind="white-noise", intensity=1.0)
        vals_micro = self.micro(white, 0.05, seed=5, scheme="euler-maruyama",
                                record_every=10).values
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, scheme="euler-maruyama")
        *_, vals_macro = run_macro_forced(
            cfg, np.ones(4), [white], lambda v, t: v[0], 0.05, seed=5,
            record_every=10,
        )
        assert np.all(np.isfinite(vals_macro)) and vals_macro[0, 0] == 0.0
        assert np.array_equal(vals_micro, vals_macro)

    def test_white_run_keeps_only_the_recorded_draws(self):
        """A white run holds the draws of its recorded steps, not of every
        step: its memory does not grow with the run's length."""
        white = [SignalSpec(kind="white-noise")]
        every = run_paired(white, 5, 0.05, 1e-3, "euler-maruyama")
        strided = run_paired(white, 5, 0.05, 1e-3, "euler-maruyama",
                             record_every=7)
        rows = np.minimum(7 * np.arange(strided.times.size), 50)
        assert np.array_equal(strided.values, every.values[rows])
        tracemalloc.start()
        try:
            run = run_paired(white, 5, 10.0, 1e-3, "euler-maruyama",
                             record_every=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A list of draws per step would hold about 1.2 MB over these steps.
        assert run.values.shape == (11, 1) and peak < 250_000


def _fig3_pair(scheme, signal):
    """fig3's fine grid and ssm1 model under one signal."""
    m = 4
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=1e-3, scheme=scheme)
    return fig3_fine(), cfg, np.ones(m), [signal], lambda v, t: float(v[0])


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
    fine = FineSide(np.full(2 * m, 0.4), profiles,
                    lattice_form(H, spec.alpha, spec.eps))
    return fine, cfg, np.full(m, 0.4), signals, lambda v, t: profiles.T @ v


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
        fine, cfg, U0, signals, assemble = PAIRS[pair]()
        t_end, seed, every = 0.3, 17, 7
        alone = run_paired(signals, seed, t_end, cfg.dt, cfg.scheme, fine,
                           record_every=every)
        t_u, u, vals_u = alone.times, alone.u, alone.values
        t_U, U, bank, vals_U = run_macro_forced(
            cfg, U0, signals, assemble, t_end, seed, record_every=every)
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
        fine, cfg, U0, signals, assemble = PAIRS["fig3-lorenz-rk4"]()
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, dt=0.3)
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            run_paired(signals, 1, 1.0, 0.3, fine=fine)
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

    def test_fine_profiles_are_one_row_per_signal_over_u0(self):
        """Profiles are (signals, u0.size): a row too many or a point too
        few is refused before the first step."""
        fine, _, _, signals, _ = PAIRS["fig3-lorenz-rk4"]()
        for profiles in (np.vstack([fine.profiles, fine.profiles]),
                         fine.profiles[:, :-1], fine.profiles[0]):
            with pytest.raises(ConfigError,
                               match="one forcing profile per signal over u0"):
                run_paired(signals, 1, 0.1, 1e-3,
                           fine=fine._replace(profiles=profiles))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_fine_field(self):
        fine = fig3_fine(u0=np.cos, profile=np.zeros_like)
        with pytest.raises(StabilityError, match="fine field"):
            run_paired([SignalSpec(kind="constant")], 1, 200.0, 1.0, fine=fine)

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

    def test_report_reads_the_shipped_operators(self):
        """Both error series come from unforced lowg_rhs and strongquad's
        skeleton at alpha = 0, so a slip in either shows in the report."""
        spec = default_spec("consistency")
        a, L = spec.alpha, 2.0 * np.pi
        hs, err_full, err_lin = [], [], []
        for m in (8, 16, 32, 64):
            H = L / m
            X = H * np.arange(m)
            U = 0.4 + 0.3 * np.sin(X) + 0.1 * np.cos(2.0 * X)
            up = 0.3 * np.cos(X) - 0.2 * np.sin(2.0 * X)
            upp = -0.3 * np.sin(X) - 0.4 * np.cos(2.0 * X)
            full = lowg_rhs(U, np.zeros((m, 3)), ModelConfig("lowg", a, 0.0, H, m))
            lin = build_bank(ModelConfig("strongquad", 0.0, 0.0, H, m)).skeleton(
                U, np.zeros((5, m)))
            hs.append(H)
            err_full.append(float(np.max(np.abs(full - (upp - a * U * up)))))
            err_lin.append(float(np.max(np.abs(lin - upp))))
        metrics = consistency_experiment(spec).metrics
        assert metrics["order_full"] == convergence_order(hs, err_full)
        assert metrics["order_linear"] == convergence_order(hs, err_lin)
        assert metrics["finest_error_full"] == err_full[-1]
        assert metrics["finest_error_linear"] == err_lin[-1]


def test_engines_never_touch_the_banks_state_helpers(monkeypatch, tmp_path):
    """The engines read chain states from the joint state and recorded
    histories, never through a bank: with ChainBank's state helpers made to
    raise, a short fig3 through the CLI, run_macro_forced for ssm1 and
    strongquad at m = 4 and 1024, and nsm_series all still run, and every
    bank the engine builds keeps the zero state it was built with."""
    def refuse(*args, **kwargs):
        raise AssertionError("an engine called a bank state helper")

    for name in ("states", "output", "unpack", "bound_to", "rhs_flat"):
        monkeypatch.setattr(ChainBank, name, refuse)
    built = []

    def recording_build_bank(cfg):
        built.append(build_bank(cfg))
        return built[-1]

    monkeypatch.setattr(harness, "build_bank", recording_build_bank)
    cfg_file = tmp_path / "f3.json"
    cfg_file.write_text(json.dumps({"t0": 0.02, "t1": 0.04}))
    result = CliRunner().invoke(main, ["compare", "--experiment", "fig3",
                                       "--config", str(cfg_file)])
    assert result.exit_code == 0, result.output
    harmonic = SignalSpec(kind="harmonic", omega=2.0)
    for m in (4, 1024):
        for variant in ("ssm1", "strongquad"):
            cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05,
                              H=np.pi / 2.0, m=m, dt=0.01)
            pattern = np.ones((m, 3))
            assemble = ((lambda v, t: v[0]) if variant == "ssm1"
                        else (lambda v, t: pattern * v[0]))
            _, U_hist, bank_hist, _ = run_macro_forced(
                cfg, np.ones(m), [harmonic], assemble, 0.02, seed=0)
            assert np.all(np.isfinite(U_hist)) and bank_hist.any()
            if variant == "ssm1":
                v_hist = nsm_series(cfg, U_hist, bank_hist)
                assert np.all(np.isfinite(v_hist))
    assert len(built) == 2 + 4 + 2
    assert all(not bank.Z.any() for bank in built)
