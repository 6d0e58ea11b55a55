"""Weak replacements: drifts, noise streams, and whole-model substitutes."""

import numpy as np
import pytest

from holodisc import (
    ConfigError,
    ModelConfig,
    QuadraticTermDescriptor,
    SignalSpec,
    build_bank,
    build_weak_model,
    mode_decay_rate,
    phasor_drift,
    run_macro_forced,
    simulate_quadrature_ensemble,
    ssm1_rhs,
    stochastic_replace,
)
from holodisc.macromodel import ssm1_chain_specs
from holodisc.microscale import march, plain, stepper


def weak_quadrature_samples(rates, t_end, n_paths, seed, same_signal=True,
                            intensity=1.0):
    """Weak-side samples of y(t_end): drift times T plus the fresh noises.

    Exact in distribution (a Gaussian), no stepping involved.
    """
    term = QuadraticTermDescriptor(0, 0, 0, 0 if same_signal else 1,
                                   tuple(np.atleast_1d(rates)))
    rep = stochastic_replace(term, intensity, intensity)
    rng = np.random.default_rng(seed)
    y = np.full(n_paths, rep.drift * t_end)
    for amp in rep.noise_amplitudes:
        y = y + amp * np.sqrt(t_end) * rng.standard_normal(n_paths)
    return y


def ssm1_cfg(**kw):
    base = dict(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi, m=4, dt=4e-3)
    base.update(kw)
    return ModelConfig(**base)


class TestDescriptors:
    def test_rates_capped_at_two(self):
        with pytest.raises(ConfigError):
            QuadraticTermDescriptor(0, 1, 0, 1, (1.0, 2.0, 3.0))

    def test_rates_are_canonicalised(self):
        term = QuadraticTermDescriptor(0, 1, 0, 1, (3.0, 1.0))
        assert term.rates == (1.0, 3.0)

    def test_same_signal_detection(self):
        assert QuadraticTermDescriptor(2, 1, 2, 1, (1.0,)).same_signal
        assert not QuadraticTermDescriptor(2, 1, 3, 1, (1.0,)).same_signal
        assert not QuadraticTermDescriptor(2, 1, 2, 2, (1.0,)).same_signal

    def test_identical_subscripts_share_streams(self):
        a = QuadraticTermDescriptor(0, 1, 2, 1, (1.0, 2.0))
        b = QuadraticTermDescriptor(0, 1, 2, 1, (2.0, 1.0))
        assert a.stream_keys() == b.stream_keys()
        assert len(a.stream_keys()) == 2


class TestStochasticReplacement:
    def test_same_signal_single_rate_drift(self):
        """E[phi Z phi] is half the squared intensity, whatever the rate."""
        for b in (0.5, 1.0, 7.0):
            term = QuadraticTermDescriptor(0, 1, 0, 1, (b,))
            rep = stochastic_replace(term, 2.0, 2.0)
            assert np.isclose(rep.drift, 0.5 * 4.0)

    def test_independent_signals_have_zero_drift(self):
        term = QuadraticTermDescriptor(0, 1, 0, 2, (1.0,))
        assert stochastic_replace(term).drift == 0.0

    def test_two_rate_products_have_zero_drift(self):
        term = QuadraticTermDescriptor(0, 1, 0, 1, (1.0, 2.0))
        assert stochastic_replace(term).drift == 0.0

    def test_noise_amplitudes_per_slot(self):
        term = QuadraticTermDescriptor(0, 1, 0, 1, (2.0,))
        rep = stochastic_replace(term)
        assert np.isclose(rep.noise_amplitudes[0], 1.0 / np.sqrt(4.0))
        term2 = QuadraticTermDescriptor(0, 1, 0, 1, (1.0, 3.0))
        rep2 = stochastic_replace(term2)
        assert len(rep2.noise_amplitudes) == 2
        assert np.isclose(rep2.noise_amplitudes[0], 0.25 / np.sqrt(2.0))

    def test_quadrature_sides_agree_in_distribution(self):
        """Strong stepping and the weak Gaussian match mean and spread."""
        strong = simulate_quadrature_ensemble((1.0,), 10.0, 2e-3, 400, seed=5)
        weak = weak_quadrature_samples((1.0,), 10.0, 400, seed=6)
        se = np.std(strong) / np.sqrt(400.0)
        assert abs(np.mean(strong) - np.mean(weak)) < 5.0 * se
        assert 0.7 < np.std(strong) / np.std(weak) < 1.4

    def test_quadrature_run_must_land_on_t_end(self):
        with pytest.raises(ConfigError, match="whole"):
            simulate_quadrature_ensemble((1.0,), 1.0, 0.3, 10, seed=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field, name", [(1, "run end t_end"),
                                             (2, "time step dt")])
    def test_quadrature_run_end_and_step_must_be_positive_and_finite(
            self, field, name, bad):
        args = [(1.0,), 1.0, 0.1, 10]
        args[field] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be positive and "
                                              f"finite, got {bad}"):
            simulate_quadrature_ensemble(*args, seed=5)


@pytest.mark.parametrize("call, name", [
    (lambda: phasor_drift((1.0,), np.nan, 1, 1), "frequency omega"),
    (lambda: simulate_quadrature_ensemble((1.0,), 1.0, 0.1, 4, seed=5,
                                          intensity=np.nan),
     "white-noise intensity"),
    (lambda: simulate_quadrature_ensemble((1.0,), 1.0, 0.1, 4, seed=5,
                                          intensity=-1.0),
     "white-noise intensity"),
])
def test_weak_numbers_not_finite_are_refused_by_name(call, name):
    """A NaN frequency would give a NaN drift far from where it entered, a
    NaN intensity a blow-up of the ensemble's step."""
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        call()


class TestWeakSsm1Harmonic:
    def signal(self, phase=0.3):
        return SignalSpec(kind="harmonic", amplitude=1.0, omega=2.0, phase=phase)

    def test_carries_no_memory_state(self):
        weak = build_weak_model(ssm1_cfg(), self.signal())
        assert not weak.memory_state

    def test_drift_report_structure(self):
        weak = build_weak_model(ssm1_cfg(), self.signal())
        report = weak.drift_report()
        assert report["variant"] == "ssm1"
        assert set(report["drifts"]) == {"z1", "z21", "z41", "z61"}
        assert report["noise_streams"] == 0

    def test_drifts_match_the_transfer_formula(self):
        cfg = ssm1_cfg()
        weak = build_weak_model(cfg, self.signal())
        drifts = weak.drift_report()["drifts"]
        b = {k: mode_decay_rate(k, cfg.H) for k in (1, 2, 4, 6)}
        w = 2.0
        assert np.isclose(drifts["z1"], b[1] / (2.0 * (b[1]**2 + w**2)))
        for key, pair in (("z21", (b[1], b[2])), ("z41", (b[1], b[4])),
                          ("z61", (b[1], b[6]))):
            assert np.isclose(drifts[key], float(phasor_drift(pair, w, 1.0, 1.0)))

    def test_same_signal_drifts_ignore_the_phase(self):
        cfg = ssm1_cfg()
        d0 = build_weak_model(cfg, self.signal(0.0)).drift_report()["drifts"]
        d1 = build_weak_model(cfg, self.signal(1.1)).drift_report()["drifts"]
        for key in d0:
            assert np.isclose(d0[key], d1[key])

    def test_deterministic_rhs_is_skeleton_plus_drifts(self):
        cfg = ssm1_cfg()
        weak = build_weak_model(cfg, self.signal())
        drifts = weak.drift_report()["drifts"]
        U = np.array([0.4, -0.2, 0.9, 0.3])
        t = 1.7
        bank = build_bank(cfg)
        skeleton = bank.skeleton
        expected = skeleton(U, 0.0)
        for spec, key in zip(ssm1_chain_specs(cfg), ("z1", "z21", "z41", "z61")):
            expected = expected + bank.coupling[bank.index(*spec)] * U * drifts[key]
        got = weak.deterministic_rhs(U, t)
        # the remaining forcing-linear terms oscillate; compare after
        # removing them via the phi-linear skeleton at the signal value
        sig = 1.0 * np.cos(2.0 * t + 0.3)
        linear_part = skeleton(U, sig) - skeleton(U, 0.0)
        assert np.allclose(got, expected + linear_part, atol=1e-12)

    def test_weak_run_shadows_the_strong_model(self):
        """Memoryless drift replacement tracks the full chains closely."""
        cfg = ssm1_cfg()
        spec = self.signal()
        weak = build_weak_model(cfg, spec)
        times_w, hist_w = weak.run(np.ones(4), 20.0, record_every=25)

        times_s, hist_s, _, _ = run_macro_forced(
            cfg, np.ones(4), [spec], lambda v, t: float(v[0]), 20.0, 0,
            record_every=25)
        assert np.allclose(times_w, times_s)
        tail = times_w >= 8.0
        gap = np.max(np.abs(hist_w[tail] - hist_s[tail]))
        assert gap < 1e-4

    def test_rejects_constant_signals(self):
        with pytest.raises(ConfigError):
            build_weak_model(ssm1_cfg(), SignalSpec(kind="constant", value=1.0))


class TestWeakSsm1White:
    def test_white_drifts_follow_the_replacement_table(self):
        cfg = ssm1_cfg(scheme="euler-maruyama", seed=3)
        weak = build_weak_model(cfg, SignalSpec(kind="white-noise"))
        report = weak.drift_report()
        assert np.isclose(report["drifts"]["z1"], 0.5)
        for key in ("z21", "z41", "z61"):
            assert report["drifts"][key] == 0.0
        assert report["noise_streams"] > 0

    def test_white_stepping_is_seed_reproducible(self):
        cfg = ssm1_cfg(scheme="euler-maruyama", dt=1e-3, seed=12)
        spec = SignalSpec(kind="white-noise")
        runs = []
        for _ in range(2):
            weak = build_weak_model(cfg, spec)
            U = np.ones(4)
            for k in range(50):
                U = weak.step(U, k * cfg.dt)
            runs.append(U.copy())
        assert np.array_equal(runs[0], runs[1])
        assert np.all(np.isfinite(runs[0]))


class TestWeakStrongquad:
    def quad_cfg(self, **kw):
        base = dict(variant="strongquad", alpha=0.3, eps=0.05,
                    H=np.pi / 2.0, m=4)
        base.update(kw)
        return ModelConfig(**base)

    def alternating_pattern(self, m=4):
        pattern = np.zeros((m, 3))
        pattern[:, 1] = [-1.0, 1.0] * (m // 2)
        return pattern

    def test_harmonic_build_needs_a_mode_pattern(self):
        with pytest.raises(ConfigError):
            build_weak_model(
                self.quad_cfg(), SignalSpec(kind="harmonic", omega=2.0)
            )

    def test_harmonic_build_reports_drifts(self):
        weak = build_weak_model(
            self.quad_cfg(),
            SignalSpec(kind="harmonic", omega=2.0, phase=0.3),
            mode_pattern=self.alternating_pattern(),
        )
        report = weak.drift_report()
        assert report["variant"] == "strongquad"
        assert len(report["drifts"]) > 0
        U = 0.5 * np.ones(4)
        assert np.all(np.isfinite(weak.deterministic_rhs(U, 0.8)))

    def test_white_build_counts_streams(self):
        weak = build_weak_model(
            self.quad_cfg(scheme="euler-maruyama", seed=2),
            SignalSpec(kind="white-noise"),
        )
        report = weak.drift_report()
        assert report["noise_streams"] > 0

    def tail_gap(self, eps):
        """Largest weak-strong gap at t >= 8 of a harmonic run to t = 20."""
        cfg = self.quad_cfg(eps=eps, dt=0.01)
        spec = SignalSpec(kind="harmonic", amplitude=1.0, omega=2.0, phase=0.3)
        pattern = self.alternating_pattern()
        weak = build_weak_model(cfg, spec, mode_pattern=pattern)
        times_w, hist_w = weak.run(np.ones(4), 20.0, record_every=10)
        times_s, hist_s, _, _ = run_macro_forced(
            cfg, np.ones(4), [spec], lambda v, t: pattern * v[0], 20.0, 0,
            record_every=10)
        assert np.array_equal(times_w, times_s)
        tail = times_w >= 8.0
        return float(np.max(np.abs(hist_w[tail] - hist_s[tail])))

    def test_harmonic_weak_run_shadows_the_strong_model(self):
        """Drift replacement tracks the 33 couplings, closer as eps^2."""
        gap = self.tail_gap(0.05)
        assert gap < 1e-4
        assert gap / self.tail_gap(0.025) >= 3.0

    def test_white_rejects_mode_pattern(self):
        with pytest.raises(ConfigError):
            build_weak_model(
                self.quad_cfg(scheme="euler-maruyama"),
                SignalSpec(kind="white-noise"),
                mode_pattern=self.alternating_pattern(),
            )


class TestModeScales:
    """Only white-noise strongquad reads mode_scales; every other weak model
    refuses any but the default instead of ignoring it."""

    def unread(self):
        quad = ModelConfig(variant="strongquad", alpha=0.3, eps=0.05,
                           H=np.pi / 2.0, m=4)
        harmonic = SignalSpec(kind="harmonic", omega=2.0)
        return [(ssm1_cfg(), harmonic, None),
                (ssm1_cfg(scheme="euler-maruyama", seed=1),
                 SignalSpec(kind="white-noise"), None),
                (quad, harmonic, np.ones((4, 3)))]

    @pytest.mark.parametrize("scales", [(5.0, 0.0, -3.0), (9.0,), (1.0, 1.0)])
    def test_unread_scales_are_refused(self, scales):
        for cfg, signal, pattern in self.unread():
            with pytest.raises(ConfigError, match="mode_scales"):
                build_weak_model(cfg, signal, pattern, scales)
            build_weak_model(cfg, signal, pattern, (1, 1, 1))

    def test_white_strongquad_reads_them(self):
        cfg = ModelConfig(variant="strongquad", alpha=0.3, eps=0.05,
                          H=np.pi / 2.0, m=4, scheme="euler-maruyama", seed=1)
        white = SignalSpec(kind="white-noise")
        ends = [build_weak_model(cfg, white, mode_scales=scales).run(
                    np.ones(4), 0.01)[1][-1]
                for scales in ((1.0, 1.0, 1.0), (5.0, 0.0, -3.0))]
        assert not np.array_equal(*ends)
        with pytest.raises(ConfigError, match="three entries"):
            build_weak_model(cfg, white, mode_scales=(9.0,))


class TestWeakScheme:
    """Every weak model steps its one rhs by cfg.scheme through stepper."""

    def harmonic_models(self, scheme):
        spec = SignalSpec(kind="harmonic", omega=2.0, phase=0.3)
        pattern = np.random.default_rng(3).normal(size=(4, 3))
        quad = ModelConfig(variant="strongquad", alpha=0.3, eps=0.5,
                           H=np.pi / 2.0, m=4, dt=0.01, scheme=scheme)
        return [build_weak_model(ssm1_cfg(eps=0.5, dt=0.01, scheme=scheme), spec),
                build_weak_model(quad, spec, mode_pattern=pattern)]

    def test_step_returns_an_array_the_next_call_keeps(self):
        """step returns a buffer of the model's frame: the next call, on
        that state, on the start again or on an older state, writes
        elsewhere, and each result is a fresh model's step."""
        U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(4) / 4)
        for scheme in ("rk4", "euler"):
            for weak, fresh in zip(self.harmonic_models(scheme),
                                   self.harmonic_models(scheme)):
                U1 = weak.step(U0, 0.0)
                kept1 = U1.copy()
                U2 = weak.step(U1, 0.01)
                assert np.array_equal(U1, kept1)
                kept2 = U2.copy()
                again = weak.step(U0, 0.0)
                assert np.array_equal(U2, kept2) and np.array_equal(again, kept1)
                U3 = weak.step(U2, 0.01)  # not the state the last call returned
                assert np.array_equal(again, kept1)
                assert np.array_equal(U3, fresh.step(kept2, 0.01))
                assert np.array_equal(kept2, fresh.step(kept1, 0.01))

    def test_harmonic_models_step_by_the_configured_scheme(self):
        U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(4) / 4)
        for weak, rk4 in zip(self.harmonic_models("euler"),
                             self.harmonic_models("rk4")):
            t, U = weak.run(U0, 0.5)
            want_t, want = march(
                stepper(plain(weak.deterministic_rhs), 0.01, "euler"),
                U0, 0.0, 50, 0.01)
            assert np.array_equal(t, want_t) and np.array_equal(U, want)
            assert not np.array_equal(U, rk4.run(U0, 0.5)[1])

    def test_white_noise_refuses_rk4(self):
        with pytest.raises(ConfigError, match="needs the euler-maruyama scheme"):
            build_weak_model(ssm1_cfg(scheme="rk4"),
                             SignalSpec(kind="white-noise"))

    def test_run_refuses_non_finite_initial_amplitudes(self):
        weak = self.harmonic_models("rk4")[0]
        with pytest.raises(ConfigError, match="^initial amplitudes U0 must "
                                              "be finite, got nan"):
            weak.run(np.array([1.0, np.nan, 1.0, 1.0]), 0.5)

    @pytest.mark.parametrize("variant", ["ssm1", "strongquad"])
    def test_white_noise_needs_a_seed(self, variant):
        """run restarts the draws from cfg.seed, so a white model without
        one is refused at construction rather than drawn from OS entropy."""
        white = SignalSpec(kind="white-noise")
        with pytest.raises(ConfigError, match="needs cfg.seed"):
            build_weak_model(ssm1_cfg(variant=variant, scheme="euler-maruyama"),
                             white)
        weak = build_weak_model(
            ssm1_cfg(variant=variant, scheme="euler-maruyama", seed=4), white)
        U0 = np.ones(4)
        assert np.array_equal(weak.run(U0, 0.04)[1], weak.run(U0, 0.04)[1])
