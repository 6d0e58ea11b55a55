"""Signal streams and the per-element forcing decomposition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import golden_runs
from holodisc import (
    ConfigError,
    DataError,
    ElementGrid,
    SignalSpec,
    integrate_chain,
    make_signal,
    project_to_modes,
    run_paired,
)
from holodisc.forcing import LORENZ_BETA, LORENZ_RHO, LORENZ_SIGMA, lorenz_point
from holodisc.harness import default_window_start
from holodisc.stencil import operands


class TestSignalSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="sawtooth")

    def test_harmonic_needs_positive_omega(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="harmonic", omega=0.0)

    def test_file_needs_path(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="file")

    def test_white_noise_intensity_nonnegative(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="white-noise", intensity=-1.0)

    @pytest.mark.parametrize("kind", ["constant", "harmonic", "lorenz",
                                      "white-noise"])
    @pytest.mark.parametrize("field", ["amplitude", "omega", "phase", "value",
                                       "intensity", "xi0", "eta0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_number_must_be_finite(self, kind, field, bad):
        with pytest.raises(ConfigError, match=f"signal {field} must be "):
            SignalSpec(kind=kind, **{field: bad})

    def test_white_noise_intensity_may_be_zero(self):
        SignalSpec(kind="white-noise", intensity=0.0)
        with pytest.raises(ConfigError, match="^white-noise intensity must be "
                                              "finite and at least 0, got -1.0$"):
            SignalSpec(kind="white-noise", intensity=-1.0)


class TestDeterministicSignals:
    def test_constant_value(self):
        sig = make_signal(SignalSpec(kind="constant", value=-2.5))
        assert sig.value(0.0) == -2.5
        assert sig.value(17.3) == -2.5

    def test_harmonic_value(self):
        sig = make_signal(
            SignalSpec(kind="harmonic", amplitude=1.5, omega=2.0, phase=0.3)
        )
        t = 0.8
        assert np.isclose(sig.value(t), 1.5 * np.cos(2.0 * t + 0.3))

    def test_harmonic_value_at_a_float_is_its_value_in_an_array(self):
        """A float t (np.float64 too) gives a Python float, bit for bit the
        value at t in a one-entry array and the textbook expression over an
        array: at every stage time weak-drift's cascades call the drive at,
        and at 10^4 random t with |t| <= 1e4."""
        spec = golden_runs.weak_drift_spec()
        periods, w = spec.extras["periods"], spec.signal.omega
        t_end = default_window_start(spec.H) + periods * 2.0 * np.pi / w
        calls = []
        integrate_chain((1.0,), lambda t: calls.append(t) or 0.0, t_end, spec.dt)
        random = np.random.default_rng(6).uniform(-1e4, 1e4, 10_000)
        times = calls + random.tolist()
        assert len(calls) > 2 * round(t_end / spec.dt)
        for signal in (spec.signal, SignalSpec(kind="harmonic", amplitude=2.5,
                                               omega=3.0, phase=-0.7)):
            sig = make_signal(signal)
            got = [sig.value(t) for t in times]
            assert {type(v) for v in got} == {float}
            assert type(sig.value(np.float64(times[7]))) is float
            assert got == [sig.value(np.array([t]))[0] for t in times]
            assert got == sig.value(np.array(times)).tolist()
            A, w, ph = signal.amplitude, signal.omega, signal.phase
            assert got == (A * np.cos(w * np.array(times) + ph)).tolist()

    def test_file_interpolates(self, tmp_path):
        path = tmp_path / "sig.csv"
        t = np.linspace(0.0, 2.0, 21)
        np.savetxt(path, np.column_stack([t, np.sin(t)]), delimiter=",")
        sig = make_signal(SignalSpec(kind="file", path=str(path), amplitude=2.0))
        assert np.isclose(sig.value(1.0), 2.0 * np.sin(1.0), atol=1e-3)
        with pytest.raises(DataError):
            sig.value(3.0)

    def test_file_times_must_increase(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, [[0.0, 1.0], [0.0, 2.0]], delimiter=",")
        with pytest.raises(DataError):
            make_signal(SignalSpec(kind="file", path=str(path)))

    def test_missing_file_is_a_data_error(self):
        with pytest.raises(DataError):
            make_signal(SignalSpec(kind="file", path="/nonexistent/sig.csv"))


class TestStochasticSignals:
    def test_white_noise_has_no_pointwise_value(self):
        sig = make_signal(SignalSpec(kind="white-noise"))
        with pytest.raises(ConfigError):
            sig.value(0.0)

    def test_white_noise_step_scaling(self, rng):
        sig = make_signal(SignalSpec(kind="white-noise", intensity=0.5))
        draws = sig.draw(rng, dt=0.01, size=4000)
        assert abs(np.std(draws) - 0.5 / np.sqrt(0.01)) < 0.3

    def test_white_noise_draw_is_intensity_z_over_the_root_of_dt(self):
        """Seeded draws equal intensity * z / np.sqrt(dt) bit for bit, one
        sample or several, at 10^3 random dt; one sample at a float dt is
        a Python float."""
        sig = make_signal(SignalSpec(kind="white-noise", intensity=0.7))
        dts = np.random.default_rng(2).uniform(1e-6, 2.0, 1000).tolist()
        for seed, dt in enumerate(dts):
            for size in (None, 3):
                z = np.random.default_rng(seed).standard_normal(size)
                got = sig.draw(np.random.default_rng(seed), dt, size)
                assert np.array_equal(got, 0.7 * z / np.sqrt(dt))
        assert type(sig.draw(np.random.default_rng(0), 0.01)) is float

    def test_draw_needs_positive_dt(self, rng):
        sig = make_signal(SignalSpec(kind="white-noise"))
        with pytest.raises(ConfigError):
            sig.draw(rng, dt=0.0)

    def test_white_noise_needs_the_euler_maruyama_step(self):
        white = SignalSpec(kind="white-noise")
        with pytest.raises(ConfigError, match="euler-maruyama"):
            run_paired([white], 11, 0.1, 0.01)

    def test_white_draws_are_seed_reproducible(self):
        white = [SignalSpec(kind="white-noise")]
        a, b, c = (run_paired(white, seed, 0.1, 0.01, "euler-maruyama").values
                   for seed in (11, 11, 12))
        assert np.array_equal(a, b) and not np.array_equal(a, c)


class TestLorenz:
    def test_origin_is_stationary(self):
        assert lorenz_point(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n", [3, 32, 1024])
    def test_matches_the_stacked_form_bit_for_bit(self, n):
        s = np.random.default_rng(n).normal(scale=10.0, size=(n, 3))
        xi, eta, zeta = s[..., 0], s[..., 1], s[..., 2]
        want = np.stack([10.0 * (eta - xi), xi * (28.0 - zeta) - eta,
                         xi * eta - (8.0 / 3.0) * zeta], axis=-1)
        assert np.array_equal(np.stack(lorenz_point(xi, eta, zeta), axis=-1), want)
        assert np.array_equal(np.array(lorenz_point(*s[0])), want[0])

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
    def test_in_place_form_is_the_operator_form_byte_for_byte(self, scale):
        """out= writes the operator form's bytes, nan, inf and -0.0 included,
        touches nothing but out, and returns out."""
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5])
        grid = np.stack(np.meshgrid(special, special, special)).reshape(3, -1)
        constants = ((), operands(LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA),
                     operands(-2.5, -0.0, 1e-3))
        rng = np.random.default_rng(int(np.log10(scale)) + 6)
        cases = [rng.normal(scale=scale, size=(3, n)) for n in range(1, 65)]
        for rows in cases[::7]:
            hit = rng.random(rows.shape) < 0.3
            rows[hit] = rng.choice(special, hit.sum())
        for rows in cases + [grid * scale]:
            n = rows.shape[1]
            before = rows.tobytes()
            for c in constants:
                buf = np.full(5 * n, 7.0)
                out = (buf[n:2 * n], buf[2 * n:3 * n], buf[3 * n:4 * n])
                with np.errstate(invalid="ignore", over="ignore"):
                    want = np.stack(lorenz_point(*rows, *c))
                    assert lorenz_point(*rows, *c, out=out) is out
                assert np.stack(out).tobytes() == want.tobytes()
                assert np.all(buf[:n] == 7.0) and np.all(buf[4 * n:] == 7.0)
                assert rows.tobytes() == before

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    def test_one_system_on_floats_is_the_array_form(self, state):
        want = np.concatenate(lorenz_point(*np.array(state)[:, None]))
        assert np.array(lorenz_point(*state)).tobytes() == want.tobytes()

    def test_signal_stays_bounded(self):
        spec = SignalSpec(kind="lorenz", amplitude=1.0)
        v = run_paired([spec], 4, 3.0, 1e-3).values
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v)) < 100.0

    def test_lorenz_path_is_seed_reproducible(self):
        spec = [SignalSpec(kind="lorenz", amplitude=0.2)]
        a, b, c = (run_paired(spec, seed, 1.5, 1e-3).values[-1]
                   for seed in (9, 9, 10))
        assert a == b and a != c

    def test_value_needs_driver_state(self):
        sig = make_signal(SignalSpec(kind="lorenz"))
        with pytest.raises(ConfigError):
            sig.value(0.0)


class TestProjection:
    def grid(self):
        return ElementGrid(m=4, H=np.pi / 2.0, x0=np.pi / 4.0)

    def test_grid_needs_enough_elements(self):
        with pytest.raises(ConfigError):
            ElementGrid(m=2, H=1.0)

    def test_constant_field_is_pure_mode_zero(self):
        grid = self.grid()
        x = np.linspace(0.0, grid.length, 256, endpoint=False)
        M = project_to_modes(x, np.ones_like(x), grid)
        assert np.allclose(M[:, 0], 1.0, atol=1e-10)
        assert np.allclose(M[:, 1:], 0.0, atol=1e-10)

    def test_cos2x_is_the_alternating_sine_mode(self):
        """cos 2x shifts to -+ sin theta across the staggered elements."""
        grid = self.grid()
        x = np.linspace(0.0, grid.length, 512, endpoint=False)
        M = project_to_modes(x, np.cos(2.0 * x), grid)
        alt = np.array([-1.0, 1.0, -1.0, 1.0])
        assert np.allclose(M[:, 1], alt, atol=1e-9)
        assert np.allclose(M[:, 0], 0.0, atol=1e-9)
        assert np.allclose(M[:, 2], 0.0, atol=1e-9)

    def test_projection_is_linear(self):
        grid = self.grid()
        x = np.linspace(0.0, grid.length, 128, endpoint=False)
        f = np.cos(2.0 * x)
        g = np.sin(x) ** 2
        Mf = project_to_modes(x, f, grid)
        Mg = project_to_modes(x, g, grid)
        M = project_to_modes(x, 2.0 * f - 0.5 * g, grid)
        assert np.allclose(M, 2.0 * Mf - 0.5 * Mg)

    def test_rejects_nonuniform_samples(self):
        grid = self.grid()
        x = np.array([0.0, 0.1, 0.3, 0.35, 0.5, 1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            project_to_modes(x, np.ones_like(x), grid)

    def test_rejects_too_coarse_sampling(self):
        grid = self.grid()
        x = np.linspace(0.0, grid.length, 8, endpoint=False)
        with pytest.raises(DataError):
            project_to_modes(x, np.ones_like(x), grid)
