"""Fine-scale solvers and the fixed-step integrators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holodisc import (
    ConfigError,
    StabilityError,
    burgers_rhs,
    check_scheme_legal,
    rk4_step,
)
from holodisc.microscale import exact_steps, lattice_form, march, stepper


def rk4_march(u0, rhs, t0, t_end, dt, record_every=1):
    """Fixed-step rk4 from t0 to t_end through march, as the engines run."""
    return march(stepper(rhs, dt), u0, t0,
                 exact_steps(t_end - t0, dt), dt, record_every)


def roll_burgers_rhs(u, dx, alpha, eps, phi, form):
    """The np.roll form of burgers_rhs, kept as its reference."""
    up = np.roll(u, -1)
    um = np.roll(u, 1)
    diffusion = (up - 2.0 * u + um) / dx**2
    if form == "advective":
        advection = u * (up - um) / (2.0 * dx)
    elif form == "conservative":
        advection = (up**2 - um**2) / (4.0 * dx)
    else:
        advection = (u * (up - um) + up**2 - um**2) / (6.0 * dx)
    return diffusion - alpha * advection + eps * phi


def lattice(u, H, alpha, eps, phi):
    """One evaluation of the bound lattice form into a fresh array."""
    u = np.asarray(u, dtype=float)
    return lattice_form(H, alpha, eps)(u, phi, np.empty_like(u))


def roll_lattice_rhs(u, H, alpha, eps, phi):
    """The np.roll form of the lattice rhs, kept as its reference."""
    up = np.roll(u, -1)
    um = np.roll(u, 1)
    return (
        (4.0 / H**2) * (up - 2.0 * u + um)
        - (alpha / H) * u * (up - um)
        + eps * phi
    )


@pytest.mark.parametrize("n", [3, 32, 1024])
def test_fine_rhs_matches_the_roll_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=n)
    phi = rng.normal(size=n)
    for form in ("advective", "conservative", "skew"):
        assert np.array_equal(burgers_rhs(u, 0.13, 1.7, 0.4, phi, form),
                              roll_burgers_rhs(u, 0.13, 1.7, 0.4, phi, form))
    assert np.array_equal(lattice(u, 0.9, 1.7, 0.4, phi),
                          roll_lattice_rhs(u, 0.9, 1.7, 0.4, phi))


class TestBurgersRhs:
    def test_constant_state_is_stationary(self):
        u = 0.8 * np.ones(16)
        for form in ("advective", "conservative", "skew"):
            out = burgers_rhs(u, 0.1, alpha=2.0, eps=0.0, phi=0.0, form=form)
            assert np.allclose(out, 0.0)

    def test_diffusion_eigenvalue_on_fourier_mode(self):
        n = 32
        dx = 2.0 * np.pi / n
        x = dx * np.arange(n)
        u = np.cos(x)
        out = burgers_rhs(u, dx, alpha=0.0, eps=0.0, phi=0.0)
        lam = (2.0 * np.cos(dx) - 2.0) / dx**2
        assert np.allclose(out, lam * u, atol=1e-12)

    def test_advection_forms_converge_together(self):
        """Both advection discretisations approach alpha u u_x at order 2."""
        alpha = 1.3
        sups = {}
        for n in (64, 128):
            dx = 2.0 * np.pi / n
            x = dx * np.arange(n)
            u = 0.4 + 0.3 * np.sin(x)
            exact = -0.3 * np.sin(x) - alpha * u * 0.3 * np.cos(x)
            for form in ("advective", "conservative", "skew"):
                out = burgers_rhs(u, dx, alpha, 0.0, 0.0, form=form)
                sups.setdefault(form, []).append(np.max(np.abs(out - exact)))
        for form, (coarse, fine) in sups.items():
            assert coarse / fine > 3.5, form

    def test_skew_form_conserves_energy(self, rng):
        u = rng.normal(size=24)
        dx = 0.2
        adv = burgers_rhs(u, dx, 1.0, 0.0, 0.0, form="skew") - burgers_rhs(
            u, dx, 0.0, 0.0, 0.0
        )
        assert abs(np.dot(u, adv)) < 1e-10 * np.sum(u * u)

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigError):
            burgers_rhs(np.ones(4), 0.1, 1.0, 0.0, 0.0, form="upwind")

    def test_forcing_enters_linearly(self):
        u = np.zeros(8)
        phi = np.arange(8.0)
        out = burgers_rhs(u, 0.1, 1.0, eps=0.25, phi=phi)
        assert np.allclose(out, 0.25 * phi)


class TestLatticeRhs:
    def test_constant_state_is_stationary(self):
        u = 1.1 * np.ones(8)
        assert np.allclose(lattice(u, 1.0, alpha=0.7, eps=0.0, phi=0.0), 0.0)

    def test_period_two_mode_decays_at_sixteen(self):
        H = 1.5
        u = np.array([1.0, -1.0] * 4)
        out = lattice(u, H, alpha=0.0, eps=0.0, phi=0.0)
        assert np.allclose(out, -(16.0 / H**2) * u)

    def test_period_four_mode_decays_at_eight(self):
        H = 1.5
        u = np.array([1.0, 0.0, -1.0, 0.0] * 2)
        out = lattice(u, H, alpha=0.0, eps=0.0, phi=0.0)
        assert np.allclose(out, -(8.0 / H**2) * u)

    def test_needs_positive_spacing(self):
        with pytest.raises(ConfigError):
            lattice_form(0.0, 1.0, 0.0)


class TestSteppers:
    def test_rk4_accuracy_on_linear_decay(self):
        rhs = lambda u, t: -u
        u = np.array([1.0])
        for k in range(1000):
            u = rk4_step(u, rhs, k * 1e-3, 1e-3)
        assert abs(u[0] - np.exp(-1.0)) < 1e-9

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            stepper(lambda u, t: -u, 0.1, scheme="leapfrog")

    def test_step_needs_positive_dt(self):
        with pytest.raises(ConfigError):
            stepper(lambda u, t: -u, 0.0)

    def test_euler_maruyama_advances_like_euler(self):
        u0 = np.array([2.0, -1.0])
        rhs = lambda u, t: -0.5 * u + t
        a = stepper(rhs, 0.01, scheme="euler")(u0, 0.3)
        b = stepper(rhs, 0.01, scheme="euler-maruyama")(u0, 0.3)
        assert np.array_equal(a, b)


def textbook_rk4_step(u, rhs, t, dt):
    """rk4_step as the textbook expression, one temporary per operation."""
    k1 = rhs(u, t)
    k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(u + dt * k3, t + dt)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stiff_rhs(u, t):
    """A nonlinear, time-dependent rhs whose stages differ in every bit."""
    return np.sin(3.0 * u) * (1.0 + t) - 7.3 * u * u + 0.1 * np.cos(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 64), st.integers(0, 2**32 - 1),
       st.floats(1e-6, 0.5), st.floats(-10.0, 10.0))
@example(18432, 0, 1e-3, 0.25)
@example(18432, 7, 0.37, -3.0)
@example(0, 11, 0.01, 2.5)
def test_rk4_step_is_the_textbook_expression_byte_for_byte(n, seed, dt, t):
    """The goldens cannot see a last-bit change in one step; this can.  Both
    rk4_step and stepper's map, on arrays and (n = 0) a Python float."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0, size=n)
    if n == 0:
        u = float(rng.normal() * 10.0 ** rng.uniform(-3.0, 1.0))
    want = np.asarray(textbook_rk4_step(u, stiff_rhs, t, dt))
    for got in (rk4_step(u, stiff_rhs, t, dt), stepper(stiff_rhs, dt)(u, t)):
        got = np.asarray(got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_rk4_step_writes_into_no_array_it_was_handed():
    """Not u, not an array rhs returns on every call, not a stage argument
    that rhs keeps a view of."""
    u = np.linspace(-1.0, 2.0, 9)
    u.setflags(write=False)
    shared = np.linspace(0.5, -0.5, 9)
    shared.setflags(write=False)
    seen = []

    def rhs(y, t):
        seen.append((y, y.copy()))
        return shared

    got = rk4_step(u, rhs, 0.0, 0.1)
    assert np.array_equal(got, textbook_rk4_step(u, lambda y, t: shared, 0.0, 0.1))
    assert np.array_equal(shared, np.linspace(0.5, -0.5, 9))
    for y, at_call in seen:
        assert np.array_equal(y, at_call)
    assert all(got is not y for y, _ in seen) and got is not shared


class TestStepper:
    def test_checks_the_scheme_and_dt_when_bound(self):
        rhs = lambda u, t: -u
        with pytest.raises(ConfigError, match="unknown scheme"):
            stepper(rhs, 0.1, "leapfrog")
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match="time step dt must be positive"):
                stepper(rhs, bad)
            with pytest.raises(ConfigError, match="time step dt must be positive"):
                exact_steps(1.0, bad)


class TestIntegrate:
    def test_records_every_k_steps_and_the_end(self):
        times, hist = rk4_march(
            np.ones(3), lambda u, t: -u, 0.0, 0.1, 1e-2, record_every=4
        )
        assert times[0] == 0.0
        assert np.isclose(times[-1], 0.1)
        assert hist.shape == (len(times), 3)
        assert np.allclose(np.diff(times)[:-1], 4e-2)

    def test_matches_exact_solution(self):
        times, hist = rk4_march(np.array([1.0]), lambda u, t: -u, 0.0, 1.0, 1e-3)
        assert np.allclose(hist[:, 0], np.exp(-times), atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises_stability_error(self):
        with pytest.raises(StabilityError, match="non-finite"):
            rk4_march(np.array([2.0]), lambda u, t: u * u, 0.0, 2.0, 1e-2)

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigError):
            rk4_march(np.ones(2), lambda u, t: -u, 1.0, 0.5, 1e-2)


class TestSchemeLegality:
    def test_white_noise_demands_euler_maruyama(self):
        with pytest.raises(ConfigError):
            check_scheme_legal("rk4", forcing_is_white=True)
        check_scheme_legal("euler-maruyama", forcing_is_white=True)
        check_scheme_legal("rk4", forcing_is_white=False)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            check_scheme_legal("heun", forcing_is_white=False)
