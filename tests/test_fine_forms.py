"""The fine side's bound forms, evaluation by evaluation, bit for bit.

Trajectories cannot see a last-bit change in an rhs: at a small dt a
one-ulp change in du/dt falls below the ulp of u in u + dt k.  So each
bound form is held here to a tests-only copy of the rhs as it was before
the forms were bound (``reference_burgers_rhs``, ``reference_lattice_rhs``,
``reference_lorenz_rhs``), one evaluation at a time, compared byte for
byte.  ``reference_fig1_stage`` is fig1's stage as it was on the
interleaved state [(xi, eta, zeta) per point | u]; ``fig1_stage`` is
fig1's joint stage, compiled by run_paired's ``_compile_stage`` from
fig1's sides, on the component-major state [xi | eta | zeta | u].
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holodisc import (
    ConfigError,
    FineSide,
    SignalSpec,
    burgers_rhs,
    spec_from_dict,
)
from holodisc.harness import EXPERIMENTS, _compile_stage
from holodisc.microscale import burgers_form, exact_points, lattice_form
from holodisc.stencil import ring_pad

FORMS = ("advective", "conservative", "skew")


def reference_burgers_rhs(u, dx, alpha, eps, phi, form="advective"):
    u = np.asarray(u, dtype=float)
    p = ring_pad(u)
    up, um = p[2:], p[:-2]
    diffusion = (up - 2.0 * u + um) / dx**2
    if form == "advective":
        advection = u * (up - um) / (2.0 * dx)
    elif form == "conservative":
        advection = (up**2 - um**2) / (4.0 * dx)
    else:
        advection = (u * (up - um) + up**2 - um**2) / (6.0 * dx)
    return diffusion - alpha * advection + eps * phi


def reference_lattice_rhs(u, H, alpha, eps, phi):
    u = np.asarray(u, dtype=float)
    p = ring_pad(u)
    up, um = p[2:], p[:-2]
    return (
        (4.0 / H**2) * (up - 2.0 * u + um)
        - (alpha / H) * u * (up - um)
        + eps * phi
    )


def reference_lorenz_rhs(state):
    s = np.asarray(state, dtype=float)
    xi, eta, zeta = s[..., 0], s[..., 1], s[..., 2]
    out = np.empty(s.shape[:-1] + (3,))
    out[..., 0] = 10.0 * (eta - xi)
    out[..., 1] = xi * (28.0 - zeta) - eta
    out[..., 2] = xi * eta - (8.0 / 3.0) * zeta
    return out


def reference_fig1_stage(n, dx, alpha, eps):
    def f(y_, t_):
        D = y_[: 3 * n].reshape(n, 3)
        u_ = y_[3 * n :]
        du = reference_burgers_rhs(u_, dx, alpha, eps, D[:, 0])
        return np.concatenate([reference_lorenz_rhs(D).ravel(), du])

    return f


def fig1_stage(n, dx, alpha, eps):
    """fig1's joint stage: n Lorenz signals, identity profiles, no coarse side."""
    fine = FineSide(np.ones(n), np.eye(n), burgers_form(dx, alpha, eps))
    return bound_stage(_compile_stage(
        [SignalSpec(kind="lorenz", xi0=5.0, eta0=8.0)] * n,
        0, 0.01, "rk4", fine, None).bind)


def bound_stage(bind):
    """The stage(t, draws=None) a binder binds, as a function stage(y, t,
    draws=None) of the state: y bound afresh into a fresh dy, returned."""
    def stage(y, t, *draws):
        dy = np.empty_like(y)
        bind(y, dy)(t, *draws)
        return dy

    return stage


def interleaved_order(n, size=None):
    """Index into the interleaved state of each component-major entry; the
    rest of a state of size entries (4 n by default) as it is."""
    return np.concatenate([np.arange(3 * n).reshape(n, 3).T.ravel(),
                           np.arange(3 * n, size or 4 * n)])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def fine_cases(draw):
    n = draw(st.integers(3, 64))
    u = draw(arrays(float, n, elements=values))
    phi = draw(st.one_of(values, arrays(float, n, elements=values)))
    spacing = draw(st.floats(1e-3, 10.0))
    alpha = draw(st.floats(-10.0, 10.0))
    eps = draw(st.floats(-10.0, 10.0))
    return u, phi, spacing, alpha, eps


def into_slice(rhs, u, phi):
    """rhs(u, phi, out) written into the middle of a larger buffer."""
    buf = np.full(u.size + 7, np.nan)
    got = rhs(u, phi, buf[3:3 + u.size])
    assert np.shares_memory(got, buf)
    assert np.isnan(buf[:3]).all() and np.isnan(buf[3 + u.size:]).all()
    return buf[3:3 + u.size]


@settings(max_examples=150, deadline=None)
@given(fine_cases(), st.sampled_from(FORMS))
def test_bound_burgers_form_is_the_reference_bit_for_bit(case, form):
    u, phi, dx, alpha, eps = case
    want = reference_burgers_rhs(u, dx, alpha, eps, phi, form)
    assert same_bits(into_slice(burgers_form(dx, alpha, eps, form), u, phi), want)
    assert same_bits(burgers_rhs(u, dx, alpha, eps, phi, form), want)


@settings(max_examples=100, deadline=None)
@given(fine_cases())
def test_bound_lattice_form_is_the_reference_bit_for_bit(case):
    u, phi, H, alpha, eps = case
    want = reference_lattice_rhs(u, H, alpha, eps, phi)
    assert same_bits(into_slice(lattice_form(H, alpha, eps), u, phi), want)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 64), st.integers(0, 2**32 - 1),
       st.floats(1e-2, 1.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_fig1_stage_is_the_interleaved_stage_bit_for_bit(n, seed, dx, alpha, eps):
    rng = np.random.default_rng(seed)
    order = interleaved_order(n)
    y = np.concatenate([rng.normal(0.0, 10.0, 3 * n), rng.normal(1.0, 0.5, n)])
    interleaved = np.empty_like(y)
    interleaved[order] = y
    got = fig1_stage(n, dx, alpha, eps)(y, 0.3)
    want = reference_fig1_stage(n, dx, alpha, eps)(interleaved, 0.3)
    assert same_bits(got, want[order])


def test_bound_forms_check_once_at_binding():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="grid spacing dx"):
            burgers_form(bad, 1.0, 0.0)
        with pytest.raises(ConfigError, match="half-width H"):
            lattice_form(bad, 1.0, 0.0)
    with pytest.raises(ConfigError, match="unknown advection form"):
        burgers_form(0.1, 1.0, 0.0, "upwind")


class TestWholePoints:
    def test_counts_the_points_of_a_whole_grid(self):
        assert exact_points(2.0 * np.pi, np.pi / 16) == 32
        assert exact_points(1.0, 0.1) == 10

    @pytest.mark.parametrize("dx", [0.3, 0.0, -0.1, 7.0])
    def test_rejects_a_spacing_that_does_not_tile_the_ring(self, dx):
        with pytest.raises(ConfigError, match=r"L = .*dx = "):
            exact_points(2.0 * np.pi, dx)

    @pytest.mark.parametrize("name", ["fig1", "fig3"])
    def test_experiments_refuse_a_partial_grid_at_construction(self, name):
        spec = spec_from_dict(name, {"dx": 0.3, "t1": 1.01})
        with pytest.raises(ConfigError, match=r"ring length L = 6\.28.*dx = 0\.3"):
            EXPERIMENTS[name](spec, None)
