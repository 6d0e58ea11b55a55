"""Fine-scale solvers: forced Burgers dynamics on periodic grids.

Two discretisations of u_t + alpha u u_x = u_xx + eps phi(x, t):

* ``burgers_rhs``: standard second-order centred differences on a fine
  periodic grid of spacing dx, with a choice of advection form.
* ``lattice_form``: the half-spacing lattice used to shadow the coarse
  models.  Points sit at x_i = i H/2 (two per element), and the printed
  coefficients absorb the spacing, so the form takes H itself.

Each is a bound form (``burgers_form``, ``lattice_form``) that engines
resolve once per run and that writes into the caller's slice;
``burgers_rhs`` is the Burgers form's one-call check.  The forms and the
steppers bind their constants as 0-d operands (``stencil.operands``).
Plus the package's fixed-step integration.  ``march`` is its one time
loop: every engine hands it a one-step map, so every run counts its steps,
records its history and reports a non-finite state the same way; only the
1-D memory cascades loop in generated float code, by march's times, screen
and error (``non_finite_error``).  Each map steps in place on a ``stepper``
frame of preallocated buffers, its stages bound once per buffer pair.
``exact_steps`` is the one whole-steps rule for run lengths,
``exact_points`` its twin for grids.  The steppers are deliberately
hand-rolled: runs must be bit-reproducible across platforms, and adaptive
steppers would break the pairing of forcing paths between fine and coarse runs.
"""

from __future__ import annotations

import functools
from math import isfinite

import numpy as np

from .errors import ConfigError, StabilityError, check_positive
from .stencil import operands, ring_index

__all__ = [
    "burgers_rhs",
    "burgers_form",
    "lattice_form",
    "lattice_decay_rates",
    "rk4_step",
    "stepper",
    "plain",
    "exact_steps",
    "exact_points",
    "march",
    "non_finite_error",
    "check_scheme_legal",
]

# burgers_rhs's advection terms over (u_i, u_{i+1}, u_{i-1}, k dx), and k.
_ADVECTION = {
    "advective": (lambda u, up, um, d: u * (up - um) / d, 2.0),
    "conservative": (lambda u, up, um, d: (up**2 - um**2) / d, 4.0),
    "skew": (lambda u, up, um, d: (u * (up - um) + up**2 - um**2) / d, 6.0),
}
SCHEMES = ("rk4", "euler", "euler-maruyama")


def burgers_rhs(u, dx, alpha, eps, phi, form="advective"):
    """Semi-discrete forced Burgers right-hand side on a periodic grid.

    Parameters
    ----------
    u : ndarray, shape (n,)
        Grid values at x_i = i dx.
    dx : float
        Grid spacing.
    alpha : float
        Advection strength.
    eps : float
        Forcing strength.
    phi : ndarray or float
        Forcing values at the grid points (already evaluated at this time).
    form : str
        Advection discretisation: ``advective`` u (u_{i+1}-u_{i-1})/(2 dx),
        ``conservative`` (u_{i+1}^2 - u_{i-1}^2)/(4 dx), or ``skew`` (their
        1:2 mean, which conserves the quadratic invariant).

    Returns
    -------
    ndarray, shape (n,)
    """
    u = np.asarray(u, dtype=float)
    return burgers_form(dx, alpha, eps, form)(u, phi, np.empty_like(u))


def burgers_form(dx, alpha, eps, form="advective"):
    """burgers_rhs with dx and form checked once: rhs(u, phi, out) writes the
    derivative of the 1-D float ring u into out (which must not overlap u)
    with burgers_rhs's arithmetic in its order, and returns out."""
    check_positive("grid spacing dx", dx)
    if form not in _ADVECTION:
        raise ConfigError(
            f"unknown advection form {form!r}; expected one of {tuple(_ADVECTION)}"
        )
    advection, k = _ADVECTION[form]
    two, dx2, den, alpha, eps = operands(2.0, dx**2, k * dx, alpha, eps)

    def rhs(u, phi, out):
        p = u[ring_index(len(u))]
        up, um = p[2:], p[:-2]
        diffusion = (up - two * u + um) / dx2
        return np.add(diffusion - alpha * advection(u, up, um, den), eps * phi,
                      out=out)

    return rhs


def lattice_form(H, alpha, eps):
    """Half-spacing lattice right-hand side, H checked once: rhs(u, phi, out)
    writes into out, as burgers_form's.

    Points at x_i = i H/2, two per element of half-width H:

        du_i/dt = (4/H^2)(u_{i+1} - 2 u_i + u_{i-1})
                  - (alpha/H) u_i (u_{i+1} - u_{i-1}) + eps phi_i.
    """
    check_positive("element half-width H", H)
    c2, c1, two, eps = operands(4.0 / H**2, alpha / H, 2.0, eps)

    def rhs(u, phi, out):
        p = u[ring_index(len(u))]
        up, um = p[2:], p[:-2]
        return np.add(c2 * (up - two * u + um) - c1 * u * (up - um), eps * phi,
                      out=out)

    return rhs


def lattice_decay_rates(H: float) -> tuple[float, float]:
    """Decay rates (8/H^2, 16/H^2) of a decoupled element's two fast modes."""
    check_positive("element half-width H", H)
    return 8.0 / H**2, 16.0 / H**2


@functools.lru_cache(maxsize=64)
def _weights(dt):
    """(h, and as 0-d operands h, dt, dt/6 and 2) of a step of dt."""
    return (0.5 * dt,) + operands(0.5 * dt, dt, dt / 6.0, 2.0)


def rk4_step(u, rhs, t, dt):
    """One classical Runge-Kutta step of du/dt = rhs(u, t) on a fresh ``stepper``
    frame: rhs may return a shared array, or view its argument until it returns."""
    return stepper(plain(rhs), dt)(u, t)


def plain(rhs):
    """A stepper's binder for a plain rhs(y, t): its stage copies rhs(src, t),
    a fresh array or a shared one, into dst."""
    return lambda src, dst: lambda t: np.copyto(dst, rhs(src, t))


def stepper(bind, dt, scheme="rk4"):
    """The scheme's one-step map advance(u, t) for dt, checked once, for
    ``march``, stepping in place on one frame of buffers.

    bind(src, dst), called once per pair of the frame's buffers, returns a
    stage(t) that reads only src, writes the derivative into dst, and keeps
    neither after it returns (``plain`` binds a plain rhs(y, t)).  The
    frame, allocated at the first call and for a new shape, holds two state
    buffers used in turn, and under rk4 one per stage argument and two for
    the derivatives.  advance writes into no u and returns the buffer it
    wrote, which the next call does not write.  RK4 and Euler keep the
    textbook operations in their order (IEEE + and * commute exactly, so
    the bits are theirs): RK4 sums 2 k2 + k1 into the new state once k2 is
    in, and its one temporary 2 k3 goes into k3's buffer.

    euler-maruyama advances identically to euler; the distinction is which
    forcing kinds are legal (white noise demands it, smooth kinds may use
    any scheme).  That legality is checked where signals meet engines, via
    ``check_scheme_legal``.
    """
    check_positive("time step dt", dt)
    check_scheme_legal(scheme, False)
    h, h_, dt_, dt6, two = _weights(dt)
    rk4 = scheme == "rk4"
    cur = nxt = s_cur = s_nxt = k1 = k2 = a2 = a3 = a4 = s2 = s3 = s4 = None

    def advance(u, t):
        nonlocal cur, nxt, s_cur, s_nxt, k1, k2, a2, a3, a4, s2, s3, s4
        if u is cur:
            s1 = s_cur
        else:
            u = np.asarray(u, dtype=float)
            if cur is None or u.shape != cur.shape:
                cur, nxt, k1, *rest = [np.empty(u.shape)
                                       for _ in range(7 if rk4 else 3)]
                s_cur, s_nxt = bind(cur, k1), bind(nxt, k1)
                if rk4:  # k3 into k1's buffer and k4 into k2's, once read
                    k2, a2, a3, a4 = rest
                    s2, s3, s4 = bind(a2, k2), bind(a3, k1), bind(a4, k2)
            if np.may_share_memory(u, nxt):
                u = u.copy()
            s1 = bind(u, k1)
        dst = nxt
        s1(t)
        if rk4:
            np.add(np.multiply(k1, h_, a2), u, a2)
            s2(t + h)
            np.add(np.multiply(k2, h_, a3), u, a3)
            np.add(np.multiply(k2, two, dst), k1, dst)
            s3(t + h)
            np.add(np.multiply(k1, dt_, a4), u, a4)
            dst += np.multiply(k1, two, k1)
            s4(t + dt)
            dst += k2
            dst *= dt6
        else:
            np.multiply(dt_, k1, dst)
        dst += u
        cur, nxt, s_cur, s_nxt = dst, cur, s_nxt, s_cur
        return dst

    return advance


def check_scheme_legal(scheme: str, forcing_is_white: bool) -> None:
    """The one check of a scheme name; white-noise forcing is legal only
    under euler-maruyama."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if forcing_is_white and scheme != "euler-maruyama":
        raise ConfigError(
            "white-noise forcing needs the euler-maruyama scheme; "
            f"got {scheme!r}"
        )


def exact_steps(t_end: float, dt: float) -> int:
    """Number of dt steps that lands on t_end; refuses any other dt."""
    check_positive("time step dt", dt)
    n = int(round(t_end / dt)) if isfinite(t_end / dt) else -1
    if n < 0 or abs(n * dt - t_end) > 1e-9 * abs(t_end):
        raise ConfigError(
            f"run length t_end = {t_end!r} is not a whole, non-negative "
            f"number of steps dt = {dt!r}"
        )
    return n


def exact_points(L: float, dx: float) -> int:
    """Number of dx-spaced points that tile a ring of length L > 0."""
    n = int(round(L / dx)) if dx > 0.0 else 0
    if n < 1 or abs(n * dx - L) > 1e-9 * L:
        raise ConfigError(f"ring length L = {L!r} is not a whole number of "
                          f"grid spacings dx = {dx!r}")
    return n


def march(advance, y0, t0, n_steps, dt, record_every=1,
          blocks=(("state", slice(None)),)):
    """Take n_steps of y <- advance(y, t0 + k dt); returns (times, history).

    Records t0, every record_every-th step and the last step, into arrays
    of shapes (r,) and (r,) + y0.shape.  blocks names index ranges that
    cover the state, upstream first; a non-finite state raises
    StabilityError naming the first bad block.  One sum of squares screens
    each step: it is finite unless an entry is not or the sum overflows (a
    2-norm above about 1.3e154), and only then is each entry tested.  The
    steps run with numpy's overflow, invalid and divide warnings off: a
    blow-up is reported once, by that error.
    """
    if record_every < 1:
        raise ConfigError("record_every must be at least 1")
    y = np.asarray(y0, dtype=float)
    n_rec = 1 + n_steps // record_every + (n_steps % record_every > 0)
    times = np.empty(n_rec)
    history = np.empty((n_rec,) + y.shape)
    times[0], history[0] = t0, y
    rec = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            y = advance(y, t0 + k * dt)
            if not isfinite(np.vdot(y, y)) and not np.isfinite(y).all():
                raise non_finite_error(y, blocks, t0, k, dt)
            if (k + 1) % record_every == 0 or k + 1 == n_steps:
                rec += 1
                times[rec], history[rec] = t0 + (k + 1) * dt, y
    return times, history


def non_finite_error(y, blocks, t0, k, dt):
    """march's StabilityError for step k's non-finite state y: its first
    non-finite block, at t0 + (k + 1) dt (the 1-D cascades' float run's too)."""
    bad = [name for name, b in blocks if not np.isfinite(y[b]).all()]
    t = t0 + (k + 1) * dt
    return StabilityError(f"{bad[0]} went non-finite at t = {t:.6g}; reduce dt")
