"""Fine-scale solvers: forced Burgers dynamics on periodic grids.

Two discretisations of u_t + alpha u u_x = u_xx + eps phi(x, t):

* ``burgers_rhs``: standard second-order centred differences on a fine
  periodic grid of spacing dx, with a choice of advection form.
* ``lattice_form``: the half-spacing lattice used to shadow the coarse
  models.  Points sit at x_i = i H/2 (two per element), and the printed
  coefficients absorb the spacing, so the form takes H itself.

Each is a bound form (``burgers_form``, ``lattice_form``) that engines
resolve once per run and that writes into the caller's slice;
``burgers_rhs`` is the Burgers form's one-call check.
Plus the package's fixed-step integration.  ``march`` is its one time
loop: every engine (paired fine/coarse runs, memory cascades, weak models,
experiments) hands it a one-step map, so every run counts its steps, records
its history and reports a non-finite state the same way.  ``exact_steps`` is
the one whole-steps rule for run lengths, ``exact_points`` its twin for
grids.  The steppers are deliberately hand-rolled: runs must be
bit-reproducible across platforms, and adaptive steppers would break the
pairing of forcing paths between fine and coarse runs.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import ConfigError, StabilityError

__all__ = [
    "burgers_rhs",
    "burgers_form",
    "lattice_form",
    "lattice_decay_rates",
    "rk4_step",
    "stepper",
    "exact_steps",
    "exact_points",
    "march",
    "check_scheme_legal",
]

# burgers_rhs's advection terms over (u_i, u_{i+1}, u_{i-1}, dx).
_ADVECTION = {
    "advective": lambda u, up, um, dx: u * (up - um) / (2.0 * dx),
    "conservative": lambda u, up, um, dx: (up**2 - um**2) / (4.0 * dx),
    "skew": lambda u, up, um, dx: (u * (up - um) + up**2 - um**2) / (6.0 * dx),
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
    if dx <= 0.0:
        raise ConfigError(f"grid spacing must be positive, got {dx}")
    if form not in _ADVECTION:
        raise ConfigError(
            f"unknown advection form {form!r}; expected one of {tuple(_ADVECTION)}"
        )
    advection = _ADVECTION[form]

    def rhs(u, phi, out):
        p = np.concatenate((u[-1:], u, u[:1]))  # ring_pad, u already float
        up, um = p[2:], p[:-2]
        diffusion = (up - 2.0 * u + um) / dx**2
        return np.add(diffusion - alpha * advection(u, up, um, dx), eps * phi,
                      out=out)

    return rhs


def lattice_form(H, alpha, eps):
    """Half-spacing lattice right-hand side, H checked once: rhs(u, phi, out)
    writes into out, as burgers_form's.

    Points at x_i = i H/2, two per element of half-width H:

        du_i/dt = (4/H^2)(u_{i+1} - 2 u_i + u_{i-1})
                  - (alpha/H) u_i (u_{i+1} - u_{i-1}) + eps phi_i.
    """
    if H <= 0.0:
        raise ConfigError(f"element half-width must be positive, got {H}")
    c2, c1 = 4.0 / H**2, alpha / H

    def rhs(u, phi, out):
        p = np.concatenate((u[-1:], u, u[:1]))
        up, um = p[2:], p[:-2]
        return np.add(c2 * (up - 2.0 * u + um) - c1 * u * (up - um), eps * phi,
                      out=out)

    return rhs


def lattice_decay_rates(H: float) -> tuple[float, float]:
    """Decay rates (8/H^2, 16/H^2) of a decoupled element's two fast modes."""
    if H <= 0.0:
        raise ConfigError(f"element half-width must be positive, got {H}")
    return 8.0 / H**2, 16.0 / H**2


def rk4_step(u, rhs, t, dt):
    """One classical Runge-Kutta step of du/dt = rhs(u, t).

    u + dt/6 (k1 + 2 k2 + 2 k3 + k4), each stage argument u + h k, computed
    as the textbook expression's operations in its order (IEEE + and *
    commute exactly, so the bits are its bits) with two temporaries of the
    state for the combination.  It writes into neither u nor any array rhs
    returned, nor a stage argument once rhs has seen it: rhs may return a
    shared array or keep a view of its argument.
    """
    h = 0.5 * dt
    k1 = rhs(u, t)
    w = k1 * h
    w += u
    k2 = rhs(w, t + h)
    w = k2 * h
    w += u
    k3 = rhs(w, t + h)
    w = k3 * dt
    w += u
    k4 = rhs(w, t + dt)
    acc = k2 * 2.0
    acc += k1
    w = k3 * 2.0
    acc += w
    acc += k4
    acc *= dt / 6.0
    acc += u
    return acc


def euler_step(u, rhs, t, dt):
    """One forward Euler step of du/dt = rhs(u, t)."""
    return u + dt * rhs(u, t)


def stepper(rhs, dt, scheme="rk4"):
    """The scheme's one-step map advance(u, t) for rhs and dt, checked once,
    for ``march``.

    euler-maruyama advances identically to euler; the distinction is which
    forcing kinds are legal (white noise demands it, smooth kinds may use
    any scheme).  That legality is checked where signals meet engines, via
    ``check_scheme_legal``.
    """
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got {dt}")
    if scheme == "rk4":
        one = rk4_step
    elif scheme in ("euler", "euler-maruyama"):
        one = euler_step
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return lambda u, t: one(u, rhs, t, dt)


def check_scheme_legal(scheme: str, forcing_is_white: bool) -> None:
    """White-noise forcing is legal only under euler-maruyama."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if forcing_is_white and scheme != "euler-maruyama":
        raise ConfigError(
            "white-noise forcing needs the euler-maruyama scheme; "
            f"got {scheme!r}"
        )


def exact_steps(t_end: float, dt: float) -> int:
    """Number of dt steps that lands on t_end; refuses any other dt."""
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got {dt}")
    n = int(round(t_end / dt))
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
                bad = [name for name, b in blocks if not np.isfinite(y[b]).all()]
                t = t0 + (k + 1) * dt
                raise StabilityError(
                    f"{bad[0]} went non-finite at t = {t:.6g}; reduce dt")
            if (k + 1) % record_every == 0 or k + 1 == n_steps:
                rec += 1
                times[rec], history[rec] = t0 + (k + 1) * dt, y
    return times, history

