"""Fine-scale solvers: forced Burgers dynamics on periodic grids.

Two discretisations of u_t + alpha u u_x = u_xx + eps phi(x, t):

* ``burgers_rhs``: standard second-order centred differences on a fine
  periodic grid of spacing dx, with a choice of advection form.
* ``lattice_rhs``: the half-spacing lattice used to shadow the coarse
  models.  Points sit at x_i = i H/2 (two per element), and the printed
  coefficients absorb the spacing, so the rhs takes H itself.

Plus the package's fixed-step integration.  ``march`` is its one time
loop: every engine (paired fine/coarse runs, memory cascades, weak models,
experiments) hands it a one-step map, so every run counts its steps, records
its history and reports a non-finite state the same way.  ``exact_steps`` is
the one whole-steps rule for run lengths.  The steppers are deliberately
hand-rolled: runs must be bit-reproducible across platforms, and adaptive
steppers would break the pairing of forcing paths between fine and coarse
runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, StabilityError
from .stencil import ring_pad

__all__ = [
    "burgers_rhs",
    "lattice_rhs",
    "lattice_decay_rates",
    "rk4_step",
    "step",
    "exact_steps",
    "march",
    "integrate",
    "check_scheme_legal",
]

ADVECTION_FORMS = ("advective", "conservative", "skew")
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
    if dx <= 0.0:
        raise ConfigError(f"grid spacing must be positive, got {dx}")
    u = np.asarray(u, dtype=float)
    p = ring_pad(u)
    up, um = p[2:], p[:-2]
    diffusion = (up - 2.0 * u + um) / dx**2
    if form == "advective":
        advection = u * (up - um) / (2.0 * dx)
    elif form == "conservative":
        advection = (up**2 - um**2) / (4.0 * dx)
    elif form == "skew":
        advection = (u * (up - um) + up**2 - um**2) / (6.0 * dx)
    else:
        raise ConfigError(
            f"unknown advection form {form!r}; expected one of {ADVECTION_FORMS}"
        )
    return diffusion - alpha * advection + eps * phi


def lattice_rhs(u, H, alpha, eps, phi):
    """Half-spacing lattice right-hand side.

    Points at x_i = i H/2, two per element of half-width H:

        du_i/dt = (4/H^2)(u_{i+1} - 2 u_i + u_{i-1})
                  - (alpha/H) u_i (u_{i+1} - u_{i-1}) + eps phi_i.
    """
    if H <= 0.0:
        raise ConfigError(f"element half-width must be positive, got {H}")
    u = np.asarray(u, dtype=float)
    p = ring_pad(u)
    up, um = p[2:], p[:-2]
    return (
        (4.0 / H**2) * (up - 2.0 * u + um)
        - (alpha / H) * u * (up - um)
        + eps * phi
    )


def lattice_decay_rates(H: float) -> tuple[float, float]:
    """Decay rates (8/H^2, 16/H^2) of a decoupled element's two fast modes."""
    if H <= 0.0:
        raise ConfigError(f"element half-width must be positive, got {H}")
    return 8.0 / H**2, 16.0 / H**2


def rk4_step(u, rhs, t, dt):
    """One classical Runge-Kutta step of du/dt = rhs(u, t)."""
    k1 = rhs(u, t)
    k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(u + dt * k3, t + dt)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(u, rhs, t, dt, scheme="rk4"):
    """One time step under the named scheme.

    euler-maruyama advances identically to euler; the distinction is which
    forcing kinds are legal (white noise demands it, smooth kinds may use
    any scheme).  That legality is checked where signals meet engines, via
    ``check_scheme_legal``.
    """
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got {dt}")
    if scheme == "rk4":
        return rk4_step(u, rhs, t, dt)
    if scheme in ("euler", "euler-maruyama"):
        return u + dt * rhs(u, t)
    raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


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


def march(advance, y0, t0, n_steps, dt, record_every=1,
          blocks=(("state", slice(None)),)):
    """Take n_steps of y <- advance(y, t0 + k dt); returns (times, history).

    Records t0, every record_every-th step and the last step, into arrays
    of shapes (r,) and (r,) + y0.shape.  blocks names index ranges that
    cover the state, upstream first; a non-finite state raises
    StabilityError naming the first bad block.
    """
    if record_every < 1:
        raise ConfigError("record_every must be at least 1")
    y = np.asarray(y0, dtype=float)
    n_rec = 1 + n_steps // record_every + (n_steps % record_every > 0)
    times = np.empty(n_rec)
    history = np.empty((n_rec,) + y.shape)
    times[0], history[0] = t0, y
    rec = 0
    for k in range(n_steps):
        y = advance(y, t0 + k * dt)
        if not np.isfinite(y).all():
            bad = [name for name, b in blocks if not np.isfinite(y[b]).all()]
            t = t0 + (k + 1) * dt
            raise StabilityError(f"{bad[0]} went non-finite at t = {t:.6g}; reduce dt")
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            rec += 1
            times[rec], history[rec] = t0 + (k + 1) * dt, y
    return times, history


def integrate(u0, rhs, t0, t_end, dt, scheme="rk4", record_every=1):
    """Fixed-step integration of du/dt = rhs(u, t), recording every k steps.

    t_end - t0 must be a whole number of steps.  Returns (times, history),
    shapes (r,) and (r, n); raises StabilityError on a non-finite state.
    """
    if t_end <= t0:
        raise ConfigError(f"need t_end > t0, got [{t0}, {t_end}]")
    return march(lambda u, t: step(u, rhs, t, dt, scheme), u0, t0,
                 exact_steps(t_end - t0, dt), dt, record_every)
