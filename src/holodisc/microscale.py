"""Fine-scale solvers: forced Burgers dynamics on periodic grids.

Two discretisations of u_t + alpha u u_x = u_xx + eps phi(x, t):

* ``burgers_rhs``: standard second-order centred differences on a fine
  periodic grid of spacing dx, with a choice of advection form.
* ``lattice_rhs``: the half-spacing lattice used to shadow the coarse
  models.  Points sit at x_i = i H/2 (two per element), and the printed
  coefficients absorb the spacing, so the rhs takes H itself.

Plus small fixed-step integrators.  They are deliberately hand-rolled: runs
must be bit-reproducible across platforms, and adaptive steppers would break
the pairing of forcing paths between fine and coarse runs.
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


def integrate(u0, rhs, t0, t_end, dt, scheme="rk4", record_every=1):
    """Fixed-step integration of du/dt = rhs(u, t), recording every k steps.

    Returns
    -------
    times : ndarray, shape (r,)
    history : ndarray, shape (r, n)

    Raises
    ------
    StabilityError
        As soon as any component goes non-finite, naming the step and time.
    """
    if t_end <= t0:
        raise ConfigError(f"need t_end > t0, got [{t0}, {t_end}]")
    if record_every < 1:
        raise ConfigError("record_every must be at least 1")
    u = np.asarray(u0, dtype=float).copy()
    n_steps = int(round((t_end - t0) / dt))
    times = [t0]
    history = [u.copy()]
    t = t0
    for k in range(n_steps):
        u = step(u, rhs, t, dt, scheme)
        t = t0 + (k + 1) * dt
        if not np.all(np.isfinite(u)):
            bad = int(np.argmin(np.isfinite(u)))
            raise StabilityError(
                f"non-finite value at grid index {bad} after step {k + 1} "
                f"(t = {t:.6g}); reduce dt"
            )
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            times.append(t)
            history.append(u.copy())
    return np.asarray(times), np.asarray(history)
