"""Forcing signals and their per-element mode decomposition.

A nonautonomous forcing field phi(x, t) drives both the fine-scale solvers
and the coarse models.  The coarse models never see the raw field: element j,
centred at X_j with half-width H, sees it only through the coefficients
phi[j, k](t) of the mixed cosine/sine basis

    csn(k, theta) = cos(k theta)  for even k,
                    sin(k theta)  for odd k,

where theta = pi (x - X_j) / H is the subgrid coordinate.  The basis is
orthogonal over the non-overlapping window |x - X_j| <= H/2 (i.e.
|theta| <= pi/2), and mode k relaxes at rate (k pi / H)^2 within an element,
so the coefficients are exactly what the memory convolutions integrate.

Signal kinds: constant, harmonic, a chaotic Lorenz system integrated
alongside the simulation, white noise (legal only with the Euler-Maruyama
stepper), and tabulated files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_finite, check_positive

__all__ = [
    "csn",
    "mode_decay_rate",
    "lorenz_point",
    "SignalSpec",
    "Signal",
    "make_signal",
    "ElementGrid",
    "project_to_modes",
]

LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0

SIGNAL_KINDS = ("constant", "harmonic", "lorenz", "white-noise", "file")


def csn(k: int, theta):
    """Mixed basis function: cos(k theta) for even k, sin(k theta) for odd k."""
    if k % 2:
        return np.sin(k * np.asarray(theta, dtype=float))
    return np.cos(k * np.asarray(theta, dtype=float))


def mode_decay_rate(k: int, H: float) -> float:
    """Relaxation rate (k pi / H)^2 of subgrid mode k on an element of half-width H."""
    check_positive("element half-width H", H)
    return (k * np.pi / H) ** 2


def lorenz_point(xi, eta, zeta, sigma=LORENZ_SIGMA, rho=LORENZ_RHO,
                 beta=LORENZ_BETA, out=None):
    """(dxi, deta, dzeta): the package's one copy of the Lorenz equations,
    on Python floats (one system, no numpy dispatch) or on equal-shape
    arrays (one system per entry, the constants best passed as 0-d
    operands); +, - and * round alike in both.  Given out = (dxi, deta,
    dzeta), arrays of the inputs' shape that must not overlap them, the
    array form writes into out and returns it, with no temporaries: each
    operation one ufunc call on the operator form's operands in their
    order (dzeta's row first, its xi * eta held in dxi)."""
    if out is None:
        return (sigma * (eta - xi), xi * (rho - zeta) - eta, xi * eta - beta * zeta)
    dxi, deta, dzeta = out
    np.subtract(np.multiply(xi, eta, dxi), np.multiply(beta, zeta, dzeta), dzeta)
    np.multiply(sigma, np.subtract(eta, xi, dxi), dxi)
    np.subtract(np.multiply(xi, np.subtract(rho, zeta, deta), deta), eta, deta)
    return out


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of one scalar signal stream.

    Parameters
    ----------
    kind : str
        One of ``constant``, ``harmonic``, ``lorenz``, ``white-noise``,
        ``file``.
    amplitude : float
        Output scale for harmonic, lorenz, and file kinds.
    omega, phase : float
        Harmonic kind: amplitude * cos(omega t + phase).
    value : float
        Constant kind.
    intensity : float
        White-noise kind: per-step samples intensity * N(0,1) / sqrt(dt).
    path : str or None
        File kind: two-column text file (time, value), linearly interpolated.
    xi0, eta0 : float
        Lorenz initial xi and eta; initial zeta is drawn from N(10, 1).

    The random pieces (Lorenz zeta, white-noise draws) come from the run's
    seed, not from the spec.
    """

    kind: str
    amplitude: float = 1.0
    omega: float = 1.0
    phase: float = 0.0
    value: float = 0.0
    intensity: float = 1.0
    path: str | None = None
    xi0: float = 5.0
    eta0: float = 8.0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ConfigError(
                f"unknown signal kind {self.kind!r}; expected one of {SIGNAL_KINDS}"
            )
        for name in ("amplitude", "omega", "phase", "value", "intensity",
                     "xi0", "eta0"):
            check_finite(f"signal {name}", getattr(self, name))
        if self.kind == "harmonic":
            check_positive("harmonic signal omega", self.omega)
        if self.kind == "white-noise":
            check_finite("white-noise intensity", self.intensity, 0.0)
        if self.kind == "file" and not self.path:
            raise ConfigError("file signal needs a path")


class Signal:
    """One scalar stream, optionally carrying an embedded driver ODE.

    Deterministic kinds are pure functions of time.  The lorenz kind exposes
    a 3-state driver that engines integrate jointly with the simulation, so
    paired runs see bit-identical forcing paths.  White noise has no
    pointwise value; engines draw one sample per step via ``draw``.
    """

    is_white = False
    driver_dim = 0

    def driver_init(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(0)

    def value(self, t: float, driver: np.ndarray | None = None) -> float:
        raise NotImplementedError


class ConstantSignal(Signal):
    def __init__(self, value: float):
        self.constant = float(value)

    def value(self, t, driver=None):
        return self.constant


class HarmonicSignal(Signal):
    """amplitude * cos(omega t + phase): by math.cos, a Python float, at a
    float t (np.float64 too), a quarter of np.cos's cost; else by np.cos.
    form, over the constants args and a time t, is the formula's one copy:
    value is compiled from it, and convolution's 1-D float loop inlines it."""

    args = ("amplitude", "omega", "phase")
    form = "{amplitude} * cos({omega} * {t} + {phase})"

    def __init__(self, amplitude: float, omega: float, phase: float):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)

    exec("def value(self, t, driver=None):\n"  # form over self's constants
         "    cos = math.cos if isinstance(t, float) else np.cos\n"
         f"    return {form.format(t='t', **{a: 'self.' + a for a in args})}\n")


class LorenzSignal(Signal):
    """Chaotic signal: amplitude times the xi component of a Lorenz system."""

    driver_dim = 3

    def __init__(self, amplitude: float, xi0: float, eta0: float):
        self.amplitude = float(amplitude)
        self.xi0 = float(xi0)
        self.eta0 = float(eta0)

    def driver_init(self, rng):
        return np.array([self.xi0, self.eta0, rng.normal(10.0, 1.0)])

    def value(self, t, driver=None):
        if driver is None:
            raise ConfigError("lorenz signal needs its driver state to evaluate")
        return self.amplitude * driver[0]


class WhiteNoiseSignal(Signal):
    """White noise; only legal with the euler-maruyama stepper."""

    is_white = True

    def __init__(self, intensity: float):
        self.intensity = float(intensity)

    def value(self, t, driver=None):
        raise ConfigError(
            "white noise has no pointwise value; draw one sample per step"
        )

    def draw(self, rng: np.random.Generator, dt: float, size=None):
        """One per-step sample intensity * N(0,1) / sqrt(dt)."""
        check_positive("white-noise draw's dt", dt)
        return self.intensity * rng.standard_normal(size) / math.sqrt(dt)


class FileSignal(Signal):
    """Tabulated signal, linearly interpolated between samples."""

    def __init__(self, path: str, amplitude: float):
        try:
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except OSError as exc:
            raise DataError(f"cannot read signal file {path}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"malformed signal file {path}: {exc}") from exc
        if table.shape[1] != 2:
            raise DataError(
                f"signal file {path} must have two columns (t, value), "
                f"got {table.shape[1]}"
            )
        if table.shape[0] < 2:
            raise DataError(f"signal file {path} needs at least two samples")
        t = table[:, 0]
        if np.any(np.diff(t) <= 0.0):
            raise DataError(f"signal file {path} times must strictly increase")
        self.times = t
        self.samples = table[:, 1]
        self.amplitude = float(amplitude)

    def value(self, t, driver=None):
        if t < self.times[0] or t > self.times[-1]:
            raise DataError(
                f"time {t} outside tabulated range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return self.amplitude * float(np.interp(t, self.times, self.samples))


def make_signal(spec: SignalSpec) -> Signal:
    """Instantiate the signal a spec describes."""
    if spec.kind == "constant":
        return ConstantSignal(spec.value)
    if spec.kind == "harmonic":
        return HarmonicSignal(spec.amplitude, spec.omega, spec.phase)
    if spec.kind == "lorenz":
        return LorenzSignal(spec.amplitude, spec.xi0, spec.eta0)
    if spec.kind == "white-noise":
        return WhiteNoiseSignal(spec.intensity)
    return FileSignal(spec.path, spec.amplitude)


@dataclass(frozen=True)
class ElementGrid:
    """m overlapping elements of half-width H covering a periodic domain.

    Element j is centred at X_j = x0 + j H and spans |x - X_j| <= H; the
    domain length is L = m H, so adjacent elements overlap by half and the
    non-overlapping windows |x - X_j| <= H/2 tile the domain.
    """

    m: int
    H: float
    x0: float = 0.0

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 3:
            raise ConfigError(f"need at least 3 elements, got m={self.m}")
        check_positive("element half-width H", self.H)

    @property
    def length(self) -> float:
        return self.m * self.H

    def centres(self) -> np.ndarray:
        return self.x0 + self.H * np.arange(self.m)


def project_to_modes(
    x: np.ndarray,
    phi: np.ndarray,
    grid: ElementGrid,
    K: int = 3,
) -> np.ndarray:
    """Mode coefficients of a sampled field over each element's window.

    Computes, for every element j and mode k < K, the csn coefficient of the
    samples lying in the non-overlapping window |x - X_j| <= H/2.  The
    quadrature is a periodic trapezoid rule in theta: window-edge samples
    (exactly at X_j +- H/2) get half weight, interior samples full weight.
    On a uniform grid this integrates products of csn modes exactly, so
    fields that are finite csn sums are recovered to round-off.

    Parameters
    ----------
    x : ndarray, shape (n,)
        Strictly increasing, uniformly spaced sample positions covering one
        period of the domain.
    phi : ndarray, shape (n,)
        Field samples at x.
    grid : ElementGrid
    K : int
        Number of modes per element (coefficients k = 0 .. K-1).

    Returns
    -------
    ndarray, shape (m, K)

    Raises
    ------
    DataError
        If the sampling is non-uniform or too coarse for K modes.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if x.ndim != 1 or x.shape != phi.shape:
        raise DataError("x and phi must be 1-D arrays of equal length")
    if K < 1:
        raise ConfigError(f"need at least one mode, got K={K}")
    if x.size < 2:
        raise DataError("need at least two samples")
    steps = np.diff(x)
    if np.any(steps <= 0.0):
        raise DataError("sample positions must strictly increase")
    step = steps[0]
    if not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise DataError("sample positions must be uniformly spaced")
    L = grid.length
    if x[-1] - x[0] >= L:
        raise DataError("samples span more than one period of the domain")

    dtheta = np.pi * step / grid.H
    half_width = 0.5 * grid.H
    edge_tol = 1e-9 * grid.H
    out = np.empty((grid.m, K))
    for j, Xj in enumerate(grid.centres()):
        # Wrapped displacement from the centre, in [-L/2, L/2).
        rel = (x - Xj + 0.5 * L) % L - 0.5 * L
        inside = np.abs(rel) <= half_width + edge_tol
        n_in = int(np.count_nonzero(inside))
        if n_in < 2 * K + 1:
            raise DataError(
                f"element {j}: {n_in} samples in its window cannot resolve "
                f"{K} modes; refine the sampling"
            )
        theta = np.pi * rel[inside] / grid.H
        f = phi[inside]
        w = np.ones(n_in)
        w[np.abs(np.abs(rel[inside]) - half_width) <= edge_tol] = 0.5
        out[j, 0] = np.sum(w * f) * dtheta / np.pi
        for k in range(1, K):
            out[j, k] = 2.0 * np.sum(w * f * csn(k, theta)) * dtheta / np.pi
    return out
