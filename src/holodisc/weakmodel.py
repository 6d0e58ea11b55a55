"""Weak replacements for the memory-product forcing terms.

The quadratic forcing terms of the coarse models are products of a signal
with an exponentially convolved signal.  Over times long compared with the
memory, the models' statistics depend on those products only through their
mean drift and effective noise, so each product can be replaced:

* harmonic signals: the product's long-time average, a constant drift
  (``harmonic_drift_1``/``harmonic_drift_2``, generalised to arbitrary
  phasor patterns by ``phasor_drift``);
* white-noise signals: a drift (one half per same-signal single
  convolution, zero otherwise) plus fresh independent white noises with
  amplitudes fixed by the decay rates (``stochastic_replace``).

``build_weak_model`` applies the replacements to a whole coarse variant,
yielding a model with no memory chains at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import ConvChain, canonical_rates, chain_layout, packed_chain_rhs
from .errors import ConfigError
from .forcing import SignalSpec
from .macromodel import (
    EXPR_NAMES,
    ModelConfig,
    ssm1_chain_specs,
    ssm1_det_linear,
    ssm1_memory_weights,
    strongquad_det_linear,
    strongquad_expressions,
    strongquad_quadratic_terms,
)
from .microscale import exact_steps, march, rk4_step

__all__ = [
    "harmonic_drift_1",
    "harmonic_drift_2",
    "phasor_drift",
    "QuadraticTermDescriptor",
    "StochasticReplacement",
    "stochastic_replace",
    "simulate_quadrature_ensemble",
    "weak_quadrature_samples",
    "WeakCoarseModel",
    "build_weak_model",
]


def harmonic_drift_1(beta_k, omega_mu, omega_rho, phase) -> float:
    """Long-time average of cos(omega_rho t + phase) * Z[beta_k] cos(omega_mu t).

    Zero unless the frequencies agree exactly (incommensurate products
    average away); amplitudes other than one scale the result by their
    product.
    """
    if beta_k <= 0.0:
        raise ConfigError(f"decay rate must be positive, got {beta_k}")
    if omega_mu != omega_rho:
        return 0.0
    return (beta_k * np.cos(phase) - omega_mu * np.sin(phase)) / (
        2.0 * (beta_k**2 + omega_mu**2)
    )


def harmonic_drift_2(beta_k, beta_l, omega_mu, omega_rho, phase) -> float:
    """Long-time average with a double convolution Z[beta_l, beta_k]."""
    if beta_k <= 0.0 or beta_l <= 0.0:
        raise ConfigError("decay rates must be positive")
    if omega_mu != omega_rho:
        return 0.0
    w2 = omega_mu**2
    num = (beta_k * beta_l - w2) * np.cos(phase) - omega_mu * (
        beta_k + beta_l
    ) * np.sin(phase)
    return num / (2.0 * (beta_k**2 + w2) * (beta_l**2 + w2))


def phasor_drift(rates, omega, left_phasor, right_phasor):
    """General harmonic drift: average of Re[L e^{iwt}] * Z[rates] Re[R e^{iwt}].

    L and R may be complex arrays (per-element phasors); the result is
    0.5 Re[L conj(T R)] with T the chain transfer function at frequency
    omega.  Reduces to the scalar formulas for single cosines.
    """
    T = ConvChain(canonical_rates(rates)).transfer(omega)
    L = np.asarray(left_phasor, dtype=complex)
    R = np.asarray(right_phasor, dtype=complex)
    return 0.5 * np.real(L * np.conj(T * R))


@dataclass(frozen=True)
class QuadraticTermDescriptor:
    """Identity of one raw-signal product phi_{i,p} Z[rates] phi_{j,n}.

    Element indices and mode numbers name the two signal streams; rates is
    the convolution's rate vector (length 1 or 2).  Replacement noise
    streams are keyed by exactly this identity plus a slot index, so the
    same subscript tuple shares its stream wherever it appears.
    """

    left_element: int
    left_mode: int
    right_element: int
    right_mode: int
    rates: tuple[float, ...]

    def __post_init__(self):
        rates = canonical_rates(self.rates)
        if len(rates) not in (1, 2):
            raise ConfigError(
                f"weak replacement covers 1 or 2 rates, got {len(rates)}"
            )
        object.__setattr__(self, "rates", rates)

    @property
    def same_signal(self) -> bool:
        return (
            self.left_element == self.right_element
            and self.left_mode == self.right_mode
        )

    def stream_keys(self) -> tuple[tuple, ...]:
        base = (
            self.left_element,
            self.right_element,
            self.left_mode,
            self.right_mode,
            self.rates,
        )
        return tuple(base + (slot,) for slot in range(len(self.rates)))


def _slot_amplitudes(rates: tuple[float, ...]) -> tuple[float, ...]:
    if len(rates) == 1:
        return (1.0 / np.sqrt(2.0 * rates[0]),)
    pref = 1.0 / (rates[0] + rates[1])
    return (
        pref / np.sqrt(2.0 * rates[0]),
        pref / np.sqrt(2.0 * rates[1]),
    )


@dataclass(frozen=True)
class StochasticReplacement:
    """Drift plus fresh-noise amplitudes standing in for one product."""

    drift: float
    noise_amplitudes: tuple[float, ...]
    stream_keys: tuple[tuple, ...]


def stochastic_replace(
    term: QuadraticTermDescriptor,
    intensity_left: float = 1.0,
    intensity_right: float = 1.0,
) -> StochasticReplacement:
    """Weak equivalent of a white-noise product.

    A same-signal single convolution drifts at half the squared intensity;
    every other combination has zero drift.  Each replacement adds one new
    independent white noise per rate, amplitude 1/sqrt(2 b) (single) or
    1/((b1+b2) sqrt(2 b_i)) (double), scaled by both intensities.

    Both signals must be white-noise streams; harmonic forcing takes the
    drift formulas instead.
    """
    scale = float(intensity_left) * float(intensity_right)
    rates = term.rates
    if len(rates) == 1 and term.same_signal:
        drift = 0.5 * scale
    else:
        drift = 0.0
    amps = tuple(scale * a for a in _slot_amplitudes(rates))
    return StochasticReplacement(
        drift=drift, noise_amplitudes=amps, stream_keys=term.stream_keys()
    )


def simulate_quadrature_ensemble(
    rates,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int,
    same_signal: bool = True,
    intensity: float = 1.0,
) -> np.ndarray:
    """Strong-side samples of y(T) = int phi_rho Z[rates] phi_mu dt, white noise.

    Euler-Maruyama on the cascade; the quadrature uses the midpoint of the
    chain output across the step, which makes the same-signal mean exactly
    unbiased at finite dt.  Returns y(t_end) for each path.
    """
    rates = canonical_rates(rates)
    if t_end <= 0.0 or dt <= 0.0:
        raise ConfigError("need t_end > 0 and dt > 0")
    rng = np.random.default_rng(seed)
    layout = chain_layout([rates], 2)
    sq = np.sqrt(dt)

    def advance(y, t):
        # y stacks the cascade levels over the running quadrature sum.
        z = y[:-1]
        mu = intensity * rng.standard_normal(n_paths) / sq
        rho = mu if same_signal else intensity * rng.standard_normal(n_paths) / sq
        out = np.empty_like(y)
        out[:-1] = z + dt * packed_chain_rhs(z, layout, mu)
        out[-1] = y[-1] + dt * rho * 0.5 * (z[0] + out[0])
        return out

    n = int(round(t_end / dt))
    _, hist = march(advance, np.zeros((len(rates) + 1, n_paths)), 0.0, n, dt,
                    max(n, 1), ((f"memory chain {rates}", slice(0, -1)),
                                ("quadrature sum", slice(-1, None))))
    return hist[-1, -1]


def weak_quadrature_samples(
    rates,
    t_end: float,
    n_paths: int,
    seed: int,
    same_signal: bool = True,
    intensity: float = 1.0,
) -> np.ndarray:
    """Weak-side samples of y(t_end): drift times T plus the fresh noises.

    Exact in distribution (a Gaussian), no stepping involved.
    """
    term = QuadraticTermDescriptor(0, 0, 0, 0 if same_signal else 1, tuple(np.atleast_1d(rates)))
    rep = stochastic_replace(term, intensity, intensity)
    rng = np.random.default_rng(seed)
    y = np.full(n_paths, rep.drift * t_end)
    for amp in rep.noise_amplitudes:
        y = y + amp * np.sqrt(t_end) * rng.standard_normal(n_paths)
    return y


# -- whole-model replacement --------------------------------------------------

_OFFSET_WEIGHTS = {
    "phi": {0: 1.0},
    "mudelta": {1: 0.5, -1: -0.5},
    "delta2": {1: 1.0, 0: -2.0, -1: 1.0},
}


def _split_expr(name: str) -> tuple[str, int]:
    """'mudelta_phi2' -> ('mudelta', 2); 'phi0' -> ('phi', 0)."""
    if name.startswith("mudelta_phi"):
        return "mudelta", int(name[-1])
    if name.startswith("delta2_phi"):
        return "delta2", int(name[-1])
    return "phi", int(name[-1])


class WeakCoarseModel:
    """A coarse variant with every memory product replaced weakly.

    Carries no memory chains: ``memory_state`` is always None.  Harmonic
    forcing yields a deterministic model (products become constant drifts);
    white-noise forcing yields drift plus fresh multiplicative noises and
    requires the euler-maruyama scheme.

    Build through ``build_weak_model``.
    """

    memory_state = None

    def __init__(
        self,
        cfg: ModelConfig,
        signal: SignalSpec,
        mode_pattern=None,
        mode_scales=(1.0, 1.0, 1.0),
    ):
        if cfg.variant not in ("ssm1", "strongquad"):
            raise ConfigError(
                f"weak replacement applies to ssm1 or strongquad, got {cfg.variant!r}"
            )
        if signal.kind not in ("harmonic", "white-noise"):
            raise ConfigError(
                "weak replacement needs harmonic or white-noise forcing; "
                f"run the strong model for {signal.kind!r}"
            )
        self.cfg = cfg
        self.signal = signal
        self._white = signal.kind == "white-noise"
        if self._white and cfg.scheme != "euler-maruyama":
            raise ConfigError(
                "white-noise weak models need scheme='euler-maruyama'"
            )
        self._drifts: dict[str, float] = {}
        if cfg.variant == "ssm1":
            if mode_pattern is not None:
                raise ConfigError("ssm1 bakes in its alternating pattern")
            self._build_ssm1()
        else:
            self._build_strongquad(mode_pattern, mode_scales)

    # -- construction --------------------------------------------------------

    def _build_ssm1(self):
        labels = ("z1", "z21", "z41", "z61")
        rates = {
            label: canonical_rates(r)
            for label, (r, _) in zip(labels, ssm1_chain_specs(self.cfg))
        }
        if not self._white:
            A, w, ph = self.signal.amplitude, self.signal.omega, self.signal.phase
            P = A * np.exp(1j * ph)
            for label, r in rates.items():
                self._drifts[label] = float(phasor_drift(r, w, P, P))
        else:
            sig = self.signal.intensity
            self._ssm1_noise: list[tuple[str, float]] = []
            for label, r in rates.items():
                term = QuadraticTermDescriptor(0, 0, 0, 0, r)
                rep = stochastic_replace(term, sig, sig)
                self._drifts[label] = rep.drift
                for amp in rep.noise_amplitudes:
                    self._ssm1_noise.append((label, amp))

    def _build_strongquad(self, mode_pattern, mode_scales):
        cfg = self.cfg
        terms = strongquad_quadratic_terms(cfg)
        if not self._white:
            if mode_pattern is None:
                raise ConfigError(
                    "strongquad weak model needs the (m, 3) forcing mode pattern"
                )
            pattern = np.asarray(mode_pattern, dtype=complex)
            if pattern.shape != (cfg.m, 3):
                raise ConfigError(
                    f"mode pattern must have shape ({cfg.m}, 3), got {pattern.shape}"
                )
            A, w, ph = self.signal.amplitude, self.signal.omega, self.signal.phase
            phasors = strongquad_expressions(pattern * A * np.exp(1j * ph))
            self._pattern = pattern
            drift_plain = np.zeros(cfg.m)
            drift_times_U = np.zeros(cfg.m)
            for term in terms:
                L = phasors[EXPR_NAMES.index(term.left)]
                R = phasors[EXPR_NAMES.index(term.right)]
                d = term.coeff * phasor_drift(term.rates, w, L, R)
                if term.times_U:
                    drift_times_U += d
                else:
                    drift_plain += d
            self._drift_plain = drift_plain
            self._drift_times_U = drift_times_U
            self._drifts["plain"] = float(np.max(np.abs(drift_plain)))
            self._drifts["times_U"] = float(np.max(np.abs(drift_times_U)))
        else:
            if mode_pattern is not None:
                raise ConfigError(
                    "white-noise strongquad treats every (element, mode) stream "
                    "as independent; use mode_scales, not a pattern"
                )
            if len(mode_scales) != 3:
                raise ConfigError("mode_scales must have three entries")
            self._sigma = float(self.signal.intensity) * np.asarray(
                mode_scales, dtype=float
            )
            self._expand_strongquad_white(terms)

    def _expand_strongquad_white(self, terms):
        """Expand stencil images into raw-signal products and key the streams.

        Each registry term left * Z right is a double sum over stencil
        offsets of raw products phi_{J+r,p} Z phi_{J+s,n}; every raw product
        gets its stochastic_replace, with streams shared across terms by
        the subscript identity (left element, right element, p, n, rates,
        slot).  An occurrence (term, r, s, slot) covers the m products of
        one class (p, n, rates, slot, (s - r) mod m), the left element
        running over the ring, so a stream is a (class, left element) code.
        Streams are numbered in order of first occurrence, occurrence by
        occurrence and element by element.
        """
        cfg = self.cfg
        m = cfg.m
        classes: dict[tuple, int] = {}
        occurrences = []  # (class, left offset r, factor, times_U)
        drift_plain = np.zeros(m)
        drift_times_U = np.zeros(m)
        for term in terms:
            opL, p = _split_expr(term.left)
            opR, n = _split_expr(term.right)
            rates = canonical_rates(term.rates)
            amps = _slot_amplitudes(rates)
            sp, sn = self._sigma[p], self._sigma[n]
            for r, wl in _OFFSET_WEIGHTS[opL].items():
                for s, wr in _OFFSET_WEIGHTS[opR].items():
                    weight = term.coeff * wl * wr
                    if len(rates) == 1 and p == n and r == s:
                        drift = weight * 0.5 * sp * sn
                        if term.times_U:
                            drift_times_U += drift
                        else:
                            drift_plain += drift
                    for slot, amp in enumerate(amps):
                        cls = classes.setdefault(
                            (p, n, rates, slot, (s - r) % m), len(classes)
                        )
                        occurrences.append(
                            (cls, r, weight * sp * sn * amp, term.times_U)
                        )
        cls, r, factor, times_U = (np.asarray(c) for c in zip(*occurrences))
        codes = (cls[:, None] * m + (np.arange(m) + r[:, None]) % m).ravel()
        uniq, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        self._drift_plain = drift_plain
        self._drift_times_U = drift_times_U
        # noise = factors @ psi[idx]: row 0 plain, row 1 times U
        self._occ_idx = number[inverse].reshape(len(occurrences), m)
        self._occ_factors = np.zeros((2, len(occurrences)))
        self._occ_factors[times_U.astype(int), np.arange(len(occurrences))] = factor
        self._n_streams = int(uniq.size)
        self._stream_codes = uniq[order]
        self._stream_classes = list(classes)

    def _stream_keys(self) -> list[tuple]:
        """Identities of the white-noise streams, in numbering order.

        Each is (left element, right element, left mode, right mode, rates,
        slot); empty unless the model is white-noise strongquad.
        """
        m = self.cfg.m
        keys = []
        for code in getattr(self, "_stream_codes", ()):
            p, n, rates, slot, d = self._stream_classes[code // m]
            left = int(code % m)
            keys.append((left, (left + d) % m, p, n, rates, slot))
        return keys

    # -- evaluation ----------------------------------------------------------

    def _rng(self) -> np.random.Generator:
        seed = self.signal.seed if self.signal.seed is not None else self.cfg.seed
        return np.random.default_rng(seed)

    def deterministic_rhs(self, U: np.ndarray, t: float) -> np.ndarray:
        """Drift-complete right-hand side for harmonic forcing."""
        if self._white:
            raise ConfigError("white-noise weak models advance through run()")
        cfg = self.cfg
        U = np.asarray(U, dtype=float)
        if cfg.variant == "ssm1":
            phi = self.signal.amplitude * np.cos(
                self.signal.omega * t + self.signal.phase
            )
            dU = ssm1_det_linear(U, phi, cfg)
            weights = ssm1_memory_weights(U, cfg)
            for label, drift in self._drifts.items():
                dU += weights[label] * drift
            return dU
        modes = np.real(self._pattern_phasors_at(t))
        dU = strongquad_det_linear(U, strongquad_expressions(modes), cfg)
        dU += self._drift_plain + self._drift_times_U * U
        return dU

    def _pattern_phasors_at(self, t: float) -> np.ndarray:
        A, w, ph = self.signal.amplitude, self.signal.omega, self.signal.phase
        return self._pattern * A * np.exp(1j * (w * t + ph))

    def drift_report(self) -> dict:
        return {
            "variant": self.cfg.variant,
            "signal": self.signal.kind,
            "drifts": dict(self._drifts),
            "noise_streams": getattr(
                self, "_n_streams", len(getattr(self, "_ssm1_noise", ()))
            ),
        }

    def step(self, U: np.ndarray, t: float, dt: float, rng=None) -> np.ndarray:
        """One step; harmonic integrates rk4, white noise Euler-Maruyama."""
        U = np.asarray(U, dtype=float)
        if not self._white:
            return rk4_step(U, self.deterministic_rhs, t, dt)
        if rng is None:
            raise ConfigError("white-noise stepping needs the run() rng")
        return self._white_step(U, t, dt, rng)

    def _white_step(self, U, t, dt, rng):
        cfg = self.cfg
        sq = np.sqrt(dt)
        if cfg.variant == "ssm1":
            phi_n = self.signal.intensity * rng.standard_normal() / sq
            dU = ssm1_det_linear(U, phi_n, cfg)
            weights = ssm1_memory_weights(U, cfg)
            vals = dict(self._drifts)
            for label, amp in self._ssm1_noise:
                vals[label] = vals[label] + amp * rng.standard_normal() / sq
            for label, v in vals.items():
                dU += weights[label] * v
            return U + dt * dU
        rings = self._sigma[:, None] * rng.standard_normal((3, cfg.m)) / sq
        dU = strongquad_det_linear(U, strongquad_expressions(rings.T), cfg)
        dU += self._drift_plain + self._drift_times_U * U
        psi = rng.standard_normal(self._n_streams) / sq
        noise_plain, noise_times_U = self._occ_factors @ psi[self._occ_idx]
        dU += noise_plain + noise_times_U * U
        return U + dt * dU

    def run(self, U0, t_end: float, record_every: int = 1):
        """Integrate from t = 0 in whole cfg.dt steps; returns (times, U history)."""
        cfg = self.cfg
        U0 = np.asarray(U0, dtype=float)
        if U0.shape != (cfg.m,):
            raise ConfigError(f"initial amplitudes must have shape ({cfg.m},)")
        if t_end <= 0.0:
            raise ConfigError(f"need t_end > 0, got {t_end}")
        rng = self._rng() if self._white else None
        return march(
            lambda U, t: self.step(U, t, cfg.dt, rng), U0, 0.0,
            exact_steps(t_end, cfg.dt), cfg.dt, record_every,
            (("grid amplitudes", slice(None)),),
        )


def build_weak_model(
    cfg: ModelConfig,
    signal: SignalSpec,
    mode_pattern=None,
    mode_scales=(1.0, 1.0, 1.0),
) -> WeakCoarseModel:
    """Weak version of a coarse variant under classified forcing.

    cfg.variant must be ssm1 or strongquad; the signal must be harmonic or
    white noise.  strongquad harmonic forcing factorises as (m, 3) pattern
    times the scalar signal (pass the pattern, complex entries allowed for
    per-element phases); strongquad white noise treats every (element, mode)
    stream as independent with per-mode intensities
    signal.intensity * mode_scales[k].

    The result carries no memory chains.
    """
    return WeakCoarseModel(cfg, signal, mode_pattern, mode_scales)
