"""Weak replacements for the memory-product forcing terms.

The quadratic forcing terms of the coarse models are products of a signal
with an exponentially convolved signal.  Over times long compared with the
memory, the models' statistics depend on those products only through their
mean drift and effective noise, so each product can be replaced:

* harmonic signals: the product's long-time average, a constant drift
  (``phasor_drift``, for any per-element phasor pattern; a single cosine
  cos(omega t + phase) is the phasor exp(i phase));
* white-noise signals: a drift (one half per same-signal single
  convolution, zero otherwise) plus fresh independent white noises with
  amplitudes fixed by the decay rates (``stochastic_replace``).

``build_weak_model`` applies the replacements to a whole coarse variant,
yielding a model with no memory chains at all: the strong variant's
compiled skeleton and coupling constants, fed constant drifts and fresh
noises instead of chain outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import ConvChain, canonical_rates, chain_layout, packed_chain_rhs
from .errors import ConfigError, check_finite, check_positive
from .forcing import SignalSpec, make_signal
from .macromodel import (
    EXPR_NAMES,
    ModelConfig,
    _ssm1_coupling,
    _ssm1_forms,
    _strongquad_skeleton,
    ssm1_chain_specs,
    strongquad_expressions,
    strongquad_linear_matrix,
    strongquad_quadratic_terms,
)
from .microscale import check_scheme_legal, exact_steps, march, plain, stepper
from .stencil import ring_pad

__all__ = [
    "phasor_drift",
    "QuadraticTermDescriptor",
    "StochasticReplacement",
    "stochastic_replace",
    "simulate_quadrature_ensemble",
    "WeakCoarseModel",
    "build_weak_model",
]


def phasor_drift(rates, omega, left_phasor, right_phasor):
    """General harmonic drift: average of Re[L e^{iwt}] * Z[rates] Re[R e^{iwt}].

    L and R may be complex arrays (per-element phasors); the result is
    0.5 Re[L conj(T R)] with T the chain transfer function at frequency
    omega.  L = exp(i phase), R = 1 is cos(omega t + phase) Z cos(omega t).
    """
    check_finite("frequency omega", omega)
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
    unbiased at finite dt.  Takes exactly t_end / dt steps; any other dt
    raises ConfigError.  Returns y(t_end) for each path.
    """
    rates = canonical_rates(rates)
    check_positive("run end t_end", t_end)
    check_finite("white-noise intensity", intensity, 0.0)
    n = exact_steps(t_end, dt)
    rng = np.random.default_rng(seed)
    layout = chain_layout([rates], 2)
    sq = np.sqrt(dt)
    ext = np.empty((len(rates) + 1, n_paths))
    dz = np.empty((len(rates), n_paths))

    def advance(y, t):
        # y stacks the cascade levels over the running quadrature sum.
        z = y[:-1]
        mu = intensity * rng.standard_normal(n_paths) / sq
        rho = mu if same_signal else intensity * rng.standard_normal(n_paths) / sq
        out = np.empty_like(y)
        out[:-1] = z + dt * packed_chain_rhs(z, layout, mu, ext, dz)
        out[-1] = y[-1] + dt * rho * 0.5 * (z[0] + out[0])
        return out

    _, hist = march(advance, np.zeros((len(rates) + 1, n_paths)), 0.0, n, dt,
                    n, ((f"memory chain {rates}", slice(0, -1)),
                        ("quadrature sum", slice(-1, None))))
    return hist[-1, -1]


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

    Carries no memory chains: ``memory_state`` is always None.  Each model
    binds one rhs(U, t) at construction, stepped by ``stepper`` under
    cfg.scheme.  Harmonic forcing yields a deterministic rhs (products become
    constant drifts), also bound as ``deterministic_rhs``; white noise yields
    drift plus fresh multiplicative noises, drawn from ``rng`` (restarted
    from cfg.seed by ``run``) on each call, and requires euler-maruyama and
    a seed.  Both rest on the skeleton closure and couplings ``build_bank``
    binds.

    ssm1's memory term U phi (c . Z), c = lead k, becomes the sum over
    products i of (lead U) k_i v_i, added product by product (the factored
    U (c . v) rounds differently): v_i is product i's drift, plus under
    white noise its streams' amplitudes times fresh normals / sqrt(dt).

    strongquad applies strongquad_linear_matrix K to its forcing's stack.
    Harmonic forcing Re(P e^{i omega t}), P = pattern A e^{i phase}, takes
    the phasor rows Fr, Fi = K stack(Re P), K stack(Im P) once, so a stage
    is cos(omega t) Fr - sin(omega t) Fi plus the constant drift rows.
    White noise applies K to the stack of each step's ring draws, then
    draws one normal per noise stream, shaped as its class rings, and adds
    their noise through one product and one wrapped pad
    (``_expand_strongquad_white``).

    Build through ``build_weak_model``.
    """

    memory_state = None
    _n_streams, _stream_classes, _class_offsets = 0, (), ()

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
        if tuple(mode_scales) != (1.0, 1.0, 1.0) and not (
                self._white and cfg.variant == "strongquad"):
            raise ConfigError(f"weak {cfg.variant} under {signal.kind} forcing "
                              f"reads no mode_scales, got {tuple(mode_scales)}")
        check_scheme_legal(cfg.scheme, self._white)
        if self._white and cfg.seed is None:
            raise ConfigError("a white-noise weak model needs cfg.seed: its "
                              "draws restart from it on every run")
        self._drifts: dict[str, float] = {}
        self.rng = np.random.default_rng(cfg.seed) if self._white else None
        if cfg.variant == "ssm1":
            if mode_pattern is not None:
                raise ConfigError("ssm1 bakes in its alternating pattern")
            rhs = self._build_ssm1()
        else:
            rhs = self._build_strongquad(mode_pattern, mode_scales)
        if not self._white:
            self.deterministic_rhs = rhs
        self._advance = stepper(plain(rhs), cfg.dt, cfg.scheme)

    # -- construction --------------------------------------------------------

    def _build_ssm1(self):
        """Resolve weak ssm1's drifts and noise amplitudes; returns its rhs."""
        cfg, signal = self.cfg, self.signal
        skeleton, (lead, k) = _ssm1_forms(cfg)[0], _ssm1_coupling(cfg)
        rates = [canonical_rates(r) for r, _ in ssm1_chain_specs(cfg)]

        def add_products(dU, U, v):
            # (lead U) k_i v_i, product by product, as the strong weights were
            for term in (lead * U) * k[:, None] * v[:, None]:
                dU += term
            return dU

        if not self._white:
            A, w, ph = signal.amplitude, signal.omega, signal.phase
            P = A * np.exp(1j * ph)
            drifts = [float(phasor_drift(r, w, P, P)) for r in rates]
            d, phi = np.array(drifts), make_signal(signal).value

            def rhs(U, t):
                return add_products(skeleton(U, phi(t)), U, d)
        else:
            sig = signal.intensity
            reps = [stochastic_replace(QuadraticTermDescriptor(0, 0, 0, 0, r),
                                       sig, sig) for r in rates]
            drifts = [rep.drift for rep in reps]
            amps = np.array([a for rep in reps for a in rep.noise_amplitudes])
            owner = [i for i, rep in enumerate(reps) for _ in rep.noise_amplitudes]
            self._n_streams = amps.size
            sq, rng = np.sqrt(cfg.dt), self.rng

            def rhs(U, t):
                z = rng.standard_normal(1 + amps.size)
                v = np.array(drifts)
                np.add.at(v, owner, amps * z[1:] / sq)
                return add_products(skeleton(U, sig * z[0] / sq), U, v)
        self._drifts = dict(zip(("z1", "z21", "z41", "z61"), drifts))
        return rhs

    def _build_strongquad(self, mode_pattern, mode_scales):
        """Resolve weak strongquad's forcing rows and noise; returns its rhs."""
        cfg = self.cfg
        terms = strongquad_quadratic_terms(cfg)
        skeleton, K = _strongquad_skeleton(cfg), strongquad_linear_matrix(cfg)
        # constant forcing rows: the drifts, plain (row 0) and times U (row 1)
        drift = self._drift = np.zeros((5, cfg.m))
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
            Fr, Fi = K @ phasors.real, K @ phasors.imag
            for term in terms:
                L = phasors[EXPR_NAMES.index(term.left)]
                R = phasors[EXPR_NAMES.index(term.right)]
                d = term.coeff * phasor_drift(term.rates, w, L, R)
                drift[int(term.times_U)] += d
            self._drifts["plain"] = float(np.max(np.abs(drift[0])))
            self._drifts["times_U"] = float(np.max(np.abs(drift[1])))

            def rhs(U, t):
                wt = w * t
                return skeleton(U, np.cos(wt) * Fr - np.sin(wt) * Fi + drift)
        else:
            if mode_pattern is not None:
                raise ConfigError(
                    "white-noise strongquad treats every (element, mode) stream "
                    "as independent; use mode_scales, not a pattern"
                )
            if len(mode_scales) != 3:
                raise ConfigError("mode_scales must have three entries")
            sigma = float(self.signal.intensity) * np.asarray(
                mode_scales, dtype=float
            )
            add_stream_noise = self._expand_strongquad_white(terms, sigma)
            sq, m, rng = np.sqrt(cfg.dt), cfg.m, self.rng
            n_streams = self._n_streams

            def rhs(U, t):
                rings = sigma[:, None] * rng.standard_normal((3, m)) / sq
                F = K @ strongquad_expressions(rings.T) + drift
                psi = rng.standard_normal(n_streams)
                psi /= sq
                add_stream_noise(psi, F[:2])
                return skeleton(U, F)
        return rhs

    def _expand_strongquad_white(self, terms, sigma):
        """Expand stencil images into raw-signal products and key the streams.

        Each registry term left * Z right is a double sum over stencil
        offsets of raw products phi_{J+r,p} Z phi_{J+s,n}; every raw product
        gets its stochastic_replace, with streams shared across terms by
        the subscript identity (left element, right element, p, n, rates,
        slot).  An occurrence (term, r, s, slot) covers the m products of
        one class (p, n, rates, slot, (s - r) mod m), the left element
        running over the ring.  Streams are numbered in order of first
        occurrence, occurrence by occurrence and element by element.  A
        class first occurs whole, at some left offset r_c, so stream
        c m + j is class c's stream at left element (j + r_c) mod m.

        So the streams psi, shaped (classes, m), are the class rings, and
        occurrence (c, r) reads ring c shifted by d = (r - r_c) mod m,
        taken as the least |d| (at most 2).  Returns, and keeps as
        ``_add_stream_noise``, add_stream_noise(psi, rows): one product of
        the rings psi with a matrix of each shift's occurrence factors per
        class, rows (shift, plain/times U), then each shift's row pair,
        read through one wrapped pad, added to rows, (2, m): plain, times U.
        """
        m = self.cfg.m
        classes: dict[tuple, int] = {}
        occurrences = []  # (class, left offset r, factor, times_U)
        for term in terms:
            opL, p = _split_expr(term.left)
            opR, n = _split_expr(term.right)
            rates = canonical_rates(term.rates)
            amps = _slot_amplitudes(rates)
            sp, sn = sigma[p], sigma[n]
            for r, wl in _OFFSET_WEIGHTS[opL].items():
                for s, wr in _OFFSET_WEIGHTS[opR].items():
                    weight = term.coeff * wl * wr
                    if len(rates) == 1 and p == n and r == s:
                        drift = weight * 0.5 * sp * sn
                        self._drift[int(term.times_U)] += drift
                    for slot, amp in enumerate(amps):
                        cls = classes.setdefault(
                            (p, n, rates, slot, (s - r) % m), len(classes)
                        )
                        occurrences.append(
                            (cls, r, weight * sp * sn * amp, term.times_U)
                        )
        cls, r, factor, times_U = (np.asarray(c) for c in zip(*occurrences))
        r_class = r[np.unique(cls, return_index=True)[1]]
        shift = (r - r_class[cls] + m // 2) % m - m // 2
        shifts, which = np.unique(shift, return_inverse=True)
        matrix = np.zeros((2 * shifts.size, len(classes)))
        np.add.at(matrix, (2 * which + times_U.astype(int), cls), factor)
        pad = int(np.abs(shifts).max())
        cols = [slice(pad + d, pad + d + m) for d in shifts.tolist()]
        self._n_streams = len(classes) * m
        self._stream_classes = list(classes)
        self._class_offsets = r_class.tolist()

        def add_stream_noise(psi, rows):
            G = ring_pad(matrix @ psi.reshape(-1, m), pad)
            for k, c in enumerate(cols):
                rows += G[2 * k:2 * k + 2, c]
            return rows

        self._add_stream_noise = add_stream_noise
        return add_stream_noise

    def _stream_keys(self) -> list[tuple]:
        """Identities of the white-noise streams, in numbering order.

        Each is (left element, right element, left mode, right mode, rates,
        slot); empty unless the model is white-noise strongquad.
        """
        m = self.cfg.m
        return [((j + r_c) % m, (j + r_c + d) % m, p, n, rates, slot)
                for (p, n, rates, slot, d), r_c in zip(self._stream_classes,
                                                       self._class_offsets)
                for j in range(m)]

    # -- evaluation ----------------------------------------------------------

    def drift_report(self) -> dict:
        return {
            "variant": self.cfg.variant,
            "signal": self.signal.kind,
            "drifts": dict(self._drifts),
            "noise_streams": self._n_streams,
        }

    def step(self, U: np.ndarray, t: float) -> np.ndarray:
        """One cfg.dt step by cfg.scheme (under white noise the rhs draws from
        ``rng``) on the model's stepper frame; returns a copy the caller owns."""
        return self._advance(U, t).copy()

    def run(self, U0, t_end: float, record_every: int = 1):
        """Integrate from t = 0 in whole cfg.dt steps; returns (times, U history)."""
        cfg = self.cfg
        U0 = np.asarray(U0, dtype=float)
        if U0.shape != (cfg.m,):
            raise ConfigError(f"initial amplitudes must have shape ({cfg.m},)")
        check_finite("initial amplitudes U0", U0)
        check_positive("run end t_end", t_end)
        if self._white:  # restart default_rng(cfg.seed)'s stream in place
            self.rng.bit_generator.state = np.random.PCG64(cfg.seed).state
        return march(
            self.step, U0, 0.0, exact_steps(t_end, cfg.dt), cfg.dt, record_every,
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
    signal.intensity * mode_scales[k]; no other model reads mode_scales,
    so it refuses any but the default.

    The result carries no memory chains.
    """
    return WeakCoarseModel(cfg, signal, mode_pattern, mode_scales)
