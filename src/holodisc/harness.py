"""Experiment harness: paired fine/coarse runs, rate fits, reports.

Every experiment here builds both sides of a comparison from one seeded
spec.  ``run_paired`` is the paired engine: it advances the signal
drivers, the fine field, the coarse model's packed memory bank and its
amplitudes as one state vector, one step of ``microscale.stepper``'s map
at a time through ``microscale.march``, and evaluates the signals once per
stage for both sides, so a fine run and its coarse partner see one
forcing path by construction.  fig3's run is one generated loop on
Python floats (``_paired_loop``).  ``run_macro_forced`` is its
coarse-only call.

Experiments, each declared once at its body by ``experiment`` (its spec
defaults, the spec fields it reads, its whole-number extras):

* ``fig1``: fine Burgers field driven by an independent chaotic signal at
  every grid point.
* ``fig3``: fine Burgers truth against the single-mode alternating-forcing
  coarse model and its grid-value reconstruction.
* ``consistency``: discretisation orders of the coarse operators.
* ``emergence``: decay rates of a decoupled element's fast modes, continuum
  and lattice.
* ``lattice``: fine half-spacing lattice against the coarse lattice model
  under halvings of (alpha, eps).
* ``weak-drift``: long-time averages of the memory products against their
  weak drift replacements.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import numbers
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import macromodel
from .convolution import (_float_bind, _float_code, _float_loop, _float_rows,
                          _float_unpack, integrate_chains)
from .errors import ConfigError, DataError, check_finite, check_positive
from .forcing import (
    LORENZ_BETA, LORENZ_RHO, LORENZ_SIGMA,
    ElementGrid,
    SignalSpec,
    csn,
    lorenz_point,
    make_signal,
    mode_decay_rate,
)
from .macromodel import (
    ModelConfig,
    build_bank,
    nsm_subgrid_field,
    ssm1_chain_specs,
    stage_block,
)
from .microscale import (
    _burgers_point,
    _record_count,
    _screen_rows,
    burgers_form,
    check_scheme_legal,
    exact_points,
    exact_steps,
    lattice_decay_rates,
    lattice_form,
    march,
    rk4_step,  # unused here; kept importable as harness.rk4_step
    stepper,
)
from .stencil import operands
from .weakmodel import build_weak_model

__all__ = [
    "rms",
    "fit_emergence_rate",
    "convergence_order",
    "ExperimentSpec",
    "ComparisonReport",
    "spec_from_dict",
    "default_spec",
    "FineSide",
    "CoarseSide",
    "PairedRun",
    "run_paired",
    "run_macro_forced",
    "nsm_series",
    "run_fig1_experiment",
    "run_fig3_experiment",
    "consistency_experiment",
    "emergence_experiment",
    "lattice_coarse_experiment",
    "weak_drift_experiment",
    "EXPERIMENTS",
]


def rms(a) -> float:
    """Root-mean-square of an array."""
    return float(np.sqrt(np.mean(np.square(np.asarray(a, dtype=float)))))


def fit_emergence_rate(times, deviations, t_start=None, t_end=None) -> float:
    """Exponential decay rate of a deviation series, by least squares.

    Fits log(deviation) against time over [t_start, t_end] and returns the
    positive rate r of deviation ~ exp(-r t).

    Raises
    ------
    DataError
        If fewer than three samples fall in the window, or any windowed
        deviation is non-positive (log undefined; usually the signal has
        decayed to round-off).
    """
    times = np.asarray(times, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if times.shape != deviations.shape or times.ndim != 1:
        raise DataError("times and deviations must be 1-D arrays of equal length")
    mask = np.ones_like(times, dtype=bool)
    if t_start is not None:
        mask &= times >= t_start
    if t_end is not None:
        mask &= times <= t_end
    if int(np.count_nonzero(mask)) < 3:
        raise DataError("need at least three samples in the fit window")
    d = deviations[mask]
    if np.any(d <= 0.0):
        raise DataError(
            "non-positive deviations in the fit window; shrink the window "
            "before the signal hits round-off"
        )
    slope = np.polyfit(times[mask], np.log(d), 1)[0]
    return float(-slope)


def convergence_order(spacings, errors) -> float:
    """Least-squares slope of log(error) against log(spacing).

    Raises
    ------
    DataError
        On fewer than three levels or non-positive entries.
    """
    h = np.asarray(spacings, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.ndim != 1:
        raise DataError("spacings and errors must be 1-D arrays of equal length")
    if h.size < 3:
        raise DataError("need at least three refinement levels")
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise DataError("spacings and errors must be positive")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


# -- spec and report -----------------------------------------------------------

def default_window_start(H: float) -> float:
    """Transient discard: eight e-foldings of the slowest element mode."""
    return 8.0 / mode_decay_rate(1, H)


def _refuse_unread(name: str, what: str, given, reads) -> None:
    """Refuse the keys of given that experiment name does not read."""
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ConfigError(f"{name} reads no {what} {unread}; it reads "
                          f"{sorted(reads) or 'none'}")


def _whole_extras(name: str, extras) -> dict:
    """Experiment name's extras, checked, with defaults for the keys left out.

    Refuses a key the experiment does not read and a value that is not a
    whole number at least its least; an integral float becomes an int.
    """
    reads = _DECLARED[name].extras if name in _DECLARED else {}
    if not isinstance(extras, dict):
        raise ConfigError(f"{name} extras must be a mapping, got {extras!r}")
    _refuse_unread(name, "extras", extras, reads)
    whole = {}
    for key, (default, least) in reads.items():
        value = extras.get(key, default)
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not float(value).is_integer() or value < least):
            raise ConfigError(f"{name} extras {key!r} must be a whole number "
                              f">= {least}, got {value!r}")
        whole[key] = int(value)
    return whole


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved parameters of one experiment.

    t0 and t1 bound the comparison window (after the initial transient and
    up to the end of the run); only those the experiment reads are checked,
    and an undeclared name is held to both.  Paired runs derive both sides'
    forcing from the one ``seed``.  extras holds the whole-number knobs that
    only some experiments read (their ``experiment`` declaration), filled
    with their defaults.
    """

    name: str
    alpha: float = 0.3
    eps: float = 0.05
    gamma: float = 1.0
    H: float = np.pi / 2
    m: int = 4
    dx: float = np.pi / 16
    dt: float = 1e-3
    t0: float = 1.0
    t1: float = 15.0
    seed: int = 20260819
    scheme: str = "rk4"
    signal: SignalSpec | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        reads = _DECLARED[self.name].reads if self.name in _DECLARED else ("t0", "t1")
        if "t0" in reads:
            check_positive("window start", self.t0)
        if "t0" in reads and "t1" in reads and self.t1 <= self.t0:
            raise ConfigError(
                f"window end must exceed its start, got [{self.t0}, {self.t1}]"
            )
        if "t1" in reads:
            check_positive("run end", self.t1)
        check_positive("time step dt", self.dt)
        object.__setattr__(self, "extras", _whole_extras(self.name, self.extras))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ComparisonReport:
    """Outcome of one experiment: metrics, pass/fail checks, audit config."""

    name: str
    config: dict
    metrics: dict
    checks: dict
    notes: list[str] = field(default_factory=list)
    schema_version: int = 1

    def __post_init__(self):
        for key, value in self.metrics.items():
            v = float(value)
            if not np.isfinite(v):
                raise DataError(f"metric {key!r} is not finite: {value}")
            self.metrics[key] = v
        self.checks = {k: bool(v) for k, v in self.checks.items()}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "metrics": self.metrics,
            "notes": self.notes,
            "config": self.config,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


# -- experiment table -----------------------------------------------------------

class Declaration(NamedTuple):
    """One declared experiment: the spec fields it reads (besides name, seed
    and extras, which every spec takes), its whole-number extras as key ->
    (default, least), and the spec defaults it sets."""

    reads: tuple
    extras: dict
    defaults: dict


_DECLARED: dict[str, Declaration] = {}
EXPERIMENTS = {}


def experiment(name: str, reads: str, extras=None, **defaults):
    """Declare experiment name at its body, in one place.

    reads names the spec fields the body reads, space-separated; extras
    maps each whole-number extra to (default, least); defaults are the
    spec fields it sets.  The body, body(spec), returns (metrics, checks,
    tables), tables mapping a CSV file name to its (header, columns).

    Returns the shell run(spec=None, out_dir=None), which is also stored
    in ``EXPERIMENTS[name]``: it takes ``default_spec(name)`` when spec is
    None, runs the body, and returns its ``ComparisonReport``; given
    out_dir, it writes the tables and ``<name>_report.json`` there.
    """
    def declare(body):
        def run(spec: ExperimentSpec | None = None,
                out_dir: str | None = None) -> ComparisonReport:
            spec = default_spec(name) if spec is None else spec
            metrics, checks, tables = body(spec)
            report = ComparisonReport(name, spec.to_dict(), metrics, checks)
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                for file, (header, columns) in tables.items():
                    _write_csv(os.path.join(out_dir, file), header, columns)
                report.save(os.path.join(out_dir, f"{name}_report.json"))
            return report

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        _DECLARED[name] = Declaration(tuple(reads.split()), extras or {}, defaults)
        EXPERIMENTS[name] = run
        return run

    return declare


def default_spec(name: str) -> ExperimentSpec:
    """The named experiment's spec: its declared defaults, the rest
    ExperimentSpec's."""
    if name not in _DECLARED:
        raise ConfigError(f"unknown experiment {name!r}")
    return ExperimentSpec(name=name, **_DECLARED[name].defaults)


def spec_from_dict(name: str, data: dict | None) -> ExperimentSpec:
    """Build a spec from a config mapping (e.g. parsed JSON).

    A field the experiment does not read is refused, by name; name, seed
    and extras are always taken.
    """
    base = default_spec(name)
    if not data:
        return base
    data = {**data, "name": name}
    _refuse_unread(name, "spec fields", set(data) - {"name", "seed", "extras"},
                   _DECLARED[name].reads)
    if "signal" in data:
        try:
            data["signal"] = SignalSpec(**data["signal"])
        except TypeError as exc:
            raise ConfigError(f"bad signal fields: {exc}") from None
    # Extras left out keep their defaults: the spec fills them in.
    return dataclasses.replace(base, **data)


# -- paired engine -------------------------------------------------------------

class _SignalSet:
    """Several signals with one driver block and one stream.

    The Lorenz drivers lead the joint state y as one component-major block
    [xi | eta | zeta], an entry per Lorenz signal in spec order.  bind(y,
    dy) returns values(t, draws): one ``lorenz_point`` call (on floats for
    one signal, else in place on the rows) writes dy, and the values come
    in spec order, amplitude * xi, value(t) or the draw; the xi row itself
    for unit Lorenz signals alone.  history gives them for recorded rows.
    """

    def __init__(self, specs, seed: int, keeps):
        self.signals = signals = [make_signal(s) for s in specs]
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        lorenz = [k for k, sig in enumerate(self.signals) if sig.driver_dim]
        n = len(lorenz)
        inits = [self.signals[k].driver_init(self.rng) for k in lorenz]
        self.total_dim = 3 * n
        self.d0 = np.array(inits, dtype=float).reshape(n, 3).T.ravel()
        self.any_white = any(sig.is_white for sig in self.signals)
        self.no_draws = [None] * len(self.signals)
        # Key k: the draws of the step ending at k dt if keeps(k); 0: zeros.
        self.keeps, self.steps = keeps, 0
        self.drawn = drawn = {0: [0.0 if sig.is_white else None for sig in signals]}

        a, b, c = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
        consts = operands(LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA)
        amps = np.array([self.signals[k].amplitude for k in lorenz])
        others = [(k, sig.value) for k, sig in enumerate(self.signals)
                  if not sig.driver_dim]
        # 1.0 * xi is xi: unit Lorenz signals alone are their xi row.
        self.unit = unit = not others and not np.any(amps != 1.0)

        def bind(y, dy):
            rows, head, outs = (y[a], y[b], y[c]), y[:3], (dy[a], dy[b], dy[c])

            def drive(t, draws):
                if n == 1:
                    dy[0], dy[1], dy[2] = lorenz_point(*head.tolist())
                elif n:
                    lorenz_point(*rows, *consts, out=outs)
                return rows[0]

            def values(t, draws):
                vals = np.empty(len(draws))
                if n:
                    vals[lorenz] = amps * drive(t, draws)
                for k, value in others:
                    vals[k] = value(t) if draws[k] is None else draws[k]
                return vals
            return drive if unit else values

        def history(times, hist, ends):
            if unit:
                return hist[:, a]
            vals = np.empty((len(times), len(signals)))
            vals[:, lorenz] = amps * hist[:, a]
            for k, value in others:  # no self here: a cycle would outlive the run
                vals[:, k] = ([drawn[e][k] for e in ends] if
                              signals[k].is_white else [value(t) for t in times])
            return vals

        self.bind, self.history = bind, history

    def draws(self, dt):
        """One step's draws, a sample per white signal and None for the
        rest, kept in ``drawn`` if keeps names the step."""
        draws = [sig.draw(self.rng, dt) if sig.is_white else None
                 for sig in self.signals]
        self.steps += 1
        if self.keeps(self.steps):
            self.drawn[self.steps] = draws
        return draws


class FineSide(NamedTuple):
    """Fine side of a paired run: the field u0 under rhs(u, phi, out) with
    phi = profiles.T @ s(t), one profile row per signal.

    rhs is a bound fine form: ``burgers_form(dx, alpha, eps, form)`` or
    ``lattice_form(H, alpha, eps)``.
    """

    u0: np.ndarray
    profiles: np.ndarray
    rhs: object


class CoarseSide(NamedTuple):
    """Coarse side of a paired run: cfg's model from the amplitudes U0.

    assemble(vals, t) maps the signal values to the variant's forcing
    object (mode coefficients, lattice samples, or scalar drive).
    """

    cfg: ModelConfig
    U0: np.ndarray
    assemble: object


class PairedRun(NamedTuple):
    """Histories of a paired run, one row per recorded time.

    values holds the signal values, as the run's stage evaluates them on
    the recorded state; a white signal reports the draw of the step that
    ended at that time (zero at t = 0).  u is the fine field, U
    the coarse amplitudes, bank the packed memory states; None for a side
    the run did not have.
    """

    times: np.ndarray
    values: np.ndarray
    u: np.ndarray | None
    U: np.ndarray | None
    bank: np.ndarray | None


class _Joint(NamedTuple):
    """run_paired's joint state, resolved once: the signals, the start
    state, its (drivers, fine, bank, amplitudes) slices and named blocks,
    the stepper's binder bind(y, dy) -> stage(t, draws=None), and fig3's
    float loop loop(n_steps, record_every) -> (times, history) or None."""

    sigset: _SignalSet
    y0: np.ndarray
    slices: tuple
    blocks: list
    bind: object
    loop: object = None


# fig3's layout runs the float loop (_paired_loop) if its joint state has
# at most _FLOAT_STATE entries; else march steps the array stage.  72 is a
# policy, not a crossover: in 2000-step run_paired runs (BENCH_37.json) the
# loop led at 67, 71, 75 and 83 entries (-32%, -24%, -20%, -10%, every
# round), but no workload runs past 72 to measure a crossover on.
_FLOAT_STATE = 72


def _compile_stage(signal_specs, seed, dt, scheme, fine, coarse,
                   keeps=lambda k: True) -> _Joint:
    """Check the sides against the run, build the bank, and bind the stage.

    bind(y, dy) takes each block's views of y and dy once, and its stage
    fills dy block by block: the drivers' derivatives and the signal values
    from ``_SignalSet.bind``, the fine side's bound form, forced by
    ``np.dot(profiles.T, vals)`` or, under identity profiles, by the values
    plus 0.0, the product's bits without its matrix (a -0.0 value gives the
    product's +0.0), and the variant's ``stage_block``: dU
    and the bank's cascade derivative, written in place.  Each block is the
    arithmetic its side does alone.  Called without draws, a white stage
    draws the step's samples and keeps those of the steps keeps(k) names
    (``_SignalSet.draws``); euler-maruyama calls it once per step.

    fig3's layout (every signal Lorenz, a ``burgers_form`` fine side, an
    ssm1 bank, at most ``_FLOAT_STATE`` entries) also gets the float loop
    (``_paired_loop``), run in place of march: the stage's and the
    stepper's arithmetic in their order on Python floats, so the same bits,
    without numpy's dispatch per operation on arrays of a few entries.
    """
    sigset = _SignalSet(signal_specs, seed, keeps)
    check_scheme_legal(scheme, sigset.any_white)
    u0 = Z0 = U0 = np.zeros(0)
    if fine is not None:
        fine_rhs = fine.rhs
        u0 = np.asarray(fine.u0, dtype=float)
        if u0.ndim != 1 or not u0.size:
            raise ConfigError("initial field u0 must be a 1-D ring of at least "
                              f"one point, got shape {u0.shape}")
        check_finite("initial field u0", u0)
        profiles = np.asarray(fine.profiles, dtype=float)
        if profiles.shape != (len(sigset.signals),) + u0.shape:
            raise ConfigError("need one forcing profile per signal over u0")
        check_finite("forcing profiles", profiles)
        profiles_T = profiles.T
        identity = np.array_equal(profiles, np.eye(len(profiles)))
        (zero,) = operands(0.0)
    if coarse is not None:
        cfg, assemble = coarse.cfg, coarse.assemble
        if (cfg.dt, cfg.scheme) != (dt, scheme):
            raise ConfigError(
                f"coarse model steps dt = {cfg.dt} by {cfg.scheme!r}, "
                f"the run dt = {dt} by {scheme!r}"
            )
        U0 = np.asarray(coarse.U0, dtype=float)
        if U0.shape != (cfg.m,):
            raise ConfigError(f"initial amplitudes must have shape ({cfg.m},)")
        check_finite("initial amplitudes U0", U0)
        bank = build_bank(cfg)
        Z0 = np.zeros(bank.n_states)
    y0 = np.concatenate([sigset.d0, u0, Z0, U0])
    e0, e1, e2 = np.cumsum([sigset.total_dim, u0.size, Z0.size]).tolist()
    sd, su, sz, sU = slice(0, e0), slice(e0, e1), slice(e1, e2), slice(e2, None)
    # Upstream first: drivers feed both sides, the bank feeds U.
    blocks = [("signal driver", sd)]
    if coarse is not None:
        blocks += [(f"memory chain {key}", slice(e1 + r.start * cfg.m,
                                                 e1 + r.stop * cfg.m))
                   for key, r in bank.rows.items()]
    blocks += [("grid amplitudes", sU), ("fine field", su)]
    slices = (sd, su, sz, sU)
    if coarse is not None:
        coarse_block = stage_block(bank, sz, sU)
    white, no_draws = sigset.any_white, sigset.no_draws

    def bind(y, dy):
        values, u, du = sigset.bind(y, dy), y[su], dy[su]
        block = coarse_block(y, dy) if coarse is not None else None
        def stage(t, draws=None):
            if draws is None:
                draws = sigset.draws(dt) if white else no_draws
            vals = values(t, draws)
            if fine is not None:
                fine_rhs(u, vals + zero if identity else np.dot(profiles_T, vals),
                         du)
            if coarse is not None:
                block(assemble(vals, t))
        return stage

    if (y0.size <= _FLOAT_STATE and fine is not None and coarse is not None
            and hasattr(fine_rhs, "float_form") and cfg.variant == "ssm1"
            and all(sig.driver_dim for sig in sigset.signals)):
        return _Joint(sigset, y0, slices, blocks, bind, _paired_loop(
            sigset, fine_rhs.float_form, profiles_T, bank, assemble, y0, blocks,
            dt, scheme))
    return _Joint(sigset, y0, slices, blocks, bind)


def _paired_loop(sigset, float_form, profiles_T, bank, assemble, y0, blocks,
                 dt, scheme):
    """fig3's float loop, loop(n_steps, record_every) -> march's (times,
    history) from y0.  An ssm1 bank's chains are all fed by one scalar phi
    and start from rest, so its m columns are equal bit for bit at every
    stage: the loop keeps one local per bank row (``_paired_loop_code``).
    Each step's state goes into a chunk of record_every rows, screened at
    each record (``_screen_rows``); the last row, spread over the bank's
    columns by spread (each entry's local), is the record."""
    (form, constants), m, n = float_form, bank.m, len(sigset.signals)
    neg_rates, feeds, _ = bank._layout
    R, e1, C = len(feeds), y0.size - m - neg_rates.size, len(bank.out_rows)
    # local: each local's entry (a bank row's column 0, drivers, field, U).
    local = np.r_[e1 + m * np.arange(R), :e1, y0.size - m:y0.size]
    spread = np.r_[R:R + e1, np.repeat(np.arange(R), m), R + e1:R + e1 + m]
    code = _paired_loop_code(n, form, tuple(constants), len(profiles_T),
                             tuple(feeds.tolist()), tuple(bank.out_rows.tolist()),
                             m, scheme)
    buf, row = np.empty(C * m + n + m), struct.Struct(f"{local.size}d")
    args = (y0[local].tolist(), neg_rates[:, 0].tolist(),
            [*constants.values(), *(sig.amplitude for sig in sigset.signals)])

    def loop(n_steps, record_every):
        history = np.empty((_record_count(n_steps, record_every), y0.size))
        history[0], rec = y0, 0
        chunk = np.empty((min(record_every, max(n_steps, 1)), local.size))

        def keep(size):  # screen the chunk's first size bytes, record its last row
            nonlocal rec
            rows = chunk[:size // row.size]
            _screen_rows(rows, blocks, 0.0, rec * record_every, dt, spread)
            rec += 1
            history[rec] = rows[-1, spread]
            return 0

        run = _float_bind(
            code, "run", lorenz_point=lorenz_point, dot=np.dot, macromodel=macromodel,
            profiles_T=profiles_T, assemble=assemble, bank=bank, cfg=bank.cfg,
            buf=buf, pack=struct.Struct(f"{buf.size}d").pack_into,
            outs=buf[:C * m].reshape(C, m), vals=buf[C * m:-m], U=buf[-m:],
            keep=keep, chunk=chunk, full=chunk.nbytes, pack_row=row.pack_into)
        ends = np.minimum(record_every * np.arange(len(history)), n_steps)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run(*args, itertools.chain.from_iterable(  # march's t0 + k dt, by chunks
                (0.0 + np.arange(a, b) * dt).tolist() for a, b in zip(ends, ends[1:])),
                float(dt))
        return 0.0 + ends * dt, history

    return loop


@functools.lru_cache(maxsize=64)
def _paired_loop_code(n, form, names, points, feeds, outs, m, scheme):
    """The float loop's compiled run(z, rates, consts, times, dt) for n
    Lorenz signals, a Burgers ring of points points in form, its constants'
    names, a bank's row feeds and output rows outs over m elements, and the
    scheme: ``convolution._float_loop``'s step, each stage the array
    stage's arithmetic in its order.  One pack_into puts the chain outputs
    (a row into m columns), the values and U into the buffer that
    np.dot(profiles.T, vals) (the array stage's call, so its bits) and
    ssm1_rhs, looked up at call time, read; keep screens the chunk."""
    R, fine = len(feeds), len(feeds) + 3 * n  # the bank's rows, drivers; u from fine
    amps, S = fine + points, fine + points + m  # U from amps; S locals in all

    def derivs(k, w, s):
        lines = []
        for j in range(n):  # amp * xi is xi bit for bit at amp = 1.0
            xi, eta, zeta = R + j, R + n + j, R + 2 * n + j
            lines += [f"{k}{xi}, {k}{eta}, {k}{zeta} = lorenz_point("
                      f"{w}{xi}, {w}{eta}, {w}{zeta})", f"v{j} = amp{j} * {w}{xi}"]
        packed = ([f"{w}{r}" for r in outs for _ in range(m)] + [
            f"v{j}" for j in range(n)] + [f"{w}{amps + j}" for j in range(m)])
        lines += [f"pack(buf, 0, {', '.join(packed)})",
                  _float_unpack("f", points, "dot(profiles_T, vals).tolist()")]
        lines += [f"{k}{fine + i} = " + _burgers_point(
                      form, f"{w}{fine + i}", f"{w}{fine + (i + 1) % points}",
                      f"{w}{fine + (i - 1) % points}") + f" + eps * f{i}"
                  for i in range(points)]
        lines += [f"dU, phi = macromodel.ssm1_rhs(U, assemble(vals, {s}), bank, "
                  "cfg, outs)", "".join(f"{k}{amps + j}, " for j in range(m))
                  + "= dU.tolist()"]
        return lines + [f"{k}{i} = {row}"
                        for i, row in enumerate(_float_rows(feeds, w, "phi"))]

    put = [f"pack_row(chunk, j, {', '.join(f'z{i}' for i in range(S))})",
           f"j += {8 * S}", "if j == full: j = keep(j)"]
    body = [_float_unpack("z", S, "z"), _float_unpack("r", R, "rates"),
            "".join(f"{c}, " for c in names) + "".join(f"amp{j}, " for j in range(n))
            + "= consts", "h = 0.5 * dt", "sixth = dt / 6.0", "j = 0",
            *_float_loop(S, scheme, derivs, put), "if j: keep(j)"]
    return _float_code("run(z, rates, consts, times, dt)", body, "paired float loop")


def run_paired(
    signal_specs,
    seed: int,
    t_end: float,
    dt: float,
    scheme: str = "rk4",
    fine: FineSide | None = None,
    coarse: CoarseSide | None = None,
    record_every: int = 1,
) -> PairedRun:
    """Advance a fine field and a coarse model side by side, as one state.

    The state is [signal drivers | fine field | packed bank | amplitudes],
    advanced by ``stepper``'s map for the scheme; either side may be
    absent, and the fine side brings its bound form (``FineSide.rhs``).
    Each stage evaluates the signals once and hands the same values to both
    sides; white signals draw once per step, and the run keeps the draws of
    the recorded steps only.  The run takes exactly t_end / dt steps,
    recording every record_every steps and at the end.

    The stage is compiled once, before the first step: the bank, the
    variant's constants, the state layout and every check are resolved
    then; it is bound once per buffer pair of the stepper's frame, and each
    stage writes its blocks into the frame's derivative in place with the
    arithmetic of the separate runs, so joint and separate runs agree bit
    for bit.  fig3's layout, Lorenz signals, a Burgers field and an ssm1
    bank in at most ``_FLOAT_STATE`` entries, runs one generated float loop
    instead, each bank row stepped once for its m equal columns, with the
    same bits and march's error (``_paired_loop``).  The values history is
    read off the recorded rows.

    Raises
    ------
    ConfigError
        If dt does not divide t_end, u0 is not a 1-D ring of at least one
        point, the fine profiles are not one row per signal over u0, the
        coarse config's dt or scheme is not the run's, or the scheme cannot
        take the signals.
    StabilityError
        When the state goes non-finite, naming the most upstream bad block.
    """
    n_steps = exact_steps(t_end, dt)
    sigset, y, (_, su, sz, sU), blocks, bind, loop = _compile_stage(
        signal_specs, seed, dt, scheme, fine, coarse,
        lambda k: k % record_every == 0 or k == n_steps)
    times, hist = loop(n_steps, record_every) if loop else march(
        stepper(bind, dt, scheme), y, 0.0, n_steps, dt, record_every, blocks)
    ends = np.minimum(record_every * np.arange(times.size), n_steps).tolist()
    return PairedRun(
        times,
        sigset.history(times.tolist(), hist, ends),
        hist[:, su] if fine is not None else None,
        hist[:, sU] if coarse is not None else None,
        hist[:, sz] if coarse is not None else None,
    )


def run_macro_forced(
    cfg: ModelConfig,
    U0,
    signal_specs,
    assemble,
    t_end: float,
    seed: int,
    record_every: int = 1,
):
    """Coarse run with signal drivers embedded in the joint integration.

    The coarse-only call of run_paired, at cfg's dt and scheme.
    assemble(vals, t) maps the scalar signal values to the variant's forcing
    object (mode coefficients, lattice samples, or scalar drive).  Returns
    (times, U history, packed bank history, signal-value history).  In the
    last, a white signal reports the draw of the step that ended at each
    recorded time (zero at t = 0).
    """
    run = run_paired(
        signal_specs, seed, t_end, cfg.dt, cfg.scheme,
        coarse=CoarseSide(cfg, U0, assemble), record_every=record_every,
    )
    return run.times, run.U, run.bank, run.values


def nsm_series(cfg: ModelConfig, U_hist, bank_hist) -> np.ndarray:
    """Grid-value reconstruction along a recorded coarse trajectory: one
    nsm_subgrid_field at theta = 0 on the chain outputs of every recorded
    row, gathered by the layout's ``out_rows``."""
    bank = build_bank(cfg)
    U_hist = np.asarray(U_hist, dtype=float)
    bank_hist = np.asarray(bank_hist, dtype=float)
    if bank_hist.size != len(U_hist) * bank.n_states:
        raise ConfigError(
            f"bank history has {bank_hist.size} entries, need {len(U_hist)} "
            f"rows of the bank's {bank.n_states}"
        )
    rows = bank_hist.reshape(len(U_hist), bank.n_states // cfg.m, cfg.m)
    return nsm_subgrid_field(U_hist, rows[:, bank.out_rows].swapaxes(0, 1),
                             cfg, 0.0)


def _write_csv(path: str, header: str, columns) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.12g")


# -- experiments ---------------------------------------------------------------

@experiment("fig1", "alpha eps dx dt t1 scheme", {"record_every": (5, 1)},
            dt=0.01, t0=1.0, t1=40.0)
def run_fig1_experiment(spec):
    """Fine Burgers run, one independent chaotic forcing signal per point.

    Every grid point carries its own Lorenz system, started from
    (5, 8, N(10, 1)); the forcing value at point i is that system's first
    component; dx must tile the ring 2 pi.  A fine-only ``run_paired`` run
    of n Lorenz signals under identity profiles: its state is
    component-major, [xi | eta | zeta | u].  Produces the forced-field
    history and sanity metrics.
    """
    n = exact_points(2.0 * np.pi, spec.dx)
    run = run_paired(
        [SignalSpec(kind="lorenz", xi0=5.0, eta0=8.0)] * n, spec.seed,
        spec.t1, spec.dt, spec.scheme,
        fine=FineSide(np.ones(n), np.eye(n),
                      burgers_form(spec.dx, spec.alpha, spec.eps)),
        record_every=spec.extras["record_every"],
    )
    times, u_hist = run.times, run.u

    sup = float(np.max(np.abs(u_hist)))
    metrics = {
        "grid_points": float(n),
        "sup_abs_u": sup,
        "final_mean": float(np.mean(u_hist[-1])),
        "mean_shift": float(np.mean(u_hist[-1]) - np.mean(u_hist[0])),
    }
    checks = {"bounded": sup < 100.0}
    header = ",".join(["t"] + [f"u{i}" for i in range(n)])
    return metrics, checks, {"fig1.csv": (header, [times, u_hist])}


@experiment("fig3", "alpha eps gamma H m dx dt t0 t1 scheme signal",
            {"record_every": (10, 1)},
            signal=SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0))
def run_fig3_experiment(spec):
    """Fine truth against the alternating-forcing coarse model.

    The forcing field is cos(2x) times a chaotic scalar signal; at the
    element centres (2j+1) H/2 with H = pi/2 the field vanishes identically,
    so the coarse grid values feel the forcing only through memory.  The
    comparison probes the second element's centre: the coarse amplitude
    alone, and the memory-corrected grid-value reconstruction, against the
    fine solution.  Both sides advance as one run_paired state fed by one
    driver, so ``forcing_path_gap`` is 0.0 by construction; the metric and
    its ``paths_paired`` check stay so reports remain comparable.
    """
    m, H = spec.m, spec.H
    grid = ElementGrid(m=m, H=H, x0=H / 2.0)
    n = exact_points(grid.length, spec.dx)
    x = spec.dx * np.arange(n)
    profile = np.cos(2.0 * x)
    signal = spec.signal or default_spec("fig3").signal
    stride = spec.extras["record_every"]

    cfg = ModelConfig(
        variant="ssm1", alpha=spec.alpha, eps=spec.eps, gamma=spec.gamma,
        H=H, m=m, dt=spec.dt, scheme=spec.scheme,
    )
    run = run_paired(
        [signal], spec.seed, spec.t1, spec.dt, spec.scheme,
        fine=FineSide(np.ones(n), profile[None],
                      burgers_form(spec.dx, spec.alpha, spec.eps)),
        coarse=CoarseSide(cfg, np.ones(m), lambda vals, t: float(vals[0])),
        record_every=stride,
    )
    times, u_hist, U_hist = run.times, run.u, run.U
    path_gap = 0.0
    v_hist = nsm_series(cfg, U_hist, run.bank)

    probe_element = 1  # centre 3H/2, the second element
    x_probe = grid.centres()[probe_element]
    idx = int(round(x_probe / spec.dx))
    if abs(idx * spec.dx - x_probe) > 1e-12:
        raise ConfigError("probe centre must lie on the fine grid")

    mask = (times >= spec.t0) & (times <= spec.t1)
    truth = u_hist[mask, idx]
    amp = U_hist[mask, probe_element]
    rec = v_hist[mask, probe_element]
    rms_amp = rms(amp - truth)
    rms_rec = rms(rec - truth)
    node_forcing = float(np.max(np.abs(np.cos(2.0 * grid.centres()))))
    max_gap = float(
        max(np.max(np.abs(amp - truth)), np.max(np.abs(rec - truth)))
    )

    metrics = {
        "rms_amplitude_error": rms_amp,
        "rms_reconstruction_error": rms_rec,
        "error_ratio": rms_rec / rms_amp if rms_amp > 0 else 0.0,
        "forcing_at_nodes": node_forcing,
        "forcing_path_gap": path_gap,
        "max_window_gap": max_gap,
    }
    checks = {
        "reconstruction_beats_amplitude": rms_rec < 0.5 * rms_amp,
        "nodes_unforced": node_forcing <= 1e-12,
        "paths_paired": path_gap == 0.0,
    }
    if spec.eps == 0.0:
        # Unforced: every trace must collapse onto the fine solution.
        checks["reconstruction_beats_amplitude"] = True
        checks["traces_coincide"] = max_gap <= 1e-6
        metrics["error_ratio"] = 0.0
    columns = [times, u_hist[:, idx], U_hist[:, probe_element],
               v_hist[:, probe_element], spec.eps * run.values[:, 0]]
    return metrics, checks, {
        "fig3.csv": ("t,u_probe,U_probe,v_probe,eps_phi", columns)}


@experiment("consistency", "alpha", t0=1.0, t1=2.0)
def consistency_experiment(spec):
    """Discretisation orders of the coarse operators on a smooth field.

    Samples a smooth periodic profile at element spacings H = L/m for
    m = 8, 16, 32, 64 and measures sup-errors of (a) the full deterministic
    coarse operator, lowg's skeleton with zero forcing modes, against
    u'' - alpha u u', expected order 2, and (b) the coupling-corrected
    linear operator delta2/H^2 - delta4/(12 H^2), strongquad's skeleton at
    alpha = 0 with zero forcing rows, against u'', expected order 4.  Both
    are the ``build_bank`` skeletons the models run.
    """
    L = 2.0 * np.pi
    alpha = spec.alpha

    def u_fn(xx):
        return 0.4 + 0.3 * np.sin(xx) + 0.1 * np.cos(2.0 * xx)

    def up_fn(xx):
        return 0.3 * np.cos(xx) - 0.2 * np.sin(2.0 * xx)

    def upp_fn(xx):
        return -0.3 * np.sin(xx) - 0.4 * np.cos(2.0 * xx)

    ms = (8, 16, 32, 64)
    hs, err_full, err_lin = [], [], []
    for m in ms:
        H = L / m
        X = H * np.arange(m)
        U = u_fn(X)
        exact_full = upp_fn(X) - alpha * U * up_fn(X)
        model_full = build_bank(ModelConfig("lowg", alpha, 0.0, H, m)
                                ).skeleton(U, np.zeros((m, 3)))
        exact_lin = upp_fn(X)
        model_lin = build_bank(ModelConfig("strongquad", 0.0, 0.0, H, m)
                               ).skeleton(U, np.zeros((5, m)))
        hs.append(H)
        err_full.append(float(np.max(np.abs(model_full - exact_full))))
        err_lin.append(float(np.max(np.abs(model_lin - exact_lin))))

    order_full = convergence_order(hs, err_full)
    order_lin = convergence_order(hs, err_lin)
    metrics = {
        "order_full": order_full,
        "order_linear": order_lin,
        "finest_error_full": err_full[-1],
        "finest_error_linear": err_lin[-1],
    }
    checks = {
        "full_second_order": order_full >= 1.9,
        "linear_fourth_order": order_lin >= 3.8,
    }
    return metrics, checks, {"consistency.csv": (
        "H,err_full,err_linear", [np.asarray(hs), np.asarray(err_full),
                                  np.asarray(err_lin)])}


def _slaved_decay_rate(u, lap, centre: int, dt: float, target: float) -> float:
    """Decay rate of u's deviation from its centre on one decoupled element.

    lap(u) is the diffusion at the interior points; both ends are slaved to
    the centre value (zero coupling).  Runs to 4 / target and fits the
    window [0.5, 3] / target.
    """

    def bind(u_, du):
        def stage(t):
            du[1:-1] = lap(u_)
            du[0] = du[-1] = du[centre]
        return stage

    times, hist = march(stepper(bind, dt), u, 0.0,
                        int(round(4.0 / target / dt)), dt)
    devs = np.max(np.abs(hist - hist[:, [centre]]), axis=1)
    return fit_emergence_rate(times, devs, 0.5 / target, 3.0 / target)


@experiment("emergence", "H", t0=1.0, t1=2.0)
def emergence_experiment(spec):
    """Fast-mode decay rates of one decoupled element, continuum and lattice.

    With zero coupling an element relaxes to its centre value; the approach
    rates are the subgrid spectrum: (k pi/H)^2 for the continuum modes and
    {8/H^2, 16/H^2} for the two fast modes of the 5-point lattice element.
    The continuum element spans theta in [-pi, pi] on 129 points, diffusion
    only, started from csn mode k.
    """
    H = spec.H
    theta = np.linspace(-np.pi, np.pi, 129)
    h = theta[1] - theta[0]
    c = (np.pi / H) ** 2
    # (kind, mode, start, diffusion, centre, dt, target rate) per case
    cases = [("continuum", f"k{k}", csn(k, theta),
              lambda u: c * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2,
              theta.size // 2, 0.2 / (c * 4.0 / h**2), mode_decay_rate(k, H))
             for k in (1, 2)]
    fast_modes = ([0.0, -1.0, 0.0, 1.0, 0.0], [1.0, -1.0, 1.0, -1.0, 1.0])
    cases += [("lattice", f"f{mode}", np.array(u0),
               lambda u: (4.0 / H**2) * (u[2:] - 2.0 * u[1:-1] + u[:-2]),
               2, 0.01 * H**2, target)
              for mode, u0, target in zip((1, 2), fast_modes, lattice_decay_rates(H))]
    metrics, checks = {}, {}
    for kind, mode, u0, lap, centre, dt, target in cases:
        rate = _slaved_decay_rate(u0, lap, centre, dt, target)
        rel = abs(rate - target) / target
        metrics[f"{kind}_rate_{mode}"] = rate
        metrics[f"{kind}_target_{mode}"] = target
        metrics[f"{kind}_rel_err_{mode}"] = rel
        checks[f"{kind}_{mode}_within_2pct"] = rel <= 0.02
    return metrics, checks, {}


@experiment("lattice", "alpha eps H m dt t0 t1 scheme",
            {"levels": (3, 2), "record_every": (10, 1)},
            alpha=0.8, eps=0.8, H=1.0, m=16, dt=2e-3, t0=6.0, t1=12.0)
def lattice_coarse_experiment(spec):
    """Coarse lattice model against the fine lattice under (alpha, eps) halving.

    Three levels (alpha, eps), (alpha/2, eps/2), (alpha/4, eps/4) share the
    same smooth forcing field and initial state; the post-transient
    sup-error between the coarse amplitudes and the fine even points should
    shrink by at least a factor of three per halving once the linear-order
    closure terms dominate validity.
    """
    H, m = spec.H, spec.m
    L = m * H
    x_fine = (H / 2.0) * np.arange(2 * m)
    levels = spec.extras["levels"]
    stride = spec.extras["record_every"]

    prof0 = 1.0 + 0.8 * np.cos(2.0 * np.pi * x_fine / L + 0.7)
    prof1 = 0.6 * np.cos(4.0 * np.pi * x_fine / L + 1.9)
    sig0 = SignalSpec(kind="harmonic", omega=0.37, phase=0.3, amplitude=1.0)
    sig1 = SignalSpec(kind="harmonic", omega=0.23, phase=1.1, amplitude=1.0)
    profiles = np.stack([prof0, prof1])

    u0_fine = np.full(2 * m, 0.4)
    sup_errors = []
    for level in range(levels):
        a = spec.alpha / 2**level
        e = spec.eps / 2**level
        cfg = ModelConfig(
            variant="lattice", alpha=a, eps=e, H=H, m=m, dt=spec.dt,
            scheme=spec.scheme,
        )
        run = run_paired(
            [sig0, sig1], spec.seed, spec.t1, spec.dt, spec.scheme,
            fine=FineSide(u0_fine, profiles, lattice_form(H, a, e)),
            coarse=CoarseSide(
                cfg, u0_fine[0::2], lambda vals, t: profiles.T @ vals
            ),
            record_every=stride,
        )
        mask = (run.times >= spec.t0) & (run.times <= spec.t1)
        err = run.U[mask] - run.u[mask][:, 0::2]
        sup_errors.append(float(np.max(np.abs(err))))

    metrics = {}
    checks = {}
    for level, err in enumerate(sup_errors):
        metrics[f"sup_error_level{level}"] = err
    for level in range(1, levels):
        ratio = sup_errors[level - 1] / sup_errors[level]
        metrics[f"ratio_level{level - 1}_over_{level}"] = ratio
        checks[f"ratio_{level - 1}_{level}_ge_3"] = ratio >= 3.0
    halvings = 2.0 ** np.arange(levels)
    columns = [np.arange(levels, dtype=float), spec.alpha / halvings,
               spec.eps / halvings, np.asarray(sup_errors)]
    return metrics, checks, {
        "lattice.csv": ("level,alpha,eps,sup_error", columns)}


@experiment("weak-drift", "alpha eps H m dt scheme signal", {"periods": (200, 1)},
            H=np.pi, m=4, t0=8.0, t1=8.0 + 200.0 * np.pi, dt=4e-3,
            signal=SignalSpec(kind="harmonic", omega=2.0, phase=0.3,
                              amplitude=1.0))
def weak_drift_experiment(spec):
    """Long-time averages of the memory products against weak drifts.

    Integrates the four alternating-forcing chains together, as one packed
    state, under the configured harmonic signal, averages each product
    phi(t) * chain output over an integer number of periods after the
    transient, and compares with the weak model's constant drifts.  Also
    audits the weak model structurally: it must carry no memory state.
    """
    signal = spec.signal
    if signal is None or signal.kind != "harmonic":
        raise ConfigError("weak-drift needs a harmonic signal")
    H = spec.H
    w = signal.omega
    period = 2.0 * np.pi / w
    n_periods = spec.extras["periods"]
    t_skip = default_window_start(H)
    t_end = t_skip + n_periods * period
    dt = spec.dt
    phi = make_signal(signal).value
    cfg = ModelConfig(
        variant="ssm1", alpha=spec.alpha, eps=spec.eps, H=H, m=spec.m,
        dt=dt, scheme=spec.scheme,
    )
    weak = build_weak_model(cfg, signal)
    report_drifts = weak.drift_report()["drifts"]

    metrics = {"window_periods": float(n_periods)}
    checks = {"weak_has_no_memory": weak.memory_state is None}
    labels = ("z1", "z21", "z41", "z61")
    chains = [rates for rates, _key in ssm1_chain_specs(cfg)]
    times, hists = integrate_chains(chains, phi, t_end, dt, scheme=spec.scheme)
    drive, mask = phi(times), times >= t_skip
    for label, rates, hist in zip(labels, chains, hists):
        product = drive * hist[:, 0]
        avg = float(np.trapezoid(product[mask], times[mask]) / (t_end - t_skip))
        drift = report_drifts[label]
        # Bound on any drift with these rates; the denominator when the
        # formula lands on an exact zero.
        scale = 0.5 * signal.amplitude**2 / np.prod(
            [np.hypot(b, w) for b in rates]
        )
        denom = abs(drift) if abs(drift) > 0.01 * scale else scale
        rel = abs(avg - drift) / denom
        metrics[f"avg_{label}"] = avg
        metrics[f"weak_{label}"] = drift
        metrics[f"rel_err_{label}"] = rel
        checks[f"{label}_within_2pct"] = rel <= 0.02
    return metrics, checks, {}
