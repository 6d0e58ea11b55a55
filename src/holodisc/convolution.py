"""Exponential memory convolutions and their integration-by-parts algebra.

A chain with rate vector (b1, b2, ..., bn) applied to a signal g is the
nested convolution

    Z g = exp(-b1 t) * exp(-b2 t) * ... * exp(-bn t) * g,

realised as a cascade of first-order filters: with states z[0..n-1],

    dz[i]/dt = -b[i] z[i] + z[i+1]   (z[n] meaning the raw drive g),

so z[0] is the chain output.  The output is invariant under permutation of
the rate vector, which lets banks of chains be keyed by the sorted rates.

Cascades are integrated as one packed state.  ``chain_layout`` stacks their
levels into rows and gives each row its feed: the next level, or at a
chain's end its drive row, stacked below the state.  ``packed_chain_rhs``,
every row's derivative from one gather, serves ``integrate_chains``,
``macromodel.ChainBank`` and the quadrature ensemble; ``integrate_chains``
steps all rows through ``microscale.march``, one drive call per new stage
time.
A 1-D packed state, a few scalar rows, is stepped on Python floats
instead, by straight-line code generated from its layout and compiled
once per layout and scheme (``_float_advance``): one local per row and
stage, no loop and no list.
Python floats round + and * as numpy float64 does, so the same operations
in the same order give the same bits, without numpy's dispatch per
operation.

Products of two convolved signals reduce, by repeated integration by parts,
to a sum of boundary products (which belong in the reconstructed subgrid
field) plus canonical products "bare signal times convolved signal" (which
belong in the evolution equation).  ``reduce_by_parts`` performs that
reduction symbolically and keeps a trace of every step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ReductionError
from .microscale import march, stepper

__all__ = [
    "ConvChain",
    "chain_rhs",
    "chain_layout",
    "packed_chain_rhs",
    "integrate_chains",
    "integrate_chain",
    "canonical_rates",
    "ConvTerm",
    "Reduction",
    "reduce_by_parts",
]


def _validate_rates(rates) -> tuple[float, ...]:
    rates = tuple(float(r) for r in np.atleast_1d(np.asarray(rates, dtype=float)))
    if len(rates) == 0:
        raise ConfigError("a chain needs at least one rate")
    if any(r <= 0.0 for r in rates):
        raise ConfigError(f"chain rates must be positive, got {rates}")
    return rates


@dataclass(frozen=True)
class ConvChain:
    """A cascade of exponential filters with the given decay rates."""

    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", _validate_rates(self.rates))

    def steady_gain(self) -> float:
        """Output per unit constant drive: 1 / prod(rates)."""
        return float(1.0 / np.prod(self.rates))

    def transfer(self, omega: float) -> complex:
        """Steady response to exp(i omega t): prod 1/(b + i omega)."""
        out = 1.0 + 0.0j
        for b in self.rates:
            out /= b + 1j * omega
        return out


def chain_rhs(states: np.ndarray, rates, drive) -> np.ndarray:
    """Cascade derivative: dz[i] = -b[i] z[i] + z[i+1], last fed by drive.

    states has shape (levels,) or (levels, m); drive broadcasts against one
    row of states.
    """
    states = np.asarray(states, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if states.shape[0] != rates.shape[0]:
        raise ConfigError(
            f"{rates.shape[0]} rates but {states.shape[0]} cascade states"
        )
    shaped = rates.reshape((-1,) + (1,) * (states.ndim - 1))
    dz = -shaped * states
    dz[:-1] += states[1:]
    dz[-1] += drive
    return dz


def chain_layout(chains, ndim: int = 1, drive_rows=0):
    """Rows of the rate tuples' levels, stacked as given (not sorted).

    Returns per row its negated decay rate, shaped to broadcast against a
    packed state of rank ndim, and its feed, its row in [state; drive rows]:
    the next level, or at a chain's end its drive_rows entry (default 0);
    and per chain its last row.
    """
    col = (-1,) + (1,) * (ndim - 1)
    rates = np.asarray([r for chain in chains for r in chain], dtype=float)
    last = np.cumsum([len(chain) for chain in chains], dtype=int) - 1
    feed = np.arange(1, rates.size + 1)
    feed[last] = rates.size + np.asarray(drive_rows, dtype=int)
    return -rates.reshape(col), feed, last


def packed_chain_rhs(Z, layout, drives, ext, out=None):
    """chain_rhs for every chain of a chain_layout at once.

    Fills ext, the caller's [Z; drive rows] buffer, from Z and drives; each
    row adds its one feed to its decay term, as in chain_rhs, so each
    chain's derivative is bit for bit the one it gets alone.  Writes into
    out when given, else into a new array (the operator form, which numpy
    dispatches faster than a ufunc call with an out argument).
    """
    neg_rates, feed, _ = layout
    ext[:len(Z)] = Z
    ext[len(Z):] = drives
    dZ = neg_rates * Z if out is None else np.multiply(neg_rates, Z, out)
    dZ += ext[feed]
    return dZ


def integrate_chains(chains, drive_fn, t_end, dt, states0=None, scheme="rk4"):
    """Integrate cascades sharing one drive as one packed state.

    Each chain starts from rest or from its states0 entry, (levels,) or
    (levels, m).  drive_fn must be a pure function of t: one call serves
    all chains, and a stage at the time of the stage before it reuses it.
    So RK4's midpoints share a call, and a step's last stage shares one
    with the next step's first only where t + dt equals the next start
    (k + 1) dt in floating point, about two steps in three: some 2.3 calls
    per RK4 step.  The run takes round(t_end / dt) steps, the nearest
    whole number, so it may end a fraction of a step off t_end.  Returns
    times, shape (n+1,), and per chain in the order given its history: a
    view, (n+1, levels[, m]), into one packed array.  A non-finite state
    raises StabilityError naming the first bad chain.

    When every state is (levels,), the packed state is 1-D and each scheme
    steps it on Python floats, by a step generated for this layout
    (``_float_advance``), its drive taken as a float: a number, or an
    array of one entry.  The step keeps packed_chain_rhs's and rk4_step's
    or euler_step's operations in their order, so its bits are theirs.
    (levels, m) states step as arrays.
    """
    chains = [ConvChain(tuple(np.atleast_1d(rates))).rates for rates in chains]
    if not chains:
        raise ConfigError("need at least one chain")
    if t_end <= 0.0 or dt <= 0.0:
        raise ConfigError("need t_end > 0 and dt > 0")
    if states0 is None:
        states0 = [np.zeros(len(rates)) for rates in chains]
    states0 = [np.asarray(z, dtype=float) for z in states0]
    if [z.shape[:1] for z in states0] != [(len(r),) for r in chains]:
        shapes = [z.shape for z in states0]
        raise ConfigError(f"cascade states {shapes} do not fit chains {chains}")
    Z = np.concatenate(states0)
    layout = chain_layout(chains, Z.ndim)
    rows = [slice(e + 1 - len(r), e + 1) for r, e in zip(chains, layout[2])]
    ext = np.empty((len(Z) + 1,) + Z.shape[1:])
    on_floats = Z.ndim == 1
    last_s = last_d = None  # the last stage time and its drive

    def drive_at(s):
        nonlocal last_s, last_d
        if s != last_s:
            d = drive_fn(s)
            if on_floats:  # a number, or an array of one entry
                d = float(d) if isinstance(d, float) else np.asarray(d, float).item()
            last_s, last_d = s, d
        return last_d

    def rhs(y, s):
        return packed_chain_rhs(y, layout, drive_at(s), ext)

    advance = stepper(rhs, dt, scheme)  # checks dt and the scheme for both
    if on_floats:
        advance = _float_advance(layout, drive_at, dt, scheme)
    times, history = march(
        advance, Z, 0.0, int(round(t_end / dt)), dt,
        blocks=[(f"memory chain {r}", row) for r, row in zip(chains, rows)],
    )
    return times, [history[:, row] for row in rows]


def _float_advance(layout, drive_at, dt, scheme):
    """The scheme's step of a 1-D packed state, on Python floats.

    Straight-line code with one local per row and stage, generated for the
    layout's feeds and the scheme (``_float_step_code``).  Each row's
    derivative is packed_chain_rhs's neg_rate * z + feed, and the steps are
    rk4_step's and euler_step's operations in their order; Python floats
    round + and * as numpy float64 does, so the bits are theirs, without
    numpy's dispatch on a state of a few entries.  The rates, dt, h, dt/6
    and drive_at reach the code by value, through a fresh exec namespace
    per call.
    """
    neg_rates, feed, _ = layout
    dt = float(dt)
    namespace = {"array": np.array, "drive_at": drive_at, "dt": dt,
                 "h": 0.5 * dt, "sixth": dt / 6.0}
    namespace.update((f"r{i}", r) for i, r in enumerate(neg_rates.tolist()))
    exec(_float_step_code(tuple(feed.tolist()), scheme), namespace)
    return namespace["step"]


@functools.lru_cache(maxsize=64)
def _float_step_code(feed: tuple, scheme: str):
    """The compiled source of _float_advance's step for a layout's feeds.

    The source is built from row indices and fixed names only, so one code
    object serves every call with these feeds and scheme, whatever the
    rates, dt and drive bound with it.
    """
    n = len(feed)
    rows = list(enumerate(feed))

    def derivs(k, w):
        """Lines k_i = r_i * w_i + w_feed: the next level, or the drive d."""
        return [f"{k}{i} = r{i} * {w}{i} + " + (f"{w}{j}" if j < n else "d")
                for i, j in rows]

    def stage(w, k, by):
        """Lines w_i = k_i * by + z_i: the next stage's arguments."""
        return [f"{w}{i} = {k}{i} * {by} + z{i}" for i in range(n)]

    body = ["".join(f"z{i}, " for i in range(n)) + "= y.tolist()",
            "d = drive_at(t)", *derivs("a", "z")]
    if scheme == "rk4":
        body += ["d = drive_at(t + h)", *stage("p", "a", "h"), *derivs("b", "p"),
                 *stage("q", "b", "h"), *derivs("c", "q"),
                 "d = drive_at(t + dt)", *stage("s", "c", "dt"), *derivs("e", "s")]
        new = [f"(((b{i} * 2.0 + a{i}) + c{i} * 2.0) + e{i}) * sixth + z{i}"
               for i in range(n)]
    else:
        new = [f"z{i} + dt * a{i}" for i in range(n)]
    body.append(f"return array([{', '.join(new)}])")
    source = "def step(y, t):\n" + "".join(f"    {line}\n" for line in body)
    return compile(source, "<convolution float step>", "exec")


def integrate_chain(rates, drive_fn, t_end, dt, states0=None, scheme="rk4"):
    """integrate_chains for one cascade: times and its (n+1, levels[, m]) history.

    Takes round(t_end / dt) steps; drive_fn must be a pure function of t.
    """
    s0 = None if states0 is None else [states0]
    times, (history,) = integrate_chains([rates], drive_fn, t_end, dt, s0, scheme)
    return times, history


def canonical_rates(rates) -> tuple[float, ...]:
    """Sorted rate tuple; the chain output only depends on this."""
    return tuple(sorted(_validate_rates(rates)))


@dataclass(frozen=True)
class ConvTerm:
    """coeff * Z[left_rates](left) * Z[right_rates](right).

    Empty rate tuples mean the bare signal.  Signals are symbolic labels;
    the reducer never needs their values.
    """

    coeff: float
    left_rates: tuple[float, ...]
    right_rates: tuple[float, ...]
    left: str = "rho"
    right: str = "mu"

    def __post_init__(self):
        for name in ("left_rates", "right_rates"):
            rates = tuple(float(r) for r in getattr(self, name))
            if any(r <= 0.0 for r in rates):
                raise ReductionError(f"{name} must be positive, got {rates}")
            object.__setattr__(self, name, rates)

    def label(self) -> str:
        def side(rates, sig):
            if not rates:
                return sig
            inner = ",".join(f"{r:g}" for r in rates)
            return f"Z[{inner}]{sig}"

        return (
            f"{self.coeff:g} * {side(self.left_rates, self.left)}"
            f" * {side(self.right_rates, self.right)}"
        )


@dataclass
class Reduction:
    """Result of reducing the integral of a ConvTerm product.

    The defining identity, exact pointwise in t for cascades sharing the
    same drives:

        original(t) = d/dt [ sum of boundary products ](t)
                      + [ sum of canonical products ](t).

    Boundary products belong in the reconstructed subgrid field; canonical
    products (one side bare) belong in the evolution equation.
    """

    original: ConvTerm
    boundary: list[ConvTerm] = field(default_factory=list)
    canonical: list[ConvTerm] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def term(t: ConvTerm) -> dict:
            return {
                "coeff": t.coeff,
                "left_rates": list(t.left_rates),
                "right_rates": list(t.right_rates),
                "left": t.left,
                "right": t.right,
                "label": t.label(),
            }

        return {
            "original": term(self.original),
            "boundary": [term(t) for t in self.boundary],
            "canonical": [term(t) for t in self.canonical],
            "trace": list(self.trace),
        }


def _merge(terms: list[ConvTerm]) -> list[ConvTerm]:
    # Permutation invariance of chain outputs justifies keying by sorted
    # rates; coefficients of coincident terms add.
    merged: dict = {}
    order: list = []
    for t in terms:
        key = (
            tuple(sorted(t.left_rates)),
            tuple(sorted(t.right_rates)),
            t.left,
            t.right,
        )
        if key in merged:
            old = merged[key]
            merged[key] = ConvTerm(
                old.coeff + t.coeff, key[0], key[1], t.left, t.right
            )
        else:
            merged[key] = ConvTerm(t.coeff, key[0], key[1], t.left, t.right)
            order.append(key)
    return [merged[k] for k in order if merged[k].coeff != 0.0]


def reduce_by_parts(term: ConvTerm) -> Reduction:
    """Reduce the integral of a two-sided convolution product.

    Repeatedly applies

        int Z[l,l'](f) Z[k,k'](g) dt
            = -1/(bk+bl) Z[l,l'](f) Z[k,k'](g)
              + 1/(bk+bl) int ( Z[l'](f) Z[k,k'](g) + Z[l,l'](f) Z[k'](g) ) dt,

    stripping the leading rate of each side, until every surviving integrand
    has one bare side (the canonical form).  A term that is already canonical
    passes through unchanged.

    Returns a Reduction whose boundary list collects the integrated-out
    products and whose canonical list collects the terminal integrands; the
    trace records each elimination step.
    """
    if not isinstance(term, ConvTerm):
        raise ReductionError("reduce_by_parts needs a ConvTerm")
    red = Reduction(original=term)
    stack = [term]
    while stack:
        cur = stack.pop()
        if not cur.left_rates or not cur.right_rates:
            red.canonical.append(cur)
            continue
        bl = cur.left_rates[0]
        bk = cur.right_rates[0]
        s = bk + bl
        boundary = ConvTerm(
            -cur.coeff / s, cur.left_rates, cur.right_rates, cur.left, cur.right
        )
        child_a = ConvTerm(
            cur.coeff / s, cur.left_rates[1:], cur.right_rates, cur.left, cur.right
        )
        child_b = ConvTerm(
            cur.coeff / s, cur.left_rates, cur.right_rates[1:], cur.left, cur.right
        )
        red.boundary.append(boundary)
        red.trace.append(
            f"strip ({bl:g}, {bk:g}) from {cur.label()}: boundary {boundary.label()}"
            f"; children {child_a.label()} | {child_b.label()}"
        )
        stack.append(child_a)
        stack.append(child_b)
    red.boundary = _merge(red.boundary)
    red.canonical = _merge(red.canonical)
    return red
