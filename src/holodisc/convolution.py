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
steps (levels, m) rows through ``microscale.march``, one drive call per
new stage time.
A 1-D packed state, a few scalar rows, runs its whole time loop on Python
floats instead, in one function generated from its feeds, scheme and drive
body and cached (``_float_run``): one local per row and stage, march's stage
times, a harmonic drive inlined, and march's error (``non_finite_error``)
from one screen of the history after the loop.  A float step per march call
spent almost half as long on march's array round trip as on its arithmetic.
Its rows come from one template (``_float_rows``), which ``harness``'s
float stage of fig3's paired run also writes its cascade rows from.  Python floats
round + and * as numpy float64 does: same operations, same order, same bits.

Products of two convolved signals reduce, by repeated integration by parts,
to a sum of boundary products (which belong in the reconstructed subgrid
field) plus canonical products "bare signal times convolved signal" (which
belong in the evolution equation).  ``reduce_by_parts`` performs that
reduction symbolically and keeps a trace of every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ReductionError, check_positive
from .forcing import HarmonicSignal
from .microscale import march, non_finite_error, stepper

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
    for r in rates:
        check_positive(f"every chain rate of {rates}", r)
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
    and per chain its slice of rows, output row first.
    """
    col = (-1,) + (1,) * (ndim - 1)
    rates = np.asarray([r for chain in chains for r in chain], dtype=float)
    ends = np.cumsum([len(chain) for chain in chains], dtype=int)
    feed = np.arange(1, rates.size + 1)
    feed[ends - 1] = rates.size + np.asarray(drive_rows, dtype=int)
    rows = [slice(e - len(c), e) for c, e in zip(chains, ends.tolist())]
    return -rates.reshape(col), feed, rows


def packed_chain_rhs(Z, layout, drives, ext, out):
    """chain_rhs for every chain of a chain_layout at once, into out.

    Fills ext, the caller's [Z; drive rows] buffer, from Z and drives; each
    row adds its one feed to its decay term, as in chain_rhs, so each
    chain's derivative is bit for bit the one it gets alone.  Writes the
    derivatives into out, shaped as Z and not overlapping it, and returns out.
    """
    neg_rates, feed, _ = layout
    ext[:len(Z)] = Z
    ext[len(Z):] = drives
    np.multiply(neg_rates, Z, out)
    out += ext[feed]
    return out


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
    view, (n+1, levels[, m]), into one packed array.

    When every state is (levels,), the whole run loops on Python floats in
    a function generated for the layout's feeds and the scheme
    (``_float_run``), with packed_chain_rhs's and the stepper's RK4 or
    Euler operations in their order at march's times: march's bits.
    A HarmonicSignal's value is inlined there, its form evaluated at each
    stage time; other drives are called as above, as floats
    (``_float_drive``).  Its history is screened once, after the loop, so
    a blow-up runs on to the last step.  (levels, m) states step through
    march, the drive in a one-entry lru_cache.  A non-finite state raises
    march's StabilityError, naming the first bad chain at the first bad step.
    """
    chains = [ConvChain(tuple(np.atleast_1d(rates))).rates for rates in chains]
    if not chains:
        raise ConfigError("need at least one chain")
    check_positive("run end t_end", t_end)  # and stepper checks dt
    if states0 is None:
        states0 = [np.zeros(len(rates)) for rates in chains]
    states0 = [np.asarray(z, dtype=float) for z in states0]
    if [z.shape[:1] for z in states0] != [(len(r),) for r in chains]:
        shapes = [z.shape for z in states0]
        raise ConfigError(f"cascade states {shapes} do not fit chains {chains}")
    Z = np.concatenate(states0)
    layout = chain_layout(chains, Z.ndim)
    ext = np.empty((len(Z) + 1,) + Z.shape[1:])
    drive_at = functools.lru_cache(maxsize=1)(drive_fn)  # one call per new time
    advance = stepper(lambda y, dy: lambda s: packed_chain_rhs(
        y, layout, drive_at(s), ext, dy), dt, scheme)  # checks dt, scheme for both
    n = int(round(t_end / dt))
    blocks = [(f"memory chain {r}", row) for r, row in zip(chains, layout[2])]
    if Z.ndim == 1:
        history, sig = np.empty((n + 1, len(Z))), getattr(drive_fn, "__self__", None)
        inline = getattr(drive_fn, "__func__", None) is HarmonicSignal.value
        _float_run(tuple(layout[1].tolist()), scheme, inline and (sig.form, sig.args))(
            Z.tolist(), layout[0].tolist(), [getattr(sig, a) for a in sig.args]
            if inline else drive_fn, 0.0, n, float(dt), memoryview(history.reshape(-1)))
        ok = np.isfinite(history[1:]).all(axis=1)  # step k wrote row k + 1
        if not ok.all():
            k = int(ok.argmin())
            raise non_finite_error(history[k + 1], blocks, 0.0, k, dt)
        times = 0.0 + np.arange(n + 1) * dt  # march's t0 + k dt, bit for bit
    else:
        times, history = march(advance, Z, 0.0, n, dt, blocks=blocks)
    return times, [history[:, row] for row in layout[2]]


def _float_drive(d):
    """A drive value as a Python float: a number, or an array of one entry."""
    return float(d) if isinstance(d, float) else np.asarray(d, float).item()


def _float_rows(feed, w, drive):
    """packed_chain_rhs's rows as float source: r_i * w_i + w_feed, the
    state w_j it feeds on, or the drive past the last row."""
    n = len(feed)
    return [f"r{i} * {w}{i} + " + (f"{w}{j}" if j < n else drive)
            for i, j in enumerate(feed)]


def _float_unpack(w, n, value):
    """The source line w0, ..., w{n-1}, = value: one local per entry."""
    return "".join(f"{w}{i}, " for i in range(n)) + f"= {value}"


def _float_code(head, lines, where):
    """Compile the generated function def head: lines, named for where."""
    source = f"def {head}:\n" + "".join(f"    {line}\n" for line in lines)
    return compile(source, f"<{where}>", "exec")


def _float_bind(code, name, rates=(), **values):
    """The function name that code defines, run in a fresh namespace which
    holds the values, and each rate as r_i, by value; popped from it, so its
    globals keep no reference back to it, and no cycle."""
    namespace = {f"r{i}": r for i, r in enumerate(rates)}
    namespace.update(values)
    exec(code, namespace)
    return namespace.pop(name)


@functools.lru_cache(maxsize=64)
def _float_run(feed: tuple, scheme: str, inline=None):
    """run(z, rates, drive, t0, n, dt, out): n steps of the scheme from the
    1-D packed state z on Python floats, each state written into out, a flat
    (n + 1, rows) history the caller screens.  One local per row and stage
    in one loop: packed_chain_rhs's rows, the stepper's RK4 or Euler
    operations in their order, stages at march's t0 + k dt.  An inline
    (form, args) evaluates form at each stage time, drive holding the args'
    values and cos math.cos; else drive is a function behind a one-entry
    cache.  Cached per feeds, scheme and inline."""
    S = len(feed)

    def derivs(k, w):
        """Lines k_i = r_i * w_i + w_feed: the next level, or the drive d."""
        return [f"{k}{i} = {row}"
                for i, row in enumerate(_float_rows(feed, w, "d"))]

    def stage(w, k, by):
        """Lines w_i = k_i * by + z_i: the next stage's arguments."""
        return [f"{w}{i} = {k}{i} * {by} + z{i}" for i in range(S)]

    def drive(s):
        """Lines setting d to the drive at s as a float: inline's form, or
        drive(s), called only when s is not ts, the last time it was."""
        if inline:
            return [f"d = {inline[0].format(t=s, **{a: a for a in inline[1]})}"]
        return [f"if {s} != ts:", f"    ts, d = {s}, drive({s})",
                "    if type(d) is not float: d = as_float(d)"]

    step = ["t = t0 + k * dt", *drive("t"), *derivs("a", "z")]
    if scheme == "rk4":
        step += ["u = t + h", *drive("u"), *stage("p", "a", "h"), *derivs("b", "p"),
                 *stage("q", "b", "h"), *derivs("c", "q"), "u = t + dt", *drive("u"),
                 *stage("s", "c", "dt"), *derivs("e", "s"),
                 *(f"z{i} = (((b{i} * 2.0 + a{i}) + c{i} * 2.0) + e{i}) * sixth + z{i}"
                   for i in range(S))]
    else:
        step += [f"z{i} = z{i} + dt * a{i}" for i in range(S)]
    put = ["out[j] = z0", *(f"out[j + {i}] = z{i}" for i in range(1, S)), f"j += {S}"]
    body = [_float_unpack("z", S, "z"), _float_unpack("r", S, "rates"),
            f"{', '.join(inline[1])}, = drive" if inline else "ts = None",
            "h = 0.5 * dt", "sixth = dt / 6.0", "j = 0", *put,
            "for k in range(n):", *(f"    {line}" for line in step + put)]
    return _float_bind(_float_code("run(z, rates, drive, t0, n, dt, out)", body,
                                   "convolution float run"), "run", cos=math.cos,
                       as_float=_float_drive)


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
            for r in rates:
                check_positive(f"every rate of {name} {rates}", r, ReductionError)
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
    # rates; coefficients of coincident terms add, in first-seen order.
    coeffs: dict = {}
    for t in terms:
        key = (tuple(sorted(t.left_rates)), tuple(sorted(t.right_rates)),
               t.left, t.right)
        coeffs[key] = coeffs.get(key, 0.0) + t.coeff
    return [ConvTerm(c, *key) for key, c in coeffs.items() if c != 0.0]


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
