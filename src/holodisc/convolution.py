"""Exponential memory convolutions and their integration-by-parts algebra.

A chain with rate vector (b1, b2, ..., bn) applied to a signal g is the
nested convolution

    Z g = exp(-b1 t) * exp(-b2 t) * ... * exp(-bn t) * g,

realised as a cascade of first-order filters: with states z[0..n-1],

    dz[i]/dt = -b[i] z[i] + z[i+1]   (z[n] meaning the raw drive g),

so z[0] is the chain output.  The output is invariant under permutation of
the rate vector, which lets banks of chains be keyed by the sorted rates.

Cascades sharing one drive are integrated as one packed state:
``chain_layout`` stacks their levels into rows, ``packed_chain_rhs`` is the
derivative of every row at once (``macromodel.ChainBank`` uses both), and
``integrate_chains`` steps all rows together with one drive evaluation per
stage, through ``microscale.march``.

Products of two convolved signals reduce, by repeated integration by parts,
to a sum of boundary products (which belong in the reconstructed subgrid
field) plus canonical products "bare signal times convolved signal" (which
belong in the evolution equation).  ``reduce_by_parts`` performs that
reduction symbolically and keeps a trace of every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ReductionError
from .microscale import march, step

__all__ = [
    "ConvChain",
    "chain_rhs",
    "chain_step",
    "chain_layout",
    "packed_chain_rhs",
    "integrate_chains",
    "integrate_chain",
    "canonical_rates",
    "chains_equivalent",
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

    @property
    def levels(self) -> int:
        return len(self.rates)

    def zero_states(self, m: int | None = None) -> np.ndarray:
        """From-rest states: shape (levels,) or (levels, m)."""
        if m is None:
            return np.zeros(self.levels)
        return np.zeros((self.levels, m))

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


def chain_step(states, rates, drive_fn, t, dt, scheme="rk4"):
    """Advance one cascade by dt: one ``microscale.step`` of chain_rhs.

    drive_fn(t) supplies the raw drive at substage times; for the euler and
    euler-maruyama schemes it is evaluated once, at t.
    """
    def f(y, s):
        return chain_rhs(y, rates, drive_fn(s))

    return step(np.asarray(states, dtype=float), f, t, dt, scheme)


def chain_layout(chains, ndim: int = 1):
    """Rows of the rate tuples' levels, stacked as given (not sorted).

    Returns per row its negated decay rate and whether the next row feeds
    it (false where a chain ends; one entry fewer), shaped to broadcast
    against a packed state of rank ndim; and per chain the last row, fed by
    the drive.
    """
    col = (-1,) + (1,) * (ndim - 1)
    rates = np.asarray([r for chain in chains for r in chain], dtype=float)
    last = np.cumsum([len(chain) for chain in chains], dtype=int) - 1
    link = ~np.isin(np.arange(rates.size - 1), last)
    return -rates.reshape(col), link.reshape(col), last


def packed_chain_rhs(Z, layout, drive):
    """chain_rhs for every chain of a chain_layout at once.

    Z holds the packed rows; drive broadcasts against Z[layout's last rows].
    Keeps chain_rhs's elementwise order, so each chain's derivative is bit
    for bit the one it gets alone.
    """
    neg_rates, link, last = layout
    dZ = neg_rates * Z
    np.add(dZ[:-1], Z[1:], out=dZ[:-1], where=link)
    dZ[last] += drive
    return dZ


def integrate_chains(chains, drive_fn, t_end, dt, states0=None, scheme="rk4"):
    """Integrate cascades sharing one drive as one packed state.

    Each chain starts from rest or from its states0 entry, (levels,) or
    (levels, m); drive_fn is evaluated once per stage for all of them.  The
    run takes round(t_end / dt) steps, the nearest whole number, so it may
    end a fraction of a step off t_end.  Returns times, shape (n+1,), and
    per chain in the order given its history: a view, (n+1, levels[, m]),
    into one packed array.  A non-finite state raises StabilityError naming
    the first bad chain.
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

    def rhs(y, s):
        return packed_chain_rhs(y, layout, drive_fn(s))

    times, history = march(
        lambda y, t: step(y, rhs, t, dt, scheme), Z, 0.0,
        int(round(t_end / dt)), dt,
        blocks=[(f"memory chain {r}", row) for r, row in zip(chains, rows)],
    )
    return times, [history[:, row] for row in rows]


def integrate_chain(rates, drive_fn, t_end, dt, states0=None, scheme="rk4"):
    """integrate_chains for one cascade: times and its (n+1, levels[, m]) history.

    Takes round(t_end / dt) steps, as integrate_chains does.
    """
    s0 = None if states0 is None else [states0]
    times, (history,) = integrate_chains([rates], drive_fn, t_end, dt, s0, scheme)
    return times, history


def canonical_rates(rates) -> tuple[float, ...]:
    """Sorted rate tuple; the chain output only depends on this."""
    return tuple(sorted(_validate_rates(rates)))


def chains_equivalent(rates_a, rates_b, rtol: float = 1e-12) -> bool:
    """Whether two rate vectors define the same chain output."""
    a = np.asarray(canonical_rates(rates_a))
    b = np.asarray(canonical_rates(rates_b))
    if a.shape != b.shape:
        return False
    return bool(np.allclose(a, b, rtol=rtol, atol=0.0))


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
