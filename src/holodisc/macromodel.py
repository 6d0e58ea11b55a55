"""Coarse models: element-amplitude evolution equations with memory.

All models advance m grid values U_j(t), one per element of half-width H on
a periodic domain of length m H.  Four deterministic-skeleton variants:

``lowg``
    Low-order forced model: renormalised diffusion, advection, the three
    leading forcing-mode couplings, and a constant mean-drift correction.
    Valid at full coupling only (gamma = 1).

``lattice``
    Coarse companion of the half-spacing lattice: evolves the even lattice
    points from restrictions of the fine forcing samples.

``ssm1``
    Single-mode alternating forcing phi_j,1 = -+ phi(t): the slow-manifold
    model with four memory chains per element, plus the reconstruction
    of the subgrid field (the grid values at theta = 0) from chain outputs.

``strongquad``
    General three-mode forcing, complete through quadratic forcing terms:
    33 memory-product couplings over 13 chains per element.

Each variant is compiled once, by ``build_bank``, into a ChainBank: the
packed layout of its memory chains, the coefficients with which the chain
outputs enter dU/dt, and its ``skeleton``, dU's deterministic part with
every constant a 0-d operand (all of dU for the chainless lowg and
lattice; U's ring pad is one gather, but strongquad's a concatenate, the
cheaper at its m = 1024).  All cascade levels live in one (S, m) array
(S = 7 levels for ssm1, 17 for strongquad), chains in sorted (rates,
input) order, each chain's levels in consecutive rows, output first.  Per
row the bank fixes a decay rate and whether the next row feeds it; per
chain, the row of the drive stack it integrates and its output row.  The
drive stack is the variant's (n_expr, m) array of forcing expressions:
phi for ssm1; for strongquad the (12, m) stack of the three mode rings
and their mudelta, delta2 and delta4 images, from one ring_images call.
An evaluation is then a few whole-array operations: the bank rhs is
-rate * Z plus a masked shift plus the drive rows, and strongquad's
forcing side is one (31, 12) matrix product with the stack.  Its rows are
the 33 couplings' weights on the 13 chain outputs, plain and times U, and
the 14 forcing-linear terms as five rows weighting 1, U, mudelta U,
delta2 U and U^2.  ``stage_block`` advances the chains jointly with U,
both read from the joint state, so every scheme sees consistent substage
values (small ssm1 rings on Python floats, by straight-line code
generated per ring, with the same bits, since ssm1's formula is written
once for floats and arrays); the reconstruction
reads a recorded history's ``out_rows``.

The weak models (``weakmodel``) bind the same skeleton closures and
coupling constants (``_ssm1_forms``' skeleton and ``_ssm1_coupling``,
``_strongquad_skeleton`` and ``strongquad_linear_matrix``) without a
bank's chain state.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .convolution import (_float_bind, _float_code, _float_rows, _float_unpack,
                          canonical_rates, chain_layout, packed_chain_rhs)
from .errors import ConfigError, check_finite, check_positive
from .forcing import mode_decay_rate
from .microscale import check_scheme_legal
from .stencil import (delta2, mudelta, operands, pad_images, ring_images,
                      ring_index)

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "alternating_signs",
    "ChainBank",
    "build_bank",
    "ssm1_chain_specs",
    "ssm1_rhs",
    "nsm_subgrid_field",
    "QuadTerm",
    "strongquad_quadratic_terms",
    "strongquad_chain_specs",
    "EXPR_NAMES",
    "strongquad_expressions",
    "strongquad_linear_matrix",
    "strongquad_rhs",
    "stage_block",
]

VARIANTS = ("lowg", "lattice", "ssm1", "strongquad")

_PI2 = np.pi**2
_PI4 = np.pi**4


@dataclass(frozen=True)
class ModelConfig:
    """Resolved configuration of one coarse model run.

    gamma is the inter-element coupling strength: 0 decouples elements, 1 is
    full coupling.  lowg and lattice are derived at full coupling and refuse
    anything else; ssm1 and strongquad carry gamma dependence.  The ssm1
    variant bakes in the alternating forcing pattern, which only closes
    periodically for even m.
    """

    variant: str
    alpha: float
    eps: float
    H: float
    m: int
    gamma: float = 1.0
    dt: float = 1e-3
    scheme: str = "rk4"
    seed: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if int(self.m) != self.m or self.m < 3:
            raise ConfigError(f"need at least 3 elements, got m={self.m}")
        check_positive("element half-width H", self.H)
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"coupling gamma must lie in [0, 1], got {self.gamma}")
        check_positive("time step dt", self.dt)
        check_finite("alpha", self.alpha)
        check_finite("eps", self.eps)
        check_scheme_legal(self.scheme, False)
        if self.variant in ("lowg", "lattice") and self.gamma != 1.0:
            raise ConfigError(
                f"variant {self.variant!r} is derived at full coupling; "
                f"gamma must be 1.0, got {self.gamma}"
            )
        if self.variant == "ssm1" and self.m % 2:
            raise ConfigError(
                "ssm1's alternating forcing pattern needs an even element count"
            )


@functools.lru_cache(maxsize=None)
def alternating_signs(m: int) -> np.ndarray:
    """Element sign pattern (-1, +1, ...), cached and read-only; needs even m."""
    if m % 2:
        raise ConfigError("alternating pattern does not close on an odd ring")
    alt = np.ones(m)
    alt[0::2] = -1.0
    alt.setflags(write=False)
    return alt


class ChainBank:
    """Memory chains of one coarse variant, in a packed (S, m) layout.

    Chains are keyed by (sorted rate tuple, input expression name); chain
    outputs are permutation-invariant in the rates, so sorting loses
    nothing.  Chain c occupies consecutive rows of the packed state Z, row
    0 of the block being its output per element; blocks follow sorted-key
    order.  specs lists the (rates, input) chains, exprs the rows of the
    drive stack the chains read.  The layout is ``chain_layout``'s, with
    the rates spread over (S, m) (a plain product beats a broadcast one):
    per row a negated decay rate and a feed, its row in [Z; drive stack];
    per chain its rows.  ``rows`` maps each key to its block of rows,
    ``out_rows`` each chain's output row.  Z, a packed state of its own,
    is touched only by ``__init__``, ``states``, ``unpack`` and
    ``bound_to``, which tests use and the benchmark's tracer probes; no
    engine reads it, each gathers chain outputs from its own states.

    build_bank adds the variant's compiled form: ``coupling``, the
    coefficients of the chain outputs in dU/dt; ``skeleton``, its
    deterministic part with every constant resolved (all of dU for lowg and
    lattice, which have no chains); ``float_rhs``, ssm1's dU on Python
    floats for a ring of at most ``_FLOAT_RING`` elements (None otherwise),
    the same formula as its skeleton (``_ssm1_forms``); and ``cfg``, the
    configuration they were resolved for.
    """

    def __init__(self, m: int, specs=(), exprs=()):
        if int(m) != m or m < 1:
            raise ConfigError(f"bank needs a positive element count, got {m}")
        self.m = int(m)
        self.exprs = tuple(exprs)
        keys = sorted({(canonical_rates(r), str(k)) for r, k in specs})
        for _, name in keys:
            if name not in self.exprs:
                raise ConfigError(f"no drive row for chain input {name!r}")
        neg_rates, feed, rows = chain_layout(
            [k[0] for k in keys], 2, [self.exprs.index(k[1]) for k in keys])
        self._layout = (np.repeat(neg_rates, self.m, axis=1), feed, rows)
        self.rows: dict[tuple, slice] = dict(zip(keys, rows))
        self.out_rows = np.asarray([s.start for s in rows], int)
        self.Z = np.zeros((feed.size, self.m))
        self.coupling = self.skeleton = self.float_rhs = self.cfg = None

    def keys(self) -> list[tuple]:
        return list(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def index(self, rates, input_key: str) -> int:
        """Position of a chain in the layout (its entry in ``out_rows``)."""
        return self.keys().index((canonical_rates(rates), str(input_key)))

    def states(self, rates, input_key: str) -> np.ndarray:
        """A chain's cascade levels, shape (levels, m); a view into Z."""
        k = (canonical_rates(rates), str(input_key))
        try:
            return self.Z[self.rows[k]]
        except KeyError:
            raise ConfigError(f"bank has no chain {k}") from None

    def output(self, rates, input_key: str) -> np.ndarray:
        """Chain output per element, shape (m,)."""
        return self.states(rates, input_key)[0]

    @property
    def n_states(self) -> int:
        return self._layout[0].size

    def _shaped(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_states:
            raise ConfigError(
                f"flat vector has {flat.size} entries, bank holds {self.n_states}"
            )
        return flat.reshape(self._layout[0].shape)

    def unpack(self, flat: np.ndarray) -> None:
        """Take the chain states from a packed vector (Z.ravel() order)."""
        self.Z = self._shaped(flat)

    def bound_to(self, flat: np.ndarray) -> "ChainBank":
        """A bank sharing this layout whose state is a view of flat.

        Cheap per-stage rebinding for joint integration; mutating the view
        mutates flat and vice versa.
        """
        dup = copy.copy(self)
        dup.Z = self._shaped(flat)
        return dup

    def rhs_flat(self, flat: np.ndarray, drives) -> np.ndarray:
        """Cascade derivatives of a packed state, given the drive stack.

        drives is the variant's drive stack, any numbers that broadcast to
        (len(exprs), m) (ssm1's is phi itself); each chain integrates its
        row.  Returns the derivatives packed like flat.
        """
        Z = self._shaped(flat)
        if not self.rows:
            return np.zeros(0)
        ext = np.empty((len(Z) + len(self.exprs), self.m))
        try:
            return packed_chain_rhs(Z, self._layout, drives, ext,
                                    np.empty_like(Z)).ravel()
        except (TypeError, ValueError):
            raise ConfigError(
                f"drives do not broadcast to {ext[len(Z):].shape}") from None


def _check_compiled(bank: ChainBank, cfg: ModelConfig) -> None:
    """The bank's couplings must have been resolved for cfg's model."""
    if bank.cfg is cfg:
        return
    fields = ("variant", "m", "alpha", "eps", "gamma", "H")
    if bank.cfg is None or any(
        getattr(bank.cfg, f) != getattr(cfg, f) for f in fields
    ):
        raise ConfigError(
            f"bank was compiled for {bank.cfg!r}, not for {cfg!r}; "
            "build it with build_bank(cfg)"
        )


# -- low-order and lattice models --------------------------------------------

def _lowg_skeleton(cfg: ModelConfig):
    """lowg's dU(U, modes) for cfg, its constants resolved once.

    modes holds the per-element forcing coefficients, shape (m, 3):
    columns are the constant, sin theta, and cos 2 theta components.

        dU_j/dt = (1/H^2)(1 + alpha^2 H^2 U_j^2 / 12)(U_{j+1} - 2U_j + U_{j-1})
                  - (alpha/2H) U_j (U_{j+1} - U_{j-1})
                  + eps [phi_0 - alpha (2H/pi^2) phi_1 U_j
                         - alpha^2 (8H^2/3pi^4) phi_2 U_j^2]
                  + 0.01643 alpha^2 H^2 eps^2 U_j.
    """
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    c2, one, cu, twelve, ca, ce, k1, k2, drift = operands(
        1.0 / H**2, 1.0, a * a * H * H, 12.0, a / H, e,
        a * (2.0 * H / _PI2), a * a * (8.0 * H * H / (3.0 * _PI4)),
        0.01643 * a * a * H * H * e * e)
    pad_at = ring_index(cfg.m, 2)

    def skeleton(U, modes):
        s0, s1, s2 = modes.T
        mdU, d2U, _ = pad_images(U[pad_at])
        dU = c2 * (one + cu * U * U / twelve) * d2U
        dU -= ca * U * mdU
        dU += ce * (s0 - k1 * s1 * U - k2 * s2 * U * U)
        dU += drift * U
        return dU

    return skeleton


def _lattice_skeleton(cfg: ModelConfig):
    """lattice's dU(U, phi_fine) for cfg, its constants resolved once.

    phi_fine holds forcing values at the 2m lattice points x_i = i H/2;
    element j's grid value sits at the even index 2j.  The forcing enters
    through two local restrictions, a weighted mean and a centred
    difference, read from one ring gather of phi_fine:

        psi_j0 = phi_{2j-1}/4 + phi_{2j}/2 + phi_{2j+1}/4
        psi_j1 = (phi_{2j+1} - phi_{2j-1})/2

        dU_j/dt = (1/H^2)(U_{j+1} - 2U_j + U_{j-1})
                  - (alpha/2H) U_j (U_{j+1} - U_{j-1})
                  + eps [psi_j0 - (alpha H / 8) U_j psi_j1].
    """
    a, e, H, m = cfg.alpha, cfg.eps, cfg.H, cfg.m
    c2, ca, ce, cp, quarter, half = operands(
        1.0 / H**2, a / H, e, a * H / 8.0, 0.25, 0.5)
    pad_at, fine_at = ring_index(m, 2), ring_index(2 * m)

    def skeleton(U, phi_fine):
        if phi_fine.shape != (2 * m,):
            raise ConfigError(
                f"need forcing at 2m = {2 * m} lattice points, "
                f"got shape {phi_fine.shape}"
            )
        padded = phi_fine[fine_at]
        left, centre, right = padded[:-2:2], padded[1:-1:2], padded[2::2]
        psi0 = quarter * left + half * centre + quarter * right
        psi1 = half * (right - left)
        mdU, d2U, _ = pad_images(U[pad_at])
        dU = c2 * d2U
        dU -= ca * U * mdU
        dU += ce * (psi0 - cp * U * psi1)
        return dU

    return skeleton


# -- single-mode alternating-forcing model -----------------------------------

def ssm1_chain_specs(cfg: ModelConfig) -> tuple[tuple[tuple, str], ...]:
    """Memory chains the ssm1 model needs: Z1, Z21, Z41, Z61 driven by phi."""
    b = {k: mode_decay_rate(k, cfg.H) for k in (1, 2, 4, 6)}
    return (
        ((b[1],), "phi"),
        ((b[1], b[2]), "phi"),
        ((b[1], b[4]), "phi"),
        ((b[1], b[6]), "phi"),
    )


def _ssm1_coupling(cfg: ModelConfig) -> tuple[float, np.ndarray]:
    """The memory term U phi (c . Z) as (lead, k), c = lead k: lead =
    eps^2 alpha^2, k the constants of Z1, Z21, Z41, Z61 (spec order)."""
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    return e * e * a * a, np.array([
        0.0195 * H * H,
        -(8.0 / _PI2) / 15.0,
        -(8.0 / _PI2) / 255.0,
        -(8.0 / _PI2) / 1295.0,
    ])


# ssm1 rings of at most this many elements compute dU on Python floats
# (_ssm1_forms' float_rhs) and step their joint-stage block on floats;
# larger rings and strongquad use whole-array numpy and read y[sz] by rows
# as (S, m).  Timeit, 2-vCPU Xeon, Python 3.11, numpy 2.4, a whole ssm1 block
# on generated float code against rows, both in one process, min of 15
# alternating rounds, three scans, in us: 19-30 / 27-48 at m = 12, 29-33 /
# 47-48 at 14, 23-37 / 27-49 at 16, 24-27 / 27-30 at 18, 27-29 / 29-29 at
# 20 (float ahead in each scan, the core's speed drifting between them).
# Capped at 16, so that memory_golden.npz's m = 18 case runs the rows body.
_FLOAT_RING = 16


def _ssm1_forms(cfg: ModelConfig, floats: bool = False):
    """(skeleton, float_rhs): ssm1's dU for cfg, its constants resolved
    once and its formula written once, as point(u, md, d2, d4, u3, lead,
    phi): the skeleton and forcing-linear terms (dU without the memory
    product) from U, its mudelta, delta2 and delta4 images, U**3 and the
    lead alt eps alpha H.  Python floats and equal-shape float64 arrays
    round + and * alike, so both bodies get the same bits.  skeleton(U,
    phi) applies point, its constants 0-d operands, to whole arrays, U's
    width-2 ring pad being one gather.  float_rhs(U, phi, memory), made
    only when floats is true (else None), applies it per element on Python
    floats (constants too) and adds (U phi) memory, without numpy's
    per-call dispatch: straight-line code generated for the ring
    (``_ssm1_float_code``), with point, the leads and 3.0 bound by value.
    U**3 and memory stay numpy calls (see stage_block)."""
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    constants = (2.0 / _PI2, g, 0.1028, 0.0716, 0.00363 * a * a * H * H,
                 g / H**2, g * g / (12.0 * H**2), a * g / H, a * a * g / 12.0)
    alt_lead = alternating_signs(cfg.m) * (e * a * H)
    pad_at, (three,) = ring_index(cfg.m, 2), operands(3.0)

    def bind(c1, g, k1, k2, c3, c2, c4, ca, cu):
        def point(u, md, d2, d4, u3, lead, phi):
            bracket = c1 * u + g * (k1 * u + k2 * d2) - c3 * u3
            return (c2 * d2 - c4 * d4 - ca * u * md + cu * u * u * d2
                    - lead * bracket * phi)
        return point

    array_point = bind(*operands(*constants))

    def skeleton(U, phi):
        md, d2, d4 = pad_images(U[pad_at])
        return array_point(U, md, d2, d4, U**three, alt_lead, phi)

    if not floats:
        return skeleton, None
    leads = {f"lead{j}": lead for j, lead in enumerate(alt_lead.tolist())}
    return skeleton, _float_bind(_ssm1_float_code(cfg.m), "float_rhs",
                                 point=bind(*constants), three=three, **leads)


@functools.lru_cache(maxsize=64)
def _ssm1_float_code(m: int):
    """The compiled source of _ssm1_forms' float_rhs for a ring of m.

    One local per element for U, U**3 and the memory term, and for delta2
    U, (u[j+1] - 2 u[j]) + u[j-1]; then per element one point call on U,
    its mudelta, delta2 and delta4 images, U**3 and the lead, plus
    u phi w, the array path's operations in their order.  Built from ring
    indices and fixed names only, so one code object serves every bank of
    m elements, whatever the constants and leads bound with it.
    """
    ring = [((j - 1) % m, j, (j + 1) % m) for j in range(m)]
    lines = [_float_unpack("u", m, "U.tolist()"),
             _float_unpack("c", m, "(U**three).tolist()"),
             _float_unpack("w", m, "memory.tolist()")]
    lines += [f"d{j} = (u{r} - 2.0 * u{j}) + u{l}" for l, j, r in ring]
    dU = [f"point(u{j}, 0.5 * (u{r} - u{l}), d{j}, (d{r} - 2.0 * d{j}) + d{l}, "
          f"c{j}, lead{j}, phi) + u{j} * phi * w{j}" for l, j, r in ring]
    lines.append(f"return [{', '.join(dU)}]")
    return _float_code("float_rhs(U, phi, memory)", lines, "ssm1 float rhs")


def ssm1_rhs(
    U: np.ndarray, phi: float, bank: ChainBank, cfg: ModelConfig, outputs
) -> tuple[np.ndarray, float]:
    """Slow-manifold model under single-mode alternating forcing.

    The forcing pattern phi_{j,1} = -+ phi(t) alternates across elements
    (lower sign on even 0-based j); phi(t) is the scalar drive.  Memory
    enters through the bank's four chains, all fed by phi: outputs holds
    their outputs, the ``bank.out_rows`` of the states, shape (chains, m).

    Returns the amplitude derivative and the drive stack for this
    evaluation, so the caller can advance U and the chains jointly: phi
    itself, which broadcasts over the bank's one drive row.  The bank must
    come from build_bank(cfg); a ring of at most _FLOAT_RING elements
    computes dU by its ``float_rhs``, with the same bits.
    """
    U = np.asarray(U, dtype=float)
    phi = float(phi)
    _check_compiled(bank, cfg)
    if bank.float_rhs is not None:
        return np.array(bank.float_rhs(U, phi, np.dot(bank.coupling, outputs))), phi
    dU = bank.skeleton(U, phi)
    dU += (U * phi) * np.dot(bank.coupling, outputs)
    return dU, phi


def nsm_subgrid_field(U: np.ndarray, outputs, cfg: ModelConfig,
                      theta) -> np.ndarray:
    """Reconstructed fine-scale field across each element.

    outputs holds Z1, Z21, Z41 and Z61 (layout order), shape (4,) +
    U.shape; U of shape (r, m) reconstructs a recorded history.  theta is
    the subgrid coordinate pi (x - X_j)/H; scalars give U's shape, arrays
    theta.shape + (m,).  At theta = 0, where cos and sin are exact, it is
    the grid value u_j(X_j) = U_j -+ eps alpha U_j [(2H/pi^2) Z1 - (4/H)
    (Z21/3 - Z41/15 + Z61/35)] phi (chains carry phi).  At theta = +-pi,
    gamma = 1 and eps = 0 it reproduces the neighbouring amplitudes.
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    outputs = np.asarray(outputs, dtype=float)
    if cfg.variant != "ssm1" or outputs.shape[:1] != (4,):
        raise ConfigError(f"no reconstruction for variant {cfg.variant!r} "
                          f"from outputs of shape {outputs.shape}")
    U = np.asarray(U, dtype=float)
    alt = alternating_signs(cfg.m)
    theta = np.asarray(theta, dtype=float)[..., None]
    z1, z21, z41, z61 = outputs
    out = U + g * ((theta / np.pi) * mudelta(U)
                   + (theta**2 / (2.0 * _PI2)) * delta2(U))
    out = out + alt * e * np.sin(theta) * z1
    return out + alt * e * a * U * (
        (2.0 * H / _PI2) * z1
        - (4.0 / H) * (np.cos(2.0 * theta) * (z21 / 3.0)
                       - np.cos(4.0 * theta) * (z41 / 15.0)
                       + np.cos(6.0 * theta) * (z61 / 35.0)))


# -- general quadratic-forcing model -----------------------------------------

EXPR_NAMES = (
    "phi0", "phi1", "phi2",
    "mudelta_phi0", "mudelta_phi1", "mudelta_phi2",
    "delta2_phi0", "delta2_phi1", "delta2_phi2",
    "delta4_phi0", "delta4_phi1", "delta4_phi2",
)


def strongquad_expressions(modes: np.ndarray) -> np.ndarray:
    """Stencil images of the three mode-coefficient rings, stacked.

    modes has shape (m, 3); the result has shape (12, m), rows named by
    EXPR_NAMES: the three rings, then their mudelta, delta2 and delta4
    images, all from one ring_images call.  Complex (phasor) modes give a
    complex stack.
    """
    s = np.ascontiguousarray(np.asarray(modes).T)
    return np.concatenate([s, *ring_images(s)])


@dataclass(frozen=True)
class QuadTerm:
    """One quadratic forcing coupling: coeff * left * Z[rates](right) (* U)."""

    coeff: float
    left: str
    rates: tuple[float, ...]
    right: str
    times_U: bool = False


def strongquad_quadratic_terms(cfg: ModelConfig) -> tuple[QuadTerm, ...]:
    """The 33 quadratic memory couplings, coefficients fully resolved.

    Four prefactor families (eps^2 included):
    A = eps^2 alpha H / pi^2, B = eps^2 alpha gamma / (H pi^2),
    C = eps^2 alpha gamma H / pi^2, D = eps^2 alpha^2 / pi^2 (times U).
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    b1 = mode_decay_rate(1, H)
    b2 = mode_decay_rate(2, H)
    R1, R2 = (b1,), (b2,)
    R12, R22 = (b1, b2), (b2, b2)
    A = e * e * a * H / _PI2
    B = e * e * a * g / (H * _PI2)
    C = e * e * a * g * H / _PI2
    D = e * e * a * a / _PI2
    H2P2 = H * H / _PI2
    return (
        # single-convolution mode products
        QuadTerm(-2.0 * A, "phi0", R1, "phi1"),
        QuadTerm(0.4 * A, "phi1", R2, "phi2"),
        QuadTerm(0.4 * A, "phi2", R1, "phi1"),
        # double convolutions of the gradient/curvature images
        QuadTerm(-32.0 * B, "phi0", R12, "mudelta_phi2"),
        QuadTerm(-0.8 * B, "phi1", R22, "delta2_phi2"),
        QuadTerm(6.4 * B, "phi2", R12, "mudelta_phi2"),
        # coupling-weighted stencil products
        QuadTerm(C * 8.0 / _PI2, "phi0", R1, "mudelta_phi0"),
        QuadTerm(C * 8.0 / _PI2, "phi0", R1, "mudelta_phi2"),
        QuadTerm(C * (1.0 / 12.0 + 5.0 / (3.0 * _PI2)), "phi0", R1, "delta2_phi1"),
        QuadTerm(-C * (0.25 + 8.0 / _PI2), "phi0", R2, "mudelta_phi2"),
        QuadTerm(C * 0.2, "phi1", R2, "delta2_phi0"),
        QuadTerm(-C * (0.05 + 13.0 / (150.0 * _PI2)), "phi1", R2, "phi2"),
        QuadTerm(-C * 8.0 / (5.0 * _PI2), "phi2", R1, "mudelta_phi0"),
        QuadTerm(-C * 8.0 / (5.0 * _PI2), "phi2", R1, "mudelta_phi2"),
        QuadTerm(-C * (1.0 / 60.0 + 17.0 / (75.0 * _PI2)), "phi2", R1, "delta2_phi1"),
        QuadTerm(C * (0.125 + 4.0 / (5.0 * _PI2)), "phi2", R2, "mudelta_phi2"),
        QuadTerm(-C * (1.0 / 12.0 + 2.0 / (15.0 * _PI2)), "delta2_phi0", R1, "phi1"),
        QuadTerm(C * (1.0 / 24.0 + 5.0 / (6.0 * _PI2)), "delta2_phi0", R1, "delta2_phi1"),
        QuadTerm(-C * (1.0 / 60.0 + 17.0 / (75.0 * _PI2)), "delta2_phi1", R2, "phi2"),
        QuadTerm(-C * (1.0 / 120.0 + 17.0 / (150.0 * _PI2)), "delta2_phi1", R2, "delta2_phi2"),
        QuadTerm(-C * (0.05 + 44.0 / (75.0 * _PI2)), "delta2_phi2", R1, "phi1"),
        QuadTerm(-C * (1.0 / 120.0 + 17.0 / (150.0 * _PI2)), "delta2_phi2", R1, "delta2_phi1"),
        QuadTerm(C * (1.0 / 6.0 + 10.0 / (3.0 * _PI2)), "mudelta_phi0", R1, "mudelta_phi1"),
        QuadTerm(C * (0.25 - 8.0 / (5.0 * _PI2)), "mudelta_phi0", R2, "phi2"),
        QuadTerm(-C * (1.0 / 30.0 + 34.0 / (75.0 * _PI2)), "mudelta_phi1", R2, "mudelta_phi2"),
        QuadTerm(-C * (1.0 / 30.0 + 34.0 / (75.0 * _PI2)), "mudelta_phi2", R1, "mudelta_phi1"),
        QuadTerm(C * (0.125 - 4.0 / (5.0 * _PI2)), "mudelta_phi2", R2, "phi2"),
        # amplitude-weighted products
        QuadTerm(-D * 32.0 / 3.0, "phi0", R12, "phi2", times_U=True),
        QuadTerm(-D * (16.0 / 3.0) * H2P2, "phi0", R2, "phi2", times_U=True),
        QuadTerm(-D * 8.0 / 15.0, "phi1", R12, "phi1", times_U=True),
        QuadTerm(D * (32.0 / 15.0) * H2P2, "phi1", R1, "phi1", times_U=True),
        QuadTerm(D * 32.0 / 15.0, "phi2", R12, "phi2", times_U=True),
        QuadTerm(D * (16.0 / 15.0) * H2P2, "phi2", R2, "phi2", times_U=True),
    )


def strongquad_chain_specs(cfg: ModelConfig) -> tuple[tuple[tuple, str], ...]:
    """Distinct (rates, input) chains the quadratic couplings consume, in
    first-seen order."""
    return tuple(dict.fromkeys((canonical_rates(term.rates), term.right)
                               for term in strongquad_quadratic_terms(cfg)))


def _strongquad_coupling(bank: ChainBank, cfg: ModelConfig) -> np.ndarray:
    """The 33 couplings as one (2 * chains, 12) matrix.

    Row c (plain) and row chains + c (times U) hold, per left expression,
    the summed coefficients of the terms reading chain c's output.
    """
    n = len(bank)
    coupling = np.zeros((2 * n, len(EXPR_NAMES)))
    for term in strongquad_quadratic_terms(cfg):
        row = bank.index(term.rates, term.right) + n * term.times_U
        coupling[row, EXPR_NAMES.index(term.left)] += term.coeff
    return coupling


def strongquad_linear_matrix(cfg: ModelConfig) -> np.ndarray:
    """The 14 forcing-linear terms as one (5, 12) matrix, eps included.

    Applied to the expression stack it gives the skeleton's forcing rows,
    the weights of 1, U, mudelta U, delta2 U and U^2.
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    c = a * g * H / _PI2  # prefactor of the coupling-gradient corrections
    rows = (
        {"phi0": 1.0, "delta2_phi0": -g / 24.0,
         "delta4_phi0": g * g * (3.0 / 640.0 + 1.0 / (8.0 * _PI4)),
         "delta2_phi2": g / (4.0 * _PI2),
         "delta4_phi2": -g * g * (1.0 / (48.0 * _PI2) + 1.0 / (16.0 * _PI4))},
        {"phi1": -a * 2.0 * H / _PI2, "mudelta_phi0": c * 8.0 / _PI2,
         "mudelta_phi2": -c * 0.25,
         "delta2_phi1": c * (1.0 / 12.0 + 5.0 / (3.0 * _PI2))},
        {"phi2": c * 0.25, "mudelta_phi1": c * (1.0 / 6.0 + 10.0 / (3.0 * _PI2))},
        {"phi1": -c * (1.0 / 6.0 + 1.0 / (3.0 * _PI2)),
         "delta2_phi1": c * (1.0 / 24.0 + 5.0 / (6.0 * _PI2))},
        {"phi0": -a * a * 8.0 * H * H / (3.0 * _PI4)},
    )
    K = np.zeros((len(rows), len(EXPR_NAMES)))
    for k, row in enumerate(rows):
        for name, coeff in row.items():
            K[k, EXPR_NAMES.index(name)] = e * coeff
    return K


def _strongquad_skeleton(cfg: ModelConfig):
    """strongquad's skeleton dU(U, F) for cfg, its constants resolved once.

    The (5, m) forcing rows F weight 1, U, mudelta U, delta2 U and U^2: the
    linear matrix applied to the expression stack, plus the memory
    couplings (strong) or their drifts and noises (weak)."""
    a, g, H = cfg.alpha, cfg.gamma, cfg.H
    ca, c2, c4 = operands(g * a / H, g / H**2, g * g / (12.0 * H**2))

    def skeleton(U, F):
        mdU, d2U, d4U = ring_images(U)
        dU = F[0] + U * (F[1] + U * F[4])
        dU += mdU * (F[2] - ca * U)
        dU += d2U * (F[3] + c2)
        dU -= c4 * d4U
        return dU

    return skeleton


def strongquad_rhs(
    U: np.ndarray, modes: np.ndarray, bank: ChainBank, cfg: ModelConfig,
    outputs,
) -> tuple[np.ndarray, np.ndarray]:
    """General-forcing model, complete through quadratic forcing terms.

    modes holds the per-element forcing coefficients, shape (m, 3).  One
    product of the bank's (31, 12) matrix (the bank must come from
    build_bank(cfg)) with the expression stack gives the five forcing rows
    and the couplings' weights on outputs, the ``bank.out_rows`` of the
    states, shape (chains, m); the weighted outputs join the rows of 1 and
    U.  Returns the amplitude derivative and the
    (12, m) expression stack, which is also the bank's drive stack.
    """
    U = np.asarray(U, dtype=float)
    modes = np.asarray(modes, dtype=float)
    if modes.shape != (cfg.m, 3):
        raise ConfigError(
            f"need mode coefficients of shape ({cfg.m}, 3), got {modes.shape}"
        )
    _check_compiled(bank, cfg)
    ex = strongquad_expressions(modes)
    W = bank.coupling @ ex
    n = bank.out_rows.size
    F = W[2 * n:]
    F[:2] += np.einsum("kcj,cj->kj", W[:2 * n].reshape(2, n, cfg.m),
                       outputs)
    return bank.skeleton(U, F), ex


# -- compiled forms ----------------------------------------------------------

def build_bank(cfg: ModelConfig) -> ChainBank:
    """The compiled form of cfg's variant: its from-rest chains and couplings."""
    if cfg.variant == "ssm1":
        specs = ssm1_chain_specs(cfg)
        bank = ChainBank(cfg.m, specs, ("phi",))
        bank.coupling = np.zeros(len(bank))
        lead, k = _ssm1_coupling(cfg)
        bank.coupling[[bank.index(*spec) for spec in specs]] = lead * k
        bank.skeleton, bank.float_rhs = _ssm1_forms(cfg, cfg.m <= _FLOAT_RING)
    elif cfg.variant == "strongquad":
        bank = ChainBank(cfg.m, strongquad_chain_specs(cfg), EXPR_NAMES)
        bank.coupling = np.concatenate(
            [_strongquad_coupling(bank, cfg), strongquad_linear_matrix(cfg)]
        )
        bank.skeleton = _strongquad_skeleton(cfg)
    else:
        bank = ChainBank(cfg.m)
        bank.skeleton = (_lowg_skeleton if cfg.variant == "lowg"
                         else _lattice_skeleton)(cfg)
    bank.cfg = cfg
    return bank


def _ssm1_float_block(bank: ChainBank, sz: slice, sU: slice):
    """stage_block's body for an ssm1 bank with a float rhs: ssm1_rhs on
    the chain outputs gathered from y, then packed_chain_rhs's rows
    r * z + feed on Python floats, in its order, by a feed generated for
    the bank's feeds (``_ssm1_feed_code``), its rates bound by value."""
    m, cfg = bank.m, bank.cfg
    neg_rates, row_feed, _ = bank._layout
    cols = np.arange(m)
    out_at = sz.start + m * bank.out_rows[:, None] + cols
    # Per state its feed in [chain states; phi * m].
    feeds = tuple((m * row_feed[:, None] + cols).ravel().tolist())
    feed = _float_bind(_ssm1_feed_code(feeds), "feed",
                       neg_rates.ravel().tolist())

    def block(y, dy):
        U, Z, dU, dZ = y[sU], y[sz], dy[sU], dy[sz]
        def stage(forcing):
            dU[:], phi = ssm1_rhs(U, forcing, bank, cfg, y[out_at])
            dZ[:] = feed(Z, phi)
        return stage

    return block


@functools.lru_cache(maxsize=64)
def _ssm1_feed_code(feeds: tuple):
    """The compiled source of the float block's feed(Z, phi) for a bank's
    per-state feeds: one local per state of the packed states Z, then each
    state's r * z + feed, the drive phi past the last state.  One code
    object serves every bank with these feeds, whatever its rates."""
    lines = [_float_unpack("z", len(feeds), "Z.tolist()"),
             f"return [{', '.join(_float_rows(feeds, 'z', 'phi'))}]"]
    return _float_code("feed(Z, phi)", lines, "ssm1 float feed")


def stage_block(bank: ChainBank, sz: slice, sU: slice):
    """block(y, dy) -> stage(forcing), a joint stage's coarse side for a y with
    the bank's packed state at sz and U at sU, bound once: it reads only y,
    and writes the variant's rhs and ``packed_chain_rhs`` into dy[sU], dy[sz].

    A bank without chains (lowg, lattice) writes its skeleton into dy[sU].
    A bank with chains has two bodies, chosen from the ring by build_bank.
    An ssm1 bank of at most _FLOAT_RING elements has a ``float_rhs``
    (``_ssm1_forms``' float body), and its block (``_ssm1_float_block``)
    computes on Python floats, by straight-line code with one local per
    element or state and no loop: ssm1_rhs's dU from one tolist of U, by
    the point expression the skeleton applies to arrays, and the cascade
    feed from one tolist of the chain states, written into dy[sz] from a
    list.  Each is compiled once per ring or feed list and cached; the
    constants, leads and rates are bound by value at build.  Both keep the
    array operations in their order, so the bits are the rows body's,
    without numpy's dispatch per operation on arrays of a few entries.
    U**3 and the memory term np.dot(coupling, outputs) stay numpy calls:
    numpy's SIMD power rounds otherwise than Python's u**3 or u*u*u, its
    dot (``@``'s bits, at half the cost) otherwise than a sequential sum.
    Any other bank reads y[sz] as (S, m) rows, its rhs fed Z.take(out_rows, 0)."""
    cfg, m = bank.cfg, bank.m
    if not bank.rows:
        def block(y, dy):
            U, dU = y[sU], dy[sU]
            return lambda forcing: np.copyto(dU, bank.skeleton(U, forcing))

        return block
    if bank.float_rhs is not None:
        return _ssm1_float_block(bank, sz, sU)
    rhs = ssm1_rhs if cfg.variant == "ssm1" else strongquad_rhs
    shape, out_rows = bank._layout[0].shape, bank.out_rows
    ext = np.empty((shape[0] + len(bank.exprs), m))

    def block(y, dy):
        Z, U, dZ, dU = y[sz].reshape(shape), y[sU], dy[sz].reshape(shape), dy[sU]
        def stage(forcing):
            dU[:], drives = rhs(U, forcing, bank, cfg, Z.take(out_rows, 0))
            packed_chain_rhs(Z, bank._layout, drives, ext, dZ)
        return stage

    return block
