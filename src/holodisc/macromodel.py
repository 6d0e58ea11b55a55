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
    model with four memory chains per element, plus reconstruction of grid
    values and the subgrid field.

``strongquad``
    General three-mode forcing, complete through quadratic forcing terms:
    33 memory-product couplings over 13 chains per element.

Each variant is compiled once, by ``build_bank``, into a ChainBank: the
packed layout of its memory chains plus the coefficients with which the
chain outputs enter dU/dt.  All cascade levels live in one (S, m) array
(S = 7 levels for ssm1, 17 for strongquad), chains in sorted (rates,
input) order, each chain's levels in consecutive rows, output first.  Per
row the bank fixes a decay rate and whether the next row feeds it; per
chain, the row of the drive stack it integrates and its output row.  The
drive stack is the variant's (n_expr, m) array of forcing expressions:
phi for ssm1, the nine stencil images of the three mode rings for
strongquad.  An evaluation is then a few whole-array operations: the bank
rhs is -rate * Z plus a masked shift plus the drive rows, and strongquad's
33 couplings are one (2 * 13, 9) matrix product with the drive stack,
weighted against the 13 chain outputs.  The bank is advanced jointly with
U, so every scheme sees consistent substage values.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .convolution import canonical_rates, chain_layout, packed_chain_rhs
from .errors import ConfigError
from .forcing import mode_decay_rate
from .microscale import SCHEMES
from .stencil import delta2, mudelta, ring_pad

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "alternating_signs",
    "ChainBank",
    "build_bank",
    "lowg_rhs",
    "lattice_coarse_rhs",
    "ssm1_chain_specs",
    "ssm1_det_linear",
    "ssm1_memory_weights",
    "ssm1_rhs",
    "nsm_field_at_grid",
    "nsm_subgrid_field",
    "QuadTerm",
    "strongquad_quadratic_terms",
    "strongquad_chain_specs",
    "EXPR_NAMES",
    "strongquad_expressions",
    "strongquad_det_linear",
    "strongquad_rhs",
    "variant_rhs",
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
    psi1_weights: tuple[float, float, float] = (-0.5, 0.0, 0.5)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if int(self.m) != self.m or self.m < 3:
            raise ConfigError(f"need at least 3 elements, got m={self.m}")
        if self.H <= 0.0:
            raise ConfigError(f"element half-width must be positive, got {self.H}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"coupling gamma must lie in [0, 1], got {self.gamma}")
        if self.dt <= 0.0:
            raise ConfigError(f"time step must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant in ("lowg", "lattice") and self.gamma != 1.0:
            raise ConfigError(
                f"variant {self.variant!r} is derived at full coupling; "
                f"gamma must be 1.0, got {self.gamma}"
            )
        if self.variant == "ssm1" and self.m % 2:
            raise ConfigError(
                "ssm1's alternating forcing pattern needs an even element count"
            )
        if len(self.psi1_weights) != 3:
            raise ConfigError("psi1_weights must have three entries")


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
    drive stack the chains read.  The layout is ``chain_layout``'s, fixed
    here and shared by every rebinding: per row a negated decay rate and a
    link flag (the next row feeds this one), per chain its last row (where
    the drive enters).  ``rows`` maps each key to its block of rows; per
    chain the bank also keeps its drive-stack row and its output row.

    build_bank adds the variant's compiled couplings: ``coupling``, the
    coefficients of the chain outputs in dU/dt, and ``cfg``, the
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
        self._layout = chain_layout([k[0] for k in keys], 2)
        self.rows: dict[tuple, slice] = {
            key: slice(e + 1 - len(key[0]), e + 1)
            for key, e in zip(keys, self._layout[2].tolist())
        }
        self._drive = np.asarray([self.exprs.index(k[1]) for k in keys], dtype=int)
        self.out_rows = np.asarray([s.start for s in self.rows.values()], int)
        self.Z = np.zeros((len(self._layout[0]), self.m))
        self.coupling = None
        self.cfg = None

    def keys(self) -> list[tuple]:
        return list(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def index(self, rates, input_key: str) -> int:
        """Position of a chain in the layout (its row in ``outputs()``)."""
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

    def outputs(self) -> np.ndarray:
        """Every chain's output, shape (chains, m), in layout order."""
        return self.Z[self.out_rows]

    @property
    def n_states(self) -> int:
        return self.Z.size

    def _shaped(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.Z.size:
            raise ConfigError(
                f"flat vector has {flat.size} entries, bank holds {self.Z.size}"
            )
        return flat.reshape(self.Z.shape)

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

        drives is the variant's (len(exprs), m) drive stack; each chain
        integrates its row.  Returns the derivatives packed like flat.
        """
        Z = self._shaped(flat)
        if not self.rows:
            return np.zeros(0)
        if np.shape(drives) != (len(self.exprs), self.m):
            raise ConfigError(
                f"need a ({len(self.exprs)}, {self.m}) drive stack, "
                f"got shape {np.shape(drives)}"
            )
        return packed_chain_rhs(Z, self._layout, drives[self._drive]).ravel()


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


# -- low-order model ---------------------------------------------------------

def lowg_rhs(U: np.ndarray, modes: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Low-order forced model at full coupling.

    modes holds the per-element forcing coefficients, shape (m, 3):
    columns are the constant, sin theta, and cos 2 theta components.

        dU_j/dt = (1/H^2)(1 + alpha^2 H^2 U_j^2 / 12)(U_{j+1} - 2U_j + U_{j-1})
                  - (alpha/2H) U_j (U_{j+1} - U_{j-1})
                  + eps [phi_0 - alpha (2H/pi^2) phi_1 U_j
                         - alpha^2 (8H^2/3pi^4) phi_2 U_j^2]
                  + 0.01643 alpha^2 H^2 eps^2 U_j.
    """
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    modes = np.asarray(modes, dtype=float)
    s0, s1, s2 = modes[:, 0], modes[:, 1], modes[:, 2]
    dU = (1.0 / H**2) * (1.0 + a * a * H * H * U * U / 12.0) * delta2(U)
    dU -= (a / H) * U * mudelta(U)
    dU += e * (
        s0
        - a * (2.0 * H / _PI2) * s1 * U
        - a * a * (8.0 * H * H / (3.0 * _PI4)) * s2 * U * U
    )
    dU += 0.01643 * a * a * H * H * e * e * U
    return dU


# -- coarse lattice model ----------------------------------------------------

def lattice_coarse_rhs(
    U: np.ndarray, phi_fine: np.ndarray, cfg: ModelConfig
) -> np.ndarray:
    """Evolution of the even lattice points from fine forcing samples.

    phi_fine holds forcing values at the 2m lattice points x_i = i H/2;
    element j's grid value sits at the even index 2j.  The forcing enters
    through two local restrictions:

        psi_j0 = phi_{2j-1}/4 + phi_{2j}/2 + phi_{2j+1}/4
        psi_j1 = w . (phi_{2j-1}, phi_{2j}, phi_{2j+1})

    with w = cfg.psi1_weights (default a centred difference, (-1/2, 0, 1/2)):

        dU_j/dt = (1/H^2)(U_{j+1} - 2U_j + U_{j-1})
                  - (alpha/2H) U_j (U_{j+1} - U_{j-1})
                  + eps [psi_j0 - (alpha H / 8) U_j psi_j1].
    """
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    phi_fine = np.asarray(phi_fine, dtype=float)
    if phi_fine.shape != (2 * cfg.m,):
        raise ConfigError(
            f"need forcing at 2m = {2 * cfg.m} lattice points, "
            f"got shape {phi_fine.shape}"
        )
    padded = ring_pad(phi_fine)
    left, centre, right = padded[:-2:2], padded[1:-1:2], padded[2::2]
    psi0 = 0.25 * left + 0.5 * centre + 0.25 * right
    w = cfg.psi1_weights
    psi1 = w[0] * left + w[1] * centre + w[2] * right
    dU = (1.0 / H**2) * delta2(U)
    dU -= (a / H) * U * mudelta(U)
    dU += e * (psi0 - (a * H / 8.0) * U * psi1)
    return dU


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


def _ssm1_outputs(bank: ChainBank, cfg: ModelConfig) -> list[np.ndarray]:
    """Outputs of Z1, Z21, Z41, Z61, in that order."""
    return [bank.output(*spec) for spec in ssm1_chain_specs(cfg)]


def _ssm1_product_constants(H: float) -> dict[str, float]:
    """Z1, Z21, Z41, Z61 coefficients, before the eps^2 alpha^2 U factor."""
    return {
        "z1": 0.0195 * H * H,
        "z21": -(8.0 / _PI2) / 15.0,
        "z41": -(8.0 / _PI2) / 255.0,
        "z61": -(8.0 / _PI2) / 1295.0,
    }


def _ssm1_coupling(bank: ChainBank, cfg: ModelConfig) -> np.ndarray:
    """Coefficients of the chain outputs in the memory term U phi (c . Z)."""
    a, e = cfg.alpha, cfg.eps
    coupling = np.zeros(len(bank))
    constants = _ssm1_product_constants(cfg.H).values()
    for spec, c in zip(ssm1_chain_specs(cfg), constants):
        coupling[bank.index(*spec)] = e * e * a * a * c
    return coupling


def ssm1_det_linear(U: np.ndarray, phi: float, cfg: ModelConfig) -> np.ndarray:
    """Deterministic skeleton plus forcing-linear terms of the ssm1 model.

    Everything except the memory products; shared by the strong model and
    its weak replacement.
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    alt = alternating_signs(cfg.m)

    d2U = delta2(U)
    dU = (g / H**2) * d2U
    dU -= (g * g / (12.0 * H**2)) * delta2(d2U)
    dU -= (a * g / H) * U * mudelta(U)
    dU += (a * a * g / 12.0) * U * U * d2U

    bracket = (
        (2.0 / _PI2) * U
        + g * (0.1028 * U + 0.0716 * d2U)
        - 0.00363 * a * a * H * H * U**3
    )
    dU -= alt * (e * a * H) * bracket * phi
    return dU


def ssm1_memory_weights(U: np.ndarray, cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Coefficients multiplying the four memory products phi * Z...phi.

    Keys name the chain by its mode pair; each value has shape (m,).  The
    weak model multiplies these by the products' drift-plus-noise
    replacements; the strong model applies the same constants through its
    compiled coupling vector.
    """
    a, e = cfg.alpha, cfg.eps
    lead = e * e * a * a * np.asarray(U, dtype=float)
    return {k: lead * c for k, c in _ssm1_product_constants(cfg.H).items()}


def ssm1_rhs(
    U: np.ndarray, phi: float, bank: ChainBank, cfg: ModelConfig
) -> tuple[np.ndarray, dict]:
    """Slow-manifold model under single-mode alternating forcing.

    The forcing pattern phi_{j,1} = -+ phi(t) alternates across elements
    (lower sign on even 0-based j); phi(t) is the scalar drive.  Memory
    enters through the bank's four chains, all fed by phi.

    Returns the amplitude derivative and the bank's (1, m) drive stack for
    this evaluation, so the caller can advance U and the chains jointly.
    The bank must come from build_bank(cfg).
    """
    U = np.asarray(U, dtype=float)
    phi = float(phi)
    _check_compiled(bank, cfg)
    dU = ssm1_det_linear(U, phi, cfg)
    dU += (U * phi) * (bank.coupling @ bank.outputs())
    return dU, np.full((1, cfg.m), phi)


def nsm_field_at_grid(
    U: np.ndarray, bank: ChainBank, cfg: ModelConfig
) -> np.ndarray:
    """Reconstructed fine-scale value at each element's centre.

    The memory chains shift the true grid value off the amplitude:

        u_j(X_j) = U_j -+ eps alpha U_j [ (2H/pi^2) Z1
                   - (4/H)(Z21/3 - Z41/15 + Z61/35) ] phi,

    with the same alternation as the forcing (chains already carry phi).
    """
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    alt = alternating_signs(cfg.m)
    z1, z21, z41, z61 = _ssm1_outputs(bank, cfg)
    offset = (2.0 * H / _PI2) * z1 - (4.0 / H) * (
        z21 / 3.0 - z41 / 15.0 + z61 / 35.0
    )
    return U + alt * e * a * U * offset


def nsm_subgrid_field(
    U: np.ndarray, bank: ChainBank, cfg: ModelConfig, theta
) -> np.ndarray:
    """Reconstructed fine-scale field across each element.

    theta is the subgrid coordinate pi (x - X_j)/H; scalars give shape (m,),
    arrays give shape theta.shape + (m,).  At theta = +-pi with gamma = 1
    and eps = 0 the field reproduces the neighbouring amplitudes exactly
    (the coupling condition).
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    alt = alternating_signs(cfg.m)
    theta = np.asarray(theta, dtype=float)[..., None]
    z1, z21, z41, z61 = _ssm1_outputs(bank, cfg)

    out = U + g * (
        (theta / np.pi) * mudelta(U)
        + (theta**2 / (2.0 * _PI2)) * delta2(U)
    )
    out = out + alt * e * np.sin(theta) * z1
    out = out + alt * e * a * U * (
        (2.0 * H / _PI2) * z1
        - (4.0 / H)
        * (
            np.cos(2.0 * theta) / 3.0 * z21
            - np.cos(4.0 * theta) / 15.0 * z41
            + np.cos(6.0 * theta) / 35.0 * z61
        )
    )
    return out


# -- general quadratic-forcing model -----------------------------------------

EXPR_NAMES = (
    "phi0", "phi1", "phi2",
    "mudelta_phi0", "mudelta_phi1", "mudelta_phi2",
    "delta2_phi0", "delta2_phi1", "delta2_phi2",
)


def strongquad_expressions(modes: np.ndarray) -> np.ndarray:
    """Stencil images of the three mode-coefficient rings, stacked.

    modes has shape (m, 3); the result has shape (9, m), rows named by
    EXPR_NAMES: the three rings, their mudelta images, their delta2
    images.  Complex (phasor) modes give a complex stack.
    """
    s = np.asarray(modes).T
    return np.concatenate([s, mudelta(s), delta2(s)])


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
    """Distinct (rates, input) chains the quadratic couplings consume."""
    seen: list[tuple[tuple, str]] = []
    for term in strongquad_quadratic_terms(cfg):
        key = (canonical_rates(term.rates), term.right)
        if key not in seen:
            seen.append(key)
    return tuple(seen)


def _strongquad_coupling(bank: ChainBank, cfg: ModelConfig) -> np.ndarray:
    """The 33 couplings as one (2 * chains, 9) matrix.

    Row c (plain) and row chains + c (times U) hold, per left expression,
    the summed coefficients of the terms reading chain c's output.
    """
    n = len(bank)
    coupling = np.zeros((2 * n, len(EXPR_NAMES)))
    for term in strongquad_quadratic_terms(cfg):
        row = bank.index(term.rates, term.right) + n * term.times_U
        coupling[row, EXPR_NAMES.index(term.left)] += term.coeff
    return coupling


_C_S0 = 3.0 / 640.0 + 1.0 / (8.0 * _PI4)
_C_S2 = 1.0 / (48.0 * _PI2) + 1.0 / (16.0 * _PI4)
_C_MD0 = 8.0 / _PI2
_C_DD1 = 1.0 / 12.0 + 5.0 / (3.0 * _PI2)
_C_MD1 = 1.0 / 6.0 + 10.0 / (3.0 * _PI2)
_C_S1 = 1.0 / 6.0 + 1.0 / (3.0 * _PI2)
_C_D2DD1 = 1.0 / 24.0 + 5.0 / (6.0 * _PI2)


def strongquad_det_linear(
    U: np.ndarray, ex: np.ndarray, cfg: ModelConfig
) -> np.ndarray:
    """Deterministic skeleton plus forcing-linear terms of the general model.

    Everything except the 33 quadratic memory couplings; shared by the
    strong model and its weak replacement.  ex is the (9, m) stack of
    strongquad_expressions.
    """
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    if np.shape(ex) != (len(EXPR_NAMES), cfg.m):
        raise ConfigError(
            f"need an expression stack of shape ({len(EXPR_NAMES)}, {cfg.m}), "
            f"got {np.shape(ex)}"
        )
    s0, s1, s2, md0, md1, md2, dd0, dd1, dd2 = ex
    d4s0, d4s2 = delta2(ex[6::2])
    d2U = delta2(U)
    mdU = mudelta(U)

    dU = (g / H**2) * d2U
    dU -= (g * g / (12.0 * H**2)) * delta2(d2U)
    dU -= (g * a / H) * U * mdU

    lin = s0 - (g / 24.0) * dd0 + g * g * _C_S0 * d4s0
    lin += (g / (4.0 * _PI2)) * dd2
    lin -= g * g * _C_S2 * d4s2
    lin -= a * (2.0 * H / _PI2) * U * s1
    # Coupling-gradient corrections; prefactor alpha gamma H / pi^2.
    lin += (a * g * H / _PI2) * (
        U * (_C_MD0 * md0 - 0.25 * md2 + _C_DD1 * dd1)
        + mdU * (0.25 * s2 + _C_MD1 * md1)
        - d2U * (_C_S1 * s1 - _C_D2DD1 * dd1)
    )
    lin -= a * a * (8.0 * H * H / (3.0 * _PI4)) * U * U * s0
    dU += e * lin
    return dU


def strongquad_rhs(
    U: np.ndarray, modes: np.ndarray, bank: ChainBank, cfg: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """General-forcing model, complete through quadratic forcing terms.

    modes holds the per-element forcing coefficients, shape (m, 3).  The
    deterministic skeleton and the forcing-linear terms are evaluated in
    place; the 33 quadratic couplings are one product of the bank's
    compiled coupling matrix with the expression stack, weighted against
    the chain outputs (the bank must come from build_bank(cfg)).

    Returns the amplitude derivative and the (9, m) expression stack, which
    is also the bank's drive stack.
    """
    U = np.asarray(U, dtype=float)
    modes = np.asarray(modes, dtype=float)
    if modes.shape != (cfg.m, 3):
        raise ConfigError(
            f"need mode coefficients of shape ({cfg.m}, 3), got {modes.shape}"
        )
    _check_compiled(bank, cfg)
    ex = strongquad_expressions(modes)
    dU = strongquad_det_linear(U, ex, cfg)
    W = bank.coupling @ ex
    n = bank.out_rows.size
    dU += np.einsum("cj,cj->j", W[:n] + U * W[n:], bank.outputs())
    return dU, ex


# -- compiled forms ----------------------------------------------------------

def build_bank(cfg: ModelConfig) -> ChainBank:
    """The compiled form of cfg's variant: its from-rest chains and couplings."""
    if cfg.variant == "ssm1":
        bank = ChainBank(cfg.m, ssm1_chain_specs(cfg), ("phi",))
        bank.coupling = _ssm1_coupling(bank, cfg)
    elif cfg.variant == "strongquad":
        bank = ChainBank(cfg.m, strongquad_chain_specs(cfg), EXPR_NAMES)
        bank.coupling = _strongquad_coupling(bank, cfg)
    else:
        bank = ChainBank(cfg.m)
    bank.cfg = cfg
    return bank


def variant_rhs(U, forcing_value, bank, cfg):
    """Dispatch to the variant's evolution; returns (dU, bank drive stack)."""
    if cfg.variant == "lowg":
        return lowg_rhs(U, forcing_value, cfg), np.zeros((0, cfg.m))
    if cfg.variant == "lattice":
        return lattice_coarse_rhs(U, forcing_value, cfg), np.zeros((0, cfg.m))
    if cfg.variant == "ssm1":
        return ssm1_rhs(U, forcing_value, bank, cfg)
    return strongquad_rhs(U, forcing_value, bank, cfg)
