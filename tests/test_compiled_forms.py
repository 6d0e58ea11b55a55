"""Compiled coarse variants against the per-term and per-chain loops.

The references below are the loops the compiled forms replace: strongquad's
skeleton and 14 forcing-linear terms written out term by term over the
nine stencil images, one pass over its 33 QuadTerms reading dict-keyed
chain outputs, the weak harmonic rhs rebuilt from the pattern's phasor at
every stage, the four ssm1 products over their weights as a dict (on
``test_paired_stage``'s unbound skeleton), for the strong model and for
the weak one fed drifts and fresh noises, the cascade derivative chain by chain,
the bank derivative as masked ufuncs over next-level links (the form the
feed index replaced), the white-noise stream numbering dict, and one
chain_step loop per chain for the packed multi-chain integrator, and
lowg's and lattice's per-call rhs as they were before build_bank bound
their constants.  They
index chains by (sorted rates, input) in a dict of their own, so they share
no layout code with ChainBank.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holodisc import (
    CoarseSide,
    ConfigError,
    FineSide,
    ModelConfig,
    QuadraticTermDescriptor,
    SignalSpec,
    build_bank,
    build_weak_model,
    canonical_rates,
    chain_rhs,
    integrate_chain,
    delta2,
    integrate_chains,
    mode_decay_rate,
    mudelta,
    phasor_drift,
    stochastic_replace,
    strongquad_rhs,
)
from holodisc import convolution, harness, macromodel
from holodisc.forcing import HarmonicSignal, make_signal
from holodisc.harness import _compile_stage, default_spec, run_paired
from holodisc.convolution import chain_layout, packed_chain_rhs
from holodisc.microscale import burgers_form, plain, stepper
from holodisc.stencil import ring_images, ring_pad
from holodisc.macromodel import (
    EXPR_NAMES,
    ssm1_chain_specs,
    strongquad_chain_specs,
    strongquad_expressions,
    strongquad_linear_matrix,
    strongquad_quadratic_terms,
)
from holodisc.weakmodel import _OFFSET_WEIGHTS, _slot_amplitudes, _split_expr
from test_paired_stage import (
    reference_ssm1_weights,
    unbound_ssm1_det_linear,
    variant_rhs,
)

RTOL = 1e-12


def cfg_for(variant, m, **kw):
    return ModelConfig(variant=variant, alpha=0.7, eps=0.3, gamma=0.8,
                       H=np.pi / 2.0, m=m, **kw)


def chain_states(specs, flat, m):
    """Dict of (sorted rates, input) -> (levels, m) blocks of a packed vector."""
    states, pos = {}, 0
    for rates, name in sorted({(canonical_rates(r), k) for r, k in specs}):
        states[(rates, name)] = flat[pos : pos + len(rates) * m].reshape(-1, m)
        pos += len(rates) * m
    assert pos == flat.size
    return states


def reference_bank_rhs(states, drives):
    return np.concatenate([
        chain_rhs(block, np.asarray(rates), drives[name]).ravel()
        for (rates, name), block in states.items()
    ])


NINE_NAMES = EXPR_NAMES[:9]


def reference_expressions(modes):
    """The nine stencil images of the mode rings, one stencil call each."""
    s = np.asarray(modes).T
    return np.concatenate([s, mudelta(s), delta2(s)])


def reference_det_linear(U, ex, cfg):
    """strongquad's skeleton and forcing-linear terms, term by term."""
    pi2, pi4 = np.pi**2, np.pi**4
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    s0, s1, s2, md0, md1, md2, dd0, dd1, dd2 = ex
    d4s0, d4s2 = delta2(ex[6::2])
    d2U = delta2(U)
    mdU = mudelta(U)

    dU = (g / H**2) * d2U
    dU -= (g * g / (12.0 * H**2)) * delta2(d2U)
    dU -= (g * a / H) * U * mdU

    lin = s0 - (g / 24.0) * dd0
    lin += g * g * (3.0 / 640.0 + 1.0 / (8.0 * pi4)) * d4s0
    lin += (g / (4.0 * pi2)) * dd2
    lin -= g * g * (1.0 / (48.0 * pi2) + 1.0 / (16.0 * pi4)) * d4s2
    lin -= a * (2.0 * H / pi2) * U * s1
    lin += (a * g * H / pi2) * (
        U * ((8.0 / pi2) * md0 - 0.25 * md2
             + (1.0 / 12.0 + 5.0 / (3.0 * pi2)) * dd1)
        + mdU * (0.25 * s2 + (1.0 / 6.0 + 10.0 / (3.0 * pi2)) * md1)
        - d2U * ((1.0 / 6.0 + 1.0 / (3.0 * pi2)) * s1
                 - (1.0 / 24.0 + 5.0 / (6.0 * pi2)) * dd1)
    )
    lin -= a * a * (8.0 * H * H / (3.0 * pi4)) * U * U * s0
    return dU + e * lin


def reference_strongquad_rhs(U, modes, states, cfg):
    ex = dict(zip(NINE_NAMES, reference_expressions(modes)))
    dU = reference_det_linear(U, reference_expressions(modes), cfg)
    for term in strongquad_quadratic_terms(cfg):
        out = states[(canonical_rates(term.rates), term.right)][0]
        v = term.coeff * ex[term.left] * out
        if term.times_U:
            v = v * U
        dU = dU + v
    return dU, ex


def reference_weak_harmonic_rhs(U, t, pattern, signal, cfg):
    """Weak harmonic strongquad rhs with the forcing rebuilt at each stage.

    Re(pattern A e^{i(omega t + phase)}), its stencil images, the skeleton
    term by term, then the drift of each QuadTerm from phasor_drift.
    """
    A, w, ph = signal.amplitude, signal.omega, signal.phase
    modes = np.real(pattern * A * np.exp(1j * (w * t + ph)))
    dU = reference_det_linear(U, reference_expressions(modes), cfg)
    P = dict(zip(NINE_NAMES,
                 reference_expressions(pattern * A * np.exp(1j * ph))))
    for term in strongquad_quadratic_terms(cfg):
        d = term.coeff * phasor_drift(term.rates, w, P[term.left],
                                      P[term.right])
        dU = dU + (d * U if term.times_U else d)
    return dU


def reference_ssm1_rhs(U, phi, states, cfg):
    b = {k: mode_decay_rate(k, cfg.H) for k in (1, 2, 4, 6)}
    weights = reference_ssm1_weights(U, cfg)
    dU = unbound_ssm1_det_linear(U, phi, cfg)
    for label, rates in (("z1", (b[1],)), ("z21", (b[1], b[2])),
                         ("z41", (b[1], b[4])), ("z61", (b[1], b[6]))):
        dU = dU + weights[label] * phi * states[(rates, "phi")][0]
    return dU


_PI2 = np.pi**2
_PI4 = np.pi**4


def reference_lowg_rhs(U, modes, cfg):
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
    mdU, d2U, _ = ring_images(U)
    dU = (1.0 / H**2) * (1.0 + a * a * H * H * U * U / 12.0) * d2U
    dU -= (a / H) * U * mdU
    dU += e * (
        s0
        - a * (2.0 * H / _PI2) * s1 * U
        - a * a * (8.0 * H * H / (3.0 * _PI4)) * s2 * U * U
    )
    dU += 0.01643 * a * a * H * H * e * e * U
    return dU


def reference_lattice_coarse_rhs(U, phi_fine, cfg):
    """Evolution of the even lattice points from fine forcing samples.

    phi_fine holds forcing values at the 2m lattice points x_i = i H/2;
    element j's grid value sits at the even index 2j.  The forcing enters
    through two local restrictions, a weighted mean and a centred
    difference:

        psi_j0 = phi_{2j-1}/4 + phi_{2j}/2 + phi_{2j+1}/4
        psi_j1 = (phi_{2j+1} - phi_{2j-1})/2

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
    psi1 = 0.5 * (right - left)
    mdU, d2U, _ = ring_images(U)
    dU = (1.0 / H**2) * d2U
    dU -= (a / H) * U * mdU
    dU += e * (psi0 - (a * H / 8.0) * U * psi1)
    return dU


def chain_step(states, rates, drive_fn, t, dt, scheme="rk4"):
    """Advance one cascade by dt: one ``microscale.stepper`` step of chain_rhs."""
    def f(y, s):
        return chain_rhs(y, rates, drive_fn(s))

    return stepper(plain(f), dt, scheme)(np.asarray(states, dtype=float), t)


def reference_integrate(chains, drive_fn, n, dt, states0, scheme):
    """Each chain on its own: a chain_step loop from its initial states."""
    histories = []
    for rates, z in zip(chains, states0):
        z = np.asarray(z, dtype=float)
        hist = [z]
        for i in range(n):
            z = chain_step(z, rates, drive_fn, dt * i, dt, scheme)
            hist.append(z)
        histories.append(np.asarray(hist))
    return histories


def assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_strongquad_matches_the_term_loop(m):
    rng = np.random.default_rng(m)
    cfg = cfg_for("strongquad", m)
    bank = build_bank(cfg)
    for _ in range(3):
        flat = rng.normal(size=bank.n_states)
        U = rng.normal(size=m)
        modes = rng.normal(size=(m, 3))
        states = chain_states(strongquad_chain_specs(cfg), flat, m)
        want_dU, ex = reference_strongquad_rhs(U, modes, states, cfg)
        view = bank.bound_to(flat)
        got_dU, drives = strongquad_rhs(U, modes, view, cfg,
                                        view.Z[view.out_rows])
        assert_close(got_dU, want_dU)
        assert np.array_equal(drives[:9], np.stack([ex[k] for k in NINE_NAMES]))
        assert np.array_equal(drives[9:], delta2(drives[6:9]))
        assert_close(bank.rhs_flat(flat, drives),
                     reference_bank_rhs(states, ex))


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_linear_matrix_matches_the_term_by_term_skeleton(m):
    rng = np.random.default_rng(m + 2)
    cfg = cfg_for("strongquad", m)
    K = strongquad_linear_matrix(cfg)
    assert K.shape == (5, len(EXPR_NAMES)) and np.count_nonzero(K) == 14
    skeleton = build_bank(cfg).skeleton
    for _ in range(3):
        U = rng.normal(size=m)
        modes = rng.normal(size=(m, 3))
        assert_close(
            skeleton(U, K @ strongquad_expressions(modes)),
            reference_det_linear(U, reference_expressions(modes), cfg))


@pytest.mark.parametrize("pattern_kind", ["real", "complex"])
@pytest.mark.parametrize("m", [4, 64, 1024])
def test_weak_harmonic_phasor_rows_match_the_per_stage_stencils(m, pattern_kind):
    rng = np.random.default_rng(m + 3)
    cfg = cfg_for("strongquad", m)
    pattern = rng.normal(size=(m, 3))
    if pattern_kind == "complex":  # a phase per element and mode
        pattern = pattern * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (m, 3)))
    signal = SignalSpec(kind="harmonic", amplitude=0.9, omega=2.0, phase=0.3)
    weak = build_weak_model(cfg, signal, pattern)
    for t in (0.0, 0.37, 5.1):
        U = rng.normal(size=m)
        assert_close(weak.deterministic_rhs(U, t),
                     reference_weak_harmonic_rhs(U, t, pattern, signal, cfg))


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_weak_white_step_matches_the_stencil_terms(m):
    dt = 0.25
    cfg = cfg_for("strongquad", m, scheme="euler-maruyama", seed=5, dt=dt)
    weak = build_weak_model(cfg, SignalSpec(kind="white-noise", intensity=1.5),
                            mode_scales=(1.0, 0.5, 2.0))
    U = np.random.default_rng(m).normal(size=m)
    got = (weak.step(U, 0.0) - U) / dt
    # the same draws, in the same order: the rings, then the streams
    rng = np.random.default_rng(5)
    rings = np.array([1.5, 0.75, 3.0])[:, None] * rng.standard_normal((3, m))
    psi = rng.standard_normal(weak.drift_report()["noise_streams"])
    noise_plain, noise_times_U = reference_noise(
        reference_streams(cfg, (1.5, 0.75, 3.0))[1], psi, m)
    drift_plain, drift_times_U = weak._drift[:2]
    want = reference_det_linear(U, reference_expressions(rings.T / np.sqrt(dt)),
                                cfg)
    want += drift_plain + noise_plain / np.sqrt(dt)
    want += (drift_times_U + noise_times_U / np.sqrt(dt)) * U
    assert_close(got, want)


@pytest.mark.parametrize("m", [4, 64])
def test_weak_ssm1_is_the_dict_loop_bit_for_bit(m):
    """Each product's weight times its drift (harmonic), or its drift plus
    fresh noises drawn after the signal's (white), added in chain order."""
    rng = np.random.default_rng(m + 7)
    labels = ("z1", "z21", "z41", "z61")
    harmonic = SignalSpec(kind="harmonic", amplitude=0.9, omega=2.0, phase=0.3)
    weak = build_weak_model(cfg_for("ssm1", m), harmonic)
    drifts = weak.drift_report()["drifts"]
    for t in (0.0, 0.37, 5.1):
        U = rng.normal(size=m)
        want = unbound_ssm1_det_linear(U, 0.9 * np.cos(2.0 * t + 0.3), weak.cfg)
        weights = reference_ssm1_weights(U, weak.cfg)
        for label in labels:
            want += weights[label] * drifts[label]
        assert np.array_equal(weak.deterministic_rhs(U, t), want)
    dt = 0.01
    cfg = cfg_for("ssm1", m, scheme="euler-maruyama", dt=dt, seed=8)
    weak = build_weak_model(cfg, SignalSpec(kind="white-noise", intensity=1.5))
    draws, sq = np.random.default_rng(8), np.sqrt(dt)
    for _ in range(3):
        U = rng.normal(size=m)
        got = weak.step(U, 0.0)
        want = unbound_ssm1_det_linear(U, 1.5 * draws.standard_normal() / sq,
                                       cfg)
        weights = reference_ssm1_weights(U, cfg)
        for label, (rates, _) in zip(labels, ssm1_chain_specs(cfg)):
            rep = stochastic_replace(QuadraticTermDescriptor(0, 0, 0, 0, rates),
                                     1.5, 1.5)
            v = rep.drift
            for amp in rep.noise_amplitudes:
                v = v + amp * draws.standard_normal() / sq
            want += weights[label] * v
        assert np.array_equal(got, U + dt * want)


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_ssm1_matches_the_product_loop(m):
    rng = np.random.default_rng(m + 1)
    cfg = cfg_for("ssm1", m)
    bank = build_bank(cfg)
    for _ in range(3):
        flat = rng.normal(size=bank.n_states)
        U = rng.normal(size=m)
        phi = float(rng.normal())
        states = chain_states(ssm1_chain_specs(cfg), flat, m)
        got_dU, drives = variant_rhs(U, phi, bank.bound_to(flat), cfg)
        assert_close(got_dU, reference_ssm1_rhs(U, phi, states, cfg))
        assert_close(bank.rhs_flat(flat, drives),
                     reference_bank_rhs(states, {"phi": np.full(m, phi)}))


def test_rhs_flat_is_the_chain_cascade_bit_for_bit():
    rng = np.random.default_rng(3)
    cfg = cfg_for("strongquad", 16)
    bank = build_bank(cfg)
    flat = rng.normal(size=bank.n_states)
    drives = rng.normal(size=(len(EXPR_NAMES), cfg.m))
    states = chain_states(strongquad_chain_specs(cfg), flat, cfg.m)
    want = reference_bank_rhs(states, dict(zip(EXPR_NAMES, drives)))
    assert np.array_equal(bank.rhs_flat(flat, drives), want)


def masked_rhs_flat(bank, flat, drives):
    """The bank derivative before the feed index: a next-level link mask,
    a gather of each chain's drive row, a fancy-indexed add at its end."""
    keys = bank.keys()
    rates = np.asarray([r for k in keys for r in k[0]])
    last = np.cumsum([len(k[0]) for k in keys]) - 1
    link = ~np.isin(np.arange(rates.size - 1), last)
    Z = flat.reshape(bank.Z.shape)
    dZ = -rates[:, None] * Z
    np.add(dZ[:-1], Z[1:], out=dZ[:-1], where=link[:, None])
    dZ[last] += drives[[bank.exprs.index(k[1]) for k in keys]]
    return dZ.ravel()


@pytest.mark.parametrize("variant", ["ssm1", "strongquad"])
@pytest.mark.parametrize("m", [4, 64, 1024])
def test_rhs_flat_matches_the_masked_form_bit_for_bit(variant, m):
    rng = np.random.default_rng(m)
    bank = build_bank(cfg_for(variant, m))
    for _ in range(3):
        flat = rng.normal(size=bank.n_states)
        drives = rng.normal(size=(len(bank.exprs), m))
        assert np.array_equal(bank.rhs_flat(flat, drives),
                              masked_rhs_flat(bank, flat, drives))


chain_rates = st.lists(st.sampled_from([1.3, 2.0]) | st.floats(0.5, 20.0),
                       min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(chain_rates, min_size=1, max_size=5), st.integers(0, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
@example([(1.3, 1.3), (2.0,)], 0, False, 0)
@example([(1.3, 1.3), (2.0,), (0.7, 1.3, 1.3)], 3, True, 1)
def test_packed_rhs_is_the_per_chain_rhs(chains, m, per_chain, seed):
    """m = 0 means 1-D states; per_chain gives each chain its own drive row."""
    rng = np.random.default_rng(seed)
    row = () if m == 0 else (m,)
    Z = rng.normal(size=(sum(map(len, chains)),) + row)
    if per_chain:
        drive_rows = rng.integers(0, 3, size=len(chains))
        drives = rng.normal(size=(3,) + row)
        layout = chain_layout(chains, Z.ndim, drive_rows)
    else:
        drive_rows = np.zeros(len(chains), int)
        drives = rng.normal(size=(1,) + row)
        layout = chain_layout(chains, Z.ndim)
    ext = np.empty((len(Z) + len(drives),) + row)
    got = packed_chain_rhs(Z, layout, drives, ext, out=np.empty_like(Z))
    ends = np.cumsum([0] + [len(r) for r in chains])
    want = np.concatenate([
        chain_rhs(Z[a:b], rates, drives[d])
        for rates, a, b, d in zip(chains, ends[:-1], ends[1:], drive_rows)
    ])
    assert np.array_equal(got, want)


def test_bound_bank_shares_the_layout_and_reads_its_state():
    rng = np.random.default_rng(4)
    cfg = cfg_for("strongquad", 8)
    bank = build_bank(cfg)
    flat = rng.normal(size=bank.n_states)
    view = bank.bound_to(flat)
    assert view.keys() == bank.keys() and view.coupling is bank.coupling
    states = chain_states(strongquad_chain_specs(cfg), flat, cfg.m)
    for (rates, name), block in states.items():
        assert np.array_equal(view.states(rates, name), block)
    assert np.all(bank.Z == 0.0)


def test_bank_refuses_another_models_configuration():
    bank = build_bank(cfg_for("strongquad", 4))
    other = cfg_for("strongquad", 4, dt=5e-3)  # same model, other stepping
    outputs = bank.Z[bank.out_rows]
    strongquad_rhs(np.ones(4), np.zeros((4, 3)), bank, other, outputs)
    with pytest.raises(ConfigError, match="compiled"):
        strongquad_rhs(np.ones(4), np.zeros((4, 3)), bank,
                       ModelConfig(variant="strongquad", alpha=0.7, eps=0.1,
                                   gamma=0.8, H=np.pi / 2.0, m=4), outputs)


@pytest.mark.parametrize("m", [3, 4, 16, 64])
@pytest.mark.parametrize("variant", ["lowg", "lattice"])
def test_chainless_skeleton_is_the_per_call_rhs_byte_for_byte(variant, m):
    """build_bank's bound lowg and lattice skeletons give the bytes of the
    per-call rhs they replaced, at amplitudes near 1 and near 1e3."""
    rng = np.random.default_rng(m)
    cfg = ModelConfig(variant=variant, alpha=1.3, eps=0.45, H=0.8, m=m)
    skeleton = build_bank(cfg).skeleton
    reference, shape = {"lowg": (reference_lowg_rhs, (m, 3)),
                        "lattice": (reference_lattice_coarse_rhs, (2 * m,))}[variant]
    for U in (rng.uniform(-1.0, 1.0, m), rng.uniform(-1e3, 1e3, m),
              1e3 + rng.normal(size=m)):
        forcing = rng.normal(size=shape)
        assert (skeleton(U, forcing).tobytes()
                == reference(U, forcing, cfg).tobytes())


@pytest.mark.parametrize("n", [9, 11])
def test_lattice_skeleton_refuses_forcing_off_the_lattice(n):
    skeleton = build_bank(ModelConfig("lattice", 0.3, 0.1, 1.0, 5)).skeleton
    with pytest.raises(ConfigError, match=rf"^need forcing at 2m = 10 lattice "
                                          rf"points, got shape \({n},\)$"):
        skeleton(np.ones(5), np.ones(n))


def reference_streams(cfg, sigma):
    """The stream numbering loop: a dict lookup per (occurrence, element)."""
    m = cfg.m
    J = np.arange(m)
    key_index = {}
    occurrences = []
    for term in strongquad_quadratic_terms(cfg):
        opL, p = _split_expr(term.left)
        opR, n = _split_expr(term.right)
        rates = canonical_rates(term.rates)
        amps = _slot_amplitudes(rates)
        for r, wl in _OFFSET_WEIGHTS[opL].items():
            for s, wr in _OFFSET_WEIGHTS[opR].items():
                weight = term.coeff * wl * wr
                left_el = (J + r) % m
                right_el = (J + s) % m
                for slot, amp in enumerate(amps):
                    idx = np.empty(m, dtype=int)
                    for j in range(m):
                        key = (int(left_el[j]), int(right_el[j]), p, n, rates,
                               slot)
                        if key not in key_index:
                            key_index[key] = len(key_index)
                        idx[j] = key_index[key]
                    occurrences.append((weight * sigma[p] * sigma[n] * amp, idx,
                                        term.times_U))
    return sorted(key_index, key=key_index.get), occurrences


def reference_noise(occurrences, psi, m):
    """The (2, m) noise rows, plain and times U: each occurrence's factor
    times its streams, gathered by the dict loop's numbering."""
    noise = np.zeros((2, m))
    for factor, idx, times_U in occurrences:
        noise[int(times_U)] += factor * psi[idx]
    return noise


@pytest.mark.parametrize("m", [3, 4, 5, 64])
def test_white_streams_number_like_the_dict_loop(m):
    cfg = cfg_for("strongquad", m, scheme="euler-maruyama", seed=1)
    weak = build_weak_model(cfg, SignalSpec(kind="white-noise", intensity=1.5),
                            mode_scales=(1.0, 0.5, 2.0))
    keys, occurrences = reference_streams(cfg, (1.5, 0.75, 3.0))
    assert weak._stream_keys() == keys
    assert weak.drift_report()["noise_streams"] == len(keys)
    # the class rings, each read shifted: every occurrence's streams, summed
    rng = np.random.default_rng(m)
    for _ in range(3):
        psi = rng.standard_normal(len(keys))
        want = reference_noise(occurrences, psi, m)
        got = weak._add_stream_noise(psi, np.zeros((2, m)))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    rows = rng.normal(size=(2, m))
    start = rows.copy()
    assert weak._add_stream_noise(psi, rows) is rows
    assert_close(rows - start, want)


def harmonic(t):
    return 0.8 * np.cos(2.0 * t + 0.3)


def as_row(value):
    """A drive value as a shape-(1,) array."""
    return np.full(1, value)


# The forms a 1-D state's drive may return: each holds harmonic's value.
DRIVE_FORMS = (float, np.float64, np.asarray, as_row)


def assert_chains_match(chains, drive_fn, n, dt, states0, scheme, form=None):
    """integrate_chains against reference_integrate, bit for bit.

    form, when given, recasts the drive's value for integrate_chains only:
    the reference's chain_rhs takes the value as drive_fn returns it.
    """
    packed_drive = drive_fn if form is None else lambda t: form(drive_fn(t))
    times, got = integrate_chains(chains, packed_drive, n * dt, dt, states0,
                                  scheme)
    assert np.array_equal(times, dt * np.arange(n + 1))
    if states0 is None:
        states0 = [np.zeros(len(rates)) for rates in chains]
    want = reference_integrate(chains, drive_fn, n, dt, states0, scheme)
    assert len(got) == len(chains)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.base is not None and g.base is got[0].base


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_packed_ssm1_chains_match_the_chain_step_loop(scheme):
    cfg = cfg_for("ssm1", 4)
    chains = [rates for rates, _ in ssm1_chain_specs(cfg)]
    assert_chains_match(chains, harmonic, 200, 2e-3, None, scheme)


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_packed_ssm1_chains_match_under_an_element_drive(scheme):
    m = 5
    rng = np.random.default_rng(6)
    cfg = cfg_for("ssm1", 4)
    chains = [rates for rates, _ in ssm1_chain_specs(cfg)]
    states0 = [rng.normal(size=(len(rates), m)) for rates in chains]
    shape = rng.normal(size=m)
    assert_chains_match(chains, lambda t: shape * np.cos(1.7 * t), 100, 2e-3,
                        states0, scheme)


@settings(max_examples=25, deadline=None)
@given(st.lists(chain_rates, min_size=1, max_size=4),
       st.sampled_from(["rk4", "euler", "euler-maruyama"]), st.integers(0, 3),
       st.sampled_from(DRIVE_FORMS))
@example([(1.3, 1.3)], "rk4", 0, float)
@example([(1.0,), (0.9, 1.7, 2.6)], "rk4", 0, as_row)
@example([(1.0, 4.0)], "euler-maruyama", 0, np.asarray)
@example([(2.0,), (1.3, 1.3, 0.7)], "euler", 3, float)
@example([(1.3, 1.3, 2.0, 0.7, 1.3, 5.0, 2.0, 2.0, 11.0)], "rk4", 0, float)
@example([(2.0,)], "euler-maruyama", 0, as_row)
def test_packed_unsorted_chains_match_the_chain_step_loop(chains, scheme, m,
                                                          form):
    if m == 0:
        assert_chains_match(chains, harmonic, 40, 5e-3, None, scheme, form)
        return
    rng = np.random.default_rng(len(chains) + m)
    states0 = [rng.normal(size=(len(rates), m)) for rates in chains]
    shape = rng.normal(size=m)
    assert_chains_match(chains, lambda t: shape * harmonic(t), 40, 5e-3,
                        states0, scheme)


def stage_times(n, dt, scheme):
    """The stage times of n steps from t = 0, as march and the scheme form
    them, each repeat of the time before it dropped."""
    times, h = [], 0.5 * dt
    for k in range(n):
        t = 0.0 + k * dt
        for s in (t, t + h, t + h, t + dt) if scheme == "rk4" else (t,):
            if not times or s != times[-1]:
                times.append(s)
    return times


@pytest.mark.parametrize("scheme, per_step", [("rk4", 3), ("euler", 1)])
@pytest.mark.parametrize("m", [0, 3])
def test_drive_is_called_once_per_distinct_stage_time(scheme, per_step, m):
    """integrate_chains keeps one drive value, that of the last stage time:
    on the float path (m = 0) and on (levels, m) states alike, the drive is
    called at every stage time that differs from the one before it.  An RK4
    step whose t + dt is not the next step's start in floating point calls
    it three times, not two."""
    calls = []
    shape = np.ones(m) if m else 1.0

    def drive(t):
        calls.append(t)
        return shape * harmonic(t)

    n = 50
    states0 = [np.zeros((2, m) if m else 2), np.zeros((1, m) if m else 1)]
    integrate_chains([(1.3, 1.3), (2.0,)], drive, n * 0.01, 0.01, states0,
                     scheme)
    assert calls == stage_times(n, 0.01, scheme)
    assert len(calls) <= per_step * n
    assert len(calls) == len(set(calls))
    calls.clear()
    integrate_chain((2.0,), drive, n * 0.01, 0.01, states0[0][:1], scheme)
    assert calls == stage_times(n, 0.01, scheme)


def test_float_path_takes_every_one_entry_drive_alike():
    """A Python float, an np.float64, a 0-d and a shape-(1,) array give the
    float step the same drive, and so the same histories."""
    chains = [(1.0,), (1.0, 4.0), (0.7, 1.3)]
    runs = [integrate_chains(chains, lambda t, form=form: form(harmonic(t)),
                             1.0, 0.01)[1] for form in DRIVE_FORMS]
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["rk4", "euler", "euler-maruyama"])
@pytest.mark.parametrize("spec", [
    default_spec("weak-drift").signal,
    SignalSpec(kind="harmonic", amplitude=2.5, omega=3.0, phase=-0.7)],
    ids=["weak-drift", "2.5-3.0--0.7"])
def test_inline_harmonic_drive_is_the_called_drive_byte_for_byte(spec, scheme):
    """A HarmonicSignal's own value is inlined in the float loop, which then
    calls no value; behind a lambda it is called.  The two runs agree byte
    for byte, times included."""
    sig, chains = make_signal(spec), [(1.0,), (1.0, 4.0), (0.7, 1.3, 1.3)]
    runs, calls = [], {}
    for name, drive in (("called", lambda t: sig.value(t)), ("inline", sig.value)):
        calls[name] = []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code
                       is HarmonicSignal.value.__code__ and calls[name].append(1))
        try:
            runs.append(integrate_chains(chains, drive, 5.0, 0.0123, None, scheme))
        finally:
            sys.setprofile(None)
    assert calls["called"] and not calls["inline"]
    (times, called), (got, inline) = runs
    assert got.tobytes() == times.tobytes()
    for a, b in zip(inline, called):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme, per_step", [("rk4", 3), ("euler", 1)])
def test_inline_harmonic_drive_evaluates_cos_at_every_stage(scheme, per_step):
    """The inline drive evaluates its form at every stage time, three times
    an RK4 step, where the called drive is called once per distinct stage
    time (stage_times): the float loop keeps no last value for it."""
    sig, n, dt = HarmonicSignal(0.8, 2.0, 0.3), 50, 0.01
    counts = {}
    for name, drive in (("inline", sig.value), ("called", lambda t: sig.value(t))):
        counts[name] = 0

        def profile(frame, event, arg, name=name):
            if event == "c_call" and arg is math.cos:
                counts[name] += 1

        sys.setprofile(profile)
        try:
            integrate_chains([(1.3, 1.3), (2.0,)], drive, n * dt, dt, None, scheme)
        finally:
            sys.setprofile(None)
    assert counts["inline"] == per_step * n
    assert counts["called"] == len(stage_times(n, dt, scheme))


def test_float_path_refuses_a_two_entry_drive():
    with pytest.raises(ValueError, match="size 1"):
        integrate_chains([(1.0,)], lambda t: np.full(2, harmonic(t)), 0.1, 0.01)


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_float_step_calls_the_drive_at_the_array_steps_times(scheme):
    """1-D states (the float step) and the same chains as (levels, 1) states
    (the array step) call the drive at the same stage times, bit for bit
    and in the same order, and record the same histories."""
    chains = [(1.0,), (1.0, 4.0), (0.7, 1.3, 1.3)]
    n, dt = 400, 0.0123
    calls = {1: [], 2: []}

    def drive_for(ndim):
        def drive(t):
            calls[ndim].append(t)
            return harmonic(t)
        return drive

    _, flat = integrate_chains(chains, drive_for(1), n * dt, dt, None, scheme)
    states0 = [np.zeros((len(rates), 1)) for rates in chains]
    _, rows = integrate_chains(chains, drive_for(2), n * dt, dt, states0, scheme)
    assert len(calls[1]) >= n
    assert calls[1] == calls[2]
    for f, r in zip(flat, rows):
        assert np.array_equal(f, r[..., 0])


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_cached_float_step_binds_each_calls_rates_and_dt(scheme):
    """Two runs of one layout share a generated float run, yet each steps
    with its own rates and dt: bit for bit its (levels, 1) array run."""
    before = convolution._float_run.cache_info().hits
    for chains, dt in (([(1.0,), (1.0, 4.0)], 0.0123),
                       ([(2.5,), (0.3, 7.0)], 0.004)):
        n = 200
        _, flat = integrate_chains(chains, harmonic, n * dt, dt, None, scheme)
        states0 = [np.zeros((len(rates), 1)) for rates in chains]
        _, rows = integrate_chains(chains, harmonic, n * dt, dt, states0,
                                   scheme)
        for f, r in zip(flat, rows):
            assert np.array_equal(f, r[..., 0])
    assert convolution._float_run.cache_info().hits > before


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_cached_float_loop_binds_each_runs_constants(monkeypatch, scheme):
    """Two paired runs of one layout share the compiled float loop and ssm1
    float rhs, yet each computes with its own alpha, eps, dx, H, gamma,
    chain rates, dt and Lorenz amplitude: bit for bit its array run."""
    m, n = 6, 8
    caches = (harness._paired_loop_code, macromodel._ssm1_float_code)
    got, misses = [], []
    for kw, dx, amp in (({"alpha": 0.3, "H": np.pi / 2.0, "gamma": 1.0, "dt": 1e-3},
                         0.4, 0.5),
                        ({"alpha": -1.7, "H": 0.45, "gamma": 0.35, "dt": 2e-3},
                         0.9, -2.5)):
        cfg = ModelConfig(variant="ssm1", eps=0.3, m=m, scheme=scheme, **kw)
        signals = [SignalSpec(kind="lorenz", amplitude=amp, xi0=1.0)]
        fine = FineSide(np.ones(n), np.linspace(-1.0, 1.0, n)[None],
                        burgers_form(dx, kw["alpha"], 0.3, "skew"))
        coarse = CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0]))
        args = (signals, 5, 20 * cfg.dt, cfg.dt, scheme, fine, coarse, 3)
        assert _compile_stage(*args[:2], cfg.dt, scheme, fine, coarse).loop
        run = run_paired(*args)
        misses.append([cache.cache_info().misses for cache in caches])
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_FLOAT_STATE", 0)
            want = run_paired(*args)
        for a, b in zip(run, want):
            assert a.tobytes() == b.tobytes()
        got.append(run)
    assert misses[0] == misses[1]
    for a, b in zip(got[0][2:], got[1][2:]):  # u, U and bank
        assert not np.array_equal(a, b)
