"""Acceptance criteria AC-1 .. AC-9.

One test per criterion; the ``pytest -v`` line for each test is the
pass/fail line.  Run with ``-s`` to also see the measured numbers.
"""

import time

import numpy as np

from holodisc import (
    ConvTerm,
    ModelConfig,
    VARIANTS,
    alternating_signs,
    build_bank,
    burgers_rhs,
    canonical_rates,
    integrate_chain,
    phasor_drift,
    reduce_by_parts,
)
from holodisc.harness import (
    consistency_experiment,
    emergence_experiment,
    lattice_coarse_experiment,
    run_fig3_experiment,
)
from holodisc.macromodel import strongquad_quadratic_terms
from holodisc.microscale import lattice_form
from holodisc.weakmodel import simulate_quadrature_ensemble
from test_paired_stage import variant_rhs

ALT4 = alternating_signs(4)


def _zero_forcing(variant, m):
    if variant == "lattice":
        return np.zeros(2 * m)
    if variant == "ssm1":
        return 0.0
    return np.zeros((m, 3))


def test_ac1_constant_states_are_equilibria():
    start = time.perf_counter()
    worst = 0.0
    for variant in VARIANTS:
        gammas = (1.0,) if variant in ("lowg", "lattice") else (0.0, 0.4, 1.0)
        for gamma in gammas:
            cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.0,
                              H=np.pi / 2.0, m=4, gamma=gamma)
            bank = build_bank(cfg)
            dU, _ = variant_rhs(np.full(4, 0.7), _zero_forcing(variant, 4),
                                bank, cfg)
            worst = max(worst, float(np.max(np.abs(dU))))
    u = np.full(24, 0.7)
    for form in ("advective", "conservative", "skew"):
        rhs = burgers_rhs(u, np.pi / 16.0, 0.3, 0.0, np.zeros(24), form=form)
        worst = max(worst, float(np.max(np.abs(rhs))))
    rhs = lattice_form(np.pi / 2.0, 0.3, 0.0)(u[:8], np.zeros(8), np.empty(8))
    worst = max(worst, float(np.max(np.abs(rhs))))
    elapsed = time.perf_counter() - start
    print(f"\nAC-1: max |rhs| over constant states = {worst:.3e} "
          f"(<= 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_ac2_stencil_convergence_orders():
    report = consistency_experiment()
    order_full = report.metrics["order_full"]
    order_linear = report.metrics["order_linear"]
    print(f"\nAC-2: order_full = {order_full:.3f} (>= 1.9), "
          f"order_linear = {order_linear:.3f} (>= 3.8)")
    assert order_full >= 1.9
    assert order_linear >= 3.8
    assert report.passed


def test_ac3_subgrid_decay_rates_emerge():
    report = emergence_experiment()
    H = report.config["H"]
    worst = 0.0
    for k in (1, 2):
        target = report.metrics[f"continuum_target_k{k}"]
        assert abs(target - (k * np.pi / H) ** 2) <= 1e-12
        worst = max(worst, report.metrics[f"continuum_rel_err_k{k}"])
    lat_targets = sorted(
        report.metrics[f"lattice_target_f{mode}"] for mode in (1, 2)
    )
    assert np.allclose(lat_targets, [8.0 / H**2, 16.0 / H**2], rtol=1e-12)
    for mode in (1, 2):
        worst = max(worst, report.metrics[f"lattice_rel_err_f{mode}"])
    print(f"\nAC-3: worst relative rate error = {worst:.2e} (<= 2e-2)")
    assert worst <= 0.02
    assert report.passed


def test_ac4_memory_reconstruction_tracks_fine_truth():
    start = time.perf_counter()
    report = run_fig3_experiment()
    elapsed = time.perf_counter() - start
    m = report.metrics
    print(f"\nAC-4: error_ratio = {m['error_ratio']:.3f} (< 0.5), "
          f"node forcing = {m['forcing_at_nodes']:.2e} (<= 1e-12), "
          f"path gap = {m['forcing_path_gap']}, {elapsed:.1f}s")
    assert m["rms_reconstruction_error"] < 0.5 * m["rms_amplitude_error"]
    assert m["forcing_at_nodes"] <= 1e-12
    assert m["forcing_path_gap"] == 0.0
    assert report.passed
    assert elapsed < 60.0


# (rates, omega_mu, omega_rho, phase, formula value is exactly zero)
DRIFT_CASES = [
    ((1.0,), 2.0, 2.0, 0.0, False),
    ((1.0,), 2.0, 2.0, 0.7, False),
    ((1.0,), 2.0, 3.0, 0.0, True),
    ((4.0,), 1.0, 1.0, 1.2, False),
    ((1.0, 4.0), 2.0, 2.0, 0.0, True),
    ((1.0, 4.0), 2.0, 2.0, 0.9, False),
    ((1.0, 4.0), 2.0, 1.0, 0.3, True),
    ((2.0, 3.0), 0.5, 0.5, 2.0, False),
    ((1.0, 1.0), 3.0, 3.0, 0.5, False),
]


def _predicted_drift(rates, w_mu, w_rho, phase):
    if w_mu != w_rho:
        # Products of cosines at incommensurate frequencies average away.
        return 0.0
    return float(phasor_drift(rates, w_mu, np.exp(1j * phase), 1.0))


def _measured_drift(rates, w_mu, w_rho, phase):
    """Long-time average of cos(w_rho t + phase) times the driven chain."""
    t_start = 14.0 / min(rates)
    window = 16.0 * np.pi
    dt = 2e-3
    times, hist = integrate_chain(
        rates, lambda t: np.cos(w_mu * t), t_start + window, dt
    )
    mask = times >= t_start - 1e-9
    tt, out = times[mask], hist[mask, 0]
    return float(
        np.trapezoid(np.cos(w_rho * tt + phase) * out, tt) / (tt[-1] - tt[0])
    )


def test_ac5_harmonic_drift_formulas():
    worst_rel, worst_null = 0.0, 0.0
    for rates, w_mu, w_rho, phase, is_null in DRIFT_CASES:
        predicted = _predicted_drift(rates, w_mu, w_rho, phase)
        measured = _measured_drift(rates, w_mu, w_rho, phase)
        scale = 0.5 * float(np.prod([1.0 / np.hypot(b, w_mu) for b in rates]))
        if is_null:
            assert abs(predicted) <= 1e-15
            worst_null = max(worst_null, abs(measured) / scale)
            assert abs(measured) <= 0.01 * scale
        else:
            rel = abs(measured - predicted) / abs(predicted)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.01
    print(f"\nAC-5: worst relative error = {worst_rel:.2e} (<= 1e-2), "
          f"worst null residual = {worst_null:.2e} of scale (<= 1e-2)")


def test_ac6_white_noise_quadrature_means():
    start = time.perf_counter()
    T, dt, n_paths = 50.0, 2e-3, 1000
    y_same = simulate_quadrature_ensemble((1.0,), T, dt, n_paths, seed=5,
                                          same_signal=True)
    y_ind = simulate_quadrature_ensemble((1.0,), T, dt, n_paths, seed=1005,
                                         same_signal=False)
    elapsed = time.perf_counter() - start
    mean_same = float(np.mean(y_same)) / T
    se_same = float(np.std(y_same, ddof=1)) / (T * np.sqrt(n_paths))
    mean_ind = float(np.mean(y_ind)) / T
    se_ind = float(np.std(y_ind, ddof=1)) / (T * np.sqrt(n_paths))
    print(f"\nAC-6: same-signal mean = {mean_same:.4f} "
          f"(target 0.5 +- {3 * se_same:.4f}); "
          f"independent mean = {mean_ind:+.5f} "
          f"(target 0 +- {3 * se_ind:.4f}); {elapsed:.1f}s")
    assert abs(mean_same - 0.5) <= 3.0 * se_same
    assert abs(mean_ind) <= 3.0 * se_ind
    assert elapsed < 60.0


def _suffix_series(hist, full_rates, rates, signal_values):
    """Time series of Z[rates] from the stored cascade of full_rates."""
    k = len(rates)
    if k == 0:
        return signal_values
    tail = full_rates[len(full_rates) - k:]
    assert canonical_rates(tail) == canonical_rates(rates)
    return hist[:, len(full_rates) - k]


def test_ac7_convolution_reduction_identity():
    rng = np.random.default_rng(42)
    products = []
    for _ in range(4):
        lr = tuple(np.round(rng.uniform(0.6, 3.2, rng.integers(1, 4)), 3))
        rr = tuple(np.round(rng.uniform(0.6, 3.2, rng.integers(1, 4)), 3))
        coeff = float(np.round(rng.uniform(0.5, 2.0), 3))
        products.append((coeff, lr, rr))
    products.append((1.0, (1.3, 1.3), (2.0,)))
    dt, t_end = 2.5e-4, 6.0
    w_rho, p_rho, w_mu, p_mu = 1.1, 0.2, 0.7, 1.0
    worst = 0.0
    for coeff, lr, rr in products:
        term = ConvTerm(coeff=coeff, left_rates=lr, right_rates=rr)
        red = reduce_by_parts(term)
        times, hist_l = integrate_chain(
            term.left_rates, lambda t: np.cos(w_rho * t + p_rho), t_end, dt
        )
        _, hist_r = integrate_chain(
            term.right_rates, lambda t: np.cos(w_mu * t + p_mu), t_end, dt
        )
        rho_vals = np.cos(w_rho * times + p_rho)
        mu_vals = np.cos(w_mu * times + p_mu)

        def series(t):
            left = _suffix_series(hist_l, term.left_rates, t.left_rates,
                                  rho_vals)
            right = _suffix_series(hist_r, term.right_rates, t.right_rates,
                                   mu_vals)
            return t.coeff * left * right

        original = series(red.original)
        boundary = sum(series(t) for t in red.boundary)
        canonical_sum = sum(series(t) for t in red.canonical)
        residual = np.gradient(boundary, dt) + canonical_sum - original
        sup = float(np.max(np.abs(residual[2:-2])))
        worst = max(worst, sup)
        assert sup <= 1e-6, (coeff, lr, rr, sup)
    print(f"\nAC-7: worst pointwise residual = {worst:.2e} (<= 1e-6)")

    # The chain output must not depend on the rate ordering.
    base_rates = (0.9, 1.7, 2.6)
    drive = lambda t: np.cos(1.1 * t + 0.2)
    _, base_hist = integrate_chain(base_rates, drive, 10.0, 1e-3)
    worst_perm = 0.0
    for perm in ((1.7, 2.6, 0.9), (2.6, 0.9, 1.7)):
        _, perm_hist = integrate_chain(perm, drive, 10.0, 1e-3)
        gap = float(np.max(np.abs(perm_hist[:, 0] - base_hist[:, 0])))
        worst_perm = max(worst_perm, gap)
        assert gap <= 1e-8
    print(f"AC-7: worst permutation gap = {worst_perm:.2e} (<= 1e-8)")


def _det_response(variant, U, gamma, phi_on):
    """RHS with fresh (zero) memory and the alternating first-mode drive."""
    cfg = ModelConfig(variant=variant, alpha=1.0, eps=1.0, H=1.0, m=4,
                      gamma=gamma)
    bank = build_bank(cfg)
    if variant == "ssm1":
        forcing = 1.0 if phi_on else 0.0
    else:
        forcing = np.zeros((4, 3))
        if phi_on:
            forcing[:, 1] = ALT4
    dU, _ = variant_rhs(np.asarray(U, dtype=float), forcing, bank, cfg)
    return dU


def _forced_part(variant, U, gamma):
    return _det_response(variant, U, gamma, True) - _det_response(
        variant, U, gamma, False
    )


def test_ac8_coefficient_closed_forms():
    # Linear forcing coupling 2/pi^2, identical in all three models, plus
    # the cubic saturation constant, via exact elimination at U = 1, 2.
    g1 = _forced_part("ssm1", np.full(4, 1.0), 0.0) / (-ALT4)
    g2 = _forced_part("ssm1", np.full(4, 2.0), 0.0) / (-ALT4)
    assert float(np.max(np.abs(g1 - g1[0]))) <= 1e-14
    lin_ssm1 = (8.0 * g1[0] - g2[0]) / 6.0
    cubic_ssm1 = (2.0 * g1[0] - g2[0]) / 6.0

    f_lowg = _forced_part("lowg", np.full(4, 1.0), 1.0) / (-ALT4)
    lin_lowg = f_lowg[0]
    f_sq = _forced_part("strongquad", np.full(4, 1.0), 0.0) / (-ALT4)
    lin_sq = f_sq[0]

    two_over_pi2 = 2.0 / np.pi**2
    assert abs(lin_ssm1 - two_over_pi2) <= 1e-12
    assert abs(lin_lowg - two_over_pi2) <= 1e-12
    assert abs(lin_sq - two_over_pi2) <= 1e-12
    assert max(abs(lin_ssm1 - lin_lowg), abs(lin_ssm1 - lin_sq)) <= 1e-13
    assert abs(cubic_ssm1 - 0.00363) <= 1e-12

    # Coupling-bracket coefficients: the resolved model stores 4-decimal
    # constants; the quadratic model reproduces the closed forms
    # (pi^2+20)/(3 pi^4) and (pi^2+11)/(3 pi^4).  They agree to 1e-3 but
    # differ beyond the 5e-5 decimal-storage tolerance.
    def gamma_bracket(variant):
        const = _forced_part(variant, np.full(4, 1.0), 1.0) - _forced_part(
            variant, np.full(4, 1.0), 0.0
        )
        c_u = float((const / (-ALT4))[0])
        winding = _forced_part(variant, ALT4.astype(float), 1.0) - _forced_part(
            variant, ALT4.astype(float), 0.0
        )
        q = float(winding[0] / -1.0)
        c_d = (c_u - q) / 4.0
        return c_u, c_d

    cu_ssm1, cd_ssm1 = gamma_bracket("ssm1")
    cu_sq, cd_sq = gamma_bracket("strongquad")
    closed_u = (np.pi**2 + 20.0) / (3.0 * np.pi**4)
    closed_d = (np.pi**2 + 11.0) / (3.0 * np.pi**4)
    assert abs(cu_ssm1 - 0.1028) <= 1e-12
    assert abs(cd_ssm1 - 0.0716) <= 1e-12
    assert abs(cu_sq - closed_u) <= 1e-12
    assert abs(cd_sq - closed_d) <= 1e-12
    assert 5e-5 < abs(cu_ssm1 - cu_sq) < 1e-3
    assert 5e-5 < abs(cd_ssm1 - cd_sq) < 1e-3

    # Quadratic-memory drift couplings: restricting the full registry to the
    # alternating first-mode drive leaves exactly two state-multiplying
    # terms.  The double-rate one matches the resolved model's -8/(15 pi^2)
    # exactly; the single-rate one is 32 H^2/(15 pi^4), which the resolved
    # model stores as the truncated decimal 0.0195 (a documented mismatch
    # from differing mode counts, far above the 5e-5 storage tolerance).
    qcfg = ModelConfig(variant="strongquad", alpha=1.0, eps=1.0, H=1.0, m=4,
                       gamma=1.0)
    image = {"phi1": 1.0, "delta2_phi1": -4.0}
    acc = {}
    for t in strongquad_quadratic_terms(qcfg):
        cl = image.get(t.left, 0.0)
        cr = image.get(t.right, 0.0)
        if cl != 0.0 and cr != 0.0:
            key = (canonical_rates(t.rates), t.times_U)
            acc[key] = acc.get(key, 0.0) + t.coeff * cl * cr
    acc = {k: v for k, v in acc.items() if v != 0.0}
    b1, b2 = np.pi**2, 4.0 * np.pi**2
    assert set(acc) == {((b1,), True), ((b1, b2), True)}

    scfg = ModelConfig(variant="ssm1", alpha=1.0, eps=1.0, H=1.0, m=4,
                       gamma=1.0)
    sbank = build_bank(scfg)
    double_rate = float(sbank.coupling[sbank.index((b1, b2), "phi")])
    single_rate = float(sbank.coupling[sbank.index((b1,), "phi")])
    assert abs(double_rate - (-8.0 / (15.0 * np.pi**2))) <= 1e-12
    assert abs(acc[((b1, b2), True)] - double_rate) <= 1e-12
    derived_single = 32.0 / (15.0 * np.pi**4)
    assert abs(acc[((b1,), True)] - derived_single) <= 1e-12
    assert abs(single_rate - 0.0195) <= 1e-12
    assert abs(0.0195 - derived_single) > 5e-5

    # Mean-drift constant: the stored decimal matches 8/(5 pi^4) at the
    # decimal-storage tolerance, and the low-coupling model applies it
    # verbatim.
    assert abs(0.01643 - 8.0 / (5.0 * np.pi**4)) <= 5e-5
    dcfg = ModelConfig(variant="lowg", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                       m=4, gamma=1.0)
    dU = build_bank(dcfg).skeleton(np.full(4, 0.7), np.zeros((4, 3)))
    expected = 0.01643 * 0.09 * (np.pi**2 / 4.0) * 0.0025 * 0.7
    assert np.allclose(dU, expected, rtol=1e-12, atol=0.0)

    print(f"\nAC-8: linear coupling = {lin_ssm1:.10f} (2/pi^2, three models), "
          f"cubic = {cubic_ssm1:.5f}; bracket ({cu_ssm1:.4f}, {cd_ssm1:.4f}) "
          f"vs closed ({closed_u:.6f}, {closed_d:.6f}); "
          f"double-rate drift = {double_rate:.6f} (exact), single-rate "
          f"{single_rate:.4f} vs derived {derived_single:.6f} (documented "
          f"mismatch)")


def test_ac9_lattice_error_contraction():
    start = time.perf_counter()
    report = lattice_coarse_experiment()
    elapsed = time.perf_counter() - start
    errors = [report.metrics[f"sup_error_level{k}"] for k in range(3)]
    ratios = [report.metrics[f"ratio_level{k}_over_{k + 1}"] for k in range(2)]
    print(f"\nAC-9: sup errors = {[f'{e:.3g}' for e in errors]}, "
          f"ratios = {[f'{r:.2f}' for r in ratios]} (each >= 3), "
          f"{elapsed:.1f}s")
    for ratio in ratios:
        assert ratio >= 3.0
    assert report.passed
    assert elapsed < 60.0
