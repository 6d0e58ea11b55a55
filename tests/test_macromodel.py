"""Coarse element models, their memory banks, and joint stepping."""

import numpy as np
import pytest

from holodisc import (
    ConfigError,
    ModelConfig,
    SignalSpec,
    StabilityError,
    VARIANTS,
    alternating_signs,
    build_bank,
    mode_decay_rate,
    nsm_subgrid_field,
    run_macro_forced,
    ssm1_rhs,
    strongquad_rhs,
)
from holodisc.macromodel import (
    EXPR_NAMES,
    ssm1_chain_specs,
    strongquad_expressions,
)
from test_paired_stage import nsm_field_at_grid, variant_rhs


def cfg_for(variant, **kw):
    base = dict(variant=variant, alpha=0.3, eps=0.05, H=np.pi / 2.0, m=4)
    base.update(kw)
    return ModelConfig(**base)


def zero_forcing(variant, m):
    if variant == "lattice":
        return np.zeros(2 * m)
    if variant == "ssm1":
        return 0.0
    return np.zeros((m, 3))


class TestModelConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="spectral", alpha=0.3, eps=0.0, H=1.0, m=4)

    def test_ssm1_needs_even_elements(self):
        with pytest.raises(ConfigError):
            cfg_for("ssm1", m=5)

    def test_full_coupling_variants_refuse_gamma(self):
        for variant in ("lowg", "lattice"):
            with pytest.raises(ConfigError):
                cfg_for(variant, gamma=0.5)

    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            cfg_for("ssm1", gamma=1.5)

    def test_needs_three_elements(self):
        with pytest.raises(ConfigError):
            cfg_for("lowg", m=2)

    @pytest.mark.parametrize("field, value", [
        ("dt", np.nan), ("dt", np.inf), ("H", np.inf), ("H", np.nan),
        ("alpha", np.nan), ("alpha", -np.inf), ("eps", np.nan),
        ("eps", np.inf)])
    def test_refuses_a_value_that_is_not_finite_naming_its_field(
            self, field, value):
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            cfg_for("ssm1", **{field: value})


class TestEquilibria:
    def test_unforced_constant_state_is_stationary(self):
        """With eps = 0 every variant holds a constant amplitude fixed."""
        for variant in VARIANTS:
            cfg = cfg_for(variant, eps=0.0)
            U = 0.9 * np.ones(cfg.m)
            bank = build_bank(cfg)
            dU, _ = variant_rhs(U, zero_forcing(variant, cfg.m), bank, cfg)
            assert np.max(np.abs(dU)) < 1e-14, variant

    def test_lowg_keeps_a_mean_drift_at_finite_eps(self):
        """lowg carries a forcing-variance drift even when the signal is off."""
        cfg = cfg_for("lowg")
        U = np.ones(4)
        dU = build_bank(cfg).skeleton(U, np.zeros((4, 3)))
        expected = 0.01643 * cfg.alpha**2 * cfg.H**2 * cfg.eps**2
        assert np.allclose(dU, expected)

    def test_memory_models_are_clean_at_zero_forcing(self):
        for variant in ("ssm1", "strongquad"):
            cfg = cfg_for(variant)
            U = 0.7 * np.ones(4)
            bank = build_bank(cfg)
            dU, _ = variant_rhs(U, zero_forcing(variant, 4), bank, cfg)
            assert np.max(np.abs(dU)) < 1e-14, variant


class TestCouplingLimits:
    def test_gamma_zero_decouples_unforced_elements(self):
        U = np.array([0.3, -1.2, 0.8, 0.1])
        for variant in ("ssm1", "strongquad"):
            cfg = cfg_for(variant, gamma=0.0)
            bank = build_bank(cfg)
            dU, _ = variant_rhs(U, zero_forcing(variant, 4), bank, cfg)
            assert np.max(np.abs(dU)) < 1e-14, variant

    def test_subgrid_field_hits_neighbours_at_full_coupling(self):
        """At theta = +-pi, gamma = 1, eps = 0 the field interpolates the ring."""
        cfg = cfg_for("ssm1", eps=0.0, gamma=1.0)
        U = np.array([0.3, -1.2, 0.8, 0.1])
        bank = build_bank(cfg)
        outputs = bank.Z[bank.out_rows]
        right = nsm_subgrid_field(U, outputs, cfg, np.pi)
        left = nsm_subgrid_field(U, outputs, cfg, -np.pi)
        assert np.allclose(right, np.roll(U, -1), atol=1e-12)
        assert np.allclose(left, np.roll(U, 1), atol=1e-12)

    def test_subgrid_centre_matches_grid_value(self):
        """At theta = 0 the subgrid field is the grid-value reconstruction
        bit for bit: on random U and chains spanning ten decades, at gamma
        below and at 1, for one state and for an (r, m) history with its
        (4, r, m) outputs."""
        r = 7
        for m, gamma in ((4, 0.6), (4, 1.0), (64, 0.6)):
            cfg = cfg_for("ssm1", m=m, alpha=0.7, eps=0.3, gamma=gamma)
            bank = build_bank(cfg)
            rng = np.random.default_rng(m)
            U = rng.normal(size=(r, m)) * 10.0 ** rng.integers(-6, 4, (r, 1))
            hist = rng.normal(size=(r, bank.n_states)) * 10.0 ** rng.integers(
                -6, 4, (r, 1))
            want = np.empty_like(U)
            for k in range(r):
                bank.unpack(hist[k])
                want[k] = nsm_field_at_grid(U[k], bank, cfg)
                got = nsm_subgrid_field(U[k], bank.Z[bank.out_rows], cfg, 0.0)
                assert np.array_equal(got, want[k])
            outputs = hist.reshape(r, -1, m)[:, bank.out_rows].swapaxes(0, 1)
            got = nsm_subgrid_field(U, outputs, cfg, 0.0)
            assert np.array_equal(got, want)

    def test_outputs_are_the_spec_chains_in_order(self):
        """The reconstruction reads Z1, Z21, Z41, Z61 as the layout's
        first four output rows."""
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        assert [bank.index(*spec) for spec in ssm1_chain_specs(cfg)] == [
            0, 1, 2, 3]

    @pytest.mark.parametrize("variant", ["lowg", "lattice", "strongquad"])
    def test_reconstruction_refuses_other_variants(self, variant):
        cfg = cfg_for(variant)
        with pytest.raises(ConfigError, match=repr(variant)):
            nsm_subgrid_field(np.ones(4), np.zeros((4, 4)), cfg, 0.0)

    @pytest.mark.parametrize("n", [0, 3, 5, 13])
    def test_reconstruction_refuses_other_output_counts(self, n):
        with pytest.raises(ConfigError, match="'ssm1'"):
            nsm_subgrid_field(np.ones(4), np.zeros((n, 4)), cfg_for("ssm1"),
                              0.0)


class TestAlternatingImages:
    def test_specialised_forcing_stencils(self):
        """The alternating sine mode has delta2 image -4 and no gradient."""
        m = 6
        alt = alternating_signs(m)
        modes = np.zeros((m, 3))
        modes[:, 1] = alt
        ex = dict(zip(EXPR_NAMES, strongquad_expressions(modes)))
        assert np.allclose(ex["delta2_phi1"], -4.0 * alt)
        assert np.allclose(ex["mudelta_phi1"], 0.0)
        assert np.allclose(ex["phi0"], 0.0)
        assert np.allclose(ex["delta2_phi0"], 0.0)


class TestChainBanks:
    def test_ssm1_bank_inventory(self):
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        assert len(bank.keys()) == 4
        assert bank.n_states == 7 * cfg.m
        b1 = mode_decay_rate(1, cfg.H)
        assert all(k[0][0] == b1 for k in bank.keys())

    def test_strongquad_bank_inventory(self):
        cfg = cfg_for("strongquad")
        bank = build_bank(cfg)
        assert len(bank.keys()) == 13
        assert bank.n_states == 17 * cfg.m

    def test_bank_keys_are_sorted(self):
        cfg = cfg_for("ssm1")
        for rates, _ in build_bank(cfg).keys():
            assert rates == tuple(sorted(rates))

    def test_pack_unpack_round_trip(self, rng):
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        flat = rng.normal(size=bank.n_states)
        bank.unpack(flat)
        assert np.array_equal(bank.Z.ravel(), flat)
        b1 = mode_decay_rate(1, cfg.H)
        assert np.array_equal(bank.output((b1,), "phi"), flat[: cfg.m])

    def test_bound_to_views_share_memory(self):
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        flat = np.zeros(bank.n_states)
        view = bank.bound_to(flat)
        flat[:] = 1.0
        b1 = mode_decay_rate(1, cfg.H)
        assert np.allclose(view.output((b1,), "phi"), 1.0)

    def test_bound_to_checks_size(self):
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        with pytest.raises(ConfigError):
            bank.bound_to(np.zeros(bank.n_states + 1))

    def test_rhs_flat_needs_all_drives(self):
        cfg = cfg_for("ssm1")
        bank = build_bank(cfg)
        with pytest.raises(ConfigError):
            bank.rhs_flat(np.zeros(bank.n_states), {})


class TestSsm1Structure:
    def test_det_linear_splits_off_memory(self):
        """ssm1_rhs is the linear skeleton plus the four weighted products."""
        cfg = cfg_for("ssm1")
        U = np.array([0.4, -0.2, 0.9, 0.3])
        bank = build_bank(cfg)
        for k in bank.keys():
            bank.states(*k)[:] = 0.1 * np.arange(cfg.m)
        phi = 0.8
        dU, inputs = ssm1_rhs(U, phi, bank, cfg, bank.Z[bank.out_rows])
        expected = bank.skeleton(U, phi)
        lead = cfg.eps**2 * cfg.alpha**2 * U
        weights = {"z1": lead * 0.0195 * cfg.H**2}
        for key, den in (("z21", 15.0), ("z41", 255.0), ("z61", 1295.0)):
            weights[key] = -lead * (8.0 / np.pi**2) / den
        b = {k: mode_decay_rate(k, cfg.H) for k in (1, 2, 4, 6)}
        expected = expected + weights["z1"] * phi * bank.output((b[1],), "phi")
        for pair, key in (((b[1], b[2]), "z21"), ((b[1], b[4]), "z41"),
                          ((b[1], b[6]), "z61")):
            expected = expected + weights[key] * phi * bank.output(pair, "phi")
        assert np.allclose(dU, expected)
        assert np.array_equal(np.broadcast_to(inputs, (1, cfg.m)),
                              np.full((1, cfg.m), phi))

    def test_forcing_alternates_across_elements(self):
        cfg = cfg_for("ssm1", gamma=0.0)
        dU = build_bank(cfg).skeleton(np.ones(4), 1.0)
        a, e, H = cfg.alpha, cfg.eps, cfg.H
        c = e * a * H * (2.0 / np.pi**2 - 0.00363 * a * a * H * H)
        assert np.allclose(dU, -alternating_signs(4) * c)


class TestJointStepping:
    def test_one_step_advances_bank_and_amplitudes(self):
        cfg = cfg_for("ssm1", dt=1e-2)
        cos_t = SignalSpec(kind="harmonic", omega=1.0, phase=0.0, amplitude=1.0)
        times, hist, bank_hist, _ = run_macro_forced(
            cfg, np.ones(4), [cos_t], lambda v, t: float(v[0]), 1e-2, 0)
        assert times[-1] == pytest.approx(1e-2)
        assert np.all(np.isfinite(hist[-1]))
        bank = build_bank(cfg)
        bank.unpack(bank_hist[-1])
        b1 = mode_decay_rate(1, cfg.H)
        assert np.all(bank.output((b1,), "phi") > 0.0)

    def test_forced_run_records_shapes(self):
        cfg = cfg_for("strongquad", dt=1e-2)
        modes = np.zeros((4, 3))
        modes[:, 1] = alternating_signs(4)
        cos_2t = SignalSpec(kind="harmonic", omega=2.0, phase=0.0, amplitude=1.0)
        times, hist, bank_hist, vals = run_macro_forced(
            cfg, np.ones(4), [cos_2t], lambda v, t: v[0] * modes, 0.5, 0,
            record_every=5,
        )
        assert hist.shape == (len(times), 4)
        assert bank_hist.shape == (len(times), build_bank(cfg).n_states)
        assert vals.shape == (len(times), 1)
        assert np.isclose(times[-1], 0.5)

    def test_white_forcing_demands_euler_maruyama(self):
        cfg = cfg_for("ssm1", scheme="rk4")
        with pytest.raises(ConfigError):
            run_macro_forced(cfg, np.ones(4), [SignalSpec(kind="white-noise")],
                             lambda v, t: float(v[0]), 0.1, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_piece(self):
        cfg = cfg_for("lowg", dt=50.0, eps=0.0)
        with pytest.raises(StabilityError, match="grid amplitudes"):
            run_macro_forced(cfg, np.array([1e3, -1e3, 1e3, -1e3]),
                             [SignalSpec(kind="constant", value=0.0)],
                             lambda v, t: np.zeros((4, 3)), 50.0 * 50, 0)


class TestPrintedCoefficients:
    def test_lowg_quadratic_mode_couplings(self):
        """Forcing modes enter lowg at the printed powers of alpha."""
        cfg = cfg_for("lowg", alpha=1.0, eps=1.0, H=1.0)
        U = np.ones(4)
        skeleton = build_bank(cfg).skeleton
        base = skeleton(U, np.zeros((4, 3)))
        for col, expected in (
            (0, 1.0),
            (1, -2.0 / np.pi**2),
            (2, -8.0 / (3.0 * np.pi**4)),
        ):
            modes = np.zeros((4, 3))
            modes[:, col] = 1.0
            out = skeleton(U, modes) - base
            assert np.allclose(out, expected), col

    def test_lattice_restriction_weights(self):
        """psi0 smooths 1:2:1; psi1 defaults to the centred difference."""
        cfg = cfg_for("lattice", alpha=0.0, eps=1.0, H=1.0)
        phi = np.zeros(8)
        phi[1] = 1.0
        out = build_bank(cfg).skeleton(np.zeros(4), phi)
        assert np.allclose(out, [0.25, 0.25, 0.0, 0.0])

    def test_lattice_advective_forcing_uses_psi1(self):
        cfg = cfg_for("lattice", alpha=2.0, eps=1.0, H=1.0)
        phi = np.zeros(8)
        phi[1] = 1.0
        U = np.ones(4)
        skeleton = build_bank(cfg).skeleton
        out = skeleton(U, phi) - skeleton(U, np.zeros(8))
        # psi1 at element 0 is +1/2, at element 1 is -1/2
        coupling = -(cfg.alpha * cfg.H / 8.0)
        assert np.allclose(out, [0.25 + 0.5 * coupling, 0.25 - 0.5 * coupling,
                                 0.0, 0.0])

    def test_strongquad_registry_size(self):
        from holodisc.macromodel import strongquad_quadratic_terms

        cfg = cfg_for("strongquad")
        terms = strongquad_quadratic_terms(cfg)
        assert len(terms) == 33
        rates = {t.rates for t in terms}
        b1 = mode_decay_rate(1, cfg.H)
        b2 = mode_decay_rate(2, cfg.H)
        assert (b1,) in rates and (b1, b2) in rates and (b2, b2) in rates
