"""Memory chains, their drifts, and the integration-by-parts algebra."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden_runs
from holodisc import (
    ConfigError,
    ConvChain,
    ConvTerm,
    ReductionError,
    canonical_rates,
    integrate_chain,
    integrate_chains,
    phasor_drift,
    reduce_by_parts,
)

rates_st = st.lists(
    st.floats(0.5, 5.0, allow_nan=False), min_size=1, max_size=3
).map(tuple)


class TestConvChain:
    def test_needs_rates(self):
        with pytest.raises(ConfigError):
            ConvChain(())

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigError):
            ConvChain((1.0, -2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rates_must_be_finite(self, bad, at):
        rates = [2.0, 3.0, 1.0]
        rates[at] = bad
        with pytest.raises(ConfigError, match=f"must be positive and finite, "
                                              f"got {bad}"):
            ConvChain(tuple(rates))
        with pytest.raises(ConfigError, match=f"got {bad}"):
            canonical_rates(rates)

    def test_steady_gain_is_product_of_inverses(self):
        chain = ConvChain((2.0, 5.0))
        assert np.isclose(chain.steady_gain(), 0.1)

    def test_transfer_magnitude(self):
        chain = ConvChain((1.0, 3.0))
        w = 2.0
        expected = 1.0 / (np.hypot(1.0, w) * np.hypot(3.0, w))
        assert np.isclose(abs(chain.transfer(w)), expected)


class TestChainDynamics:
    def test_unforced_decay_is_exponential(self):
        b = 2.5
        times, hist = integrate_chain((b,), lambda t: 0.0, 1.0, 1e-3, states0=[1.0])
        assert np.allclose(hist[:, 0], np.exp(-b * times), atol=1e-9)

    def test_constant_drive_reaches_steady_gain(self):
        rates = (1.0, 4.0)
        times, hist = integrate_chain(rates, lambda t: 3.0, 15.0, 2e-3)
        assert np.isclose(hist[-1, 0], 3.0 / 4.0, atol=1e-6)

    def test_harmonic_steady_state_matches_transfer(self):
        """After the transient the output is Re[T(w) e^{iwt}]."""
        rates = (1.0, 3.0)
        w = 2.0
        chain = ConvChain(rates)
        times, hist = integrate_chain(rates, lambda t: np.cos(w * t), 20.0, 1e-3)
        tail = times >= 12.0
        expected = np.real(chain.transfer(w) * np.exp(1j * w * times[tail]))
        assert np.max(np.abs(hist[tail, 0] - expected)) < 1e-6

    def test_euler_scheme_is_first_order(self):
        b = 2.0
        exact = np.exp(-b)
        errs = []
        for dt in (1e-2, 5e-3):
            _, hist = integrate_chain(
                (b,), lambda t: 0.0, 1.0, dt, states0=[1.0], scheme="euler"
            )
            errs.append(abs(hist[-1, 0] - exact))
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_vectorised_over_elements(self):
        times, hist = integrate_chain(
            (1.0,), lambda t: np.array([1.0, -1.0, 0.5]), 2.0, 1e-3,
            states0=np.zeros((1, 3)),
        )
        assert hist.shape == (2001, 1, 3)
        assert np.allclose(hist[-1, 0], hist[-1, 0, 0] * np.array([1.0, -1.0, 0.5]))


class TestCanonicalisation:
    def test_canonical_rates_sorts(self):
        assert canonical_rates((3.0, 1.0, 2.0)) == (1.0, 2.0, 3.0)

    def test_equivalence_ignores_order(self):
        assert canonical_rates((3.0, 1.0)) == canonical_rates((1.0, 3.0))
        assert canonical_rates((3.0, 1.0)) != canonical_rates((1.0,))
        assert canonical_rates((3.0, 1.0)) != canonical_rates((1.0, 2.0))

    def test_packed_states_must_match_their_chains(self):
        with pytest.raises(ConfigError, match="do not fit"):
            integrate_chains([(1.0,), (2.0, 3.0)], lambda t: 0.0, 1.0, 0.1,
                             states0=[np.zeros(2), np.zeros(1)])
        with pytest.raises(ConfigError, match="at least one chain"):
            integrate_chains([], lambda t: 0.0, 1.0, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(rates_st)
    def test_output_is_permutation_invariant(self, rates):
        drive = lambda t: np.cos(1.3 * t)
        _, fwd = integrate_chain(rates, drive, 1.0, 1e-3)
        _, rev = integrate_chain(rates[::-1], drive, 1.0, 1e-3)
        assert np.max(np.abs(fwd[:, 0] - rev[:, 0])) < 1e-9


class TestHarmonicDrifts:
    """phasor_drift on single cosines: L = exp(i phase), R = 1 averages
    cos(w t + phase) * Z[rates] cos(w t)."""

    def test_single_rate_formula(self):
        b, w, ph = 1.5, 2.0, 0.7
        expected = 0.5 * (b * np.cos(ph) - w * np.sin(ph)) / (b * b + w * w)
        assert np.isclose(phasor_drift((b,), w, np.exp(1j * ph), 1.0), expected)

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_drift_rates_must_be_positive_and_finite(self, at, bad):
        rates = [1.0, 4.0]
        rates[at] = bad
        with pytest.raises(ConfigError, match="^every chain rate of .* must be "):
            phasor_drift(rates, 2.0, np.exp(0.4j), 1.0)

    def test_two_rate_resonant_null(self):
        """beta_k beta_l = omega^2 at zero phase kills the drift."""
        assert abs(phasor_drift((1.0, 4.0), 2.0, 1.0, 1.0)) < 1e-15

    def test_phasor_drift_reduces_to_scalar_formulas(self):
        b, w, ph = 1.2, 0.8, 0.3
        assert np.isclose(
            phasor_drift((b,), w, np.exp(1j * ph), 1.0),
            (b * np.cos(ph) - w * np.sin(ph)) / (2.0 * (b**2 + w**2)),
        )
        bl = 2.1
        num = (b * bl - w**2) * np.cos(ph) - w * (b + bl) * np.sin(ph)
        assert np.isclose(
            phasor_drift((b, bl), w, np.exp(1j * ph), 1.0),
            num / (2.0 * (b**2 + w**2) * (bl**2 + w**2)),
        )

    def test_phasor_drift_broadcasts(self):
        L = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        out = phasor_drift((1.0,), 2.0, L, 1.0)
        assert out.shape == (2,)
        assert np.isclose(out[0], -out[1])

    def test_drift_agrees_with_simulation(self):
        b, w, ph = 1.0, 2.0, 0.7
        times, hist = integrate_chain(
            (b,), lambda t: np.cos(w * t), 8.0 + 16.0 * np.pi, 2e-3
        )
        sel = times >= 8.0
        prod = np.cos(w * times[sel] + ph) * hist[sel, 0]
        avg = np.trapezoid(prod, times[sel]) / (times[sel][-1] - times[sel][0])
        assert np.isclose(avg, phasor_drift((b,), w, np.exp(1j * ph), 1.0),
                          rtol=1e-2)


class TestByParts:
    def probe(self):
        return ConvTerm(
            coeff=1.5, left_rates=(1.0, 2.0), right_rates=(3.0,),
            left="rho", right="mu",
        )

    def test_canonical_terms_have_one_bare_side(self):
        red = reduce_by_parts(self.probe())
        for term in red.canonical:
            assert term.left_rates == () or term.right_rates == ()

    def test_boundary_terms_keep_both_memories(self):
        red = reduce_by_parts(self.probe())
        for term in red.boundary:
            assert term.left_rates != () and term.right_rates != ()

    def test_trace_records_every_strip(self):
        red = reduce_by_parts(self.probe())
        assert len(red.trace) >= 1
        assert all(isinstance(line, str) and line for line in red.trace)

    def test_to_dict_round_trip(self):
        d = reduce_by_parts(self.probe()).to_dict()
        assert set(d) >= {"original", "boundary", "canonical"}
        assert d["original"]["coeff"] == 1.5

    @settings(max_examples=50)
    @given(rates_st, rates_st, st.floats(-2.0, 2.0, allow_nan=False))
    def test_steady_state_conservation(self, left, right, coeff):
        """Under constant unit signals the canonical sum equals the original.

        At steady state every boundary product is constant, so its time
        derivative drops and the identity pins the canonical coefficients:
        coeff / (prod left * prod right) = sum c_i / prod(surviving rates).
        """
        term = ConvTerm(
            coeff=coeff, left_rates=left, right_rates=right,
            left="rho", right="mu",
        )
        red = reduce_by_parts(term)
        original = coeff / (np.prod(left) * np.prod(right))
        total = 0.0
        for t in red.canonical:
            total += t.coeff / (
                np.prod(t.left_rates or (1.0,)) * np.prod(t.right_rates or (1.0,))
            )
        assert np.isclose(total, original, rtol=1e-10, atol=1e-12)

    def test_reductions_match_their_recording(self):
        """Merged boundary and canonical terms, recorded before the merge
        was rewritten, compared exactly."""
        with open(golden_runs.REDUCTION_DATA) as fh:
            assert golden_runs.reduction_runs() == json.load(fh)

    @pytest.mark.parametrize("side", ["left_rates", "right_rates"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2.0])
    def test_rates_must_be_positive_and_finite(self, side, bad):
        rates = {"left_rates": (1.0, 2.0), "right_rates": (3.0,), side: (1.0, bad)}
        with pytest.raises(ReductionError, match=f"{side} .* must be positive "
                                                 f"and finite, got {bad}"):
            ConvTerm(coeff=1.0, **rates)

    def test_repeated_rates_are_legal(self):
        term = ConvTerm(
            coeff=1.0, left_rates=(2.0, 2.0), right_rates=(2.0,),
            left="rho", right="mu",
        )
        red = reduce_by_parts(term)
        assert red.canonical
