"""The one time loop: march, the whole-steps rule, and the runs built on them."""

import json

import numpy as np
import pytest

import golden_runs
from holodisc import (
    ConfigError,
    ModelConfig,
    SignalSpec,
    StabilityError,
    build_weak_model,
    chain_rhs,
)
from holodisc.convolution import (
    chain_layout,
    integrate_chain,
    integrate_chains,
    packed_chain_rhs,
)
from holodisc.harness import EXPERIMENTS, spec_from_dict
from holodisc.microscale import exact_steps, march, stepper


class TestMarch:
    def test_records_start_every_kth_and_last_step(self):
        times, hist = march(lambda y, t: y + 1.0, np.zeros(2), 0.5, 7, 0.25,
                            record_every=3)
        assert times.tolist() == [0.5, 1.25, 2.0, 2.25]
        assert hist[:, 0].tolist() == [0.0, 3.0, 6.0, 7.0]

    def test_advance_sees_the_step_start_times(self):
        seen = []
        march(lambda y, t: seen.append(t) or y, np.ones(1), 0.25, 4, 0.1)
        assert seen == [0.25 + k * 0.1 for k in range(4)]

    def test_zero_steps_record_the_start_only(self):
        times, hist = march(lambda y, t: y, np.arange(3.0), 1.0, 0, 0.1)
        assert times.tolist() == [1.0]
        assert hist.tolist() == [[0.0, 1.0, 2.0]]

    def test_record_every_must_be_positive(self):
        with pytest.raises(ConfigError, match="record_every"):
            march(lambda y, t: y, np.ones(1), 0.0, 3, 0.1, record_every=0)

    def test_names_the_first_bad_block_upstream(self):
        def advance(y, t):
            out = y.copy()
            if t >= 0.2:
                out[3:] = np.nan
            return out

        blocks = (("driver", slice(0, 1)), ("middle", slice(1, 3)),
                  ("lower", slice(3, 4)), ("last", slice(4, 5)))
        msg = r"^lower went non-finite at t = 0\.3; reduce dt$"
        with pytest.raises(StabilityError, match=msg):
            march(advance, np.zeros(5), 0.0, 10, 0.1, blocks=blocks)

    def test_default_block_is_the_state(self):
        with pytest.raises(StabilityError, match="^state went non-finite"):
            march(lambda y, t: y * np.inf, np.ones(2), 0.0, 2, 0.1)

    # The screen is one sum of squares; these run with warnings as errors,
    # so it must not warn when the sum overflows or an entry is not finite.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_a_finite_state_whose_squares_overflow_marches_on(self, shape):
        y0 = np.full(shape, 1e200)
        times, hist = march(lambda y, t: -y, y0, 0.0, 5, 0.1)
        assert times.size == 6
        assert np.array_equal(hist, [(-1.0) ** k * y0 for k in range(6)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_entry_of_a_levels_by_m_state_is_named(self, bad):
        def advance(y, t):
            out = y + 1.0
            if t >= 0.2:
                out[2, 1] = bad
            return out

        blocks = (("upper", slice(0, 2)), ("lower", slice(2, 4)))
        msg = r"^lower went non-finite at t = 0\.3; reduce dt$"
        with pytest.raises(StabilityError, match=msg):
            march(advance, np.zeros((4, 3)), 0.0, 10, 0.1, blocks=blocks)


class TestExactSteps:
    def test_counts_whole_steps(self):
        assert exact_steps(1.2, 0.3) == 4
        assert exact_steps(0.0, 0.1) == 0

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.3), (-1.0, 0.5), (1.0, 0.0)])
    def test_refuses_other_steps(self, t_end, dt):
        with pytest.raises(ConfigError):
            exact_steps(t_end, dt)

    def test_weak_run_and_integrate_refuse_a_partial_step(self):
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                          m=4, dt=0.3)
        weak = build_weak_model(cfg, SignalSpec(kind="harmonic"))
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            weak.run(np.ones(4), 1.0)
        with pytest.raises(ConfigError, match=r"1\.0.*0\.3"):
            march(stepper(lambda v, s: -v, 0.3), np.ones(2),
                  0.0, exact_steps(1.0, 0.3), 0.3)
        times, _ = weak.run(np.ones(4), 1.2)
        assert times.size == 5 and times[-1] == pytest.approx(1.2)

    def test_chain_integrators_keep_nearest_step_rounding(self):
        times, hist = integrate_chain((1.0,), np.cos, 1.0, 0.3)
        assert times.tolist() == [0.0, 0.3, 0.6, 0.3 * 3]
        assert hist.shape == (4, 1)


class TestPackedChainRhs:
    def test_matches_chain_rhs_per_chain(self):
        chains = [(3.0, 1.0), (2.0,), (0.5, 4.0, 2.5)]
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(6, 5))
        drive = rng.normal(size=5)
        got = packed_chain_rhs(Z, chain_layout(chains, 2), drive,
                               np.empty((7, 5)))
        want = np.concatenate([chain_rhs(Z[a:b], rates, drive) for rates, (a, b)
                               in zip(chains, [(0, 2), (2, 3), (3, 6)])])
        assert np.array_equal(got, want)


class TestLoopGolden:
    def test_loops_match_their_recording(self):
        """fig1, emergence, quadrature and a march run, recorded before march."""
        with open(golden_runs.LOOPS_DATA) as fh:
            assert golden_runs.loop_runs() == json.load(fh)


class TestFig1Scheme:
    def test_euler_differs_from_rk4(self):
        reports = {
            scheme: EXPERIMENTS["fig1"](spec_from_dict(
                "fig1", {"t1": 2.0, "dt": 0.01, "scheme": scheme}))
            for scheme in ("rk4", "euler")
        }
        assert reports["euler"].config["scheme"] == "euler"
        assert reports["euler"].metrics != reports["rk4"].metrics
        assert reports["euler"].metrics["grid_points"] == 32.0

    def test_unknown_scheme_is_refused(self):
        spec = spec_from_dict("fig1", {"t1": 2.0, "scheme": "heun"})
        with pytest.raises(ConfigError, match="heun"):
            EXPERIMENTS["fig1"](spec)


@pytest.mark.filterwarnings("error")
class TestBlowupNaming:
    def test_march_names_an_overflowing_step_without_a_warning(self):
        with pytest.raises(StabilityError,
                           match=r"^state went non-finite at t = 0\.1;"):
            march(lambda y, t: y * 1e200, np.array([1e200, 1.0]), 0.0, 3, 0.1)

    def test_integrate_chains_names_the_chain(self):
        with pytest.raises(StabilityError,
                           match=r"memory chain \(1000\.0, 2\.0\) went non-finite"):
            integrate_chains([(1.0,), (1000.0, 2.0)], lambda t: 1.0, 10.0, 0.01)

    def test_weak_run_names_the_amplitudes(self):
        cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                          m=4, dt=5.0)
        weak = build_weak_model(cfg, SignalSpec(kind="harmonic"))
        with pytest.raises(StabilityError, match="^grid amplitudes went non-finite"):
            weak.run(1.0 + 0.1 * np.arange(4), 500.0)

    @pytest.mark.parametrize("dt, block", [(0.1, "fine field"),
                                           (0.5, "signal driver")])
    def test_fig1_names_the_block(self, dt, block):
        spec = spec_from_dict("fig1", {"dt": dt})
        with pytest.raises(StabilityError, match=f"^{block} went non-finite"):
            EXPERIMENTS["fig1"](spec)
