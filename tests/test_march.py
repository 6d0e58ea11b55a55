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
    build_bank,
    build_weak_model,
    chain_rhs,
    run_paired,
)
from holodisc.convolution import (
    chain_layout,
    integrate_chain,
    integrate_chains,
    packed_chain_rhs,
)
from holodisc.forcing import HarmonicSignal
from holodisc.harness import EXPERIMENTS, spec_from_dict
from holodisc.microscale import (
    check_scheme_legal, exact_steps, march, plain, stepper)


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
            march(stepper(plain(lambda v, s: -v), 0.3), np.ones(2),
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


class TestOneSchemeCheck:
    MESSAGE = ("^unknown scheme 'rk5'; expected one of "
               r"\('rk4', 'euler', 'euler-maruyama'\)$")

    def cfg(self, scheme):
        return ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                           m=4, dt=0.1, scheme=scheme)

    def test_every_entry_refuses_an_unknown_scheme_alike(self):
        refusals = {
            "ModelConfig": lambda: self.cfg("rk5"),
            "stepper": lambda: stepper(lambda u, t: -u, 0.1, "rk5"),
            "check_scheme_legal": lambda: check_scheme_legal("rk5", False),
            "integrate_chains": lambda: integrate_chains(
                [(1.0,)], lambda t: 1.0, 1.0, 0.1, scheme="rk5"),
            "run_paired": lambda: run_paired(
                [SignalSpec(kind="constant")], 0, 1.0, 0.1, "rk5"),
        }
        for name, refuse in refusals.items():
            with pytest.raises(ConfigError, match=self.MESSAGE):
                refuse()

    def test_a_weak_model_refuses_it_past_its_config(self):
        """The frozen config is forced to rk5 to reach the model's own check."""
        cfg = self.cfg("rk4")
        object.__setattr__(cfg, "scheme", "rk5")
        with pytest.raises(ConfigError, match=self.MESSAGE):
            build_weak_model(cfg, SignalSpec(kind="harmonic"))


class TestChainRows:
    @pytest.mark.parametrize("variant, m", [("ssm1", 4), ("strongquad", 8)])
    def test_layout_slices_are_the_bank_rows_and_index_the_histories(
            self, variant, m):
        cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05, H=np.pi / 2.0,
                          m=m)
        bank = build_bank(cfg)
        chains = [rates for rates, _ in bank.keys()]
        rows = chain_layout(chains, 2)[2]
        assert rows == list(bank.rows.values())
        assert [r.start for r in rows] == bank.out_rows.tolist()
        drive = lambda t: np.cos(2.0 * t)
        _, hists = integrate_chains(chains, drive, 0.5, 0.01)
        packed = np.concatenate(hists, axis=1)
        for rates, row, hist in zip(chains, rows, hists):
            assert np.array_equal(packed[:, row], hist)
            assert np.array_equal(integrate_chain(rates, drive, 0.5, 0.01)[1], hist)


class TestLoopGolden:
    def test_loops_match_their_recording(self):
        """fig1, emergence, quadrature and a march run, recorded before march."""
        with open(golden_runs.LOOPS_DATA) as fh:
            assert golden_runs.loop_runs() == json.load(fh)

    def test_emergence_metrics_keep_their_order(self):
        """The recording sorts its keys; the report's own order is pinned here."""
        report = EXPERIMENTS["emergence"](spec_from_dict("emergence", None))
        assert list(report.metrics) == [
            f"{kind}_{name}_{mode}"
            for kind, modes in (("continuum", ("k1", "k2")),
                                ("lattice", ("f1", "f2")))
            for mode in modes
            for name in ("rate", "target", "rel_err")
        ]
        assert list(report.checks) == [
            "continuum_k1_within_2pct", "continuum_k2_within_2pct",
            "lattice_f1_within_2pct", "lattice_f2_within_2pct"]


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

    @pytest.mark.parametrize("scheme, drive", [
        *(pytest.param(s, lambda t: 1.0, id=s) for s in ("rk4", "euler")),
        *(pytest.param(s, HarmonicSignal(1.0, 2.0, 0.3).value, id=f"{s}-harmonic")
          for s in ("rk4", "euler"))])
    def test_float_run_raises_the_array_runs_error(self, scheme, drive):
        """1-D states (the generated float run, a harmonic drive inlined)
        and the same chains as (levels, 1) states (march) blow up with the
        one message."""
        chains = [(1.0,), (1000.0, 2.0)]
        messages = []
        for states0 in (None, [np.zeros((len(r), 1)) for r in chains]):
            with pytest.raises(StabilityError) as err:
                integrate_chains(chains, drive, 10.0, 0.01, states0, scheme)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("memory chain (1000.0, 2.0) went non-finite")

    def test_float_run_marches_on_when_the_sum_of_squares_overflows(self):
        """Entries near 1e160 are finite though their sum of squares is not:
        the float run keeps stepping, as march does, bit for bit."""
        chains = [(1.0,), (2.0, 3.0)]
        z0 = [np.array([1e160]), np.array([-2e160, 1.5e160])]
        times, flat = integrate_chains(chains, np.cos, 0.5, 0.01, z0)
        _, rows = integrate_chains(chains, np.cos, 0.5, 0.01,
                                   [z[:, None] for z in z0])
        assert len(times) == 51 and not np.isfinite(np.vdot(z0[1], z0[1]))
        for f, r in zip(flat, rows):
            assert np.isfinite(f).all() and abs(f[-1, 0]) > 1e159
            assert np.array_equal(f, r[..., 0])

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
