"""run_paired's compiled stage against the concatenating stage it replaced.

``reference_stage`` is the stage derivative as the paired engine computed it
before the stage was compiled once per run: the signals' driver
derivatives through ``lorenz_point`` on the driver slices and their values
through ``Signal.value``, the fine rhs, the variant's rhs on a freshly
bound bank and the bank's ``rhs_flat``, joined by ``np.concatenate``.  It
builds its own signals and bank, so it shares no set-up with the compiled
stage, and clears the bank's ``float_rhs``, so ssm1's dU is the array
path's at every ring and a float body is checked against it.  Each case gives its fine side as the grid's own (kind, spacing or
H, alpha, eps, form), which ``reference_stage`` hands to ``burgers_rhs`` or
``reference_lattice_rhs`` and ``fine_side`` binds into the FineSide the stage runs.
``variant_rhs`` is the per-variant dispatch the stage made before
``stage_block`` bound each variant's rhs, kept here as a reference for the
tests; it hands the rhs the bank's own chain outputs, and lowg's and
lattice's forcing to the bank's skeleton.  ``nsm_field_at_grid``
is the grid-value reconstruction as it was before it became
``nsm_subgrid_field`` at theta = 0, reading the bank's chains by key.
``unbound_ssm1_det_linear`` and ``unbound_strongquad_det_linear``
are the skeletons as they were before build_bank bound their constants,
and ``reference_ssm1_weights`` ssm1's four memory weights as a dict.
"""

import contextlib
import dataclasses
import gc
import itertools
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodisc import (
    CoarseSide,
    FineSide,
    ModelConfig,
    PairedRun,
    SignalSpec,
    StabilityError,
    VARIANTS,
    build_bank,
    build_weak_model,
    burgers_rhs,
    make_signal,
    ssm1_rhs,
    strongquad_rhs,
)
from holodisc import harness, macromodel
from holodisc.harness import _compile_stage, run_paired
from holodisc.forcing import lorenz_point
from holodisc.macromodel import alternating_signs, ssm1_chain_specs, stage_block
from holodisc.microscale import burgers_form, exact_steps, lattice_form, march, stepper
from holodisc.stencil import ring_images
from test_fine_forms import bound_stage, interleaved_order, reference_lattice_rhs

LORENZ = SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0)


def variant_rhs(U, forcing_value, bank, cfg):
    """Dispatch to the variant's evolution; returns (dU, bank drive stack)."""
    if cfg.variant in ("lowg", "lattice"):
        return bank.skeleton(U, forcing_value), np.zeros((0, cfg.m))
    outputs = bank.Z[bank.out_rows]
    if cfg.variant == "ssm1":
        return ssm1_rhs(U, forcing_value, bank, cfg, outputs)
    return strongquad_rhs(U, forcing_value, bank, cfg, outputs)


def nsm_field_at_grid(U, bank, cfg):
    """Reconstructed fine-scale value at each element's centre:

        u_j(X_j) = U_j -+ eps alpha U_j [ (2H/pi^2) Z1
                   - (4/H)(Z21/3 - Z41/15 + Z61/35) ] phi.
    """
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    U = np.asarray(U, dtype=float)
    alt = alternating_signs(cfg.m)
    z1, z21, z41, z61 = [bank.output(*spec) for spec in ssm1_chain_specs(cfg)]
    offset = (2.0 * H / np.pi**2) * z1 - (4.0 / H) * (
        z21 / 3.0 - z41 / 15.0 + z61 / 35.0
    )
    return U + alt * e * a * U * offset


def fine_side(u0, profiles, grid):
    """The FineSide whose rhs is grid's bound form."""
    kind, h, alpha, eps, form = grid
    rhs = (burgers_form(h, alpha, eps, form) if kind == "burgers"
           else lattice_form(h, alpha, eps))
    return FineSide(u0, profiles, rhs)


def reference_stage(signals, fine, grid, coarse, y, t, draws=None):
    sigs = [make_signal(s) for s in signals]
    ends = np.cumsum([0] + [s.driver_dim for s in sigs]).tolist()
    drivers = [y[a:b] for a, b in zip(ends[:-1], ends[1:])]
    vals = np.array([
        s.value(t, d) if draws is None or draws[i] is None else draws[i]
        for i, (s, d) in enumerate(zip(sigs, drivers))
    ])
    out = [np.concatenate([np.array(lorenz_point(*d)) if s.driver_dim
                           else np.zeros(0)
                           for s, d in zip(sigs, drivers)])]
    pos = ends[-1]
    if fine is not None:
        u = y[pos:pos + fine.u0.size]
        pos += u.size
        phi = fine.profiles.T @ vals
        kind, h, alpha, eps, form = grid
        if kind == "burgers":
            out.append(burgers_rhs(u, h, alpha, eps, phi, form))
        else:
            out.append(reference_lattice_rhs(u, h, alpha, eps, phi))
    if coarse is not None:
        cfg = coarse.cfg
        bank = build_bank(cfg)
        bank.float_rhs = None
        flat = y[pos:pos + bank.n_states]
        dU, drives = variant_rhs(y[pos + bank.n_states:],
                                 coarse.assemble(vals, t),
                                 bank.bound_to(flat), cfg)
        out += [bank.rhs_flat(flat, drives), dU]
    return np.concatenate(out)


def fig3_sides(scheme="rk4"):
    n, m = 32, 4
    x = (np.pi / 16.0) * np.arange(n)
    grid = ("burgers", np.pi / 16.0, 0.3, 0.05, "advective")
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=1e-3, scheme=scheme)
    return (fine_side(np.ones(n), np.cos(2.0 * x)[None], grid), grid,
            CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0])))


def lattice_sides():
    H, m, a, e = 1.0, 16, 0.8, 0.8
    x = (H / 2.0) * np.arange(2 * m)
    L = m * H
    profiles = np.stack([1.0 + 0.8 * np.cos(2.0 * np.pi * x / L + 0.7),
                         0.6 * np.cos(4.0 * np.pi * x / L + 1.9)])
    grid = ("lattice", H, a, e, None)
    cfg = ModelConfig(variant="lattice", alpha=a, eps=e, H=H, m=m, dt=2e-3)
    return (fine_side(np.full(2 * m, 0.4), profiles, grid), grid,
            CoarseSide(cfg, np.full(m, 0.4), lambda v, t: profiles.T @ v))


def strongquad_side(m):
    pattern = np.random.default_rng(m).normal(size=(m, 3))
    cfg = ModelConfig(variant="strongquad", alpha=0.3, eps=0.05,
                      H=np.pi / 2.0, m=m, dt=0.01)
    return None, None, CoarseSide(cfg, np.ones(m),
                                  lambda v, t: pattern * v[0])


UNIT_GRID = ("burgers", 1.0, 0.5, 0.7, "advective")
HARMONICS = [SignalSpec(kind="harmonic", omega=0.37, phase=0.3),
             SignalSpec(kind="harmonic", omega=0.23, phase=1.1)]
WHITE = SignalSpec(kind="white-noise", intensity=0.8)
# Profiles with signed zeros: np.dot(profiles.T, vals) gives +0.0 where
# p * v is -0.0, so a stage must keep the product's bits, not p * v's.
SIGNED_ROWS = np.array([[0.5, -0.0, 2.0, 0.0, -1.5, 3.0, -0.0, 1.0],
                        [-0.0, 1.25, 0.0, -2.0, 0.75, -0.0, 0.5, 0.0]])


def ssm1_side(scheme, assemble):
    cfg = ModelConfig(variant="ssm1", alpha=0.7, eps=-0.3, gamma=0.6, H=1.1,
                      m=4, dt=1e-3, scheme=scheme)
    return CoarseSide(cfg, np.ones(4), assemble)


def fig1_sides(n):
    grid = ("burgers", 2.0 * np.pi / n, 0.3, 0.05, "advective")
    return fine_side(np.ones(n), np.eye(n), grid), grid, None


CASES = {
    "fig3": lambda: ([LORENZ], *fig3_sides()),
    "lattice-pair": lambda: (HARMONICS, *lattice_sides()),
    "strongquad-m4": lambda: ([HARMONICS[0]], *strongquad_side(4)),
    "strongquad-m64": lambda: ([HARMONICS[0]], *strongquad_side(64)),
    "strongquad-m1024": lambda: ([HARMONICS[0]], *strongquad_side(1024)),
    "lorenz-harmonic-lorenz": lambda: (
        [LORENZ, HARMONICS[0], SignalSpec(kind="lorenz", xi0=-3.0)],
        fine_side(np.ones(8), np.eye(3, 8), UNIT_GRID), UNIT_GRID, None),
    "conservative-two-rows": lambda: (
        [*lorenz_specs([0.5]), SignalSpec(kind="constant", value=-0.0)],
        fine_side(np.ones(8), SIGNED_ROWS, UNIT_GRID[:4] + ("conservative",)),
        UNIT_GRID[:4] + ("conservative",), None),
    "skew-identity-ssm1": lambda: (
        [HARMONICS[1], SignalSpec(kind="constant", value=-0.0), *lorenz_specs([1.0])],
        fine_side(np.ones(3), np.eye(3), UNIT_GRID[:4] + ("skew",)),
        UNIT_GRID[:4] + ("skew",), ssm1_side("rk4", lambda v, t: float(v[2]))),
    "white-one-row": lambda: (
        [WHITE], fine_side(np.ones(6), SIGNED_ROWS[:1, :6], UNIT_GRID),
        UNIT_GRID, None),
    "white-lorenz-harmonic-ssm1": lambda: (
        [WHITE, *lorenz_specs([-2.0]), HARMONICS[0]],
        fine_side(np.ones(8), np.vstack([SIGNED_ROWS, SIGNED_ROWS[:1]]), UNIT_GRID),
        UNIT_GRID, ssm1_side("euler-maruyama",
                             lambda v, t: float(v[1] - 0.5 * v[0]))),
    "fig1-32": lambda: (lorenz_specs([1.0] * 32), *fig1_sides(32)),
    "two-lorenz-signed-rows-ssm1": lambda: (
        lorenz_specs([0.5, -2.0]),
        fine_side(np.ones(8), SIGNED_ROWS, UNIT_GRID[:4] + ("conservative",)),
        UNIT_GRID[:4] + ("conservative",),
        ssm1_side("rk4", lambda v, t: float(v[1] - 0.5 * v[0]))),
    "unit-lorenz-identity-skew-ssm1": lambda: (
        lorenz_specs([1.0] * 3),
        fine_side(np.ones(3), np.eye(3), UNIT_GRID[:4] + ("skew",)),
        UNIT_GRID[:4] + ("skew",), ssm1_side("rk4", lambda v, t: float(v[2]))),
    "fig3-harmonic": lambda: ([HARMONICS[0]], *fig3_sides()),
    "fig3-fine-alone": lambda: ([LORENZ], *fig3_sides()[:2], None),
    "fig3-coarse-alone": lambda: ([LORENZ], None, None, fig3_sides()[2]),
}
# The cases whose runs take the generated float loop, fig3's layout: Lorenz
# signals only, a Burgers ring and an ssm1 bank in at most _FLOAT_STATE
# entries.  The rest march the array stage: another signal kind, one side
# alone, a lattice or strongquad side, or fig1's 128 entries.
FLOAT_CASES = {"fig3", "two-lorenz-signed-rows-ssm1",
               "unit-lorenz-identity-skew-ssm1"}


def takes_float_loop(signals, fine, coarse, scheme="rk4", dt=1e-3):
    """Whether a one-step run_paired run of these sides runs the float loop:
    whether it never calls march (the step may blow up)."""
    with mock.patch.object(harness, "march", wraps=march) as marched, \
            contextlib.suppress(StabilityError):
        run_paired(signals, 3, dt, dt, scheme, fine, coarse)
    return not marched.called


def with_scheme(coarse, scheme):
    """coarse with its config stepping by scheme (None stays None)."""
    return coarse and coarse._replace(
        cfg=dataclasses.replace(coarse.cfg, scheme=scheme))


def float_and_array_runs(signals, fine, coarse, scheme, n_steps, record_every,
                         dt=1e-3, seed=3):
    """The run_paired outcome, its five histories or its error's type and
    message, as the float loop (if the layout takes it) and as the array
    stage (harness._FLOAT_STATE = 0) run it, with no RuntimeWarning."""
    outcomes = []
    for cap in (harness._FLOAT_STATE, 0):
        with mock.patch.object(harness, "_FLOAT_STATE", cap), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                run = run_paired(signals, seed, n_steps * dt, dt, scheme, fine,
                                 with_scheme(coarse, scheme), record_every)
                outcomes.append(run)
            except StabilityError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


def same_run(a, b):
    """Two outcomes of float_and_array_runs agree: the same error, or every
    history (or None) byte for byte, shapes and dtypes included."""
    if not isinstance(a, PairedRun) or not isinstance(b, PairedRun):
        return a == b
    return all((x is None and y is None) or (
        x is not None and y is not None and x.shape == y.shape
        and x.dtype == y.dtype and x.tobytes() == y.tobytes())
        for x, y in zip(a, b))


@pytest.mark.parametrize("case", list(CASES))
def test_stage_is_the_concatenating_stage_bit_for_bit(case):
    """reference_stage runs on the interleaved drivers, one (xi, eta, zeta)
    per Lorenz signal (a permutation only with two Lorenz signals or more);
    a white signal's draws are given, under euler-maruyama.  The last time
    puts signed zeros in the state and the draws: -0.0 drivers, so values
    of -0.0, and a fine field of +0.0 points between -0.0 neighbours, whose
    derivative before its forcing is -0.0, so it shows the forcing's sign."""
    signals, fine, grid, coarse = CASES[case]()
    dt = coarse.cfg.dt if coarse is not None else 1e-3
    white = any(s.kind == "white-noise" for s in signals)
    scheme = "euler-maruyama" if white else "rk4"
    joint = _compile_stage(signals, 5, dt, scheme, fine, coarse)
    assert (joint.loop is not None) == (case in FLOAT_CASES)
    order = interleaved_order(joint.sigset.total_dim // 3, joint.y0.size)
    rng = np.random.default_rng(len(case))
    for t in (0.0, 0.37, 2.5):
        y = joint.y0 + rng.normal(size=joint.y0.size)
        if t == 2.5:
            sd, su = joint.slices[:2]
            y[rng.random(y.size) < 0.3] = -0.0
            y[sd] = -0.0
            y[su] = np.where(np.arange(su.stop - su.start) % 2, 0.0, -0.0)
        draws = [(-0.0 if t == 2.5 else float(rng.normal())) if s.kind == "white-noise"
                 else None for s in signals] if white else None
        interleaved = np.empty_like(y)
        interleaved[order] = y
        want = reference_stage(signals, fine, grid, coarse, interleaved, t,
                               draws)[order]
        for _ in range(2):  # the stage's buffers carry nothing over
            got = bound_stage(joint.bind)(y, t, draws)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(CASES))
def test_float_loop_runs_exactly_the_float_cases(case):
    """Whole runs take the float loop for fig3's layout alone, the cases
    whose compiled joint carries one."""
    signals, fine, _, coarse = CASES[case]()
    white = any(s.kind == "white-noise" for s in signals)
    dt = coarse.cfg.dt if coarse is not None else 1e-3
    assert takes_float_loop(signals, fine, coarse,
                            "euler-maruyama" if white else "rk4", dt) == (
        case in FLOAT_CASES)


@pytest.mark.parametrize("scheme, per_step", [("rk4", 4), ("euler", 1)])
def test_float_loop_looks_ssm1_rhs_up_at_each_call(monkeypatch, scheme,
                                                   per_step):
    """A wrapper put on macromodel.ssm1_rhs after the run's loop was
    compiled, as the benchmark's tracer puts one, sees every coarse rhs of
    a float-loop run: four per RK4 step, one per Euler step."""
    fine, _, coarse = fig3_sides(scheme)
    assert takes_float_loop([LORENZ], fine, coarse, scheme)
    calls, real = [], macromodel.ssm1_rhs
    monkeypatch.setattr(macromodel, "ssm1_rhs",
                        lambda *args: calls.append(args) or real(*args))
    run_paired([LORENZ], 3, 5e-3, 1e-3, scheme, fine, coarse, 2)
    assert len(calls) == 5 * per_step


def lorenz_specs(amplitudes):
    return [SignalSpec(kind="lorenz", amplitude=a, xi0=k - 2.0, eta0=3.0 - k)
            for k, a in enumerate(amplitudes)]


def forcing_of(signals, profiles):
    """The forcing each fine stage hands its form, with the joint state."""
    seen = []

    def rhs(u, phi, out):
        seen.append(phi)
        out[:] = 0.0
        return out

    fine = FineSide(np.ones(profiles.shape[1]), profiles, rhs)
    joint = _compile_stage(signals, 3, 1e-3, "rk4", fine, None)
    y = joint.y0 + np.random.default_rng(len(signals)).normal(
        scale=10.0, size=joint.y0.size)
    y[::5] = -0.0
    bound_stage(joint.bind)(y, 0.5)
    return seen[-1], y


def test_identity_profiles_force_with_the_products_bits():
    """The xi row plus 0.0 is the forcing, without the matrix product:
    np.dot(I, xi)'s bits, +0.0 for a -0.0 value included."""
    n = 32
    phi, y = forcing_of(lorenz_specs([1.0] * n), np.eye(n))
    assert not np.shares_memory(phi, y) and np.array_equal(phi, y[:n])
    assert phi.tobytes() == np.dot(np.eye(n), y[:n]).tobytes()


@pytest.mark.parametrize("profiles", [
    2.0 * np.eye(8), np.eye(8)[np.random.default_rng(8).permutation(8)],
    np.eye(3, 8)], ids=["twice-identity", "permutation", "eye-3-8"])
def test_other_profiles_keep_the_product(profiles):
    k = len(profiles)
    phi, y = forcing_of(lorenz_specs([1.0] * k), profiles)
    assert not np.shares_memory(phi, y)
    assert phi.tobytes() == np.dot(profiles.T, y[:k]).tobytes()


@pytest.mark.parametrize("amplitudes", [(1.0, 1.0, 1.0), (1.0, 0.5, 1.0)])
def test_lorenz_values_are_amplitude_times_xi(amplitudes):
    joint = _compile_stage(lorenz_specs(amplitudes), 3, 1e-3, "rk4", None, None)
    y = joint.y0 + np.random.default_rng(4).normal(size=9)
    vals = joint.sigset.bind(y, np.empty(9))(0.5, joint.sigset.no_draws)
    assert vals.tobytes() == (np.array(amplitudes) * y[:3]).tobytes()


@pytest.mark.parametrize("lorenz", [1, 3])
def test_mixed_signals_give_values_in_spec_order(lorenz):
    """Under euler-maruyama, Lorenz signals (amplitudes 1, 0.5, 1) mixed
    with a harmonic and a white signal: the values in spec order, and each
    driver's derivative lorenz_point on its system's floats."""
    harmonic, white = HARMONICS[0], SignalSpec(kind="white-noise")
    chaotic = lorenz_specs([1.0, 0.5, 1.0][:lorenz])
    signals = [chaotic[0], harmonic, *chaotic[1:2], white, *chaotic[2:]]
    joint = _compile_stage(signals, 3, 1e-3, "euler-maruyama", None, None)
    rng = np.random.default_rng(lorenz)
    y = joint.y0 + rng.normal(size=joint.y0.size)
    draws = [None] * len(signals)
    draws[signals.index(white)] = float(rng.normal())
    t = 0.7
    dy = bound_stage(joint.bind)(y, t, draws)
    vals = joint.sigset.bind(y, np.empty_like(y))(t, draws)
    xi, eta, zeta = y.reshape(3, lorenz).tolist()
    want, j = [], 0
    for spec, draw in zip(signals, draws):
        if spec.kind == "lorenz":
            want.append(spec.amplitude * xi[j])
            assert (dy[j], dy[lorenz + j], dy[2 * lorenz + j]) == lorenz_point(
                xi[j], eta[j], zeta[j])
            assert (joint.y0[j], joint.y0[lorenz + j]) == (spec.xi0, spec.eta0)
            j += 1
        else:
            want.append(make_signal(spec).value(t) if draw is None else draw)
    assert vals.tolist() == want


def per_row_values(signals, seed, t_end, dt, scheme, fine, record_every):
    """run_paired's values history as its per-row loop computed it: the
    run's own stage evaluated on each recorded row, its driver derivative
    written into a scratch vector, a white signal given its step's draws."""
    n_steps = exact_steps(t_end, dt)
    sigset, y0, _, blocks, bind, _ = _compile_stage(
        signals, seed, dt, scheme, fine, None,
        lambda k: k % record_every == 0 or k == n_steps)
    times, hist = march(stepper(bind, dt, scheme), y0, 0.0, n_steps, dt,
                        record_every, blocks)
    ends = np.minimum(record_every * np.arange(times.size), n_steps).tolist()
    scratch = np.empty(sigset.total_dim)
    return np.array([
        sigset.bind(row, scratch)(
            t, sigset.drawn[k] if sigset.any_white else sigset.no_draws)
        for t, row, k in zip(times.tolist(), hist, ends)
    ])


VALUE_RUNS = {
    "unit-lorenz": (lorenz_specs([1.0] * 3), "rk4"),
    "half-lorenz-harmonic": ([*lorenz_specs([0.5]), HARMONICS[0]], "rk4"),
    "white": ([SignalSpec(kind="white-noise"), *lorenz_specs([1.0, 0.5]),
               HARMONICS[1]], "euler-maruyama"),
}


@pytest.mark.parametrize("case", list(VALUE_RUNS))
def test_values_history_is_the_per_row_stage(case):
    """The values read from the history are the stage's on each recorded
    row, bit for bit, at every record_every-th step and the last."""
    signals, scheme = VALUE_RUNS[case]
    fine = fine_side(np.ones(8), np.ones((len(signals), 8)), UNIT_GRID)
    args = (signals, 11, 0.25, 0.01, scheme, fine, 4)
    got = run_paired(*args[:5], fine=fine, record_every=4).values
    want = per_row_values(*args)
    assert got.shape == want.shape == (8, len(signals))
    assert got.tobytes() == want.tobytes()


def test_a_run_is_freed_without_the_cycle_collector():
    """Nothing the signals or the stepper bind refers back to them, so a
    run's _SignalSet and its frame go with the run, not at a later
    collection."""
    gc.disable()
    try:
        joint = _compile_stage(VALUE_RUNS["white"][0], 11, 0.01,
                               "euler-maruyama", None, None)
        advance = stepper(joint.bind, 0.01, "euler-maruyama")
        y = advance(advance(joint.y0, 0.0), 0.01)
        refs = [weakref.ref(x) for x in (joint.sigset, y)]
        del joint, advance, y
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def fig3_paired_run():
    fine, _, coarse = fig3_sides()
    run_paired([LORENZ], 3, 0.01, 1e-3, fine=fine, coarse=coarse)


def weak_white_run(variant, m):
    cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=0.01, scheme="euler-maruyama", seed=1)
    build_weak_model(cfg, SignalSpec(kind="white-noise")).run(np.ones(m), 0.05)


def two_lorenz_float_loop_run(scheme):
    signals, fine, _, coarse = CASES["two-lorenz-signed-rows-ssm1"]()
    run_paired(signals, 3, 0.01, 1e-3, scheme, fine, with_scheme(coarse, scheme))


def fig3_float_loop_blow_up():
    signals, fine, coarse = fig3_blowing_up()
    with pytest.raises(StabilityError):
        run_paired(signals, 3, 5.0, 0.05, "rk4", fine, coarse, 10)


FREED_WITHOUT_COLLECTOR = {
    "fig3 run_paired": fig3_paired_run,
    "two-Lorenz float-loop run_paired": lambda: two_lorenz_float_loop_run("rk4"),
    "two-Lorenz float-loop euler run_paired":
        lambda: two_lorenz_float_loop_run("euler"),
    "fig3 float-loop blow-up": fig3_float_loop_blow_up,
    "ssm1 bank": lambda: build_bank(fig3_sides()[2].cfg),
    "weak white ssm1": lambda: weak_white_run("ssm1", 4),
    "weak white strongquad": lambda: weak_white_run("strongquad", 8),
}


@pytest.mark.parametrize("case", list(FREED_WITHOUT_COLLECTOR))
def test_engines_leave_no_cyclic_garbage(case):
    """No closure, generated function or frame an engine builds refers back
    to its owner, so all of it is freed by reference counting: after a
    warm-up call fills the compile caches, a second call leaves nothing
    for the cycle collector."""
    call = FREED_WITHOUT_COLLECTOR[case]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_white_stage_takes_the_step_draws():
    white = [SignalSpec(kind="white-noise")]
    fine, grid, coarse = fig3_sides("euler-maruyama")
    joint = _compile_stage(white, 5, 1e-3, "euler-maruyama", fine, coarse)
    y = joint.y0 + np.random.default_rng(1).normal(size=joint.y0.size)
    for draw in (0.0, -3.5, 12.25):
        want = reference_stage(white, fine, grid, coarse, y, 0.2, [draw])
        assert np.array_equal(bound_stage(joint.bind)(y, 0.2, [draw]), want)


MAGNITUDES = st.sampled_from([1e-6, 1e-2, 1.0, 30.0, 1e3])


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([4, 6, 8, 10, 12, 16, 64, 1024]),
       gamma=st.floats(0.0, 1.0),
       alpha=st.floats(-2.0, 2.0), eps=st.floats(-1.0, 1.0),
       H=st.floats(0.05, 4.0), scales=st.tuples(MAGNITUDES, MAGNITUDES,
                                                 MAGNITUDES),
       white=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ssm1_block_is_the_concatenating_stage_bit_for_bit(
        m, gamma, alpha, eps, H, scales, white, seed):
    """The ssm1 block's gathers and flat feeds, on drivers (or draws),
    chain states and amplitudes over several magnitudes."""
    scheme = "euler-maruyama" if white else "rk4"
    cfg = ModelConfig(variant="ssm1", alpha=alpha, eps=eps, gamma=gamma, H=H,
                      m=m, scheme=scheme)
    coarse = CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0]))
    signals = [SignalSpec(kind="white-noise") if white else LORENZ]
    joint = _compile_stage(signals, 5, cfg.dt, scheme, None, coarse)
    rng = np.random.default_rng(seed)
    y = joint.y0.copy()
    sd, _, sz, sU = joint.slices
    for scale, block in zip(scales, (sd, sz, sU)):
        y[block] = scale * rng.normal(size=y[block].size)
    draws = [scales[0] * rng.normal()] if white else joint.sigset.no_draws
    t = float(rng.uniform(0.0, 10.0))
    want = reference_stage(signals, None, None, coarse, y, t, draws)
    assert np.array_equal(bound_stage(joint.bind)(y, t, draws), want)


def unbound_ssm1_det_linear(U, phi, cfg):
    a, g, e, H = cfg.alpha, cfg.gamma, cfg.eps, cfg.H
    alt = alternating_signs(cfg.m)
    mdU, d2U, d4U = ring_images(U)
    dU = (g / H**2) * d2U
    dU -= (g * g / (12.0 * H**2)) * d4U
    dU -= (a * g / H) * U * mdU
    dU += (a * a * g / 12.0) * U * U * d2U
    bracket = (
        (2.0 / np.pi**2) * U
        + g * (0.1028 * U + 0.0716 * d2U)
        - 0.00363 * a * a * H * H * U**3
    )
    dU -= alt * (e * a * H) * bracket * phi
    return dU


def reference_ssm1_weights(U, cfg):
    """The four memory products' weights, a dict keyed by mode pair."""
    a, e, H = cfg.alpha, cfg.eps, cfg.H
    lead = e * e * a * a * np.asarray(U, dtype=float)
    return {"z1": lead * (0.0195 * H * H),
            "z21": lead * (-(8.0 / np.pi**2) / 15.0),
            "z41": lead * (-(8.0 / np.pi**2) / 255.0),
            "z61": lead * (-(8.0 / np.pi**2) / 1295.0)}


def unbound_strongquad_det_linear(U, F, cfg):
    a, g, H = cfg.alpha, cfg.gamma, cfg.H
    mdU, d2U, d4U = ring_images(U)
    dU = F[0] + U * (F[1] + U * F[4])
    dU += mdU * (F[2] - (g * a / H) * U)
    dU += d2U * (F[3] + g / H**2)
    dU -= (g * g / (12.0 * H**2)) * d4U
    return dU


@pytest.mark.parametrize("m", [4, 64, 1024])
@pytest.mark.parametrize("gamma", [0.4, 1.0])
def test_bound_skeletons_are_the_unbound_ones_bit_for_bit(m, gamma):
    """ssm1's skeleton directly, through ssm1_rhs (on random chain outputs,
    the bank's or passed in) and through the weak harmonic model."""
    rng = np.random.default_rng(m)
    kw = dict(alpha=0.7, eps=0.3, gamma=gamma, H=np.pi / 2.0, m=m)
    ssm1 = ModelConfig(variant="ssm1", **kw)
    quad = ModelConfig(variant="strongquad", **kw)
    banks = {cfg.variant: build_bank(cfg) for cfg in (ssm1, quad)}
    bank = banks["ssm1"]
    bank.Z[:] = rng.normal(size=bank.Z.shape)
    weak = build_weak_model(ssm1, SignalSpec(kind="harmonic", omega=2.0,
                                             phase=0.3))
    drifts = weak.drift_report()["drifts"]
    for t in (0.0, 0.37, 2.5):
        U, phi = rng.normal(size=m), float(rng.normal())
        F = rng.normal(size=(5, m))
        want = unbound_ssm1_det_linear(U, phi, ssm1)
        assert np.array_equal(bank.skeleton(U, phi), want)
        outputs = bank.Z[bank.out_rows]
        want += (U * phi) * (bank.coupling @ outputs)
        assert np.array_equal(ssm1_rhs(U, phi, bank, ssm1, outputs)[0], want)
        outputs = rng.normal(size=(len(bank), m))
        assert np.array_equal(
            ssm1_rhs(U, phi, bank, ssm1, outputs)[0],
            unbound_ssm1_det_linear(U, phi, ssm1)
            + (U * phi) * (bank.coupling @ outputs))
        want = unbound_ssm1_det_linear(U, np.cos(2.0 * t + 0.3), ssm1)
        for label, weight in reference_ssm1_weights(U, ssm1).items():
            want += weight * drifts[label]
        assert np.array_equal(weak.deterministic_rhs(U, t), want)
        want = unbound_strongquad_det_linear(U, F, quad)
        assert np.array_equal(banks["strongquad"].skeleton(U, F), want)


def test_ssm1_rhs_returns_phi_as_its_drive():
    """A returned drive is the caller's own: a second call leaves it as it
    was, and the bank keeps no drive buffer."""
    cfg = ModelConfig(variant="ssm1", alpha=0.7, eps=0.3, H=np.pi / 2.0, m=6)
    bank = build_bank(cfg)
    bank.Z[:] = np.random.default_rng(2).normal(size=bank.Z.shape)
    U = np.linspace(-1.0, 1.0, 6)
    drives = []
    for phi in (0.3, -2.0):
        dU, drive = ssm1_rhs(U, phi, bank, cfg, bank.Z[bank.out_rows])
        want = unbound_ssm1_det_linear(U, phi, cfg)
        want += (U * phi) * (bank.coupling @ bank.Z[bank.out_rows])
        assert np.array_equal(dU, want)
        drives.append(drive)
    assert drives == [0.3, -2.0] and not hasattr(bank, "drives")
    flat = bank.Z.ravel()
    assert np.array_equal(bank.rhs_flat(flat, drives[0]),
                          bank.rhs_flat(flat, np.full((1, 6), 0.3)))
    quad = build_bank(ModelConfig(variant="strongquad", alpha=0.7, eps=0.3,
                                  H=np.pi / 2.0, m=6))
    _, ex = strongquad_rhs(U, np.ones((6, 3)), quad, quad.cfg,
                           quad.Z[quad.out_rows])
    assert not hasattr(quad, "drives") and ex.shape == (12, 6)


def coarse_forcing(cfg, rng):
    """A random forcing object of cfg's variant."""
    if cfg.variant == "ssm1":
        return float(rng.normal())
    if cfg.variant == "lattice":
        return rng.normal(size=2 * cfg.m)
    return rng.normal(size=(cfg.m, 3))


@pytest.mark.parametrize("m", [4, 64, 1024])
@pytest.mark.parametrize("variant", VARIANTS)
def test_stage_block_reads_only_y_and_writes_only_its_slices(
        variant, m, monkeypatch):
    """In a joint state with driver and fine slices, from a NaN dy, the
    block (every bank by rows, ssm1's dU on arrays, then on Python floats
    at every m) leaves y and the bank's state alone, writes dy[sz] and
    dy[sU] and nothing else, and the two dU bodies agree bit for bit."""
    rng = np.random.default_rng(m)
    cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m)
    forcing = coarse_forcing(cfg, rng)
    fine = fine_side(np.ones(8), np.ones((1, 8)), UNIT_GRID)
    coarse = CoarseSide(cfg, np.ones(m), lambda v, t: forcing)
    joint = _compile_stage([LORENZ], 5, cfg.dt, "rk4", fine, coarse)
    _, _, sz, sU = joint.slices
    y = joint.y0 + rng.normal(size=joint.y0.size)
    y_in = y.copy()
    written = np.zeros(y.size, bool)
    written[sz] = written[sU] = True
    got = []
    for ring in (0, 10**9):
        monkeypatch.setattr(macromodel, "_FLOAT_RING", ring)
        bank = build_bank(cfg)
        Z = bank.Z
        dy = np.full_like(y, np.nan)
        stage_block(bank, sz, sU)(y, dy)(forcing)
        assert np.array_equal(y, y_in)
        assert bank.Z is Z and not Z.any()
        assert np.array_equal(~np.isnan(dy), written)
        got.append(dy)
    assert np.array_equal(got[0], got[1], equal_nan=True)


SCALES = (1e-6, 1e-2, 1.0, 30.0, 1e3)


@pytest.mark.parametrize("white", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("past", [0, 1])
def test_ssm1_stage_at_the_float_state_is_the_concatenating_stage(
        past, gamma, white):
    """At the largest state the float loop takes and at one entry past it
    (the array stage), an ssm1 bank and a Burgers ring filling it, under
    rk4's Lorenz signal (the float loop at the largest state) and
    euler-maruyama's white draws (the array stage at either size): over
    signal, field, chain and amplitude magnitudes 1e-6..1e3, the joint's
    array stage is the concatenating stage bit for bit, and where the float
    loop runs, its whole runs from driver, field and amplitude starts of
    those magnitudes are the array stage's runs bit for bit."""
    m = 2 * ((harness._FLOAT_STATE - 4) // 16)
    n = harness._FLOAT_STATE - (0 if white else 3) - 8 * m + past
    assert n > 0
    scheme = "euler-maruyama" if white else "rk4"
    cfg = ModelConfig(variant="ssm1", alpha=1.3, eps=-0.6, gamma=gamma,
                      H=0.9, m=m, scheme=scheme)
    coarse = CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0]))
    grid = ("burgers", 0.4, 1.3, -0.6, "skew")
    rng = np.random.default_rng(m + n)
    fine = fine_side(np.ones(n), rng.normal(size=(1, n)), grid)
    signals = [SignalSpec(kind="white-noise") if white else LORENZ]
    joint = _compile_stage(signals, 5, cfg.dt, scheme, fine, coarse)
    assert joint.y0.size == harness._FLOAT_STATE + past
    loops = not past and not white
    assert (joint.loop is not None) == loops == takes_float_loop(
        signals, fine, coarse, scheme)
    sd, su, sz, sU = joint.slices
    for zs, us in itertools.product(SCALES, repeat=2):
        y = joint.y0.copy()
        for scale, block in zip((us, us, zs, us), (sd, su, sz, sU)):
            y[block] = scale * rng.normal(size=y[block].size)
        draws = [us * rng.normal()] if white else joint.sigset.no_draws
        t = float(rng.uniform(0.0, 10.0))
        want = reference_stage(signals, fine, grid, coarse, y, t, draws)
        assert np.array_equal(bound_stage(joint.bind)(y, t, draws), want)
        if loops:  # zs sizes the drivers here: a run's bank starts from rest
            start = [SignalSpec(kind="lorenz", xi0=zs * rng.normal(),
                                eta0=zs * rng.normal())]
            loop, array = float_and_array_runs(
                start, fine._replace(u0=us * rng.normal(size=n)),
                coarse._replace(U0=us * rng.normal(size=m)), scheme, 12, 5)
            assert same_run(loop, array)


FLOAT_SCHEMES = ("rk4", "euler", "euler-maruyama")


@pytest.mark.parametrize("n_steps", [0, 1, 23])
@pytest.mark.parametrize("record_every", [1, 7, 10])
@pytest.mark.parametrize("scheme", FLOAT_SCHEMES)
@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_loop_is_the_array_run_bit_for_bit(case, scheme, record_every,
                                                 n_steps):
    """times, values, u, U and bank of a float-loop run, byte for byte the
    array stage's, under every scheme, at record strides that divide the
    run, exceed it or leave a last short chunk."""
    signals, fine, _, coarse = CASES[case]()
    assert takes_float_loop(signals, fine, with_scheme(coarse, scheme), scheme)
    loop, array = float_and_array_runs(signals, fine, coarse, scheme, n_steps,
                                       record_every)
    assert isinstance(loop, PairedRun) and same_run(loop, array)
    assert len(loop.times) == 1 + -(-n_steps // record_every)


def signed_start(rng, scale, size):
    """scale * N(0, 1) entries with a -0.0 and a +0.0 among them."""
    x = scale * rng.normal(size=size)
    x[rng.permutation(size)[:2]] = (-0.0, 0.0)
    return x


@pytest.mark.parametrize("scheme", FLOAT_SCHEMES)
@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_loop_from_scaled_starts_is_the_array_run(case, scheme):
    """Drivers (xi0, eta0, a signed zero among them), u0 and U0 over
    magnitudes 1e-6..1e3 with signed zeros: the same runs, or the same
    StabilityError where a large start blows up."""
    signals, fine, _, coarse = CASES[case]()
    rng = np.random.default_rng(len(case))
    errors = 0
    for scale in SCALES:
        drivers = [dataclasses.replace(s, xi0=-0.0, eta0=scale * rng.normal())
                   if k == 0 else dataclasses.replace(
                       s, xi0=scale * rng.normal(), eta0=0.0)
                   for k, s in enumerate(signals)]
        loop, array = float_and_array_runs(
            drivers, fine._replace(u0=signed_start(rng, scale, fine.u0.size)),
            coarse._replace(U0=signed_start(rng, scale, coarse.U0.size)),
            scheme, 40, 7)
        assert same_run(loop, array)
        errors += not isinstance(loop, PairedRun)
    assert errors < len(SCALES)


def fig3_blowing_up(coarse_eps=0.05, xi0=10.0, dt=0.05):
    """fig3's sides at dt, whose default 0.05 blows the amplitudes up at
    t = 0.45 under rk4 (CI's fig3 blow-up line).  With eps = gamma = 0 on
    the coarse side U feels neither the chains nor its own diffusion, so
    the fine field blows up first, or at dt = 0.025 a memory chain; with
    xi0 = 1e100 the driver does."""
    n, m = 32, 4
    x = (np.pi / 16.0) * np.arange(n)
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=coarse_eps,
                      gamma=float(coarse_eps > 0.0), H=np.pi / 2.0, m=m, dt=dt)
    return ([SignalSpec(kind="lorenz", xi0=xi0, eta0=8.0)],
            fine_side(np.ones(n), np.cos(2.0 * x)[None],
                      ("burgers", np.pi / 16.0, 0.3, 0.05, "advective")),
            CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0])))


BLOW_UPS = {  # (fig3_blowing_up's arguments, scheme, steps, first bad block)
    "U-rk4": ({}, "rk4", 100, "grid amplitudes went non-finite at t = 0.45;"),
    "U-euler": ({}, "euler", 100, "grid amplitudes"),
    "fine-rk4": ({"coarse_eps": 0.0}, "rk4", 100, "fine field"),
    "chain-rk4": ({"coarse_eps": 0.0, "dt": 0.025}, "rk4", 700,
                  "memory chain ((4.0, 144.0), 'phi') went non-finite at t = 15.625;"),
    "driver-rk4": ({"xi0": 1e100}, "rk4", 100, "signal driver"),
    "driver-euler": ({"coarse_eps": 0.0}, "euler", 100, "signal driver"),
}


@pytest.mark.parametrize("record_every", [1, 4, 10, 1000])
@pytest.mark.parametrize("case", list(BLOW_UPS))
def test_float_loop_blows_up_as_march(case, record_every):
    """A blow-up raises the array run's StabilityError: the same first bad
    block, upstream first, at the same t, wherever in a chunk its step
    falls, and no RuntimeWarning escapes (float_and_array_runs makes one an
    error)."""
    kwargs, scheme, n_steps, block = BLOW_UPS[case]
    signals, fine, coarse = fig3_blowing_up(**kwargs)
    dt = coarse.cfg.dt
    assert takes_float_loop(signals, fine, coarse, "rk4", dt)
    loop, array = float_and_array_runs(signals, fine, coarse, scheme, n_steps,
                                       record_every, dt)
    assert loop == array and loop[0] is StabilityError
    assert loop[1].startswith(block)


def test_float_loop_history_holds_the_records_alone(monkeypatch):
    """A 6000-step fig3 run recording every 10th row: its largest array is
    the history of 601 rows, as large as the array run's, and every other
    array it makes holds at most a chunk of 10 rows and one entry per
    record, where a row or a time per step would be 2.2 MB or 48 kB."""
    fine, _, coarse = fig3_sides()
    entries = _compile_stage([LORENZ], 3, 1e-3, "rk4", fine, coarse).y0.size
    sizes, runs = {}, []

    def spying(real):
        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes[cap].append(out.nbytes)
            return out
        return spy

    for cap in (harness._FLOAT_STATE, 0):
        sizes[cap] = []
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_FLOAT_STATE", cap)
            for name in ("empty", "arange"):
                patch.setattr(np, name, spying(getattr(np, name)))
            runs.append(run_paired([LORENZ], 3, 6.0, 1e-3, "rk4", fine, coarse,
                                   10))
    assert runs[0].bank.shape[0] == 601 and same_run(*runs)
    loop, array = (sorted(sizes[cap]) for cap in sizes)
    assert loop[-1] == array[-1] == 601 * entries * 8
    assert loop[-2] <= 8 * (601 + 10 * entries)


@pytest.mark.parametrize("m", [4, 18])
@pytest.mark.parametrize("scheme", FLOAT_SCHEMES)
@pytest.mark.parametrize("path", ["float loop", "array stage", "coarse alone"])
def test_ssm1_runs_record_equal_bank_columns(path, scheme, m):
    """Every ssm1 run_paired run records a bank whose m columns are equal
    bit for bit, the invariant the float loop's one local per bank row
    rests on: each chain is fed by the one scalar phi from rest.  Under
    euler-maruyama the array stage's runs take a white signal; at m = 18
    the bank alone is past the float loop's cap, so every path marches."""
    white = scheme == "euler-maruyama" and path != "float loop"
    signals = [SignalSpec(kind="white-noise") if white else LORENZ]
    cfg = ModelConfig(variant="ssm1", alpha=0.7, eps=0.3, gamma=0.6, H=1.1,
                      m=m, dt=1e-3, scheme=scheme)
    rng = np.random.default_rng(m)
    coarse = CoarseSide(cfg, 1.0 + rng.normal(size=m), lambda v, t: float(v[0]))
    n = 8 if path == "float loop" and m == 4 else 40
    fine = None if path == "coarse alone" else fine_side(
        np.ones(n), rng.normal(size=(1, n)), UNIT_GRID)
    cap = 0 if path == "array stage" else harness._FLOAT_STATE
    with mock.patch.object(harness, "_FLOAT_STATE", cap):
        assert takes_float_loop(signals, fine, coarse, scheme) == (
            path == "float loop" and m == 4)
        run = run_paired(signals, 7, 0.05, 1e-3, scheme, fine, coarse, 3)
    bank = run.bank.reshape(len(run.times), -1, m)
    assert bank.any()
    assert bank.tobytes() == np.repeat(bank[..., :1], m, axis=2).tobytes()
