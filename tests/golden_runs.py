"""Fixed-seed coarse trajectories, recorded once as a refactoring gate.

Each run goes through the public engines only, so the recorded arrays pin
the numbers a refactor of the coarse models must reproduce:

* ``fig3``: fig3's ssm1 run (Lorenz drive, m = 4) to t = 1;
* ``lattice``: the lattice experiment's first-level coarse run, to t = 4;
* ``strongquad``: strongquad at m = 64 under harmonic forcing with a
  random three-mode pattern, 0.4 time units;
* ``strongquad_white``: the same model at m = 16 under white noise,
  euler-maruyama;
* ``weak_white``: weak white-noise strongquad at m = 16;
* ``weak_harmonic``: weak harmonic strongquad at m = 16 with complex
  per-element phasors.

Separately, ``weak_drift`` runs the weak-drift experiment over two forcing
periods with a dt that divides the run exactly, and its metrics are kept in
tests/data/weak_drift_golden.json.  ``paired_reports`` runs short ``fig3``
and ``lattice`` experiments, fine and coarse side by side, and their report
metrics and checks are kept in tests/data/paired_golden.json.
``loop_runs`` pins the remaining fixed-step loops: a short ``fig1`` report,
the ``emergence`` report, white-noise quadrature samples for one and two
signals, and one fixed-step ``microscale.march`` run (recorded through
the former ``microscale.integrate``), kept in
tests/data/loops_golden.json.  ``REDUCTION_TERMS`` pins
``reduce_by_parts(term).to_dict()`` for terms whose products merge
coincident terms, kept in tests/data/reduction_golden.json.  ``STAGE_RUNS`` pins the ``run_paired`` stage
paths the recordings above leave out (``lowg`` under a Lorenz drive, a
fine-only run with several signals, white-noise ``ssm1`` and
``strongquad`` at m = 8, fig3's fine and ``ssm1`` sides together under
rk4, coarse-only harmonic ``ssm1`` at m = 64, and three fine n = 16 plus
coarse m = 8 runs under Euler schemes: ``strongquad`` under [Lorenz,
white, harmonic] and ``ssm1`` under [white, Lorenz] by euler-maruyama,
``strongquad`` under [Lorenz, harmonic] by euler), kept in
tests/data/stage_golden.npz and matched exactly.  ``FINE_STAGE_RUNS`` pins the fine side's stage paths: ``fig1``'s
full history (drivers and field) under rk4 and euler, fine-only runs under
the ``conservative`` and ``skew`` advection forms, and a fine-only lattice
run, kept in tests/data/fine_stage_golden.npz and matched exactly.
``WEAK_RUNS`` pins weak ``ssm1`` at m = 4 and weak ``strongquad`` at m = 8
(300 steps; ``weak_white`` and ``weak_harmonic`` above hold it only within
1e-12) under harmonic forcing and white noise, kept in
tests/data/weak_golden.npz and matched exactly.  ``AMPLITUDE_RUNS`` pins
coarse-only ``ssm1`` at m = 4 and 8 with |U| near 1e3 and the chain states
near 2e2, where a one-ulp change in ``U**3`` shows (the runs above, near
|U| = 1, round it away), kept in
tests/data/amplitude_golden.npz and matched exactly.
tests/data/default_specs.json holds every experiment's default spec and
tests/data/cli_options.json the options of ``micro``, ``macro`` and
``weak`` (flags, default, type, choices), both recorded before the
experiments and the shared options were each declared in one place; no
recorder here rewrites them.

Record (overwrites the named data file; ``coarse`` is the default):

    PYTHONPATH=src python tests/golden_runs.py [coarse|weak-drift|paired|loops|reduction|stage|fine-stage|weak|amplitude|memory]
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

from holodisc import (
    CoarseSide,
    ConvTerm,
    FineSide,
    ModelConfig,
    SignalSpec,
    build_bank,
    build_weak_model,
    default_spec,
    reduce_by_parts,
    run_macro_forced,
    run_paired,
    simulate_quadrature_ensemble,
    ssm1_rhs,
)
from holodisc import harness
from holodisc.harness import (
    EXPERIMENTS,
    default_window_start,
    spec_from_dict,
    weak_drift_experiment,
)
from holodisc.microscale import (
    burgers_form,
    burgers_rhs,
    exact_points,
    exact_steps,
    lattice_form,
    march,
    plain,
    stepper,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "coarse_golden.npz")
WEAK_DRIFT_DATA = os.path.join(HERE, "data", "weak_drift_golden.json")
PAIRED_DATA = os.path.join(HERE, "data", "paired_golden.json")
LOOPS_DATA = os.path.join(HERE, "data", "loops_golden.json")
REDUCTION_DATA = os.path.join(HERE, "data", "reduction_golden.json")
STAGE_DATA = os.path.join(HERE, "data", "stage_golden.npz")
FINE_STAGE_DATA = os.path.join(HERE, "data", "fine_stage_golden.npz")
WEAK_DATA = os.path.join(HERE, "data", "weak_golden.npz")
AMPLITUDE_DATA = os.path.join(HERE, "data", "amplitude_golden.npz")
MEMORY_DATA = os.path.join(HERE, "data", "memory_golden.npz")
DEFAULT_SPECS_DATA = os.path.join(HERE, "data", "default_specs.json")
CLI_OPTIONS_DATA = os.path.join(HERE, "data", "cli_options.json")
HARMONIC = SignalSpec(kind="harmonic", omega=2.0, phase=0.3, amplitude=1.0)
WHITE = SignalSpec(kind="white-noise", intensity=1.0)


def _quad_cfg(m, **kw):
    return ModelConfig(variant="strongquad", alpha=0.3, eps=0.05,
                       H=np.pi / 2.0, m=m, dt=0.01, **kw)


def _pattern(m, seed):
    return np.random.default_rng(seed).normal(size=(m, 3))


def fig3():
    spec = default_spec("fig3")
    cfg = ModelConfig(variant="ssm1", alpha=spec.alpha, eps=spec.eps,
                      gamma=spec.gamma, H=spec.H, m=spec.m, dt=spec.dt,
                      scheme=spec.scheme)
    t, U, bank, vals = run_macro_forced(
        cfg, np.ones(spec.m), [spec.signal], lambda v, t: float(v[0]), 1.0,
        spec.seed, record_every=10)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def lattice():
    spec = default_spec("lattice")
    H, m = spec.H, spec.m
    L = m * H
    x_fine = (H / 2.0) * np.arange(2 * m)
    profiles = np.stack([
        1.0 + 0.8 * np.cos(2.0 * np.pi * x_fine / L + 0.7),
        0.6 * np.cos(4.0 * np.pi * x_fine / L + 1.9),
    ])
    signals = [
        SignalSpec(kind="harmonic", omega=0.37, phase=0.3, amplitude=1.0),
        SignalSpec(kind="harmonic", omega=0.23, phase=1.1, amplitude=1.0),
    ]
    cfg = ModelConfig(variant="lattice", alpha=spec.alpha, eps=spec.eps, H=H,
                      m=m, dt=spec.dt, scheme=spec.scheme)
    t, U, _, vals = run_macro_forced(
        cfg, np.full(m, 0.4), signals, lambda v, t: profiles.T @ v, 4.0,
        spec.seed, record_every=10)
    return {"t": t, "U": U, "vals": vals}


def strongquad():
    m = 64
    pattern = _pattern(m, 7)
    U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, _ = run_macro_forced(
        _quad_cfg(m), U0, [HARMONIC], lambda v, t: pattern * v[0], 0.4, 11,
        record_every=4)
    return {"t": t, "U": U, "bank": bank}


def strongquad_white():
    m = 16
    pattern = _pattern(m, 8)
    U0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, _ = run_macro_forced(
        _quad_cfg(m, scheme="euler-maruyama"), U0, [WHITE],
        lambda v, t: pattern * v[0], 0.4, 12, record_every=4)
    return {"t": t, "U": U, "bank": bank}


def weak_white():
    m = 16
    weak = build_weak_model(_quad_cfg(m, scheme="euler-maruyama", seed=13),
                            WHITE, mode_scales=(1.0, 0.7, 1.3))
    t, U = weak.run(np.ones(m), 0.4, record_every=4)
    return {"t": t, "U": U}


def weak_harmonic():
    m = 16
    rng = np.random.default_rng(9)
    pattern = rng.normal(size=(m, 3)) * np.exp(1j * rng.uniform(0, 6, (m, 3)))
    weak = build_weak_model(_quad_cfg(m), HARMONIC, pattern)
    t, U = weak.run(np.ones(m), 0.4, record_every=4)
    return {"t": t, "U": U}


RUNS = {f.__name__: f for f in (fig3, lattice, strongquad, strongquad_white,
                                weak_white, weak_harmonic)}


def weak_drift_spec(periods=2, dt_near=4e-3):
    """The default weak-drift spec over a few periods, dt dividing the run."""
    spec = default_spec("weak-drift")
    t_end = (default_window_start(spec.H)
             + periods * 2.0 * np.pi / spec.signal.omega)
    n0 = int(round(t_end / dt_near))
    for n in sorted(range(n0 - 50, n0 + 51), key=lambda k: abs(k - n0)):
        dt = t_end / n
        if int(round(t_end / dt)) == n and n * dt == t_end:
            return dataclasses.replace(spec, dt=dt, extras={"periods": periods})
    raise ValueError("no dt near dt_near divides the weak-drift run exactly")


def weak_drift():
    return weak_drift_experiment(weak_drift_spec(), out_dir=None)


def record_weak_drift(path=WEAK_DRIFT_DATA):
    metrics = weak_drift().metrics
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


# Short paired experiments: every run length is a whole number of dt.  The
# lattice run ends inside its transient, so its ratio checks read false; the
# recording pins the numbers, not the outcome.
PAIRED_SPECS = {
    "fig3": {"t0": 0.2, "t1": 0.4, "dt": 1e-3},
    "lattice": {"t0": 0.4, "t1": 1.0, "dt": 2e-3},
}


def _report(name, overrides=None):
    report = EXPERIMENTS[name](spec_from_dict(name, overrides), None)
    return {"metrics": report.metrics, "checks": report.checks}


def paired_reports():
    """Metrics and checks of the short paired experiments, by name."""
    return {name: _report(name, overrides)
            for name, overrides in PAIRED_SPECS.items()}


def record_paired(path=PAIRED_DATA):
    reports = paired_reports()
    with open(path, "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return reports


def _forced_burgers_run():
    """A fine Burgers run from t0 = 0.25 under a travelling forcing wave."""
    x = (2.0 * np.pi / 16) * np.arange(16)

    def rhs(u, t):
        return burgers_rhs(u, x[1], 0.8, 0.5, np.cos(x + 3.0 * t))

    times, hist = march(stepper(plain(rhs), 1e-2), 1.0 + 0.5 * np.sin(x), 0.25,
                        exact_steps(0.75 - 0.25, 1e-2), 1e-2, record_every=7)
    return {"times": times.tolist(), "history": hist.tolist()}


def loop_runs():
    """Outputs of the fig1, emergence, quadrature and integrate loops."""
    return {
        "fig1": _report("fig1", {"t1": 2.0, "dt": 0.01}),
        "emergence": _report("emergence"),
        "quadrature": {
            label: simulate_quadrature_ensemble(
                (1.0,), 1.0, 2e-3, 200, seed=5, same_signal=same).tolist()
            for label, same in (("same_signal", True), ("two_signals", False))
        },
        "integrate": _forced_burgers_run(),
    }


# (coeff, left_rates, right_rates, left, right): repeated rates, so the
# reduction meets coincident boundary and canonical terms and merges them.
REDUCTION_TERMS = (
    (1.0, (2.0, 2.0), (2.0, 2.0), "rho", "mu"),
    (1.0, (1.3, 1.3), (0.7,), "rho", "mu"),
    (1.0, (1.0, 4.0, 9.0), (1.0, 4.0, 9.0), "rho", "mu"),
    (1.5, (1.0, 2.0), (3.0,), "rho", "mu"),
    (-0.25, (4.0, 1.0), (2.0, 1.0, 1.0), "phi", "phi"),
    (2.0, (), (3.0, 5.0), "rho", "mu"),
)


def reduction_runs():
    """reduce_by_parts(term).to_dict() for each of REDUCTION_TERMS, in order."""
    return [reduce_by_parts(ConvTerm(*args)).to_dict() for args in REDUCTION_TERMS]


def record_reduction(path=REDUCTION_DATA):
    runs = reduction_runs()
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=2)
        fh.write("\n")
    return runs


def record_loops(path=LOOPS_DATA):
    runs = loop_runs()
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return runs


LORENZ = SignalSpec(kind="lorenz", xi0=10.0, eta0=8.0)


def lowg_lorenz():
    m = 8
    pattern = _pattern(m, 21)
    cfg = ModelConfig(variant="lowg", alpha=0.3, eps=0.5, H=np.pi / 2.0, m=m,
                      dt=0.01)
    U0 = 1.0 + 0.3 * np.sin(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, vals = run_macro_forced(
        cfg, U0, [LORENZ], lambda v, t: pattern * v[0], 1.0, 22,
        record_every=10)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def _fine_pairs(signals, spacing=2.0 * np.pi / 16, rhs=None):
    """16 points at spacing, one profile per signal, under rhs (by default
    the advective Burgers form at that spacing)."""
    x = spacing * np.arange(16)
    profiles = np.stack([np.cos((k + 1) * x + 0.4 * k)
                         for k in range(len(signals))])
    rhs = rhs or burgers_form(spacing, 0.8, 0.5)
    run = run_paired(signals, 23, 1.0, 1e-2,
                     fine=FineSide(1.0 + 0.5 * np.sin(x), profiles, rhs),
                     record_every=10)
    return {"t": run.times, "u": run.u, "vals": run.values}


def fine_lorenz_harmonic():
    return _fine_pairs([LORENZ, HARMONIC])


def fine_two_lorenz():
    """Two Lorenz drivers with a driverless signal between them."""
    return _fine_pairs([LORENZ, HARMONIC,
                        SignalSpec(kind="lorenz", amplitude=0.5, xi0=-3.0)])


def ssm1_white():
    m = 8
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=5e-3, scheme="euler-maruyama")
    U0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, vals = run_macro_forced(
        cfg, U0, [WHITE], lambda v, t: float(v[0]), 0.5, 24, record_every=10)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def strongquad_white_m8():
    m = 8
    pattern = _pattern(m, 25)
    U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, vals = run_macro_forced(
        _quad_cfg(m, scheme="euler-maruyama"), U0, [WHITE],
        lambda v, t: pattern * v[0], 0.5, 26, record_every=5)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def fig3_paired():
    """fig3's fine (n = 32) and ssm1 (m = 4) sides as one rk4 run to t = 1."""
    spec = default_spec("fig3")
    m, H = spec.m, spec.H
    n = exact_points(m * H, spec.dx)
    x = spec.dx * np.arange(n)
    cfg = ModelConfig(variant="ssm1", alpha=spec.alpha, eps=spec.eps,
                      gamma=spec.gamma, H=H, m=m, dt=spec.dt,
                      scheme=spec.scheme)
    run = run_paired(
        [spec.signal], spec.seed, 1.0, spec.dt, spec.scheme,
        fine=FineSide(np.ones(n), np.cos(2.0 * x)[None],
                      burgers_form(spec.dx, spec.alpha, spec.eps)),
        coarse=CoarseSide(cfg, np.ones(m), lambda v, t: float(v[0])),
        record_every=10)
    return {"t": run.times, "u": run.u, "U": run.U, "bank": run.bank,
            "vals": run.values}


def ssm1_harmonic_m64():
    m = 64
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.1, gamma=0.7,
                      H=np.pi / 2.0, m=m, dt=5e-3)
    U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(m) / m)
    t, U, bank, vals = run_macro_forced(
        cfg, U0, [HARMONIC], lambda v, t: float(v[0]), 0.5, 30,
        record_every=10)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def _euler_pair(signals, variant, scheme, seed, assemble):
    """A fine n = 16 ring beside an m = 8 coarse model, stepped by an Euler
    scheme, dt = 1e-3 to t = 0.2, recorded every 7 steps (so the last row,
    step 200, falls off the stride)."""
    x = (2.0 * np.pi / 16) * np.arange(16)
    profiles = np.stack([np.cos((k + 1) * x + 0.4 * k)
                         for k in range(len(signals))])
    m = 8
    cfg = ModelConfig(variant=variant, alpha=0.3, eps=0.05, H=np.pi / 2.0,
                      m=m, dt=1e-3, scheme=scheme)
    U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(m) / m)
    run = run_paired(
        signals, seed, 0.2, 1e-3, scheme,
        fine=FineSide(1.0 + 0.5 * np.sin(x), profiles,
                      burgers_form(2.0 * np.pi / 16, 0.8, 0.5)),
        coarse=CoarseSide(cfg, U0, assemble), record_every=7)
    return {"t": run.times, "u": run.u, "U": run.U, "bank": run.bank,
            "vals": run.values}


def strongquad_lorenz_white_harmonic_em():
    patterns = np.random.default_rng(31).normal(size=(3, 8, 3))
    return _euler_pair([LORENZ, WHITE, HARMONIC], "strongquad",
                       "euler-maruyama", 32,
                       lambda v, t: np.tensordot(v, patterns, 1))


def ssm1_white_lorenz_em():
    return _euler_pair([WHITE, LORENZ], "ssm1", "euler-maruyama", 33,
                       lambda v, t: float(v[0] + 0.5 * v[1]))


def strongquad_lorenz_harmonic_euler():
    patterns = np.random.default_rng(34).normal(size=(2, 8, 3))
    return _euler_pair([LORENZ, HARMONIC], "strongquad", "euler", 35,
                       lambda v, t: np.tensordot(v, patterns, 1))


STAGE_RUNS = {f.__name__: f for f in (lowg_lorenz, fine_lorenz_harmonic,
                                      fine_two_lorenz, ssm1_white,
                                      strongquad_white_m8, fig3_paired,
                                      ssm1_harmonic_m64,
                                      strongquad_lorenz_white_harmonic_em,
                                      ssm1_white_lorenz_em,
                                      strongquad_lorenz_harmonic_euler)}


def _fig1_history(scheme):
    """fig1's whole march history to t = 2, drivers as (r, 3, n) rows."""
    runs = []

    def spy(*args, **kw):
        runs.append(march(*args, **kw))
        return runs[-1]

    harness.march = spy
    try:
        _report("fig1", {"t1": 2.0, "scheme": scheme})
    finally:
        harness.march = march
    (t, hist), = runs
    n = hist.shape[1] // 4
    drivers = hist[:, : 3 * n]
    # Every point's driver starts at (5, 8, N(10, 1)): the first row tells
    # a component-major layout [xi | eta | zeta] from an interleaved one.
    if np.all(drivers[0, :n] == 5.0):
        drivers = drivers.reshape(-1, 3, n)
    else:
        drivers = drivers.reshape(-1, n, 3).transpose(0, 2, 1)
    return {"t": t, "drivers": drivers, "u": hist[:, 3 * n :]}


def fig1_rk4():
    return _fig1_history("rk4")


def fig1_euler():
    return _fig1_history("euler")


def fine_conservative():
    return _fine_pairs([LORENZ, HARMONIC],
                       rhs=burgers_form(2.0 * np.pi / 16, 0.8, 0.5, "conservative"))


def fine_skew():
    return _fine_pairs([LORENZ, HARMONIC],
                       rhs=burgers_form(2.0 * np.pi / 16, 0.8, 0.5, "skew"))


def fine_lattice():
    """The half-spacing lattice of 8 elements with H = 1."""
    return _fine_pairs([LORENZ, HARMONIC], spacing=0.5,
                       rhs=lattice_form(1.0, 0.8, 0.5))


FINE_STAGE_RUNS = {f.__name__: f for f in (fig1_rk4, fig1_euler,
                                           fine_conservative, fine_skew,
                                           fine_lattice)}


def _ssm1_cfg(**kw):
    return ModelConfig(variant="ssm1", alpha=0.3, eps=0.1, H=np.pi / 2.0,
                       m=4, dt=2e-3, **kw)


def _weak_ssm1_run(cfg, signal):
    U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(cfg.m) / cfg.m)
    t, U = build_weak_model(cfg, signal).run(U0, 0.6, record_every=10)
    return {"t": t, "U": U}


def weak_ssm1_harmonic():
    return _weak_ssm1_run(_ssm1_cfg(), HARMONIC)


def weak_ssm1_white():
    return _weak_ssm1_run(_ssm1_cfg(scheme="euler-maruyama", seed=27), WHITE)


def _weak_strongquad_run(weak):
    U0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(weak.cfg.m) / weak.cfg.m)
    t, U = weak.run(U0, 3.0, record_every=10)
    return {"t": t, "U": U}


def weak_strongquad_harmonic():
    m = 8
    rng = np.random.default_rng(28)
    pattern = rng.normal(size=(m, 3)) * np.exp(1j * rng.uniform(0, 6, (m, 3)))
    return _weak_strongquad_run(build_weak_model(_quad_cfg(m), HARMONIC, pattern))


def weak_strongquad_white():
    cfg = _quad_cfg(8, scheme="euler-maruyama", seed=29)
    return _weak_strongquad_run(
        build_weak_model(cfg, WHITE, mode_scales=(1.0, 0.7, 1.3)))


WEAK_RUNS = {f.__name__: f for f in (weak_ssm1_harmonic, weak_ssm1_white,
                                     weak_strongquad_harmonic,
                                     weak_strongquad_white)}


def _ssm1_large(m):
    """ssm1 near |U| = 1e3 under a harmonic drive of amplitude 3e3, which
    takes the chain states to about 2e2 by t = 0.2: there c3 U**3 carries
    dU, so a one-ulp change in it moves U's bits."""
    cfg = ModelConfig(variant="ssm1", alpha=0.1, eps=0.01, gamma=0.7, H=1.0,
                      m=m, dt=1e-3)
    U0 = 1e3 * (1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(m) / m))
    signal = SignalSpec(kind="harmonic", omega=2.0, phase=0.3, amplitude=3e3)
    t, U, bank, vals = run_macro_forced(
        cfg, U0, [signal], lambda v, t: float(v[0]), 0.2, 40, record_every=10)
    return {"t": t, "U": U, "bank": bank, "vals": vals}


def ssm1_large_m4():
    return _ssm1_large(4)


def ssm1_large_m8():
    return _ssm1_large(8)


AMPLITUDE_RUNS = {f.__name__: f for f in (ssm1_large_m4, ssm1_large_m8)}


def _ssm1_memory(m, draws=8):
    """ssm1_rhs's dU at draws random (U, phi, chain outputs) with the
    outputs near 1e8: there the memory product (U phi) (coupling @
    outputs), about 1e3, carries dU, so a one-ulp change in it moves dU's
    bits.  m = 4 takes the float body, m = 18 the rows body."""
    cfg = ModelConfig(variant="ssm1", alpha=0.3, eps=0.05, gamma=0.7,
                      H=np.pi / 2.0, m=m)
    bank = build_bank(cfg)
    rng = np.random.default_rng(m)
    U = 1.0 + rng.normal(size=(draws, m))
    phi = rng.normal(size=draws)
    outputs = 1e8 * rng.normal(size=(draws, 4, m))
    dU = np.array([ssm1_rhs(u, p, bank, cfg, z)[0]
                   for u, p, z in zip(U, phi, outputs)])
    return {"U": U, "phi": phi, "outputs": outputs, "dU": dU}


def ssm1_memory_m4():
    return _ssm1_memory(4)


def ssm1_memory_m18():
    return _ssm1_memory(18)


MEMORY_RUNS = {f.__name__: f for f in (ssm1_memory_m4, ssm1_memory_m18)}


def _record_runs(runs, path):
    arrays = {}
    for name, run in runs.items():
        for key, value in run().items():
            arrays[f"{name}/{key}"] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    return arrays


def record_stage(path=STAGE_DATA):
    return _record_runs(STAGE_RUNS, path)


def record_fine_stage(path=FINE_STAGE_DATA):
    return _record_runs(FINE_STAGE_RUNS, path)


def record_weak(path=WEAK_DATA):
    return _record_runs(WEAK_RUNS, path)


def record_amplitude(path=AMPLITUDE_DATA):
    return _record_runs(AMPLITUDE_RUNS, path)


def record_memory(path=MEMORY_DATA):
    return _record_runs(MEMORY_RUNS, path)


def record(path=DATA):
    return _record_runs(RUNS, path)


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "coarse"
    if which == "weak-drift":
        for key, value in record_weak_drift().items():
            print(f"{key}: {value!r}")
    elif which == "paired":
        print(json.dumps(record_paired(), indent=2, sort_keys=True))
    elif which == "loops":
        runs = record_loops()
        print(json.dumps({k: runs[k] for k in ("fig1", "emergence")}, indent=2))
    elif which == "reduction":
        print(f"{len(record_reduction())} reductions")
    elif which in ("coarse", "stage", "fine-stage", "weak", "amplitude",
                   "memory"):
        recorders = {"coarse": record, "stage": record_stage,
                     "fine-stage": record_fine_stage, "weak": record_weak,
                     "amplitude": record_amplitude, "memory": record_memory}
        for key, value in recorders[which]().items():
            print(f"{key}: {value.shape}")
    else:
        raise SystemExit(
            f"unknown recording {which!r}; expected coarse, weak-drift, paired, "
            "loops, reduction, stage, fine-stage, weak, amplitude or memory"
        )
