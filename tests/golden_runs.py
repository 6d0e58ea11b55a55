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
signals, and one ``microscale.integrate`` run, kept in
tests/data/loops_golden.json.

Record (overwrites the named data file; ``coarse`` is the default):

    PYTHONPATH=src python tests/golden_runs.py [coarse|weak-drift|paired|loops]
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

from holodisc import (
    ModelConfig,
    SignalSpec,
    build_weak_model,
    default_spec,
    run_macro_forced,
    simulate_quadrature_ensemble,
)
from holodisc.harness import (
    EXPERIMENTS,
    default_window_start,
    spec_from_dict,
    weak_drift_experiment,
)
from holodisc.microscale import burgers_rhs, integrate

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "coarse_golden.npz")
WEAK_DRIFT_DATA = os.path.join(HERE, "data", "weak_drift_golden.json")
PAIRED_DATA = os.path.join(HERE, "data", "paired_golden.json")
LOOPS_DATA = os.path.join(HERE, "data", "loops_golden.json")
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
        spec.resolved_seed, record_every=10)
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
        spec.resolved_seed, record_every=10)
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

    times, hist = integrate(1.0 + 0.5 * np.sin(x), rhs, 0.25, 0.75, 1e-2,
                            record_every=7)
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


def record_loops(path=LOOPS_DATA):
    runs = loop_runs()
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return runs


def record(path=DATA):
    arrays = {}
    for name, run in RUNS.items():
        for key, value in run().items():
            arrays[f"{name}/{key}"] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    return arrays


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
    elif which == "coarse":
        for key, value in record().items():
            print(f"{key}: {value.shape}")
    else:
        raise SystemExit(
            f"unknown recording {which!r}; expected coarse, weak-drift, paired or loops"
        )
