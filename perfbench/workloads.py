"""The benchmark's workloads: what each runs, builds, and checks.

Every workload runs through a stable entry point: the ``holodisc compare``
command in-process, or the public functions it and the ``macro``/``weak``
commands call (``run_macro_forced``, ``build_weak_model(...).run``).  Nothing
here calls helpers that ROADMAP items 2-3 delete.

Run lengths are integer multiples of dt, so the engines' step count
``int(round(t_end / dt))`` lands exactly on t_end and ``steps`` counts only
steps actually taken.  Every shortened experiment still passes its own
checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from tracing import CLI

GOLDEN_SEED = 20260819  # the package's default seed; golden values use it


@dataclass
class Outcome:
    """Checked output of one workload iteration."""

    values: dict  # name -> float, compared against golden values
    failures: list  # failed checks, as messages
    steps: int  # integrator time steps taken, summed over runs


def exact_steps(t_end, dt):
    """Step count of a run that lands exactly on t_end; raises otherwise."""
    n = int(round(t_end / dt))
    if n < 1 or n * dt != t_end:
        raise ValueError(f"t_end = {t_end!r} is not a whole number of dt = {dt!r}")
    return n


class CompareWorkload:
    """A shortened experiment run through ``holodisc compare`` in-process."""

    experiment = ""
    why = ""

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def overrides(self):
        raise NotImplementedError

    def steps(self):
        raise NotImplementedError

    def params(self):
        return {"entry": f"holodisc compare --experiment {self.experiment}",
                "overrides": self.overrides(), "steps": self.steps()}

    def build(self, seed):
        """What the experiment builds before its first step, timed as set-up.

        The command builds its own copies; these only measure the cost.
        """
        from holodisc import spec_from_dict

        return spec_from_dict(self.experiment, {**self.overrides(), "seed": seed})

    def _config_path(self, seed):
        path = os.path.join(self.out_dir, f"{self.experiment}-seed{seed}.json")
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump({**self.overrides(), "seed": seed}, fh)
            os.replace(tmp, path)  # runs sharing a checkout never read half a file
        return path

    def run(self, built, seed, tracer=None):
        from holodisc.cli import main

        args = ["compare", "--experiment", self.experiment,
                "--config", self._config_path(seed)]
        buf = io.StringIO()
        code = 0

        def invoke():
            nonlocal code
            with contextlib.redirect_stdout(buf):
                try:
                    main.main(args=args, prog_name="holodisc", standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code

        if tracer is None:
            invoke()
        else:
            tracer.run(CLI, invoke)
        report = json.loads(buf.getvalue())
        failures = [f"{self.experiment}: check {k} failed"
                    for k, ok in sorted(report["checks"].items()) if not ok]
        if code not in (0, None) and not failures:
            failures.append(f"{self.experiment}: compare exited with code {code}")
        for key, want in {**self.overrides(), "seed": seed}.items():
            if key != "extras" and report["config"].get(key) != want:
                failures.append(f"{self.experiment}: spec field {key} was not applied")
        return Outcome(dict(report["metrics"]), failures, self.steps())


class Fig3(CompareWorkload):
    experiment = "fig3"
    why = ("paired fine Burgers (n=32) vs ssm1 (m=4) under one Lorenz path: the "
           "headline check; dispatch-bound, ~80% coarse, so bank/stencil/joint-step "
           "changes show")
    T0, T1, DT = 0.2, 0.4, 1e-3

    def overrides(self):
        return {"t0": self.T0, "t1": self.T1, "dt": self.DT}

    def steps(self):
        return 2 * exact_steps(self.T1, self.DT)  # fine run + coarse run

    def build(self, seed):
        from holodisc import ModelConfig, build_bank

        spec = super().build(seed)
        cfg = ModelConfig(variant="ssm1", alpha=spec.alpha, eps=spec.eps,
                          gamma=spec.gamma, H=spec.H, m=spec.m, dt=spec.dt,
                          scheme=spec.scheme)
        return spec, cfg, build_bank(cfg)


class Fig1Fine(CompareWorkload):
    experiment = "fig1"
    why = ("fine Burgers with one Lorenz driver per grid point and no coarse side: "
           "the only workload where microscale and forcing do most of the work")
    T1, DT = 10.0, 0.01  # longer runs amplify round-off through the chaos

    def overrides(self):
        return {"t1": self.T1, "dt": self.DT}

    def steps(self):
        return exact_steps(self.T1, self.DT)


class WeakDrift(CompareWorkload):
    experiment = "weak-drift"
    why = ("four ssm1 memory chains integrated alone over whole forcing periods: "
           "convolution does the work, stencil and coarse skeletons are bypassed")
    PERIODS, OMEGA, H, DT_NEAR = 2, 2.0, math.pi, 4e-3

    def t_end(self):
        # As weak_drift_experiment computes it: a transient of eight
        # e-foldings of mode 1, then whole forcing periods.
        return 8.0 / (math.pi / self.H) ** 2 + self.PERIODS * (2.0 * math.pi / self.OMEGA)

    def dt(self):
        """The dt nearest DT_NEAR that divides t_end exactly in floating point."""
        t_end = self.t_end()
        n0 = int(round(t_end / self.DT_NEAR))
        for n in sorted(range(n0 - 50, n0 + 51), key=lambda k: abs(k - n0)):
            dt = t_end / n
            if int(round(t_end / dt)) == n and n * dt == t_end:
                return dt
        raise ValueError("no dt near DT_NEAR divides the weak-drift run exactly")

    def overrides(self):
        return {"dt": self.dt(), "extras": {"periods": self.PERIODS}}

    def steps(self):
        return 4 * exact_steps(self.t_end(), self.dt())  # four chains

    def build(self, seed):
        from holodisc import ModelConfig, build_weak_model

        spec = super().build(seed)
        if spec.signal.omega != self.OMEGA or spec.H != self.H:
            raise ValueError("weak-drift defaults changed; the run length is stale")
        cfg = ModelConfig(variant="ssm1", alpha=spec.alpha, eps=spec.eps, H=spec.H,
                          m=spec.m, dt=spec.dt, scheme=spec.scheme)
        return spec, build_weak_model(cfg, spec.signal)


class StrongquadM1024:
    """Strong strongquad at m = 1024 beside its two weak replacements."""

    why = ("strongquad at m=1024 (17408 bank states, 33 couplings) beside its weak "
           "rk4 and euler-maruyama replacements: large arrays, and a setup_s that "
           "grows with m")
    M, ALPHA, EPS, H, DT, T_END, RECORD = 1024, 0.3, 0.05, math.pi / 2, 0.01, 0.4, 10
    HARMONIC = {"kind": "harmonic", "omega": 2.0, "phase": 0.3, "amplitude": 1.0}
    WHITE = {"kind": "white-noise", "intensity": 1.0}

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def steps(self):
        return 3 * exact_steps(self.T_END, self.DT)

    def params(self):
        return {"entry": "run_macro_forced + build_weak_model(...).run",
                "m": self.M, "alpha": self.ALPHA, "eps": self.EPS, "H": self.H,
                "dt": self.DT, "t_end": self.T_END, "record_every": self.RECORD,
                "harmonic": self.HARMONIC, "white": self.WHITE,
                "pattern": "alternating mode 1", "U0": "1 + 0.2 sin(2 pi j / m)",
                "steps": self.steps()}

    def _cfg(self, **kw):
        from holodisc import ModelConfig

        return ModelConfig(variant="strongquad", alpha=self.ALPHA, eps=self.EPS,
                           H=self.H, m=self.M, dt=self.DT, **kw)

    def build(self, seed):
        from holodisc import SignalSpec, alternating_signs, build_bank, build_weak_model

        pattern = np.zeros((self.M, 3))
        pattern[:, 1] = alternating_signs(self.M)
        harmonic = SignalSpec(**self.HARMONIC)
        strong = self._cfg()
        build_bank(strong)  # timed as set-up; run_macro_forced builds its own
        weak_h = build_weak_model(self._cfg(), harmonic, pattern)
        weak_w = build_weak_model(self._cfg(scheme="euler-maruyama", seed=seed),
                                  SignalSpec(**self.WHITE))
        return strong, harmonic, pattern, weak_h, weak_w

    def run(self, built, seed, tracer=None):
        from holodisc import run_macro_forced

        strong, harmonic, pattern, weak_h, weak_w = built
        U0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * np.arange(self.M) / self.M)
        t_s, U_s, bank_s, _ = run_macro_forced(
            strong, U0, [harmonic], lambda vals, t: pattern * vals[0],
            self.T_END, seed, record_every=self.RECORD)
        t_h, U_h = weak_h.run(U0, self.T_END, record_every=self.RECORD)
        t_w, U_w = weak_w.run(U0, self.T_END, record_every=self.RECORD)
        failures = []
        for label, t in (("strong", t_s), ("weak_harmonic", t_h), ("weak_white", t_w)):
            if t[-1] != self.T_END:
                failures.append(f"{label} run ended at t = {t[-1]!r}, not {self.T_END!r}")
        if not (np.array_equal(t_s, t_h) and np.array_equal(t_s, t_w)):
            failures.append("strong and weak runs recorded different time grids")
        values = {}
        for label, U in (("strong", U_s), ("weak_harmonic", U_h), ("weak_white", U_w)):
            final = U[-1]
            values[f"{label}.final_mean"] = float(np.mean(final))
            values[f"{label}.final_min"] = float(np.min(final))
            values[f"{label}.final_max"] = float(np.max(final))
            values[f"{label}.final_rms"] = float(np.sqrt(np.mean(final**2)))
        values["strong.bank_final_rms"] = float(np.sqrt(np.mean(bank_s[-1] ** 2)))
        values["shadow_gap_weak_harmonic"] = float(np.max(np.abs(U_h - U_s)))
        return Outcome(values, failures, self.steps())


WORKLOADS = {
    "fig3": Fig3,
    "strongquad-m1024": StrongquadM1024,
    "weak-drift": WeakDrift,
    "fig1-fine": Fig1Fine,
}

# Values whose golden figure must be met exactly, not to a tolerance.
EXACT = {"fig3": ("forcing_path_gap",)}
RTOL = 1e-9


def golden_failures(workload, values, golden):
    """Messages for every golden value the outcome misses."""
    failures = []
    exact = EXACT.get(workload, ())
    for key, want in sorted(golden.items()):
        got = values.get(key)
        if got is None:
            failures.append(f"golden value {key} was not produced")
        elif key in exact and got != want:
            failures.append(f"{key} = {got!r}, golden {want!r} (exact)")
        elif not abs(got - want) <= RTOL * abs(want) + 1e-15:
            failures.append(f"{key} = {got!r}, golden {want!r}")
    return failures
