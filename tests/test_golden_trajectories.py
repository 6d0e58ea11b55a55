"""Coarse runs reproduce the trajectories recorded in tests/data/.

The data were recorded with ``tests/golden_runs.py`` before the coarse
models were compiled into packed banks; any change to the coarse models
must keep every recorded array within 1e-12 of its scale.  The weak-drift
metrics in tests/data/weak_drift_golden.json were recorded the same way,
before its four chains were integrated as one packed state, and must be
reproduced exactly.  The run_paired stage paths in
tests/data/stage_golden.npz were recorded before the paired stage was
compiled once per run (``fig3_paired`` and ``ssm1_harmonic_m64`` before
ssm1's stage read its operands from the joint state by gathers), and those
in tests/data/fine_stage_golden.npz
(fig1's history, the conservative and skew advection forms, the fine
lattice) before the fine side was; both must be reproduced bit for bit.
So must the weak runs in tests/data/weak_golden.npz: weak ssm1, recorded
before the weak models were built on the strong variants' compiled forms,
and weak strongquad at m = 8, recorded before 1-D memory cascades were
stepped on Python floats.  The large-amplitude ssm1 runs in
tests/data/amplitude_golden.npz, recorded before march screened its state
by one sum of squares, must be reproduced bit for bit too, and so must
ssm1_rhs's dU at chain outputs near 1e8 in tests/data/memory_golden.npz,
recorded before ssm1's float and array bodies shared one point expression.
"""

import dataclasses
import json

import numpy as np
import pytest

import golden_runs

GOLDEN = np.load(golden_runs.DATA)
STAGE_GOLDEN = np.load(golden_runs.STAGE_DATA)
FINE_STAGE_GOLDEN = np.load(golden_runs.FINE_STAGE_DATA)
WEAK_GOLDEN = np.load(golden_runs.WEAK_DATA)
AMPLITUDE_GOLDEN = np.load(golden_runs.AMPLITUDE_DATA)
MEMORY_GOLDEN = np.load(golden_runs.MEMORY_DATA)
EXACT_RUNS = [(runs, golden, name)
              for runs, golden in ((golden_runs.STAGE_RUNS, STAGE_GOLDEN),
                                   (golden_runs.FINE_STAGE_RUNS, FINE_STAGE_GOLDEN),
                                   (golden_runs.WEAK_RUNS, WEAK_GOLDEN),
                                   (golden_runs.AMPLITUDE_RUNS, AMPLITUDE_GOLDEN),
                                   (golden_runs.MEMORY_RUNS, MEMORY_GOLDEN))
              for name in runs]


@pytest.mark.parametrize("name", list(golden_runs.RUNS))
def test_run_matches_its_recording(name):
    got = golden_runs.RUNS[name]()
    recorded = sorted(k.split("/", 1)[1] for k in GOLDEN.files
                      if k.startswith(name + "/"))
    assert sorted(got) == recorded
    for key in recorded:
        want = GOLDEN[f"{name}/{key}"]
        assert got[key].shape == want.shape, key
        scale = max(float(np.max(np.abs(want))), 1e-300)
        gap = float(np.max(np.abs(got[key] - want)))
        assert gap <= 1e-12 * scale, (key, gap / scale)


def test_weak_drift_matches_its_recording():
    report = golden_runs.weak_drift()
    assert report.checks["weak_has_no_memory"]
    assert all(report.checks.values()), report.checks
    with open(golden_runs.WEAK_DRIFT_DATA) as fh:
        assert report.metrics == json.load(fh)


def test_weak_drift_steps_its_chains_by_the_spec_scheme():
    spec = golden_runs.weak_drift_spec()
    reports = {scheme: golden_runs.weak_drift_experiment(
        dataclasses.replace(spec, scheme=scheme)) for scheme in ("rk4", "euler")}
    assert reports["euler"].config["scheme"] == "euler"
    for label in ("z1", "z21", "z41", "z61"):
        key = f"avg_{label}"
        assert reports["euler"].metrics[key] != reports["rk4"].metrics[key], key


@pytest.mark.parametrize("runs, golden, name", EXACT_RUNS,
                         ids=[name for _, _, name in EXACT_RUNS])
def test_stage_run_matches_its_recording_exactly(runs, golden, name):
    got = runs[name]()
    recorded = sorted(k.split("/", 1)[1] for k in golden.files
                      if k.startswith(name + "/"))
    assert sorted(got) == recorded
    for key in recorded:
        assert np.array_equal(got[key], golden[f"{name}/{key}"]), key
