"""Self-test of the benchmark.

Run from the root of a source checkout (about a minute):

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import EXACT, GOLDEN_SEED, WORKLOADS, exact_steps, golden_failures

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN.read_text())
holodisc = run.import_program()


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_describes_this_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    details = json.loads(proc.stdout.splitlines()[-2])
    prov = details["provenance"]
    for key in ("python", "numpy", "nproc", "git_commit", "seed", "params"):
        assert key in prov
    if trace == "1":
        assert details["missing_probes"] == []


def test_golden_check_rejects_a_perturbed_value():
    for name, entry in GOLDEN["workloads"].items():
        values = entry["values"]
        assert golden_failures(name, dict(values), values) == []
        for key, want in values.items():
            bumped = dict(values, **{key: want + max(abs(want) * 1e-6, 1e-12)})
            assert golden_failures(name, bumped, values), (name, key)
        missing = dict(values)
        missing.pop(next(iter(values)))
        assert golden_failures(name, missing, values)
    assert GOLDEN["workloads"]["fig3"]["values"]["forcing_path_gap"] == 0.0
    assert "forcing_path_gap" in EXACT["fig3"]


def test_golden_values_match_the_parameters_of_the_workloads():
    assert GOLDEN["seed"] == GOLDEN_SEED
    for name, cls in WORKLOADS.items():
        run.load_golden(name, cls(str(run.OUT)).params())


def test_run_lengths_are_whole_numbers_of_steps():
    with pytest.raises(ValueError):
        exact_steps(1.0, 0.3)
    for cls in WORKLOADS.values():
        assert cls(str(run.OUT)).steps() > 0


COUNTS = {name for name, unit, _ in tracing.PER_LAYER if unit == "count"} | {
    "convolution.canon_per_coarse_rhs", "macromodel.bank_lookups_per_rhs"}


def test_traced_iterations_restore_every_binding_and_repeat_their_counts():
    run.OUT.mkdir(exist_ok=True)
    workload = WORKLOADS["fig3"](str(run.OUT))
    r = run.Run(workload, "fig3", None)
    built = workload.build(1)
    originals = (holodisc.macromodel.delta2, holodisc.harness.rk4_step,
                 holodisc.harness.EXPERIMENTS["fig3"])
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        with tracer:
            assert tracing.instrumented_bindings()
            assert r.iterate(built, 1, tracer) is not None
        counts.append({k: v for k, v in tracing.iteration_metrics(
            tracer.take_counters(), 1.0).items() if k in COUNTS})
        assert tracing.instrumented_bindings() == []
    assert r.failed == 0
    assert counts[0] == counts[1] and counts[0]["macromodel.rhs_calls"] > 0
    assert (holodisc.macromodel.delta2, holodisc.harness.rk4_step,
            holodisc.harness.EXPERIMENTS["fig3"]) == originals
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert tracing.instrumented_bindings() == []


def test_a_deleted_target_reports_its_metrics_as_missing(monkeypatch):
    bank = holodisc.macromodel.ChainBank
    monkeypatch.delattr(bank, "bound_to")
    monkeypatch.delattr(bank, "unpack")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.missing == {"macromodel.bank_rebind"}
    empty = tracing.iteration_metrics(({}, {}, {}), 1.0)
    layer = tracing.summarise([empty], tracer.missing)
    assert layer["macromodel.bank_rebinds"] is None
    assert layer["macromodel.rhs_calls"] == 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fig3", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
