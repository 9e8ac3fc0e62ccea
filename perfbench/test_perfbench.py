"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "lambda-sweep": dict(m=6, n=12, l=16, k=2, p=20, grid=(0.0, 0.5)),
    "snr-sweep-cli": dict(m=6, n=12, l=16, k=2, p=20, snr_grid=(15.0, 35.0),
                          lemma1_p=2000),
    "etf-design": dict(m=6, n=12, l=16, k=2, p=20, outer_iters=3, lams=(0.5,)),
    "highdim-design": dict(ns=(12, 24), k=2, p=20, max_cg_iterations=20),
}


def tiny(name, cls=None):
    return (cls or workloads.WORKLOADS[name])(**TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_and_emits_every_metric(name, trace):
    out = run.run_workload(tiny(name), seed=3, seconds=0.0, trace=bool(trace))
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _perturbing(cls):
    """A workload whose designs come back with phi perturbed."""

    class Corrupted(cls):
        def run_job(self, lib, inputs, job):
            real = lib.experiments.design_for_method

            def corrupt(*args, **kwargs):
                result = real(*args, **kwargs)
                noise = np.random.default_rng(0).standard_normal(result.phi.shape)
                return dataclasses.replace(result, phi=result.phi + 1e-3 * noise)

            lib.experiments.design_for_method = corrupt
            try:
                super().run_job(lib, inputs, job)
            finally:
                lib.experiments.design_for_method = real

    return Corrupted


@pytest.mark.parametrize("name", ["lambda-sweep", "etf-design"])
def test_perturbed_design_is_a_failed_operation(name):
    cls = workloads.WORKLOADS[name]
    out = run.run_workload(tiny(name, _perturbing(cls)), seed=3, seconds=0.0, trace=False)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("gradient norm" in f for f in out["report"]["failures"])


def test_output_that_changes_between_jobs_is_a_failed_operation():
    class Drifting(workloads.LambdaSweep):
        calls = 0

        def run_job(self, lib, inputs, job):
            super().run_job(lib, inputs, job)
            Drifting.calls += 1
            if Drifting.calls > 1:
                key = next(iter(job.outputs))
                job.outputs[key] = "changed"

    # a traced run repeats the job after the untraced pass
    out = run.run_workload(tiny("lambda-sweep", Drifting), seed=3, seconds=0.0, trace=True)
    assert out["result"]["failed"] == 1
    assert "differs" in out["report"]["failures"][0]


def test_reference_check_flags_a_worse_rho_mse(monkeypatch):
    monkeypatch.setattr(run, "reference_for", lambda wl, seed: {"mt|lambda=0.5": 1e-9})
    out = run.run_workload(tiny("lambda-sweep"), seed=3, seconds=0.0, trace=False)
    assert out["result"]["failed"] == 1
    assert "reference" in out["report"]["failures"][0]


def test_reference_covers_every_workload_at_the_default_seed():
    ref = json.loads(run.REFERENCE.read_text())
    assert ref["seed"] == run.DEFAULT_SEED
    assert set(ref["workloads"]) == set(workloads.WORKLOADS)
    assert run.reference_for(workloads.LambdaSweep(), run.DEFAULT_SEED) is not None
    assert run.reference_for(workloads.LambdaSweep(), run.DEFAULT_SEED + 1) is None
    assert run.reference_for(tiny("lambda-sweep"), run.DEFAULT_SEED) is None


def test_lambda_job_reproduces_the_sweep_harness():
    lib = run.load_library()
    wl = tiny("lambda-sweep")
    inputs = wl.prepare(lib, 5, str(run.OUT_DIR))
    job = workloads.Job()
    wl.run_job(lib, inputs, job)
    expected = []
    for point in inputs["points"]:
        expected += lib.experiments.run_lambda_sweep(
            point["params"], list(wl.grid), [point["seed"]], methods=("mt",))
    assert [rec.rho_mse for _, rec in job.records] == [rec.rho_mse for rec in expected]


def test_tail_is_the_slowest_point_over_repeated_jobs():
    jobs = [workloads.Job(point_ms=[1.0, 9.0, 3.0]), workloads.Job(point_ms=[2.0, 5.0, 4.0]),
            workloads.Job(point_ms=[1.5, 7.0, 30.0])]
    assert run.slowest_point(jobs) == 7.0


def test_self_time_is_the_span_minus_its_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        [tracing.JOB_SPAN, 0.0, 10.0, -1],
        ["recovery.batch_recover", 1.0, 7.0, 0],
        ["recovery.omp", 2.0, 4.0, 1],
        ["recovery.omp", 4.0, 6.0, 1],
    ]
    m = tracing.layer_metrics(tracer, untraced_wall_s=9.0)
    assert m["recovery.omp.calls"][0] == 2
    assert m["recovery.omp.self_ms"][0] == pytest.approx(4000.0)
    assert m["recovery.us_per_signal"][0] == pytest.approx(3e6)
    assert m["recovery.share_of_wall"][0] == pytest.approx(60.0)
    assert m["bench.share_of_wall"][0] == pytest.approx(40.0)
    assert m["trace.overhead_s"][0] == pytest.approx(1.0)


def test_computed_costs_include_the_sre_product():
    lib = run.load_library()
    psi = np.ones((6, 8))
    phi = np.ones((3, 6))
    plain = lib.objective.ObjectiveSpec(psi=psi, lam=0.5)
    sre = lib.objective.ObjectiveSpec(psi=psi, lam=0.5, sre=np.ones((6, 100)))
    f_plain, _ = tracing.objective_cost("objective_value", phi, plain)
    f_sre, _ = tracing.objective_cost("objective_value", phi, sre)
    assert f_sre - f_plain == 2 * 3 * 6 * 100 + 2 * 3 * 100 - 2 * 3 * 6
    assert tracing.omp_cost(20, 80, 4) > tracing.omp_cost(20, 80, 1)


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in run.HERE.iterdir():
        if src.is_file():
            shutil.copy(src, bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lambda-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_keeps_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
