"""Smoke test of the benchmark itself, at a tiny size (about 15 s).

    python -m pytest perfbench/check_bench.py -q

The file name keeps it out of the repository's default test collection.
"""

import json

import pytest

import run
import workloads
from workloads import ROOT, Sizes

# loocv: 3 folds, each training pool 4 samples per class, so that one per
# class goes to validation and evaluate_accuracy is reached
TINY = Sizes(n_frames=4, pipeline_scenes=(1, 1, 1), loocv_scenes=(3, 1, 2),
             infer_scenes=(2, 1, 1), setup_reps=1, batch_size=8, min_requests=20,
             traced_requests=14)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("radar", "gestures", "dsp", "io", "nn", "model", "evaluate", "cli")


def run_tiny(name, trace=False):
    return run.run(name, seed=5, seconds=0.2, trace=trace, sizes=TINY)


@pytest.fixture(scope="module")
def traced():
    return {name: run_tiny(name, trace=True)[0] for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_by_name_and_unit(name):
    result, report = run_tiny(name)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1 and report["error_rate"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_covers_every_layer(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    reached = {k for r in traced.values() for k, v in r["metrics"].items() if v["value"] > 0}
    # every listed metric is measured on some workload: no misspelt name reads 0
    assert reached == set(want)
    for module in MODULES:
        assert any(k.startswith(module + ".") and k.endswith("ms") for k in reached), module


def test_injected_dsp_fault_raises_error_rate(monkeypatch):
    condition = workloads.dsp.condition_rfdm

    def skewed(seq, *args, **kwargs):
        out = condition(seq, *args, **kwargs)
        out.frames = out.frames * 0.99
        return out

    monkeypatch.setattr(workloads.dsp, "condition_rfdm", skewed)
    result, report = run_tiny("pipeline")
    # per job: the manifest check passes, the three scene checks fail
    assert not result["correct"] and report["error_rate"] == 0.75


def test_injected_predict_fault_raises_error_rate(monkeypatch):
    predict = workloads.model.predict

    def skewed(model, seq):
        idx, probs = predict(model, seq)
        return idx, probs * 1.01

    monkeypatch.setattr(workloads.model, "predict", skewed)
    result, report = run_tiny("infer")
    assert result["failed"] == result["attempted"] and report["error_rate"] == 1.0


def test_run_with_no_completed_operation_reports_failure(monkeypatch):
    def broken(model, seq):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.model, "predict", broken)
    result, report = run_tiny("infer")
    assert (result["correct"], result["metrics"]) == (False, {})
    assert result["failed"] == result["attempted"] > 0 and report["error_rate"] == 1.0
