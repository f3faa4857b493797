"""Self-tests of the benchmark: result format, exact counters, the
determinism fingerprint, and refusal to run without the program's sources.

    python3 -m pytest perfbench -q

Each workload is run twice, traced, for one second (about a minute in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# gradcheck is run by hand only, but tested like the listed workloads
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["gradcheck"]
SEED = 7

# per step on the train workloads, per pass on eval-gallery
EXPECTED_COUNTS = {
    "train-t4": {"autodiff.tape_entries": 494, "encoders.encode_video_calls": 16,
                 "encoders.nonlocal_calls": 32, "losses.triplet_calls": 4},
    "train-t16": {"autodiff.tape_entries": 494, "encoders.encode_video_calls": 16,
                  "encoders.nonlocal_calls": 32, "losses.triplet_calls": 4},
    "eval-gallery": {"encoders.encode_video_calls": 900},
    "gradcheck": {},
}
EXACT = ("autodiff.tape_entries", "autodiff.fd_evals", "encoders.encode_video_calls",
         "encoders.nonlocal_calls", "losses.triplet_calls", "losses.pairwise_euclidean_calls")


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report


@pytest.fixture(scope="module")
def traced():
    """Every workload traced twice at one seed: {workload: [(result, report)] * 2}."""
    return {w: [parse(run(w, 1)) for _ in range(2)] for w in WORKLOADS}


def _names_units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def test_untraced_result_has_every_end_to_end_metric():
    result, _ = parse(run("train-t4", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _names_units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_has_every_per_layer_metric(traced, workload):
    for result, report in traced[workload]:
        if workload != "gradcheck":
            assert result["correct"], report["problems"]
        assert _names_units(result["metrics"]) == {m["name"]: m["unit"]
                                                   for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(traced, workload):
    # the report line holds every metric, autodiff.fd_evals included
    (_, r1), (_, r2) = traced[workload]
    first, second = r1["metrics"], r2["metrics"]
    assert r1["counters_exact"] and r2["counters_exact"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    for name, count in EXPECTED_COUNTS[workload].items():
        assert first[name]["value"] == count, name
    if workload == "gradcheck":
        assert first["autodiff.fd_evals"]["value"] > 0


@pytest.mark.parametrize("workload", ["train-t4", "train-t16"])
def test_training_fingerprint_repeats(traced, workload):
    (_, r1), (_, r2) = traced[workload]
    assert r1["fingerprint"] == r2["fingerprint"]
    assert set(r1["fingerprint"]) == {"log_sha256", "checkpoint_sha256"}


@pytest.mark.parametrize("workload", ["train-t4", "train-t16", "eval-gallery"])
def test_spans_cover_the_loop(traced, workload):
    for result, _ in traced[workload]:
        assert result["metrics"]["trace.span_coverage_pct"]["value"] >= 90.0


def test_gradcheck_gate_agrees_with_the_suite(traced):
    """The gate reports exactly what ``gradcheck_suite`` reports at the seed
    (at seed 7 some checks fail: a hidden pre-activation of the micro
    instance is exactly 0, so central differences straddle the ReLU kink)."""
    sys.path.insert(0, str(ROOT / "src"))
    from i2vmatch.training import gradcheck_suite

    passed = all(o.passed for o in gradcheck_suite(scope="all", extended=True,
                                                   seeds=(SEED,)))
    for result, _ in traced["gradcheck"]:
        assert result["correct"] == passed
        assert result["failed"] == (0 if passed else result["attempted"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("train-t4", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
