"""Self-test of the benchmark at tiny scale; runs in seconds.

    PYTHONPATH=src python -m pytest -q perfbench

Each workload goes through generate, child evaluate, oracle and trace with a
few thousand poses. The repository's own test suite does not collect this
file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from layers import EVAL_NAMES, PER_LAYER, layer_metrics, missing_names  # noqa: E402

SEED = 9001


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_untraced(name):
    result = run.run_workload(name, SEED, 0.0, trace=False, tiny=True)
    assert result["correct"], result["notes"]
    assert result["attempted"] == run.MIN_EVALS and result["failed"] == 0
    assert len(set(result["setup_digests"])) == 1
    assert len(result["setup_samples_s"]) == run.SETUP_REPS
    assert set(result["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["end_to_end"].values())
    assert result["extra"]["fail_ratio"] == 0.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_traced(name):
    result = run.run_workload(name, SEED, 0.0, trace=True, tiny=True)
    assert result["correct"], result["notes"]
    layers = result["per_layer"]
    assert set(layers) == set(PER_LAYER)
    assert layers["trace.missing_names"] == 0
    assert layers["trajectory_io.poses_parsed"] == result["poses"]
    assert layers["synth.generate_s"] > 0 and layers["trajectory_io.write_s"] > 0
    if name == "replay-4x-100hz":
        assert layers["matching.detect_dwells_calls"] == 0
        assert layers["matching.lookups_skipped"] > 0
    else:
        assert layers["matching.detect_dwells_calls"] == 1
        assert layers["matching.dwells"] > 0


def test_a_seed_gives_identical_bundles_in_two_processes(tmp_path):
    digests = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        doc = run.setup("replay-4x-100hz", SEED, work, 1, perf_counter() + 60, True)
        digests.append(doc["digests"][0])
    other = tmp_path / "other"
    other.mkdir()
    doc = run.setup("replay-4x-100hz", SEED + 1, other, 1, perf_counter() + 60, True)
    assert digests[0] == digests[1] != doc["digests"][0]


def test_comparator_gives_zero_deltas_on_the_expected_values(tmp_path):
    run.setup("long-dwell-100hz", SEED, tmp_path, 1, perf_counter() + 60, True)
    expected = json.loads((tmp_path / "bundle" / "expected_slam.json").read_text())
    visits = expected["visits"]
    eps = [v["eps_m"] for v in visits]
    alpha_dist = oracle.fixed_intercept_slope([v["dx_m"] for v in visits], eps,
                                              expected["eps0"])
    method = {
        "label": "slam",
        "summary": {"n_points": expected["n_points"],
                    "rmse_absolute_m": expected["rmse_absolute"],
                    "gap_percent": expected["gap_percent"]},
        "drift": {"fit_time": {"alpha": expected["alpha_time_realized"]},
                  "fit_distance": {"alpha": alpha_dist}},
    }
    deltas = oracle.compare(expected, method)
    assert set(deltas) == set(oracle.ORACLE_METRICS)
    assert all(v == 0.0 for v in deltas.values()), deltas
    method["summary"]["n_points"] += 3
    method["drift"]["fit_distance"] = None
    deltas = oracle.compare(expected, method)
    assert deltas["oracle.visit_count_err"] == 3.0
    assert deltas["oracle.alpha_dist_err_pct"] == 100.0


def test_failed_evaluations_are_counted(tmp_path):
    schema = json.loads(run.SCHEMA.read_text())
    deadline = perf_counter() + 60
    sample, _ = run.evaluate(tmp_path / "missing.json", tmp_path / "none", tmp_path,
                             deadline, schema, None)
    assert sample["rc"] == 2 and "ConfigError" in sample["error"]

    run.setup("revisit-grid-10hz", SEED, tmp_path, 1, deadline, True)
    out = tmp_path / "out"
    sample, first = run.evaluate(tmp_path / "bundle" / "run.json", out, tmp_path,
                                 deadline, schema, None)
    assert "error" not in sample and first
    (out / "report.json").write_bytes(first.replace(b"\n", b"\n ", 1))
    assert run.check_report(out, schema, first)[1].startswith("report bytes differ")
    (out / "report.json").write_text('{"methods": []}')
    assert "schema" in run.check_report(out, schema, None)[1]


def test_a_missing_public_name_reads_zero_and_is_noted():
    wrapped = [n for n in EVAL_NAMES if n != "report.evaluate_run"]
    assert missing_names(wrapped, EVAL_NAMES) == ["report.evaluate_run"]
    report = {"visit_table": {"n_visits": 4}, "methods": [{"skipped_visits": []}]}
    layers = layer_metrics({}, {}, 1.0, report)
    assert layers["report.evaluate_run_self_s"] == 0
    assert layers["matching.detect_dwells_calls"] == 0
    assert layers["matching.match_yield"] == 0.0


def test_benchmark_json_declares_what_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert doc["run_seconds"] == run.DEFAULT_SECONDS


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "replay-4x-100hz", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
