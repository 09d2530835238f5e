"""Report assembly: extra methods, warnings, skipped visits, provenance."""

import json

import numpy as np
import pytest

from geotraj.config import load_run_config
from geotraj.geodesy import UtmCoord, utm_to_geodetic
from geotraj.report import (
    RTK_METHOD_LABEL,
    evaluate_run,
    format_summary_table,
    report_to_dict,
    write_report,
)
from geotraj.synth import ScenarioSpec, generate, write_scenario
from geotraj.trajectory_io import DeviceCalibration

E0, N0, H0 = 513000.0, 5403000.0, 300.0


def _bundle(tmp_path, **spec_kw):
    corners = [(0.0, 0.0), (90.0, 0.0), (90.0, 90.0), (0.0, 90.0)]
    defaults = dict(
        seed=5,
        waypoints=np.array([[E0 + de, N0 + dn, H0] for de, dn in corners]),
        dwells=[(f"CP{i+1:02d}", 8.0) for i in range(4)],
        speed=1.5,
        origin=utm_to_geodetic(UtmCoord(E0, N0, H0, 32, "north")),
        zone=32,
        calibration=DeviceCalibration([-0.073, -0.023, -0.172],
                                      [0.023, -0.023, 0.090]),
    )
    defaults.update(spec_kw)
    write_scenario(generate(ScenarioSpec(**defaults)), tmp_path,
                   method_label="slam")
    return tmp_path


def _edit_run(bundle, **changes):
    doc = json.loads((bundle / "run.json").read_text())
    doc.update(changes)
    (bundle / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def test_rtk_standalone_method_evaluates_clean(tmp_path):
    bundle = _bundle(tmp_path, global_bias=np.array([1.0, 0.0, 0.0]))
    _edit_run(bundle, include_rtk_method=True)
    report = evaluate_run(load_run_config(bundle / "run.json"))
    labels = [m.label for m in report.methods]
    assert labels == ["slam", RTK_METHOD_LABEL]
    by_label = {m.label: m for m in report.methods}
    # The receiver track carries no bias; the SLAM estimate carries 1 m.
    assert by_label["slam"].summary.rmse_absolute == pytest.approx(1.0, abs=1e-6)
    assert by_label[RTK_METHOD_LABEL].summary.rmse_absolute < 0.01
    doc = report_to_dict(report)
    assert [m["label"] for m in doc["methods"]] == labels


def test_truncated_trajectory_skips_visits_with_warning(tmp_path):
    from geotraj.matching import export_visit_table

    bundle = _bundle(tmp_path)
    full = evaluate_run(load_run_config(bundle / "run.json"))
    (bundle / "table.json").write_text(export_visit_table(full.table),
                                       encoding="utf-8")
    # Cut the estimate short of the last dwell; the imported table still
    # carries that timestamp but no pose sits within the lookup gap.
    lines = (bundle / "estimate.tum").read_text().splitlines()
    keep = [ln for ln in lines
            if ln.startswith("#") or float(ln.split()[0]) < 200.0]
    (bundle / "estimate.tum").write_text("\n".join(keep) + "\n")
    _edit_run(bundle, visit_table="table.json")
    report = evaluate_run(load_run_config(bundle / "run.json"))
    method = report.methods[0]
    assert len(method.skipped_visits) == 1
    assert method.skipped_visits[0].startswith("CP04")
    assert method.summary.n_points == 3
    assert any("skipped 1 visit" in w for w in report.warnings)


def test_unvisited_checkpoint_warning(tmp_path):
    bundle = _bundle(tmp_path)
    with open(bundle / "checkpoints.csv", "a", encoding="utf-8") as fh:
        fh.write(f"GHOST,{E0 + 400.0!r},{N0!r},{H0!r}\n")
    report = evaluate_run(load_run_config(bundle / "run.json"))
    assert "GHOST" in report.table.unvisited_checkpoints
    assert any("GHOST" in w for w in report.warnings)


def test_low_fix_coverage_warning(tmp_path):
    bundle = _bundle(tmp_path, outage_windows=[(20.0, 220.0)],
                     drift_rate=0.01, noise_sigma=0.01)
    report = evaluate_run(load_run_config(bundle / "run.json"))
    assert any("low fix coverage" in w for w in report.warnings)


def test_no_outage_means_no_drift_fit(tmp_path):
    bundle = _bundle(tmp_path)
    report = evaluate_run(load_run_config(bundle / "run.json"))
    method = report.methods[0]
    assert method.fit_time is None
    assert np.all(method.dt == 0.0)
    assert any("no drift fit" in w for w in report.warnings)


def test_config_hash_pins_content(tmp_path):
    bundle = _bundle(tmp_path)
    r1 = evaluate_run(load_run_config(bundle / "run.json"))
    r2 = evaluate_run(load_run_config(bundle / "run.json"))
    assert r1.config_sha256 == r2.config_sha256
    _edit_run(bundle, thresholds={"stationary_radius": 0.05, "min_dwell": 5.0,
                                  "gate_radius": 3.0, "eps0": 0.02})
    r3 = evaluate_run(load_run_config(bundle / "run.json"))
    assert r3.config_sha256 != r1.config_sha256


def test_summary_table_layout(tmp_path):
    bundle = _bundle(tmp_path, global_bias=np.array([0.3, 0.0, 0.0]))
    report = evaluate_run(load_run_config(bundle / "run.json"))
    text = format_summary_table(report)
    lines = text.splitlines()
    assert lines[0].startswith("sequence:")
    assert "abs RMSE [m]" in lines[1]
    assert lines[2].startswith("slam")
    assert " 0.300" in lines[2]


def test_report_dict_rounds_meters_but_not_gap(tmp_path):
    bundle = _bundle(tmp_path, noise_sigma=0.004)
    report = evaluate_run(load_run_config(bundle / "run.json"))
    doc = report_to_dict(report)
    summary = doc["methods"][0]["summary"]
    assert summary["rmse_absolute_m"] == round(summary["rmse_absolute_m"], 6)
    assert isinstance(summary["gap_percent_rounded"], int)
    assert summary["gap_percent"] == report.methods[0].summary.gap_percent


def test_write_report_refuses_non_finite_numbers(tmp_path):
    from geotraj.drift import DriftFit

    report = evaluate_run(load_run_config(_bundle(tmp_path / "in") / "run.json"))
    report.methods[0].fit_time = DriftFit(0.02, float("nan"), 4)
    with pytest.raises(ValueError):
        write_report(report, tmp_path / "out")
