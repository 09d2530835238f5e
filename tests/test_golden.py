"""Golden bytes of the ``evaluate`` bundle, and method-order invariance.

Every file ``evaluate`` writes is pinned by its sha256 for two small pinned
synthetic bundles:

* ``demo``: the ``scripts/run_demo.py`` scenario at seed 11, with a revisit
  and an outage over three dwells; the visit table is detected.
* ``replay``: two estimates of one schedule plus the receiver itself, read
  at whole-second instants through an imported visit table. One visit lies
  past the end of the tracks, so every method skips it, and the receiver
  also skips the visit inside the outage.

A change that moves these bytes on purpose updates the pins and says why.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from geotraj.config import load_run_config
from geotraj.geodesy import UtmCoord, utm_to_geodetic
from geotraj.matching import CheckpointVisit, VisitTable, export_visit_table
from geotraj.report import evaluate_run, report_to_dict, write_report
from geotraj.synth import ScenarioSpec, generate, write_scenario
from geotraj.trajectory_io import DeviceCalibration, write_trajectory

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
E0, N0, H0 = 513000.0, 5403000.0, 300.0

GOLDEN = {
    "demo": {
        "checkpoint_errors.svg":
            "e6750d10163ef2abff036ed76c2cc93cf2b161bb22f1bb8d6758cd5d982f64fb",
        "drift_samples.csv":
            "81484555c15db3e4f7f03217821b01458f7a5bafba19b09d560c23fdb87344b1",
        "drift_time.svg":
            "c1e5b7b8e39b4c506d0d89d82d160fa95fdbd175e3028f9582ca92ba39c1c7a3",
        "errors.csv":
            "58caddef012ebaaa86ef045b7cc51fab88b16872661ef16dde19429a89ca7898",
        "report.json":
            "853b15bf3f576fe909406a109aba70e0bee1676d36668737e28df28cb744de7a",
        "trajectory_overlay.svg":
            "b379e6d50f8703a41e6b6680016a8bb34b7d5040a413b3ebf915b10a4ff79f2a",
        "visit_table.json":
            "07c866e810a06582824f747b14d9bb7231d81992ef80618d617db6abba0ad82d",
    },
    "replay": {
        "checkpoint_errors.svg":
            "2f92142ebcf1192ef998623993e994253e0fa2a8f3bcf3eced9044b124e7d863",
        "drift_samples.csv":
            "906f3c32dd5e476c8c3acba560eab47085d68dff2b93e963a299e51f3b377ce1",
        "drift_time.svg":
            "88f3724cd544627c67c6783963cc05ec123ddd276413c4577a90a058ef39d857",
        "errors.csv":
            "3176d0449377a9544bcbdba476c020f1970e2d4b97a48b44380591f81b26b195",
        "report.json":
            "f33e716d8d0582631519832d2e63bd21fe759b92e91270c445bf9ee5a217d12f",
        "trajectory_overlay.svg":
            "30dc37704e7fade0f08af76970bb962aa68d8343fc185fcb2c4c39f1f52ca1ad",
        "visit_table.json":
            "c7a8187d4ce04850db0e7919fd557208c3f7faf21c220a65afa868c874cc43ee",
    },
}


def _demo_spec(seed: int) -> ScenarioSpec:
    loader = importlib.util.spec_from_file_location("run_demo", DEMO_SCRIPT)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.build_spec(seed, 0.02, True)


def _zigzag_spec(seed: int, drift_rate: float) -> ScenarioSpec:
    corners = [(0.0, 0.0), (90.0, 0.0), (90.0, 90.0), (180.0, 90.0), (180.0, 0.0)]
    return ScenarioSpec(
        seed=seed,
        waypoints=np.array([[E0 + de, N0 + dn, H0] for de, dn in corners]),
        dwells=[(f"CP{i + 1:02d}", 8.0) for i in range(5)],
        speed=1.5,
        origin=utm_to_geodetic(UtmCoord(E0, N0, H0, 32, "north")),
        zone=32,
        outage_windows=[(70.0, 130.0)],
        drift_rate=drift_rate,
        global_bias=np.array([0.12, -0.05, 0.03]),
        noise_sigma=0.02,
        calibration=DeviceCalibration([-0.073, -0.023, -0.172],
                                      [0.023, -0.023, 0.090]),
    )


def _edit_run(bundle: Path, **changes) -> None:
    doc = json.loads((bundle / "run.json").read_text())
    doc.update(changes)
    (bundle / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def _demo_bundle(root: Path) -> Path:
    write_scenario(generate(_demo_spec(11)), root)
    return root


def _two_method_bundle(root: Path):
    """Two estimates of one schedule; the receiver log is the first's."""
    first = generate(_zigzag_spec(21, 0.0))
    write_scenario(first, root, method_label="slam-a")
    write_trajectory(generate(_zigzag_spec(22, 0.02)).estimate, root / "b.tum")
    _edit_run(root, methods=[{"label": "slam-a", "trajectory": "estimate.tum"},
                             {"label": "slam-b", "trajectory": "b.tum"}],
              include_rtk_method=True)
    return root, first


def _replay_bundle(root: Path) -> Path:
    root, first = _two_method_bundle(root)
    cps = {cp.id: cp.coord for cp in first.checkpoints}
    times = [(w.checkpoint_id, float(round(w.t_mid))) for w in first.dwell_windows]
    times.append(("CP01", float(round(first.t[-1])) + 5.0))
    visits = [CheckpointVisit(cp_id, t_rep, cps[cp_id], 0.0) for cp_id, t_rep in times]
    (root / "table.json").write_text(
        export_visit_table(VisitTable("golden-table", "synth-schedule", visits)),
        encoding="utf-8")
    _edit_run(root, visit_table="table.json")
    return root


def _digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name, build", [("demo", _demo_bundle),
                                         ("replay", _replay_bundle)])
def test_evaluate_writes_golden_bytes(tmp_path, name, build):
    bundle = build(tmp_path / "bundle")
    out = tmp_path / "out"
    write_report(evaluate_run(load_run_config(bundle / "run.json")), out)
    assert _digests(out) == GOLDEN[name]


def test_method_entries_ignore_order_and_copies(tmp_path):
    """With the table method pinned, reordering the methods or adding a copy
    of one under another label leaves every method's entry unchanged."""
    bundle, _ = _two_method_bundle(tmp_path)
    a = {"label": "slam-a", "trajectory": "estimate.tum"}
    b = {"label": "slam-b", "trajectory": "b.tum"}
    a_copy = {"label": "slam-a-copy", "trajectory": "estimate.tum"}
    entries = []
    for methods in ([a, b], [b, a], [b, a_copy, a]):
        _edit_run(bundle, methods=methods, table_method="slam-a")
        doc = report_to_dict(evaluate_run(load_run_config(bundle / "run.json")))
        entries.append({m["label"]: m for m in doc["methods"]})
    first, reordered, copied = entries
    assert reordered == first
    assert copied.pop("slam-a-copy") == dict(first["slam-a"], label="slam-a-copy")
    assert copied == first
