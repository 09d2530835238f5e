"""The three benchmark workloads and the input bundles they evaluate.

Every workload is a synthetic survey made with ``geotraj.synth`` and written
with the package's own writers, so nothing is downloaded. The site geometry
of each workload is pinned (``LAYOUT_SEED``): pose count, dwell schedule and
the overlap of outages with dwells are the same for every ``--seed``. The
seed drives only the noise and drift realisation, so timings taken on two
seeds compare like for like while the oracle sees fresh random errors.

A bundle directory holds ``run.json`` (the evaluate config), the TUM files,
``rtk.csv``, ``checkpoints.csv``, one ``expected_<method>.json`` oracle per
synthetic method, optionally ``visit_table.json``, and ``bundle.json``, the
manifest the benchmark reads.

This module imports ``geotraj`` and therefore runs only inside a child
process whose path holds the checkout's ``src``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geotraj.geodesy import UtmCoord, utm_to_geodetic
from geotraj.matching import CheckpointVisit, VisitTable, export_visit_table
from geotraj.synth import ScenarioSpec, generate
from geotraj.trajectory_io import (DeviceCalibration, write_checkpoints,
                                   write_rtk_log, write_trajectory)

LAYOUT_SEED = 20260417

E0, N0, H0 = 513000.0, 5403000.0, 300.0
ZONE = 32
SPEED = 1.5
NOISE = 0.005
DRIFT = 0.01
BIAS = (0.12, -0.05, 0.03)
T_IMU_TO_BASE = (-0.073, -0.023, -0.172)
T_IMU_TO_ANTENNA = (0.023, -0.023, 0.090)
# The thresholds synth.write_scenario derives for this noise and bias; a
# layout may shorten min_dwell.
THRESHOLDS = {"stationary_radius": 0.05, "min_dwell": 5.0, "gate_radius": 2.0,
              "eps0": 0.02}


@dataclass(frozen=True)
class Layout:
    waypoints: np.ndarray
    dwells: list
    outages: list
    rate_hz: float
    min_dwell: float = THRESHOLDS["min_dwell"]


def _spec(layout: Layout, seed: int, drift: float = DRIFT) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        waypoints=layout.waypoints,
        dwells=layout.dwells,
        speed=SPEED,
        origin=utm_to_geodetic(UtmCoord(*map(float, layout.waypoints[0]), ZONE)),
        zone=ZONE,
        outage_windows=layout.outages,
        drift_rate=drift,
        global_bias=np.array(BIAS),
        noise_sigma=NOISE,
        sample_rate_hz=layout.rate_hz,
        calibration=DeviceCalibration(np.array(T_IMU_TO_BASE),
                                      np.array(T_IMU_TO_ANTENNA)),
    )


def _tour(n_cps: int, passes: int, walk_m: float, dwell_s: float,
          rate_hz: float, outages: list, integer_mid: bool = False,
          min_dwell: float = THRESHOLDS["min_dwell"]) -> Layout:
    """A start point, then ``passes`` shuffled rounds over ``n_cps`` marks.

    Checkpoint positions are random, then scaled so the whole walk is
    ``walk_m`` long: the pose count is fixed by the workload, not by chance.
    With ``integer_mid`` each dwell is stretched (by under 2 s) so that its
    midpoint falls on a whole second, where the 1 Hz RTK log has a record.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    marks = rng.uniform(-1.0, 1.0, size=(n_cps, 2))
    order: list[int] = []
    for _ in range(passes):
        perm = list(rng.permutation(n_cps))
        if order and perm[0] == order[-1]:
            perm.reverse()
        order.extend(perm)
    pts = np.vstack([[0.0, 0.0], marks[order]])
    scale = walk_m / float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    waypoints = np.column_stack([E0 + scale * pts[:, 0], N0 + scale * pts[:, 1],
                                 np.full(len(pts), H0)])
    dwells = [("", 0.0)]
    t = 0.0
    for k, idx in enumerate(order):
        t += float(np.linalg.norm(waypoints[k + 1] - waypoints[k])) / SPEED
        dur = dwell_s
        if integer_mid:
            dur = 2.0 * (math.ceil(t + dwell_s / 2.0) - t)
        dwells.append((f"CP{idx + 1:03d}", dur))
        t += dur
    return Layout(waypoints, dwells, outages, rate_hz, min_dwell)


def _grid_walk(side: int, spacing: float, visits: int, dwell_s: float,
               rate_hz: float, outages: list) -> Layout:
    """Random 4-neighbour walk over a ``side`` x ``side`` checkpoint grid.

    Every leg is one grid spacing, so the pose count depends only on the
    number of visits.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    i = j = side // 2
    cells = [(i, j)]
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    while len(cells) < visits:
        di, dj = moves[int(rng.integers(4))]
        if 0 <= i + di < side and 0 <= j + dj < side:
            i, j = i + di, j + dj
            cells.append((i, j))
    waypoints = np.array([[E0 + spacing * (ci - side // 2),
                           N0 + spacing * (cj - side // 2), H0] for ci, cj in cells])
    dwells = [(f"CP{ci * side + cj + 1:03d}", dwell_s) for ci, cj in cells]
    return Layout(waypoints, dwells, outages, rate_hz)


def _long_dwell(tiny: bool) -> Layout:
    # A 2 s minimum dwell: with 5 s, drift fragments shorter than 5 s make
    # detect_dwells re-grow each window from every sample, and evaluate took
    # 15-22 s depending only on the seed's drift realisation.
    if tiny:
        return _tour(4, 2, 150.0, 30.0, 10.0, [(20.0, 150.0)], min_dwell=2.0)
    return _tour(10, 2, 2100.0, 30.0, 100.0, [(60.0, 850.0)], min_dwell=2.0)


def _replay(tiny: bool) -> Layout:
    if tiny:
        return _tour(4, 2, 150.0, 20.0, 10.0, [(40.0, 120.0)], integer_mid=True)
    return _tour(10, 2, 3400.0, 30.0, 100.0, [(400.0, 1000.0)], integer_mid=True)


def _revisit(tiny: bool) -> Layout:
    if tiny:
        return _grid_walk(4, 5.0, 30, 6.0, 10.0, [(40.0, 90.0), (150.0, 200.0)])
    return _grid_walk(20, 5.0, 3000, 6.0, 10.0, [(3000.0, 3600.0), (15000.0, 15900.0)])


REPLAY_DRIFTS = (0.005, 0.01, 0.015, 0.02)


def _write_common(scenario, outdir: Path) -> None:
    write_rtk_log(scenario.rtk, outdir / "rtk.csv")
    write_checkpoints(scenario.checkpoints, outdir / "checkpoints.csv")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_config(seed: int, layout: Layout, methods: list, **extra) -> dict:
    doc = {
        "sequence_id": f"bench-seed{seed}",
        "zone": ZONE,
        "hemisphere": "north",
        "checkpoints": "checkpoints.csv",
        "rtk_log": "rtk.csv",
        "methods": methods,
        "calibration": {"t_imu_to_base": list(T_IMU_TO_BASE),
                        "t_imu_to_antenna": list(T_IMU_TO_ANTENNA)},
        "thresholds": dict(THRESHOLDS, min_dwell=layout.min_dwell),
        "output_dir": "out",
        "include_rtk_method": False,
    }
    doc.update(extra)
    return doc


def _single(layout: Layout, seed: int, outdir: Path) -> dict:
    """One method; the visit table is detected on its own estimate."""
    scenario = generate(_spec(layout, seed))
    write_trajectory(scenario.estimate, outdir / "estimate.tum")
    _write_common(scenario, outdir)
    _write_json(outdir / "expected_slam.json", scenario.expected.to_dict())
    config = _run_config(seed, layout, [{"label": "slam", "trajectory": "estimate.tum"}])
    return {"config": config, "poses": len(scenario.t),
            "oracles": {"slam": "expected_slam.json"}}


def _replay_bundle(layout: Layout, seed: int, outdir: Path) -> dict:
    """Four methods on one schedule plus the receiver itself, all read at
    the scenario's own dwell midpoints through an imported visit table."""
    methods, oracles, poses = [], {}, 0
    for k, drift in enumerate(REPLAY_DRIFTS):
        label = f"slam-{'abcd'[k]}"
        scenario = generate(_spec(layout, 4 * seed + k, drift))
        write_trajectory(scenario.estimate, outdir / f"{label}.tum")
        _write_json(outdir / f"expected_{label}.json", scenario.expected.to_dict())
        methods.append({"label": label, "trajectory": f"{label}.tum"})
        oracles[label] = f"expected_{label}.json"
        poses += len(scenario.t)
        if k == 0:
            _write_common(scenario, outdir)
            visits = [CheckpointVisit(w.checkpoint_id, w.t_mid,
                                      UtmCoord(*w.waypoint, ZONE, "north"), 0.0)
                      for w in scenario.dwell_windows]
            table = VisitTable(f"bench-seed{seed}", "synth-schedule", visits)
            (outdir / "visit_table.json").write_text(export_visit_table(table),
                                                     encoding="utf-8")
        del scenario  # one scenario in memory at a time
    config = _run_config(seed, layout, methods, visit_table="visit_table.json",
                         include_rtk_method=True)
    return {"config": config, "poses": poses, "oracles": oracles}


# name: (layout, bundle writer)
WORKLOADS = {
    "long-dwell-100hz": (_long_dwell, _single),
    "replay-4x-100hz": (_replay, _replay_bundle),
    "revisit-grid-10hz": (_revisit, _single),
}


def build_bundle(name: str, seed: int, outdir: Path, tiny: bool = False) -> dict:
    """Generate and write one workload's bundle; returns its manifest."""
    layout, write = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    made = write(layout(tiny), seed, outdir)
    _write_json(outdir / "run.json", made["config"])
    manifest = {"workload": name, "seed": seed, "tiny": tiny, "config": "run.json",
                "poses": made["poses"], "oracles": made["oracles"]}
    _write_json(outdir / "bundle.json", manifest)
    return manifest
