"""Run evaluation end to end and emit the report bundle.

Stages, shared by ``evaluate`` and ``match``: ``load_survey`` (checkpoints,
RTK log, frame), ``load_track`` (trajectory plus lever arm) and
``detect_visit_table``; then ``evaluate_method`` per method (lookup at the
table's instants, absolute/aligned RMSE and gap, outage coordinates, drift
fits) and ``write_report``. A method's visits pass between stages as
columns: checkpoint ids, ``t_rep`` and (V, 3) arrays.

Artifacts written to the output directory:

  report.json           full machine-readable report (schema shipped in
                        geotraj/schemas/report.schema.json)
  errors.csv            per method x checkpoint signed errors
  drift_samples.csv     method, sequence, cp_id, dt_s, dx_m, eps_m
  checkpoint_errors.svg bar chart of per-checkpoint 3D error (first method)
  trajectory_overlay.svg  UTM-plane tracks plus checkpoint markers
  drift_time.svg        error against time to the nearest fix, per method

Reports are deterministic byte for byte: keys are sorted, meter quantities
are rounded to fixed 1e-6 m, and the config hash pins provenance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import MethodSpec, RunConfig
from .drift import DriftFit, fit_drift, outage_coordinates, write_drift_csv
from .errors import AllZeroAbscissa, InsufficientSamples, OutOfDomain
from .geodesy import GeoContext, geodetic_to_utm
from .lever_arm import BaseCenterTrack, apply_lever_arm
from .matching import (VisitTable, detect_dwells, export_visit_table,
                       import_visit_table, match_visits, visits_from_table)
from .metrics import AccuracySummary, summarize
from .svg import bar_chart, drift_scatter, trajectory_overlay
from .trajectory_io import (Checkpoint, DeviceCalibration, GnssStatus, RtkLog,
                            first_rtk_fix, parse_checkpoints, parse_rtk_log,
                            parse_trajectory)

RTK_METHOD_LABEL = "rtk-standalone"
#: Farthest the nearest surveyed checkpoint may lie from the first fix (m).
#: One UTM zone spans about 70 km or more of longitude below 84 deg latitude,
#: so a wrong zone moves the projected fix farther than this.
SURVEY_REACH_M = 50_000.0


@dataclass(eq=False)
class MethodResult:
    """Per visit, in table order: checkpoint id, (V, 3) signed error, its
    norm, and time (``dt``) and arc length (``dx``) to the nearest fix."""

    label: str
    summary: AccuracySummary
    checkpoint_ids: list[str]
    errors: np.ndarray
    norms: np.ndarray
    dt: np.ndarray
    dx: np.ndarray
    fit_time: Optional[DriftFit]
    fit_distance: Optional[DriftFit]
    skipped_visits: list[str] = field(default_factory=list)


@dataclass(eq=False)
class EvaluationReport:
    sequence_id: str
    methods: list[MethodResult]
    table: VisitTable
    config_sha256: str
    tool_version: str
    warnings: list[str] = field(default_factory=list)
    overlay_tracks: dict = field(default_factory=dict)
    checkpoints: list = field(default_factory=list)


def _rtk_standalone_track(rtk: RtkLog, ctx: GeoContext, calibration) -> BaseCenterTrack:
    """Base-center track from the receiver alone.

    Without an orientation estimate the antenna-to-base lever arm cannot be
    rotated; during checkpoint dwells the pole is held vertical, so the
    body-frame offset is applied unrotated. Only records with a position
    solution contribute.
    """
    usable = rtk.status > GnssStatus.NONE
    antenna_enu = ctx.geodetic_to_enu_batch(rtk.lat[usable], rtk.lon[usable], rtk.h[usable])
    offset = calibration.t_imu_to_base - calibration.t_imu_to_antenna
    return BaseCenterTrack(rtk.t[usable], antenna_enu + offset)


def load_survey(config: RunConfig) -> tuple[list[Checkpoint], RtkLog, GeoContext]:
    """Checkpoints, RTK log and the frame context anchored at its first fix;
    OutOfDomain when that fix, projected into the configured zone, lies
    beyond ``SURVEY_REACH_M`` of every checkpoint."""
    cps = parse_checkpoints(config.checkpoints, config.zone, config.hemisphere)
    rtk = parse_rtk_log(config.rtk_log)
    fix = first_rtk_fix(rtk)
    u = geodetic_to_utm(fix, config.zone)
    reach = min((math.hypot(u.easting - cp.coord.easting, u.northing - cp.coord.northing)
                 for cp in cps), default=0.0)
    if reach > SURVEY_REACH_M:
        raise OutOfDomain(f"first fix lies {reach / 1000.0:.1f} km from the nearest "
                          f"checkpoint in zone {config.zone} (limit "
                          f"{SURVEY_REACH_M / 1000.0:.0f} km); is the zone right?")
    return cps, rtk, GeoContext(fix, config.zone, config.hemisphere)


def detect_visit_table(config: RunConfig, track: BaseCenterTrack,
                       cps: list[Checkpoint], ctx: GeoContext) -> VisitTable:
    """Visit table from the dwells of ``track``, the base-center track of
    ``config.table_label``, matched to the checkpoints."""
    th = config.thresholds
    runs = detect_dwells(track, th.stationary_radius, th.min_dwell)
    table = match_visits(track, runs, cps, ctx, th.gate_radius,
                         sequence_id=config.sequence_id,
                         generator_method=config.table_label)
    table.params = {"stationary_radius": th.stationary_radius,
                    "min_dwell": th.min_dwell, "gate_radius": th.gate_radius}
    return table


def load_track(method: MethodSpec, calibration: DeviceCalibration) -> BaseCenterTrack:
    """One method's trajectory, moved to the base center by the lever arm."""
    return apply_lever_arm(parse_trajectory(method.trajectory),
                           calibration.t_imu_to_base)


def evaluate_method(label: str, track: BaseCenterTrack, table: VisitTable,
                    cps: list[Checkpoint], ctx: GeoContext, rtk: RtkLog,
                    eps0: float) -> tuple[MethodResult, list[str]]:
    """Score one method at the table's instants; returns the result and the
    warnings it raised."""
    warnings: list[str] = []
    visits = visits_from_table(table, track, cps, ctx)
    if visits.skipped:
        warnings.append(f"{label}: skipped {len(visits.skipped)} visit(s) without "
                        "nearby poses")
    summary, errors, norms = summarize(visits.est, visits.ref)
    dt, dx = outage_coordinates(track, rtk, visits.t_rep)
    fit_t = fit_d = None
    try:
        fit_t = fit_drift(dt, norms, eps0)
        fit_d = fit_drift(dx, norms, eps0)
    except (InsufficientSamples, AllZeroAbscissa) as exc:
        warnings.append(f"{label}: no drift fit ({exc})")
    return MethodResult(label, summary, visits.checkpoint_ids, errors, norms, dt, dx,
                        fit_t, fit_d, visits.skipped), warnings


def evaluate_run(config: RunConfig) -> EvaluationReport:
    warnings: list[str] = []
    cps, rtk, ctx = load_survey(config)

    tracks = {m.label: load_track(m, config.calibration) for m in config.methods}
    if config.include_rtk_method:
        tracks[RTK_METHOD_LABEL] = _rtk_standalone_track(rtk, ctx, config.calibration)

    if config.visit_table is not None:
        table = import_visit_table(config.visit_table)
        if table.sequence_id and table.sequence_id != config.sequence_id:
            warnings.append(f"visit table was built for sequence "
                            f"{table.sequence_id!r}, evaluating {config.sequence_id!r}")
    else:
        table = detect_visit_table(config, tracks[config.table_label], cps, ctx)
    if table.unvisited_checkpoints:
        warnings.append("checkpoints never visited: "
                        + ", ".join(table.unvisited_checkpoints))

    fix_count = int(np.count_nonzero(rtk.status == GnssStatus.RTK_FIX))
    if len(rtk) and fix_count < 0.5 * len(rtk):
        warnings.append(f"low fix coverage: {fix_count}/{len(rtk)} records")

    results: list[MethodResult] = []
    for label, track in tracks.items():
        result, notes = evaluate_method(label, track, table, cps, ctx, rtk,
                                        config.thresholds.eps0)
        results.append(result)
        warnings.extend(notes)

    overlay = {label: _track_utm_plane(track, ctx) for label, track in tracks.items()}
    cp_markers = [(cp.id, cp.coord.easting, cp.coord.northing) for cp in cps]
    digest = hashlib.sha256(config.config_bytes()).hexdigest()
    return EvaluationReport(config.sequence_id, results, table, digest,
                            __version__, warnings, overlay, cp_markers)


def _track_utm_plane(track: BaseCenterTrack, ctx: GeoContext,
                     max_points: int = 2000) -> np.ndarray:
    stride = max(1, len(track.t) // max_points)
    pts = track.p[::stride]
    return ctx.enu_to_utm_batch(pts)[:, :2]


def _m(v: float) -> float:
    """Fixed 1e-6 m rounding for deterministic byte output."""
    return round(float(v), 6)


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "sequence_id": report.sequence_id,
        "provenance": {
            "config_sha256": report.config_sha256,
            "tool_version": report.tool_version,
        },
        "visit_table": {
            "generator_method": report.table.generator_method,
            "n_visits": len(report.table.visits),
            "unvisited_checkpoints": list(report.table.unvisited_checkpoints),
            "n_unmatched_segments": len(report.table.unmatched_segments),
        },
        "warnings": list(report.warnings),
        "methods": [
            {
                "label": r.label,
                "summary": {
                    "rmse_absolute_m": _m(r.summary.rmse_absolute),
                    "rmse_aligned_m": _m(r.summary.rmse_aligned),
                    "gap_percent": r.summary.gap_percent,
                    "gap_percent_rounded": r.summary.gap_rounded,
                    "n_points": r.summary.n_points,
                    "per_axis_rmse_m": [_m(v) for v in r.summary.per_axis_rmse],
                },
                "checkpoint_errors": [
                    {"cp_id": cp_id, "eps_m": [_m(v) for v in eps], "norm_m": _m(norm)}
                    for cp_id, eps, norm in zip(r.checkpoint_ids, r.errors.tolist(),
                                                r.norms.tolist())
                ],
                "drift": {
                    "samples": [
                        {"cp_id": cp_id, "dt_s": _m(dt), "dx_m": _m(dx),
                         "eps_m": _m(norm)}
                        for cp_id, dt, dx, norm in zip(r.checkpoint_ids, r.dt.tolist(),
                                                       r.dx.tolist(), r.norms.tolist())
                    ],
                    "fit_time": _fit_dict(r.fit_time),
                    "fit_distance": _fit_dict(r.fit_distance),
                },
                "skipped_visits": list(r.skipped_visits),
            }
            for r in report.methods
        ],
    }


def _fit_dict(fit: Optional[DriftFit]) -> Optional[dict]:
    if fit is None:
        return None
    return {"eps0_m": fit.eps0, "alpha": fit.alpha, "n": fit.n}


def write_report(report: EvaluationReport, outdir: Path | str) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    doc = report_to_dict(report)
    (outdir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")

    (outdir / "visit_table.json").write_text(export_visit_table(report.table),
                                             encoding="utf-8")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "cp_id", "d_easting_m", "d_northing_m",
                     "d_height_m", "norm_m"])
    for r in report.methods:
        for cp_id, eps, norm in zip(r.checkpoint_ids, r.errors.tolist(),
                                    r.norms.tolist()):
            writer.writerow([r.label, cp_id, *(repr(_m(v)) for v in (*eps, norm))])
    (outdir / "errors.csv").write_text(buf.getvalue(), encoding="utf-8")

    write_drift_csv(((r.label, report.sequence_id, *row) for r in report.methods
                     for row in zip(r.checkpoint_ids, r.dt.tolist(), r.dx.tolist(),
                                    r.norms.tolist())),
                    outdir / "drift_samples.csv")

    if report.methods:
        first = report.methods[0]
        svg = bar_chart(first.checkpoint_ids, first.norms.tolist(),
                        f"absolute 3D error per checkpoint: {first.label}",
                        "error [m]")
        (outdir / "checkpoint_errors.svg").write_text(svg, encoding="utf-8")

    overlay = trajectory_overlay(report.overlay_tracks, report.checkpoints,
                                 f"trajectories: {report.sequence_id}")
    (outdir / "trajectory_overlay.svg").write_text(overlay, encoding="utf-8")

    series = {r.label: (r.dt, r.norms) for r in report.methods}
    fits = {r.label: r.fit_time for r in report.methods if r.fit_time is not None}
    (outdir / "drift_time.svg").write_text(drift_scatter(series, fits, "time"),
                                           encoding="utf-8")


def format_summary_table(report: EvaluationReport) -> str:
    """Plain-text accuracy table, one row per method."""
    rows = [f"sequence: {report.sequence_id}",
            f"{'method':<20} {'abs RMSE [m]':>14} {'aligned RMSE [m]':>18} "
            f"{'gap [%]':>8} {'N':>4}"]
    for r in report.methods:
        rows.append(f"{r.label:<20} {r.summary.rmse_absolute:>14.3f} "
                    f"{r.summary.rmse_aligned:>18.3f} "
                    f"{r.summary.gap_rounded:>8d} {r.summary.n_points:>4d}")
    for w in report.warnings:
        rows.append(f"warning: {w}")
    return "\n".join(rows)
