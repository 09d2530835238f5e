"""Per-layer metrics computed from a traced evaluate and a traced set-up.

Layer names are geotraj's module names. A ``*_s`` metric is the inclusive
time spent in the named function(s); ``report.evaluate_run_self_s`` is self
time, i.e. the orchestration left after every wrapped call it makes. The
geodesy and svg figures count only entry calls, i.e. calls made from another
module, so a conversion that calls three helpers counts once.

A function that a later refactor removes or renames is reported as 0 calls
and listed in the notes; it never stops the benchmark.
"""

from __future__ import annotations

# name: (unit, better)
PER_LAYER = {
    "config.load_s": ("s", "lower"),
    "trajectory_io.parse_trajectory_s": ("s", "lower"),
    "trajectory_io.parse_trajectory_share_pct": ("%", "lower"),
    "trajectory_io.parse_us_per_pose": ("us", "lower"),
    "trajectory_io.poses_parsed": ("count", "higher"),
    "trajectory_io.parse_rtk_log_s": ("s", "lower"),
    "trajectory_io.write_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "lever_arm.apply_s": ("s", "lower"),
    "matching.detect_dwells_s": ("s", "lower"),
    "matching.detect_dwells_share_pct": ("%", "lower"),
    "matching.detect_dwells_calls": ("count", "lower"),
    "matching.detect_us_per_pose": ("us", "lower"),
    "matching.dwells": ("count", "lower"),
    "matching.match_visits_s": ("s", "lower"),
    "matching.visits": ("count", "lower"),
    "matching.match_yield": ("ratio", "higher"),
    "matching.lookup_s": ("s", "lower"),
    "matching.lookup_calls": ("count", "lower"),
    "matching.lookups_skipped": ("count", "lower"),
    "matching.import_table_s": ("s", "lower"),
    "geodesy.scalar_calls": ("count", "lower"),
    "geodesy.scalar_s": ("s", "lower"),
    "geodesy.batch_s": ("s", "lower"),
    "metrics.summarize_s": ("s", "lower"),
    "alignment.umeyama_s": ("s", "lower"),
    "drift.outage_coordinates_s": ("s", "lower"),
    "drift.fit_drift_s": ("s", "lower"),
    "report.evaluate_run_self_s": ("s", "lower"),
    "report.write_report_s": ("s", "lower"),
    "report.bytes_written": ("bytes", "lower"),
    "svg.render_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.missing_names": ("count", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "oracle.visit_count_err": ("count", "lower"),
    "oracle.rmse_abs_err_mm": ("mm", "lower"),
    "oracle.gap_err_pp": ("pp", "lower"),
    "oracle.alpha_time_err_pct": ("%", "lower"),
    "oracle.alpha_dist_err_pct": ("%", "lower"),
}

# The functions the metrics above read; a missing one becomes a note.
EVAL_NAMES = (
    "config.load_run_config", "trajectory_io.parse_trajectory",
    "trajectory_io.parse_rtk_log", "lever_arm.apply_lever_arm",
    "matching.detect_dwells", "matching.match_visits",
    "matching.visits_from_table", "matching.import_visit_table",
    "metrics.summarize", "alignment.umeyama_align",
    "drift.outage_coordinates", "drift.fit_drift", "report.evaluate_run",
    "report.write_report", "geodesy.GeoContext.enu_to_utm",
    "geodesy.GeoContext.enu_to_utm_batch",
)
SETUP_NAMES = ("synth.generate", "trajectory_io.write_trajectory",
               "trajectory_io.write_rtk_log", "trajectory_io.write_checkpoints")


def missing_names(wrapped: list[str], expected: tuple[str, ...]) -> list[str]:
    return [n for n in expected if n not in wrapped]


def layer_metrics(ev: dict, setup: dict, wall_s: float, report: dict) -> dict:
    """``ev``/``setup`` are ``tracer.summarize`` tables; ``report`` is the
    traced run's report.json. Oracle, failure, byte and overhead figures are
    added by the caller."""

    def get(name: str, key: str = "total_s", table: dict = ev) -> float:
        return table.get(name, {}).get(key, 0)

    def entry(prefix: str, batch: bool | None = None) -> tuple[int, float]:
        rows = [row for name, row in ev.items() if name.startswith(prefix)
                and (batch is None or name.endswith("_batch") == batch)]
        return (sum(r["entry_calls"] for r in rows), sum(r["entry_s"] for r in rows))

    parse_s = get("trajectory_io.parse_trajectory")
    poses = get("trajectory_io.parse_trajectory", "n_out")
    detect_s = get("matching.detect_dwells")
    detect_in = get("matching.detect_dwells", "n_in")
    dwells = get("matching.detect_dwells", "n_out")
    visits = report["visit_table"]["n_visits"]
    scalar_calls, scalar_s = entry("geodesy.", batch=False)
    return {
        "config.load_s": get("config.load_run_config"),
        "trajectory_io.parse_trajectory_s": parse_s,
        "trajectory_io.parse_trajectory_share_pct": 100.0 * parse_s / wall_s,
        "trajectory_io.parse_us_per_pose": 1e6 * parse_s / poses if poses else 0.0,
        "trajectory_io.poses_parsed": poses,
        "trajectory_io.parse_rtk_log_s": get("trajectory_io.parse_rtk_log"),
        "trajectory_io.write_s": sum(row["total_s"] for name, row in setup.items()
                                     if name.startswith("trajectory_io.write_")),
        "synth.generate_s": get("synth.generate", table=setup),
        "lever_arm.apply_s": get("lever_arm.apply_lever_arm"),
        "matching.detect_dwells_s": detect_s,
        "matching.detect_dwells_share_pct": 100.0 * detect_s / wall_s,
        "matching.detect_dwells_calls": get("matching.detect_dwells", "calls"),
        "matching.detect_us_per_pose": 1e6 * detect_s / detect_in if detect_in else 0.0,
        "matching.dwells": dwells,
        "matching.match_visits_s": get("matching.match_visits"),
        "matching.visits": visits,
        "matching.match_yield": visits / dwells if dwells else 0.0,
        "matching.lookup_s": get("matching.visits_from_table"),
        "matching.lookup_calls": get("matching.visits_from_table", "calls"),
        "matching.lookups_skipped": sum(len(m["skipped_visits"])
                                        for m in report["methods"]),
        "matching.import_table_s": get("matching.import_visit_table"),
        "geodesy.scalar_calls": scalar_calls,
        "geodesy.scalar_s": scalar_s,
        "geodesy.batch_s": entry("geodesy.", batch=True)[1],
        "metrics.summarize_s": get("metrics.summarize"),
        "alignment.umeyama_s": get("alignment.umeyama_align"),
        "drift.outage_coordinates_s": get("drift.outage_coordinates"),
        "drift.fit_drift_s": get("drift.fit_drift"),
        "report.evaluate_run_self_s": get("report.evaluate_run", "self_s"),
        "report.write_report_s": get("report.write_report"),
        "svg.render_s": entry("svg.")[1],
    }
