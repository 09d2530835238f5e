"""Compare a report against the synthetic generator's closed-form oracle.

Reads only two documents: ``expected.json`` as written by ``geotraj.synth``
and one method entry of ``report.json``. It imports nothing from geotraj, so
the numbers it judges and the arithmetic judging them stay independent; in
particular the expected distance-axis slope is recomputed here in closed form
from the expected ``dx_m``/``eps_m``.
"""

from __future__ import annotations

ORACLE_METRICS = ("oracle.visit_count_err", "oracle.rmse_abs_err_mm",
                  "oracle.gap_err_pp", "oracle.alpha_time_err_pct",
                  "oracle.alpha_dist_err_pct")


def fixed_intercept_slope(x: list[float], y: list[float], eps0: float):
    """Least-squares slope of y = eps0 + alpha * x with eps0 held fixed."""
    sxx = sum(v * v for v in x)
    if len(x) < 2 or sxx == 0.0:
        return None
    return sum(a * (b - eps0) for a, b in zip(x, y)) / sxx


def _relative_pct(got, want) -> float:
    """Relative error in percent. A slope the oracle has and the report
    lacks (or the reverse) counts as 100 %."""
    if want is None or got is None:
        return 0.0 if want is got else 100.0
    if want == 0.0:
        return 0.0 if got == 0.0 else 100.0
    return 100.0 * abs(got - want) / abs(want)


def compare(expected: dict, method: dict) -> dict:
    """The five oracle deltas for one evaluated method."""
    summary = method["summary"]
    drift = method["drift"]
    visits = expected["visits"]
    alpha_dist = fixed_intercept_slope([v["dx_m"] for v in visits],
                                       [v["eps_m"] for v in visits], expected["eps0"])
    fit_t, fit_d = drift["fit_time"], drift["fit_distance"]
    return {
        "oracle.visit_count_err": float(abs(summary["n_points"] - expected["n_points"])),
        "oracle.rmse_abs_err_mm": 1000.0 * abs(summary["rmse_absolute_m"]
                                               - expected["rmse_absolute"]),
        "oracle.gap_err_pp": abs(summary["gap_percent"] - expected["gap_percent"]),
        "oracle.alpha_time_err_pct": _relative_pct(
            None if fit_t is None else fit_t["alpha"], expected["alpha_time_realized"]),
        "oracle.alpha_dist_err_pct": _relative_pct(
            None if fit_d is None else fit_d["alpha"], alpha_dist),
    }


def worst(expected_by_label: dict, report: dict) -> dict:
    """Each delta's worst value over the methods that have an oracle."""
    methods = {m["label"]: m for m in report["methods"]}
    rows = [compare(exp, methods[label]) for label, exp in expected_by_label.items()]
    return {name: max(row[name] for row in rows) for name in ORACLE_METRICS}

