"""Release acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured margin so a `-s` run
reads as a checklist. Tolerances and runtime budgets are pinned on purpose:
relaxing one is a release decision, not a test fix. Criterion 7 is a declared
substitution, see its docstring.
"""

import math
import time

import numpy as np

from geotraj.alignment import umeyama_align
from geotraj.config import load_run_config
from geotraj.drift import fit_drift, outage_coordinates
from geotraj.geodesy import (
    EcefCoord,
    GeodeticCoord,
    UtmCoord,
    ecef_to_geodetic,
    geodetic_to_ecef,
    geodetic_to_utm,
    utm_to_geodetic,
)
from geotraj.lever_arm import apply_lever_arm
from geotraj.matching import (
    detect_dwells,
    export_visit_table,
    import_visit_table,
    match_visits,
    visits_from_table,
)
from geotraj.metrics import alignment_gap
from geotraj.report import evaluate_run
from geotraj.synth import ScenarioSpec, generate, write_scenario


def _pass(num: int, label: str, detail: str) -> None:
    print(f"acceptance criterion {num} ({label}): PASS  [{detail}]")


def _ecef_distance(a: EcefCoord, b: EcefCoord) -> float:
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def test_criterion_1_gap_arithmetic():
    """The worked RMSE pairs from the docs reproduce their integer gaps."""
    t0 = time.monotonic()
    cases = [(0.373, 0.089, 76), (0.068, 0.065, 4), (0.092, 0.080, 13)]
    rounded = []
    for rmse_abs, rmse_al, expect in cases:
        got = int(round(alignment_gap(rmse_abs, rmse_al)))
        # +-1 point covers rounding ambiguity in the published figures
        assert abs(got - expect) <= 1, (rmse_abs, rmse_al, got, expect)
        rounded.append(got)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(1, "gap arithmetic", f"gaps {rounded} vs {[c[2] for c in cases]}")


def test_criterion_2_alignment_oracle():
    """1000 generate-and-recover trials: exact R, t, never a reflection."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    worst_r = worst_t = 0.0
    for _ in range(1000):
        a = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(a)
        rot = q * np.sign(np.diag(r))
        if np.linalg.det(rot) < 0:
            rot[:, 2] = -rot[:, 2]
        t = rng.normal(scale=100.0, size=3)
        n = int(rng.integers(5, 51))
        est = rng.normal(scale=10.0, size=(n, 3))
        ref = est @ rot.T + t
        got = umeyama_align(est, ref)
        dr = float(np.linalg.norm(got.R - rot))
        dt = float(np.linalg.norm(got.t - t))
        worst_r = max(worst_r, dr)
        worst_t = max(worst_t, dt)
        assert dr < 1e-9 and dt < 1e-9, (dr, dt, n)
        assert np.linalg.det(got.R) > 0.0
        assert abs(np.linalg.det(got.R) - 1.0) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _pass(2, "alignment oracle",
          f"worst dR {worst_r:.2e}, worst dt {worst_t:.2e}, {elapsed:.2f} s")


def test_criterion_3_geodesy_round_trips():
    """10000 fuzzed points round-trip through ECEF and UTM below 1e-6 m."""
    t0 = time.monotonic()
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(10_000):
        lat = float(rng.uniform(-83.9, 83.9))
        lon = float(rng.uniform(9.0 - 3.49, 9.0 + 3.49))
        h = float(rng.uniform(-10_000.0, 10_000.0))
        g = GeodeticCoord.from_degrees(lat, lon, h)
        ecef = geodetic_to_ecef(g)
        err_ecef = _ecef_distance(ecef, geodetic_to_ecef(ecef_to_geodetic(ecef)))
        err_utm = _ecef_distance(
            ecef, geodetic_to_ecef(utm_to_geodetic(geodetic_to_utm(g, 32))))
        worst = max(worst, err_ecef, err_utm)
        assert err_ecef < 1e-6 and err_utm < 1e-6, (lat, lon, h)
    for lat in (-80.0, -45.0, 0.0, 30.0, 60.0, 83.0):
        u = geodetic_to_utm(GeodeticCoord.from_degrees(lat, 9.0, 100.0), 32)
        assert abs(u.easting - 500_000.0) < 1e-4, (lat, u.easting)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _pass(3, "geodesy round trips", f"worst {worst:.2e} m, {elapsed:.2f} s")


def test_criterion_4_end_to_end_bias_oracle(tmp_path):
    """Bias-only scenario through the full file pipeline hits the exact gap."""
    t0 = time.monotonic()
    e0, n0, h0 = 513000.0, 5403000.0, 300.0
    square = np.array([
        [e0, n0, h0],
        [e0 + 90.0, n0, h0],
        [e0 + 90.0, n0 + 90.0, h0],
        [e0, n0 + 90.0, h0],
    ])
    spec = ScenarioSpec(
        seed=1,
        waypoints=square,
        dwells=[(f"CP{i + 1:02d}", 8.0) for i in range(4)],
        speed=1.5,
        origin=utm_to_geodetic(UtmCoord(e0, n0, h0, 32)),
        zone=32,
        global_bias=np.array([1.0, 0.0, 0.0]),
    )
    write_scenario(generate(spec), tmp_path)
    report = evaluate_run(load_run_config(tmp_path / "run.json"))
    summary = report.methods[0].summary
    assert abs(summary.rmse_absolute - 1.0) < 1e-6, summary.rmse_absolute
    assert summary.rmse_aligned <= 1e-6, summary.rmse_aligned
    assert summary.gap_rounded == 100, summary.gap_percent
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _pass(4, "end-to-end bias oracle",
          f"abs {summary.rmse_absolute:.9f}, aligned {summary.rmse_aligned:.2e}, "
          f"gap {summary.gap_percent:.4f}%, {elapsed:.2f} s")


def test_criterion_5_drift_recovery():
    """50 Monte-Carlo outage scenarios recover the analytic drift slope.

    The pipeline side detects dwells on the truth track, matches them,
    re-times the estimate through the shared visit table, and pools the
    per-visit (outage age, error norm) samples into one fixed-intercept
    fit. The expectation side never touches the pipeline: it pools the
    closed-form per-visit error means that come with each scenario.
    """
    t0 = time.monotonic()
    e0, n0, h0 = 513000.0, 5403000.0, 300.0
    line = np.array([[e0 + 90.0 * i, n0, h0] for i in range(5)])
    origin = utm_to_geodetic(UtmCoord(e0, n0, h0, 32))
    pooled_dt, pooled_eps = [], []
    exp_num = exp_den = 0.0
    for seed in range(50):
        spec = ScenarioSpec(
            seed=seed,
            waypoints=line,
            dwells=[(f"CP{i + 1:02d}", 8.0) for i in range(5)],
            speed=1.5,
            origin=origin,
            zone=32,
            outage_windows=[(30.0, 260.0)],
            drift_rate=0.02,
            noise_sigma=0.02,
        )
        sc = generate(spec)
        dws = detect_dwells(apply_lever_arm(sc.truth, np.zeros(3)), 0.05, 5.0)
        table = match_visits(dws, sc.checkpoints, sc.context, 1.0)
        est_track = apply_lever_arm(sc.estimate, np.zeros(3))
        visits = visits_from_table(table, est_track, sc.checkpoints, sc.context)
        dt, _ = outage_coordinates(est_track, sc.rtk, visits.t_rep)
        pooled_dt.extend(dt)
        pooled_eps.extend(np.linalg.norm(visits.est - visits.ref, axis=1))
        exp_num += float(np.sum(sc.expected.dt_s * (sc.expected.eps_mean_m - 0.02)))
        exp_den += float(np.sum(sc.expected.dt_s ** 2))
    alpha_hat = fit_drift(pooled_dt, pooled_eps, 0.02).alpha
    alpha_exp = exp_num / exp_den
    rel = abs(alpha_hat - alpha_exp) / alpha_exp
    assert rel < 0.10, (alpha_hat, alpha_exp, rel)
    # noise-free control: exact linear data must come back to machine precision
    xs = [float(x) for x in range(10)]
    assert abs(fit_drift(xs, [0.02 + 0.004 * x for x in xs], 0.02).alpha - 0.004) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    _pass(5, "drift recovery",
          f"alpha {alpha_hat:.6f} vs {alpha_exp:.6f} ({100 * rel:.1f}% rel), "
          f"{elapsed:.2f} s")


def test_criterion_6_matching_determinism():
    """20 injected dwells: all detected, all matched, table round trip exact."""
    t0 = time.monotonic()
    e0, n0, h0 = 513000.0, 5403000.0, 300.0
    waypoints = []
    dwells = []
    k = 0
    for row in range(4):
        cols = range(5) if row % 2 == 0 else range(4, -1, -1)
        for col in cols:
            k += 1
            waypoints.append((e0 + 60.0 * col, n0 + 60.0 * row, h0))
            dwells.append((f"CP{k:02d}", 8.0))
    spec = ScenarioSpec(
        seed=7,
        waypoints=np.array(waypoints),
        dwells=dwells,
        speed=1.5,
        origin=utm_to_geodetic(UtmCoord(e0, n0, h0, 32)),
        zone=32,
        noise_sigma=0.005,
    )
    sc = generate(spec)
    dws = detect_dwells(apply_lever_arm(sc.truth, np.zeros(3)), 0.05, 5.0)
    assert len(dws) == 20, len(dws)
    table = match_visits(dws, sc.checkpoints, sc.context, 1.0,
                         sequence_id="acceptance", generator_method="truth")
    assert len(table.visits) == 20
    assert not table.unmatched_segments and not table.unvisited_checkpoints
    text = export_visit_table(table)
    reimported = import_visit_table(text.encode())
    assert export_visit_table(reimported) == text
    second = visits_from_table(reimported, apply_lever_arm(sc.estimate, np.zeros(3)),
                               sc.checkpoints, sc.context)
    assert second.t_rep.tolist() == [v.t_rep for v in table.visits]
    assert second.checkpoint_ids == [v.checkpoint_id for v in table.visits]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _pass(6, "matching determinism",
          f"20/20 matched, byte-identical table, shared timestamps, {elapsed:.2f} s")


def test_criterion_7_declared_substitution():
    """Field-scale results are out of reach here, by declaration.

    The published benchmark numbers need the recorded survey dataset and
    the live SLAM systems under test; neither ships with this repository.
    The arithmetic on the published figures (criterion 1), the end-to-end
    bias oracle (criterion 4), and the Monte-Carlo drift recovery
    (criterion 5) stand in for them at desk scale.
    """
    for name in ("test_criterion_1_gap_arithmetic",
                 "test_criterion_4_end_to_end_bias_oracle",
                 "test_criterion_5_drift_recovery"):
        assert name in globals(), name
    _pass(7, "field benchmark reproduction",
          "declared substitution: covered by criteria 1, 4, and 5")
