"""Outage coordinates and the fixed-intercept drift fit."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.drift import (
    DriftFit,
    DriftSample,
    drift_report,
    fit_drift,
    outage_coordinates,
    write_drift_csv,
)
from geotraj.errors import AllZeroAbscissa, InsufficientSamples, NoFixAvailable
from geotraj.lever_arm import BaseCenterTrack
from geotraj.trajectory_io import GnssStatus, RtkLog


def _log(times_status):
    t = np.array([float(ts) for ts, _ in times_status])
    status = np.array([int(s) for _, s in times_status], dtype=np.int8)
    n = len(t)
    return RtkLog(t, np.full(n, np.radians(48.78)), np.full(n, np.radians(9.18)),
                  np.full(n, 300.0), status)


def _line_track(n=101, speed=1.0):
    t = np.arange(float(n))
    p = np.column_stack([speed * t, np.zeros(n), np.zeros(n)])
    return BaseCenterTrack(t, p)


def test_nearest_fix_is_two_sided():
    # Fixes at t=0 and t=100; a visit at t=70 is nearer the upcoming fix.
    log = _log([(0.0, GnssStatus.RTK_FIX), (100.0, GnssStatus.RTK_FIX)])
    track = _line_track()
    dt, dx = outage_coordinates(track, log, np.array([70.0]))
    assert dt[0] == 30.0
    assert dx[0] == 30.0


def test_visit_at_fix_has_zero_coordinates():
    log = _log([(50.0, GnssStatus.RTK_FIX)])
    dt, dx = outage_coordinates(_line_track(), log, np.array([50.0]))
    assert dt[0] == 0.0
    assert dx[0] == 0.0


def test_symmetric_midpoint_dt():
    log = _log([(0.0, GnssStatus.RTK_FIX), (60.0, GnssStatus.RTK_FIX)])
    dt, _ = outage_coordinates(_line_track(), log, np.array([30.0]))
    assert dt[0] == 30.0


def test_distance_axis_follows_path_not_time():
    # Stop-and-go: the device sits still from t=40 to t=80, so path distance
    # to the fix at t=0 stays 40 m while elapsed time keeps growing.
    t = np.arange(101.0)
    x = np.minimum(t, 40.0) + np.maximum(t - 80.0, 0.0)
    track = BaseCenterTrack(t, np.column_stack([x, np.zeros(101), np.zeros(101)]))
    log = _log([(0.0, GnssStatus.RTK_FIX)])
    dt, dx = outage_coordinates(track, log, np.array([70.0]))
    assert dt[0] == 70.0
    assert dx[0] == 40.0


def test_min_status_filters_low_quality_records():
    log = _log([(0.0, GnssStatus.RTK_FLOAT), (10.0, GnssStatus.RTK_FIX)])
    dt, _ = outage_coordinates(_line_track(), log, np.array([2.0]))
    assert dt[0] == 8.0
    relaxed, _ = outage_coordinates(_line_track(), log, np.array([2.0]),
                                    min_status=GnssStatus.RTK_FLOAT)
    assert relaxed[0] == 2.0


def test_no_qualifying_fix_raises():
    log = _log([(0.0, GnssStatus.SINGLE)])
    with pytest.raises(NoFixAvailable):
        outage_coordinates(_line_track(), log, np.array([1.0]))


def test_inserting_a_fix_never_increases_dt():
    base = [(0.0, GnssStatus.RTK_FIX), (100.0, GnssStatus.RTK_FIX)]
    more = base + [(60.0, GnssStatus.RTK_FIX)]
    track = _line_track()
    t_rep = np.array([45.0, 70.0, 99.0])
    dt_base, _ = outage_coordinates(track, _log(sorted(base)), t_rep)
    dt_more, _ = outage_coordinates(track, _log(sorted(more)), t_rep)
    assert np.all(dt_more <= dt_base)
    assert dt_more[1] == 10.0


def test_exact_linear_data_recovers_slope_exactly():
    eps0 = 0.02
    alpha = 0.00375
    xs = [0.0, 10.0, 25.0, 40.0, 90.0]
    fit = fit_drift(xs, [eps0 + alpha * x for x in xs], eps0=eps0)
    assert fit.alpha == pytest.approx(alpha, abs=1e-12)
    assert fit.eps0 == eps0
    assert fit.n == 5


@given(alpha=st.floats(-0.01, 0.05), k=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_fit_scales_linearly_with_abscissa(alpha, k, seed):
    """Stretching x by k divides the fitted slope by k (same residuals)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 200.0, size=12)
    eps = 0.02 + alpha * x + rng.normal(scale=0.005, size=12)
    a1 = fit_drift(x, eps).alpha
    a2 = fit_drift(k * x, eps).alpha
    assert a2 == pytest.approx(a1 / k, rel=1e-9, abs=1e-12)


def test_fit_ignores_points_at_zero_abscissa():
    # x=0 rows contribute nothing to either sum; the slope must not move.
    assert fit_drift([10.0, 20.0, 0.0], [0.06, 0.10, 0.5]).alpha == pytest.approx(
        fit_drift([10.0, 20.0], [0.06, 0.10]).alpha, abs=1e-15)


def test_fit_error_conditions():
    with pytest.raises(InsufficientSamples):
        fit_drift([1.0], [0.1])
    with pytest.raises(AllZeroAbscissa):
        fit_drift([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        fit_drift([-1.0, 2.0], [0.1, 0.2])


def test_fit_is_least_squares_optimal():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 100.0, size=30)
    eps = 0.02 + 0.004 * x + rng.normal(scale=0.01, size=30)
    fit = fit_drift(x, eps)

    def sse(a):
        return float(np.sum((eps - 0.02 - a * x) ** 2))

    assert sse(fit.alpha) <= sse(fit.alpha + 1e-6) + 1e-15
    assert sse(fit.alpha) <= sse(fit.alpha - 1e-6) + 1e-15


def _samples():
    return [
        DriftSample("slam", "seq1", "CP01", 12.0, 18.5, 0.071),
        DriftSample("slam", "seq1", "CP02", 43.0, 61.0, 0.155),
        DriftSample("rtk-standalone", "seq1", "CP01", 12.0, 18.5, 0.35),
    ]


def test_drift_csv_layout_and_determinism():
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_drift_csv(_samples(), buf1)
    write_drift_csv(_samples(), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "method,sequence,cp_id,dt_s,dx_m,eps_m"
    assert lines[1].startswith("slam,seq1,CP01,12.0,18.5,")
    assert len(lines) == 4


def test_drift_report_emits_csv_and_svg():
    fits = {"slam": DriftFit(0.02, 0.003, 2)}
    csv_buf, svg_buf = io.StringIO(), io.StringIO()
    drift_report(_samples(), fits, "time", csv_buf, svg_buf)
    assert csv_buf.getvalue().startswith("method,sequence,cp_id")
    svg = svg_buf.getvalue()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "slam" in svg


def test_drift_report_handles_empty_input():
    svg_buf = io.StringIO()
    drift_report([], {}, "time", io.StringIO(), svg_buf)
    assert "<svg" in svg_buf.getvalue()
    with pytest.raises(ValueError):
        drift_report([], {}, "altitude", io.StringIO(), io.StringIO())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), n_rec=st.integers(1, 40),
       n_visits=st.integers(0, 20), epoch=st.booleans(), shuffled=st.booleans())
def test_outage_coordinates_match_reference(seed, n, n_rec, n_visits, epoch, shuffled):
    """Differential check against the per-visit scans over every fix: fixes
    outside the track, repeated fix times, still stretches (equal arc
    lengths), visits on and between fixes, and records out of order."""
    from oracles import outage_coordinates_reference

    rng = np.random.default_rng(seed)
    t0 = 1.7e9 if epoch else 0.0
    t = t0 + np.cumsum(rng.uniform(0.05, 1.0, size=n))
    steps = rng.uniform(-1.0, 1.0, size=(n, 3)) * (rng.random((n, 1)) < 0.6)
    track = BaseCenterTrack(t, np.cumsum(steps, axis=0))
    rec_t = np.sort(rng.uniform(t[0] - 3.0, t[-1] + 3.0, size=n_rec))
    rec_t[rng.random(n_rec) < 0.2] = t[0]
    rec_t.sort()
    status = rng.choice([GnssStatus.NONE, GnssStatus.RTK_FLOAT, GnssStatus.RTK_FIX],
                        size=n_rec)
    status[rng.integers(0, n_rec)] = GnssStatus.RTK_FIX
    records = list(zip(rec_t.tolist(), map(GnssStatus, status.tolist())))
    if shuffled:
        records = [records[k] for k in rng.permutation(n_rec)]
    log = _log(records)
    vt = np.concatenate([rec_t, t, 0.5 * (t[1:] + t[:-1]),
                         rng.uniform(t[0] - 5.0, t[-1] + 5.0, size=n)])
    t_rep = rng.choice(vt, size=n_visits)
    dt, dx = outage_coordinates(track, log, t_rep)
    assert list(zip(dt.tolist(), dx.tolist())) == \
        outage_coordinates_reference(track, log, t_rep)


def test_outage_coordinates_where_interpolated_arc_length_dips():
    """``np.interp`` one ulp before a sample can round above the sample's own
    arc length, so the fixes' arc lengths are not sorted; the nearest fix is
    still the one at zero distance."""
    from oracles import outage_coordinates_reference

    rng = np.random.default_rng(697)
    t = np.cumsum(rng.uniform(0.01, 1.0, size=6))
    p = np.zeros((6, 3))
    p[:, 0] = np.cumsum(rng.uniform(0.0, 1e3, size=6))
    track = BaseCenterTrack(t, p)
    fix = np.sort(np.concatenate([t, np.nextafter(t, -np.inf)]))
    arc = np.interp(fix, t, np.concatenate([[0.0], np.cumsum(np.diff(p[:, 0]))]))
    assert np.any(np.diff(arc) < 0)
    log = _log([(f, GnssStatus.RTK_FIX) for f in fix])
    dt, dx = outage_coordinates(track, log, fix)
    assert list(zip(dt.tolist(), dx.tolist())) == \
        outage_coordinates_reference(track, log, fix)
    assert np.all(dx == 0.0)
