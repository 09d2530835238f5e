"""Scenario generator: determinism, exact zero/bias cases, variance tracking,
and agreement between the generator's own oracle and the full file pipeline.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geotraj import synth
from oracles import (expected_nearest_reference, position_at_reference,
                     random_walk_reference, rtk_columns, rtk_records_reference,
                     write_rtk_log_reference)

from geotraj.errors import InvalidSpec, OutOfDomain
from geotraj.geodesy import GeodeticCoord, UtmCoord, geodetic_to_utm, utm_to_geodetic
from geotraj.lever_arm import apply_lever_arm
from geotraj.matching import detect_dwells, match_visits, visits_from_table
from geotraj.metrics import summarize
from geotraj.synth import (
    CHI3_MEAN,
    RTK_RATE_HZ,
    ScenarioSpec,
    expected_metrics,
    generate,
    write_scenario,
)
from geotraj.trajectory_io import (
    DeviceCalibration,
    GnssStatus,
    parse_checkpoints,
    parse_rtk_log,
    parse_trajectory,
    write_rtk_log,
)

E0, N0, H0 = 513000.0, 5403000.0, 300.0


def _origin_at(e, n, h, zone=32):
    return utm_to_geodetic(UtmCoord(e, n, h, zone, "north"))


def _line_spec(**kw) -> ScenarioSpec:
    defaults = dict(
        seed=42,
        waypoints=np.array([[E0, N0, H0], [E0 + 90.0, N0, H0],
                            [E0 + 90.0, N0 + 90.0, H0]]),
        dwells=[("CP01", 8.0), ("CP02", 8.0), ("CP03", 8.0)],
        speed=1.5,
        origin=_origin_at(E0, N0, H0),
        zone=32,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_zero_corruption_estimate_equals_truth():
    sc = generate(_line_spec())
    assert np.array_equal(sc.estimate_utm, sc.truth_utm)
    em = sc.expected
    assert em.summary.rmse_absolute == 0.0
    assert em.summary.gap_percent == 0.0
    assert em.visit_ids == ["CP01", "CP02", "CP03"]


def test_bias_only_has_exact_absolute_rmse():
    sc = generate(_line_spec(global_bias=np.array([1.0, 0.0, 0.0])))
    em = sc.expected
    assert em.summary.rmse_absolute == pytest.approx(1.0, abs=1e-12)
    assert em.summary.rmse_aligned == pytest.approx(0.0, abs=1e-9)
    assert em.summary.gap_percent == pytest.approx(100.0, abs=1e-6)
    # A bias shifts every sample identically.
    assert np.allclose(sc.estimate_utm - sc.truth_utm, [1.0, 0.0, 0.0], atol=0.0)
    # Expected drift slope is undefined under bias (norm no longer centered).
    assert em.alpha_time_expected is None


def test_same_seed_is_bit_identical_different_seed_is_not():
    spec_a = _line_spec(noise_sigma=0.02, seed=7)
    spec_b = _line_spec(noise_sigma=0.02, seed=7)
    a, b = generate(spec_a), generate(spec_b)
    assert np.array_equal(a.estimate_utm, b.estimate_utm)
    c = generate(_line_spec(noise_sigma=0.02, seed=8))
    assert not np.array_equal(a.estimate_utm, c.estimate_utm)


def test_written_bundle_is_byte_deterministic(tmp_path):
    spec = _line_spec(noise_sigma=0.01, drift_rate=0.02,
                      outage_windows=[(20.0, 50.0)],
                      calibration=DeviceCalibration([-0.073, -0.023, -0.172],
                                                    [0.023, -0.023, 0.090]))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_scenario(generate(spec), d1)
    write_scenario(generate(_line_spec(noise_sigma=0.01, drift_rate=0.02,
                                       outage_windows=[(20.0, 50.0)],
                                       calibration=DeviceCalibration(
                                           [-0.073, -0.023, -0.172],
                                           [0.023, -0.023, 0.090]))), d2)
    names = ["truth.tum", "estimate.tum", "rtk.csv", "checkpoints.csv",
             "spec.json", "expected.json", "run.json"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_written_files_parse_back_exactly(tmp_path):
    sc = generate(_line_spec(noise_sigma=0.01, seed=3))
    write_scenario(sc, tmp_path)
    truth = parse_trajectory(tmp_path / "truth.tum")
    est = parse_trajectory(tmp_path / "estimate.tum")
    assert np.array_equal(truth.timestamps, sc.truth.timestamps)
    assert np.array_equal(truth.positions, sc.truth.positions)
    assert np.array_equal(est.positions, sc.estimate.positions)
    cps = parse_checkpoints(tmp_path / "checkpoints.csv", zone=32)
    assert [c.id for c in cps] == [c.id for c in sc.checkpoints]
    assert cps[0].coord.easting == sc.checkpoints[0].coord.easting
    log = parse_rtk_log(tmp_path / "rtk.csv")
    for col in ("t", "h", "status"):
        assert getattr(log, col).tolist() == getattr(sc.rtk, col).tolist(), col


def test_rtk_outage_windows_are_half_open():
    sc = generate(_line_spec(outage_windows=[(20.0, 50.0)]))
    by_t = dict(zip(sc.rtk.t.tolist(), sc.rtk.status.tolist()))
    assert by_t[19.0] == GnssStatus.RTK_FIX
    assert by_t[20.0] == GnssStatus.NONE
    assert by_t[49.0] == GnssStatus.NONE
    assert by_t[50.0] == GnssStatus.RTK_FIX
    assert sc.rtk.status[0] == GnssStatus.RTK_FIX
    # 1 Hz cadence across the whole scenario.
    ts = sc.rtk.t.tolist()
    assert ts == [float(i) / RTK_RATE_HZ for i in range(len(ts))]


_LEVER_ARMS = [None, DeviceCalibration([-0.073, -0.023, -0.172], [0.023, -0.023, 0.090]),
               DeviceCalibration([0.0, 0.0, 0.0], [0.4, -1.1, 1.5])]


@st.composite
def _receiver_specs(draw):
    """A few waypoints within 60 m of a random site in any zone, either
    hemisphere, up to ~8 deg from the central meridian."""
    zone = draw(st.integers(1, 60))
    south = draw(st.booleans())
    e0 = draw(st.floats(170_000.0, 830_000.0))
    n0 = draw(st.floats(2_600_000.0, 9_990_000.0) if south else st.floats(0.0, 7_400_000.0))
    h0 = draw(st.floats(-50.0, 3000.0))
    n_wp = draw(st.integers(2, 4))
    offsets = draw(st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0),
                                      st.floats(-5.0, 5.0)),
                            min_size=n_wp - 1, max_size=n_wp - 1))
    waypoints = np.array([[e0, n0, h0]] + [[e0 + de, n0 + dn, h0 + dh]
                                           for de, dn, dh in offsets])
    # The first stop is a dwell: a scenario needs a duration and a visit.
    durations = [2.5] + draw(st.lists(st.sampled_from([0.0, 2.5, 4.0]),
                                      min_size=n_wp - 1, max_size=n_wp - 1))
    hemisphere = "south" if south else "north"
    return ScenarioSpec(
        seed=draw(st.integers(0, 2**32 - 1)), waypoints=waypoints,
        dwells=[(f"CP{k}" if dur > 0 else "", dur) for k, dur in enumerate(durations)],
        speed=draw(st.sampled_from([1.5, 4.0])),
        origin=utm_to_geodetic(UtmCoord(e0, n0, h0, zone, hemisphere)), zone=zone,
        outage_windows=draw(st.sampled_from([[], [(2.5, 7.5)], [(5.0, 20.0)]])),
        calibration=draw(st.sampled_from(_LEVER_ARMS)))


def _receiver_spec(e0, n0, zone, hemisphere, calibration):
    return ScenarioSpec(
        seed=1, waypoints=np.array([[e0, n0, 80.0], [e0 + 40.0, n0 - 30.0, 82.0]]),
        dwells=[("CP1", 3.0), ("CP2", 3.0)], speed=1.5,
        origin=utm_to_geodetic(UtmCoord(e0, n0, 80.0, zone, hemisphere)), zone=zone,
        calibration=calibration)


@given(spec=_receiver_specs())
@example(spec=_receiver_spec(180_000.0, 3_000_000.0, 56, "south", _LEVER_ARMS[1]))
@example(spec=_receiver_spec(820_000.0, 6_500_000.0, 1, "north", _LEVER_ARMS[2]))
@example(spec=_receiver_spec(513_000.0, 5_403_000.0, 32, "north", None))
@settings(max_examples=40, deadline=None)
def test_receiver_log_matches_per_record_chain(spec):
    """Each record's columns and written line, and the world origin, as the
    scalar chain built them one record at a time."""
    sc = generate(spec)
    segments, _, total = synth._schedule(spec)
    calib = spec.calibration if spec.calibration is not None else DeviceCalibration.zero()
    want = rtk_records_reference(segments, total, spec.outage_windows, sc.truth_utm[0],
                                 spec.zone, sc.hemisphere,
                                 calib.t_imu_to_antenna - calib.t_imu_to_base)
    cols = (sc.rtk.t, sc.rtk.lat, sc.rtk.lon, sc.rtk.h, sc.rtk.status)
    assert [c.tobytes() for c in cols] == \
        [np.asarray(w, dtype=c.dtype).tobytes() for w, c in zip(rtk_columns(want), cols)]
    buf = io.StringIO()
    write_rtk_log(sc.rtk, buf)
    assert buf.getvalue() == write_rtk_log_reference(want)
    first = want[0][1]
    assert sc.origin == GeodeticCoord.from_degrees(first.lat_deg, first.lon_deg, first.h)


def _polar_spec():
    """A walk north from 83.99 deg that crosses the UTM domain's 84 deg edge."""
    start = geodetic_to_utm(GeodeticCoord.from_degrees(83.99, 9.0, 50.0), 32)
    e0, n0 = start.easting, start.northing
    return _line_spec(waypoints=np.array([[e0, n0, 50.0], [e0, n0 + 3000.0, 50.0]]),
                      dwells=[("CP01", 2.0), ("CP02", 2.0)], speed=50.0,
                      origin=utm_to_geodetic(UtmCoord(e0, n0, 50.0, 32)))


@pytest.mark.parametrize("calibration", _LEVER_ARMS[:2])
def test_receiver_record_beyond_84_deg_is_out_of_domain(calibration):
    spec = _polar_spec()
    spec.calibration = calibration
    segments, _, total = synth._schedule(spec)
    d_antenna = (np.zeros(3) if calibration is None
                 else calibration.t_imu_to_antenna - calibration.t_imu_to_base)
    with pytest.raises(OutOfDomain) as want:
        rtk_records_reference(segments, total, [], spec.waypoints[0], 32, "north",
                              d_antenna)
    with pytest.raises(OutOfDomain) as got:
        generate(spec)
    assert str(got.value) == str(want.value)


def test_waypoint_easting_outside_utm_is_invalid_spec():
    for bad in (1_000_000.0, 0.0, -5.0):
        wps = np.array([[E0, N0, H0], [E0 + 90.0, N0, H0], [bad, N0, H0]])
        with pytest.raises(InvalidSpec, match="waypoint 2 has easting"):
            generate(_line_spec(waypoints=wps))


def test_random_walk_variance_tracks_discrete_process():
    rate, tau, dt = 0.1, 5.0, 0.1
    spec = _line_spec(drift_rate=rate, reset_tau_s=tau,
                      outage_windows=[(20.0, 50.0)], sample_rate_hz=1.0 / dt)
    sc = generate(spec)
    t, var = sc.t, sc.rw_var
    step_var = rate ** 2 * dt
    inside = (t >= 20.0) & (t < 50.0)
    first_in = int(np.argmax(inside))
    last_in = int(len(t) - 1 - np.argmax(inside[::-1]))
    assert np.all(var[:first_in] == 0.0)
    # Linear growth inside the outage, one step of q^2*dt per sample.
    grown = var[first_in:last_in + 1]
    steps = np.arange(1, last_in - first_in + 2)
    assert np.max(np.abs(grown - steps * step_var)) < 1e-12
    # Exponential decay outside, factor exp(-2*dt/tau) per sample.
    peak = var[last_in]
    decay = math.exp(-2.0 * dt / tau)
    tail = var[last_in + 1:]
    expected_tail = peak * decay ** np.arange(1, len(tail) + 1)
    assert np.max(np.abs(tail - expected_tail)) < 1e-12
    # The realized walk is zero before the outage and nonzero inside.
    rw = sc.estimate_utm - sc.truth_utm
    assert np.all(rw[:first_in] == 0.0)
    assert np.any(rw[inside] != 0.0)


@given(seed=st.integers(0, 2**32 - 1), n_seg=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_positions_at_matches_per_time_loop(seed, n_seg):
    """Contiguous dwell, walk and zero-length segments (explicit, or from a
    1e16 s clock that swallows short steps) queried on whole seconds, at
    segment ends and past the plan."""
    rng = np.random.default_rng(seed)
    segments, t = [], float(rng.choice([0.0, 1e16]))
    p = rng.uniform(-1e3, 1e3, size=3)
    for _ in range(n_seg):
        kind = rng.integers(3)
        dur = 0.0 if kind == 2 else float(rng.choice([0.5, 1.0, 2.75, 7.0]))
        q = p if kind == 0 else rng.uniform(-1e3, 1e3, size=3)
        segments.append((t, t + dur, p, q))
        t, p = t + dur, q
    start, ends = segments[0][0], [s[1] for s in segments]
    ts = np.unique(np.concatenate([np.arange(0.0, t - start + 3.0) + start,
                                   ends, np.nextafter(ends, np.inf)]))
    got = synth._positions_at(segments, ts)
    want = np.array([position_at_reference(segments, float(x)) for x in ts])
    assert got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       n_visits=st.integers(0, 30), clock=st.sampled_from([0.0, 1.7e9]),
       rate=st.sampled_from([10.0, 100.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_visit_samples_match_per_visit_scans(seed, n, n_visits, clock, rate):
    """Dwell midpoints on samples, halfway between them and off the track's
    ends; 1 Hz fixes with gaps, on a path with still stretches."""
    rng = np.random.default_rng(seed)
    t = clock + np.arange(n) / rate
    steps = rng.uniform(0.0, 1.0, size=n - 1) * (rng.random(n - 1) < 0.5)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    secs = clock + np.arange(np.floor((t[-1] - clock) + 3.0))
    fix_times = secs[rng.random(len(secs)) < 0.7]
    if not fix_times.size:
        fix_times = secs[:1]
    cands = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), [t[0] - 0.5, t[-1] + 0.5],
                            rng.uniform(t[0], t[-1], size=n)])
    visit_t = rng.choice(cands, size=n_visits)
    got = synth._visit_samples(t, visit_t, fix_times, cum)
    want = expected_nearest_reference(t, visit_t, fix_times, cum)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


def test_visit_samples_where_interpolated_arc_length_dips():
    """One ulp before a sample, ``np.interp`` rounds above the sample's own
    arc length: the fixes' arc lengths are out of order by one ulp."""
    t = np.array([0.044057306595985224, 0.8653395054234392, 0.9453169828594086])
    cum = np.array([0.0, 912.2465640729142, 1742.3054403999754])
    fix_times = np.array([np.nextafter(t[1], -np.inf), t[1]])
    assert np.diff(np.interp(fix_times, t, cum))[0] < 0
    got = synth._visit_samples(t, fix_times, fix_times, cum)
    want = expected_nearest_reference(t, fix_times, fix_times, cum)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()
    assert got[2].tolist() == [0.0, 0.0]


def test_expected_metrics_match_per_visit_scans_on_a_scenario():
    sc = generate(_line_spec(outage_windows=[(20.0, 50.0)], drift_rate=0.05,
                             noise_sigma=0.01, sample_rate_hz=100.0))
    fix_times = sc.rtk.t[sc.rtk.status == GnssStatus.RTK_FIX]
    steps = np.linalg.norm(np.diff(sc.truth_utm, axis=0), axis=1)
    k_idx, dt_s, dx_m = expected_nearest_reference(
        sc.t, sc.expected.visit_t, fix_times, np.concatenate([[0.0], np.cumsum(steps)]))
    em = sc.expected
    assert em.dt_s.tolist() == dt_s.tolist() and em.dx_m.tolist() == dx_m.tolist()
    ref = np.array([w.waypoint for w in sc.dwell_windows])
    assert em.eps_m.tolist() == np.linalg.norm(sc.estimate_utm[k_idx] - ref,
                                               axis=1).tolist()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       windows=st.lists(st.tuples(st.integers(1, 100), st.integers(1, 50),
                                  st.sampled_from([0.0, 0.05])), max_size=4))
@settings(max_examples=100, deadline=None)
def test_random_walk_matches_per_sample_loop(seed, n, windows):
    """Outage windows with bounds on and between the 0.1 s samples."""
    outages, end = [], 0
    for gap, length, shift in windows:
        a = end + gap
        outages.append((a * 0.1 + shift, (a + length) * 0.1))
        end = a + length
    spec = ScenarioSpec(seed=seed, waypoints=np.zeros((2, 3)), dwells=[("", 0.0)] * 2,
                        speed=1.0, origin=_origin_at(E0, N0, H0), zone=32,
                        outage_windows=outages, drift_rate=0.01, reset_tau_s=3.0)
    t = np.arange(n) * 0.1
    got = synth._random_walk(t, spec, np.random.Generator(np.random.PCG64(seed)))
    want = random_walk_reference(t, 0.01, 3.0, outages,
                                 np.random.Generator(np.random.PCG64(seed)))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_expected_error_magnitude_uses_chi_mean():
    spec = _line_spec(noise_sigma=0.02)
    sc = generate(spec)
    em = sc.expected
    # No drift: every visit's expected norm is sigma * sqrt(8/pi).
    assert np.allclose(em.eps_mean_m, 0.02 * CHI3_MEAN, atol=1e-15)


def test_pipeline_matches_generator_oracle_bias_only():
    """Dual route: dwell detection + matching + metrics vs the oracle."""
    sc = generate(_line_spec(global_bias=np.array([0.4, -0.3, 0.2])))
    truth_track = apply_lever_arm(sc.truth, np.zeros(3))
    dwells = detect_dwells(truth_track, 0.05, 5.0)
    table = match_visits(dwells, sc.checkpoints, sc.context, gate_radius=2.0,
                         sequence_id="t", generator_method="truth")
    est_track = apply_lever_arm(sc.estimate, np.zeros(3))
    visits = visits_from_table(table, est_track, sc.checkpoints, sc.context)
    summary, _, _ = summarize(visits.est, visits.ref)
    em = sc.expected
    assert summary.rmse_absolute == pytest.approx(em.summary.rmse_absolute,
                                                  abs=1e-6)
    assert summary.rmse_aligned == pytest.approx(0.0, abs=1e-6)
    assert summary.gap_rounded == 100


def test_noise_only_gap_stays_small_for_twenty_checkpoints():
    # Calibrated bound: with >= 20 well-spread checkpoints at sigma = 2 cm,
    # alignment can only exploit sampling coincidence, not structure.
    wps, dwells = [], []
    k = 0
    for r in range(4):
        cols = range(5) if r % 2 == 0 else range(4, -1, -1)
        for c in cols:
            k += 1
            wps.append((E0 + 60.0 * c, N0 + 60.0 * r, H0))
            dwells.append((f"CP{k:02d}", 8.0))
    for seed in range(5):
        spec = ScenarioSpec(seed=seed, waypoints=np.array(wps), dwells=dwells,
                            speed=1.5, origin=_origin_at(*wps[0]), zone=32,
                            noise_sigma=0.02)
        em = expected_metrics(generate(spec))
        assert em.summary.n_points == 20
        assert 0.0 <= em.summary.gap_percent < 15.0


def test_calibration_places_imu_relative_to_antenna():
    calib = DeviceCalibration([-0.073, -0.023, -0.172], [0.023, -0.023, 0.090])
    sc = generate(_line_spec(calibration=calib))
    # The local frame anchors at the first antenna fix; with identity
    # orientation the IMU then sits at -t_imu_to_antenna.
    p0 = sc.truth.positions[0]
    assert np.linalg.norm(p0 + calib.t_imu_to_antenna) < 1e-3


def test_spec_round_trips_through_dict():
    spec = _line_spec(noise_sigma=0.01, drift_rate=0.02,
                      outage_windows=[(20.0, 50.0)],
                      global_bias=np.array([0.1, 0.0, -0.05]),
                      calibration=DeviceCalibration.zero())
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    # Round-tripped specs generate identical worlds.
    assert np.array_equal(generate(again).estimate_utm,
                          generate(spec).estimate_utm)


def test_spec_rejects_unknown_prng():
    doc = _line_spec().to_dict()
    doc["prng"] = "mt19937"
    with pytest.raises(InvalidSpec):
        ScenarioSpec.from_dict(doc)


def test_spec_validation_errors():
    with pytest.raises(InvalidSpec):  # outage covering t=0
        generate(_line_spec(outage_windows=[(0.0, 10.0)]))
    with pytest.raises(InvalidSpec):  # unsorted windows
        generate(_line_spec(outage_windows=[(30.0, 40.0), (10.0, 20.0)]))
    with pytest.raises(InvalidSpec):  # overlapping windows
        generate(_line_spec(outage_windows=[(10.0, 30.0), (20.0, 40.0)]))
    with pytest.raises(InvalidSpec):  # origin off the first waypoint
        generate(_line_spec(origin=_origin_at(E0 + 1.0, N0, H0)))
    with pytest.raises(InvalidSpec):  # dwell list length mismatch
        generate(_line_spec(dwells=[("CP01", 8.0), ("CP02", 8.0)]))
    with pytest.raises(InvalidSpec):  # dwelling without an id
        generate(_line_spec(dwells=[("", 8.0), ("CP02", 8.0), ("CP03", 8.0)]))
    with pytest.raises(InvalidSpec):  # one checkpoint, two places
        generate(_line_spec(dwells=[("CP01", 8.0), ("CP02", 8.0), ("CP01", 8.0)]))
    with pytest.raises(InvalidSpec):  # a single waypoint has no duration
        generate(_line_spec(waypoints=np.array([[E0, N0, H0]]),
                            dwells=[("CP01", 8.0)]))
    with pytest.raises(InvalidSpec):
        generate(_line_spec(speed=0.0))
    with pytest.raises(InvalidSpec):
        generate(_line_spec(drift_rate=-0.1))


def test_revisit_same_checkpoint_is_allowed():
    wps = np.array([[E0, N0, H0], [E0 + 30.0, N0, H0], [E0, N0, H0]])
    spec = _line_spec(waypoints=wps,
                      dwells=[("CP01", 6.0), ("", 0.0), ("CP01", 6.0)])
    sc = generate(spec)
    assert [w.checkpoint_id for w in sc.dwell_windows] == ["CP01", "CP01"]
    assert len(sc.checkpoints) == 1
    assert sc.expected.summary.n_points == 2


def test_outage_drift_produces_positive_realized_slope():
    spec = _line_spec(
        waypoints=np.array([[E0 + 90.0 * i, N0, H0] for i in range(5)]),
        dwells=[(f"CP{i+1:02d}", 8.0) for i in range(5)],
        outage_windows=[(30.0, 260.0)], drift_rate=0.02, noise_sigma=0.02)
    em = generate(spec).expected
    assert em.alpha_time_expected is not None
    assert em.alpha_time_expected > 0.0
    assert np.any(em.dt_s > 0.0)
    # Visits inside the outage sit farther from fixes than covered ones.
    assert em.dt_s.max() > 30.0


def test_run_config_bundle_contents(tmp_path):
    cfg = write_scenario(generate(_line_spec(seed=11)), tmp_path,
                         method_label="slam")
    assert cfg["sequence_id"] == "synthetic-seed11"
    assert cfg["methods"] == [{"label": "slam", "trajectory": "estimate.tum"}]
    on_disk = json.loads((tmp_path / "run.json").read_text())
    assert on_disk == cfg
    expected_doc = json.loads((tmp_path / "expected.json").read_text())
    assert expected_doc["n_points"] == 3
    assert "visits" in expected_doc
