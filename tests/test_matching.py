"""Dwell detection, checkpoint association, and visit-table round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.errors import (
    NoCheckpoints,
    SchemaMismatch,
    UnknownCheckpoint,
)
from geotraj.geodesy import GeoContext, GeodeticCoord, UtmCoord, utm_to_geodetic
from geotraj.lever_arm import BaseCenterTrack, apply_lever_arm
from geotraj.matching import (
    CheckpointVisit,
    DwellSegment,
    VisitTable,
    detect_dwells,
    export_visit_table,
    import_visit_table,
    match_visits,
    nearest_samples,
    visits_from_table,
)
from geotraj.synth import ScenarioSpec, generate
from geotraj.trajectory_io import Checkpoint
from oracles import (detect_dwells_reference, match_visits_reference,
                     visits_from_table_reference)


def _ctx() -> GeoContext:
    return GeoContext(GeodeticCoord.from_degrees(48.78, 9.18, 300.0), zone=32)


def _track(ts, ps) -> BaseCenterTrack:
    return BaseCenterTrack(np.asarray(ts, dtype=float), np.asarray(ps, dtype=float))


def _walk_then_dwell(dwell_pos, dwell_len, rate=1.0):
    """1 Hz approach along x, then `dwell_len` stationary samples."""
    approach = [[-10.0 + 2.0 * k, 0.0, 0.0] for k in range(5)]
    dwell = [list(dwell_pos)] * dwell_len
    leave = [[dwell_pos[0] + 2.0 * (k + 1), dwell_pos[1], dwell_pos[2]]
             for k in range(5)]
    ps = approach + dwell + leave
    ts = np.arange(len(ps)) / rate
    return _track(ts, ps)


def test_detects_single_dwell_with_median_representative():
    track = _walk_then_dwell([1.0, 2.0, 0.5], dwell_len=8)
    segs = detect_dwells(track)
    assert len(segs) == 1
    assert segs[0].p_rep == (1.0, 2.0, 0.5)
    assert segs[0].duration >= 7.0
    assert segs[0].t_mid == 0.5 * (segs[0].t_start + segs[0].t_end)


def test_duration_at_threshold_is_inclusive():
    # Exactly min_dwell seconds between first and last stationary sample.
    ps = [[0.0, 0.0, 0.0]] * 6 + [[50.0, 0.0, 0.0], [100.0, 0.0, 0.0]]
    track = _track(np.arange(8.0), ps)
    assert len(detect_dwells(track, min_dwell=5.0)) == 1
    ps_short = [[0.0, 0.0, 0.0]] * 5 + [[50.0, 0.0, 0.0]] * 3
    track_short = _track(np.arange(8.0), ps_short)
    assert detect_dwells(track_short, min_dwell=5.0) == []


def test_jitter_within_radius_still_dwells():
    rng = np.random.default_rng(4)
    jitter = rng.uniform(-0.02, 0.02, size=(12, 3))
    ps = np.vstack([jitter + [3.0, -1.0, 0.2],
                    [[20.0, 0.0, 0.0], [40.0, 0.0, 0.0]]])
    track = _track(np.arange(float(len(ps))), ps)
    segs = detect_dwells(track, stationary_radius=0.05, min_dwell=5.0)
    assert len(segs) == 1
    assert np.linalg.norm(np.array(segs[0].p_rep) - [3.0, -1.0, 0.2]) < 0.05


def test_slow_drift_is_not_a_dwell():
    # 3 cm per sample never leaves the radius between neighbors but the
    # window median check catches the accumulated motion before min_dwell.
    ps = [[0.03 * k, 0.0, 0.0] for k in range(40)]
    track = _track(np.arange(40.0), ps)
    assert detect_dwells(track, stationary_radius=0.05, min_dwell=5.0) == []


def test_two_separate_dwells():
    ps = ([[0.0, 0.0, 0.0]] * 8 + [[30.0 + 3.0 * k, 0.0, 0.0] for k in range(4)]
          + [[90.0, 5.0, 1.0]] * 8)
    track = _track(np.arange(float(len(ps))), ps)
    segs = detect_dwells(track)
    assert len(segs) == 2
    assert segs[0].p_rep[0] == 0.0
    assert segs[1].p_rep == (90.0, 5.0, 1.0)


def test_detect_dwells_rejects_bad_params():
    track = _track([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2)
    with pytest.raises(ValueError):
        detect_dwells(track, stationary_radius=0.0)
    with pytest.raises(ValueError):
        detect_dwells(track, min_dwell=-1.0)


def test_detect_dwells_short_tracks_have_no_dwells():
    assert detect_dwells(_track(np.empty(0), np.empty((0, 3)))) == []
    assert detect_dwells(_track([0.0], [[1.0, 2.0, 3.0]])) == []


@pytest.mark.parametrize("ts", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                                [0.0, np.nan, 2.0, 3.0]])
def test_detect_dwells_requires_strictly_increasing_time(ts):
    with pytest.raises(ValueError, match="strictly increasing"):
        detect_dwells(_track(ts, [[0.0, 0.0, 0.0]] * 4), min_dwell=1.0)


@pytest.mark.parametrize("ts, ps", [
    ([0.0, 1.0, 2.0, np.inf], [[0.0, 0.0, 0.0]] * 4),
    ([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0, 0.0]] * 3 + [[0.0, np.nan, 0.0]]),
])
def test_detect_dwells_requires_finite_tracks(ts, ps):
    with pytest.raises(ValueError, match="finite"):
        detect_dwells(_track(ts, ps), min_dwell=1.0)


def _survey_track(rng, radius, n_parts, grid):
    """Stays and moves: each stay's spread sits at r/2, r or 2r, as jitter or
    a random walk; with ``grid`` every position snaps to multiples of r/2, so
    samples repeat exactly and distances land exactly on r."""
    parts = []
    pos = rng.uniform(-1.0, 1.0, size=3)
    for _ in range(n_parts):
        length = int(rng.integers(1, 40))
        if rng.random() < 0.3:
            step = rng.normal(0.0, radius * rng.choice([0.3, 1.0, 3.0]), size=3)
            parts.append(pos + np.outer(np.arange(1, length + 1), step))
        else:
            spread = radius * rng.choice([0.5, 1.0, 2.0])
            if rng.random() < 0.5:
                parts.append(pos + rng.uniform(-spread, spread, size=(length, 3)))
            else:
                walk = np.cumsum(rng.normal(0.0, 1.0, size=(length, 3)), axis=0)
                parts.append(pos + spread * walk / np.sqrt(length))
        pos = parts[-1][-1]
    p = np.vstack(parts)
    if grid:
        p = np.round(p / (0.5 * radius)) * (0.5 * radius)
    return p


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_parts=st.integers(1, 12),
       radius=st.sampled_from([0.05, 0.1, 0.25]), grid=st.booleans(),
       clock=st.sampled_from(["tenths", "scaled", "jittered"]),
       min_dwell=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 1.2, 2.0]))
def test_detect_dwells_matches_reference(seed, n_parts, radius, grid, clock,
                                         min_dwell):
    """Differential check against the original one-median-per-window scan."""
    rng = np.random.default_rng(seed)
    p = _survey_track(rng, radius, n_parts, grid)
    n = len(p)
    if clock == "tenths":
        # 0.1 s grids: t[last] - t[i] lands on min_dwell exactly, or one ulp
        # either side of it.
        t = np.arange(n) * 0.1
    elif clock == "scaled":
        # Unix-epoch times, where one ulp is 0.24 us.
        t = 1.7e9 + np.arange(n) / 10.0
    else:
        t = np.cumsum(rng.uniform(0.02, 0.2, size=n))
    track = _track(t, p)
    assert (detect_dwells(track, radius, min_dwell)
            == detect_dwells_reference(track, radius, min_dwell))


def test_dwell_whose_box_is_exactly_2r_wide_is_kept():
    # The median 0 sits exactly r from both extremes, so every window passes.
    ps = [[-0.25, 0.0, 0.0], [0.25, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 8 + [[9.0, 0.0, 0.0]]
    track = _track(np.arange(11.0), ps)
    segs = detect_dwells(track, stationary_radius=0.25, min_dwell=5.0)
    assert [(s.t_start, s.t_end) for s in segs] == [(0.0, 9.0)]
    assert segs == detect_dwells_reference(track, 0.25, 5.0)


def test_dwell_across_a_time_gap():
    """A stay that starts 0.5 s before a 100 s gap in a 10 Hz track: its
    horizon holds fewer samples than anyone else's, and the samples after it
    are already moving."""
    walk = np.arange(3000) * 0.1
    t = np.concatenate([walk, 300.0 + np.arange(5) * 0.1,
                        400.0 + np.arange(60) * 0.1])
    p = np.zeros((len(t), 3))
    p[:3000, 0] = -450.0 + 1.5 * walk
    p[3007:, 1] = 0.15 * np.arange(1, 59)
    track = _track(t, p)
    segs = detect_dwells(track, 0.05, 2.0)
    assert [(s.t_start, s.t_end) for s in segs] == [(300.0, 400.1)]
    assert segs == detect_dwells_reference(track, 0.05, 2.0)


def test_detect_dwells_matches_reference_on_drift_fragments():
    """100 Hz survey with a dwell inside an outage: drift splits the stay."""
    e0, n0, h0 = 513000.0, 5403000.0, 300.0
    waypoints = np.array([[e0, n0, h0], [e0 + 6.0, n0, h0],
                          [e0 + 6.0, n0 + 6.0, h0]])
    spec = ScenarioSpec(
        seed=3, waypoints=waypoints,
        dwells=[("CP1", 3.0), ("CP2", 12.0), ("CP3", 3.0)],
        speed=1.5, origin=utm_to_geodetic(UtmCoord(e0, n0, h0, 32)), zone=32,
        outage_windows=[(5.0, 20.0)], drift_rate=0.05, noise_sigma=0.005,
        sample_rate_hz=100.0)
    track = apply_lever_arm(generate(spec).estimate, np.zeros(3))
    got = detect_dwells(track, 0.05, 1.0)
    assert got == detect_dwells_reference(track, 0.05, 1.0)
    assert len(got) > 3


def _cp_at_enu(ctx, cp_id, e, n, u) -> Checkpoint:
    p = ctx.enu_to_utm((e, n, u))
    return Checkpoint(cp_id, p)


def test_match_within_gate_and_unmatched_beyond():
    ctx = _ctx()
    dwells = [DwellSegment(0.0, 8.0, (0.0, 0.0, 0.0)),
              DwellSegment(20.0, 28.0, (50.0, 0.0, 0.0))]
    cps = [_cp_at_enu(ctx, "NEAR", 0.1, 0.0, 0.0),
           _cp_at_enu(ctx, "FAR", 50.0, 30.0, 0.0)]
    table = match_visits(dwells, cps, ctx, gate_radius=1.0,
                         sequence_id="seq", generator_method="truth")
    assert [v.checkpoint_id for v in table.visits] == ["NEAR"]
    assert table.visits[0].t_rep == 4.0
    assert table.visits[0].distance_to_cp == pytest.approx(0.1, abs=1e-3)
    assert [s.t_start for s in table.unmatched_segments] == [20.0]
    assert table.unvisited_checkpoints == ["FAR"]
    assert table.sequence_id == "seq"


def test_match_prefers_smaller_distance():
    ctx = _ctx()
    dwells = [DwellSegment(0.0, 8.0, (0.0, 0.0, 0.0))]
    cps = [_cp_at_enu(ctx, "A", 0.6, 0.0, 0.0),
           _cp_at_enu(ctx, "B", 0.2, 0.0, 0.0)]
    table = match_visits(dwells, cps, ctx)
    assert [v.checkpoint_id for v in table.visits] == ["B"]


def test_match_tie_breaks_on_lexicographic_id():
    ctx = _ctx()
    dwells = [DwellSegment(0.0, 8.0, (0.0, 0.0, 0.0))]
    coord = ctx.enu_to_utm((0.25, 0.0, 0.0))
    cps = [Checkpoint("CP9", coord), Checkpoint("CP10", coord)]
    table = match_visits(dwells, cps, ctx)
    assert [v.checkpoint_id for v in table.visits] == ["CP10"]


def test_match_requires_checkpoints():
    ctx = _ctx()
    with pytest.raises(NoCheckpoints):
        match_visits([], [], ctx)


def test_lookup_picks_nearest_sample_or_skips():
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    idx, _ = nearest_samples(np.array([0.0, 0.5, 1.0]), np.array([0.4, 0.1]))
    assert idx.tolist() == [1, 0]
    table = VisitTable("seq", "slam", [CheckpointVisit("CP1", 2.0, cps[0].coord, 0.0)])
    visits = visits_from_table(table, _track([0.0, 0.5, 1.0], [[0.0, 0.0, 0.0]] * 3),
                               cps, ctx)
    assert visits.checkpoint_ids == []
    assert len(visits.skipped) == 1


def test_visits_from_table_reuses_timestamps_and_recomputes_positions():
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    table = VisitTable("seq", "truth", [
        CheckpointVisit("CP1", 4.0, cps[0].coord, 0.0),
    ])
    # Second method is offset 0.3 m east at the same instants.
    track = _track(np.arange(9.0), [[0.3, 0.0, 0.0]] * 9)
    visits = visits_from_table(table, track, cps, ctx)
    assert visits.skipped == []
    assert visits.t_rep.tolist() == [4.0]
    assert np.linalg.norm(visits.est[0] - visits.ref[0]) == pytest.approx(0.3, rel=1e-3)


def test_visits_from_table_applies_no_gate():
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    table = VisitTable("seq", "truth",
                       [CheckpointVisit("CP1", 1.0, cps[0].coord, 0.0)])
    track = _track([0.0, 1.0, 2.0], [[500.0, 0.0, 0.0]] * 3)
    visits = visits_from_table(table, track, cps, ctx)
    assert np.linalg.norm(visits.est[0] - visits.ref[0]) > 400.0


def test_visits_from_table_unknown_checkpoint():
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    table = VisitTable("seq", "truth",
                       [CheckpointVisit("GHOST", 1.0, cps[0].coord, 0.0)])
    track = _track([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2)
    with pytest.raises(UnknownCheckpoint):
        visits_from_table(table, track, cps, ctx)


def test_visits_from_table_gap_exceeded():
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    table = VisitTable("seq", "truth",
                       [CheckpointVisit("CP1", 10.0, cps[0].coord, 0.0)])
    track = _track([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2)
    visits = visits_from_table(table, track, cps, ctx)
    assert visits.checkpoint_ids == []
    assert visits.est.shape == visits.ref.shape == (0, 3)
    assert visits.skipped == [
        "CP1@10.000: nearest sample is 9.000 s from t=10.000 (limit 0.2 s)"]


_IDS = ["CP1", "CP10", "CP2", "A", "b", "cp-07", "Z9", "CP02"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dwells=st.integers(0, 40),
       n_cps=st.integers(1, len(_IDS)), copies=st.integers(0, 3),
       gate=st.sampled_from([0.5, 1.0, 3.0]))
def test_match_visits_matches_reference(seed, n_dwells, n_cps, copies, gate):
    """Differential check against the per-dwell loop; ``copies`` checkpoints
    share another's coordinate, so equal distances must break on the id."""
    rng = np.random.default_rng(seed)
    ctx = _ctx()
    ids = list(rng.permutation(_IDS)[:n_cps])
    enu = rng.uniform(-30.0, 30.0, size=(n_cps, 3))
    for k in range(min(copies, n_cps - 1)):
        enu[k + 1] = enu[0]
    cps = [_cp_at_enu(ctx, cp_id, *p) for cp_id, p in zip(ids, enu)]
    near = enu[rng.integers(0, n_cps, size=n_dwells)]
    p_rep = np.where(rng.random((n_dwells, 1)) < 0.7,
                     near + rng.normal(0.0, 0.5 * gate, size=(n_dwells, 3)),
                     rng.uniform(-40.0, 40.0, size=(n_dwells, 3)))
    starts = np.cumsum(rng.uniform(1.0, 20.0, size=n_dwells))
    dwells = [DwellSegment(float(a), float(a + 6.0), tuple(map(float, p)))
              for a, p in zip(starts, p_rep)]
    got = match_visits(dwells, cps, ctx, gate, "seq", "slam")
    want = match_visits_reference(dwells, cps, ctx, gate, "seq", "slam")
    assert got.visits == want.visits
    assert got.unmatched_segments == want.unmatched_segments
    assert got.unvisited_checkpoints == want.unvisited_checkpoints
    assert (got.sequence_id, got.generator_method) == ("seq", "slam")


def test_match_visits_chunks_many_dwells():
    """More dwells than one distance block holds."""
    ctx = _ctx()
    rng = np.random.default_rng(3)
    grid = np.array([[5.0 * (k % 7), 5.0 * (k // 7), 0.0] for k in range(30)])
    p_rep = grid[rng.integers(0, 30, size=600)] + rng.uniform(-2.0, 2.0, size=(600, 3))
    dwells = [DwellSegment(10.0 * k, 10.0 * k + 6.0, tuple(p.tolist()))
              for k, p in enumerate(p_rep)]
    cps = [_cp_at_enu(ctx, f"CP{k}", *p) for k, p in enumerate(grid)]
    got = match_visits(dwells, cps, ctx, 2.0)
    want = match_visits_reference(dwells, cps, ctx, 2.0)
    assert len(got.visits) > 256
    assert got.visits == want.visits
    assert got.unmatched_segments == want.unmatched_segments


def _clock(kind, n, rng):
    if kind == "tenths":
        return np.arange(n) * 0.1
    if kind == "epoch":
        # Unix-epoch times, where one ulp is 0.24 us.
        return 1.7e9 + np.arange(n) * 0.1
    if kind == "quarters":
        return np.arange(n) * 0.25
    if kind == "seconds":
        return np.arange(n) * 1.0
    return np.cumsum(rng.uniform(0.01, 0.6, size=n))


def _table_times(t, rng, count, max_gap):
    """Sample times, exact midpoints, samples +- max_gap, times before the
    first and after the last sample, and times anywhere in between."""
    out = []
    for _ in range(count):
        k = int(rng.integers(0, len(t)))
        kind = rng.integers(0, 6)
        if kind == 0:
            out.append(float(t[k]))
        elif kind == 1 and k + 1 < len(t):
            out.append(float(0.5 * (t[k] + t[k + 1])))
        elif kind == 2:
            out.append(float(t[k] + rng.choice([-1.0, 1.0]) * max_gap))
        elif kind == 3:
            out.append(float(t[0] - rng.choice([max_gap, 0.1, 5.0])))
        elif kind == 4:
            out.append(float(t[-1] + rng.choice([max_gap, 0.1, 5.0])))
        else:
            out.append(float(rng.uniform(t[0] - 1.0, t[-1] + 1.0)))
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), count=st.integers(0, 25),
       clock=st.sampled_from(["tenths", "epoch", "quarters", "seconds", "jittered"]),
       max_gap=st.sampled_from([0.2, 0.25, 0.05]), ghost=st.booleans())
def test_visits_from_table_matches_reference(seed, n, count, clock, max_gap, ghost):
    """Differential check against the one-visit-at-a-time lookup: same
    visits and skip messages, or the same error for an unknown id."""
    rng = np.random.default_rng(seed)
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, cp_id, *rng.uniform(-20.0, 20.0, size=3))
           for cp_id in ("CP1", "CP2", "CP3")]
    t = _clock(clock, n, rng)
    track = _track(t, rng.uniform(-25.0, 25.0, size=(n, 3)))
    ids = rng.choice(["CP1", "CP2", "CP3"], size=count).tolist()
    if ghost and count:
        ids[int(rng.integers(0, count))] = "GHOST"
    visits = [CheckpointVisit(cp_id, t_rep, cps[0].coord, 0.0)
              for cp_id, t_rep in zip(ids, _table_times(t, rng, count, max_gap))]
    table = VisitTable("seq", "slam", visits)
    try:
        want = visits_from_table_reference(table, track, cps, ctx, max_gap)
    except UnknownCheckpoint as exc:
        with pytest.raises(UnknownCheckpoint, match=str(exc)):
            visits_from_table(table, track, cps, ctx, max_gap)
        return
    got = visits_from_table(table, track, cps, ctx, max_gap)
    _assert_columns_equal(got, *want, cps)


def _assert_columns_equal(got, visits, skipped, cps):
    """Columns equal, bit for bit, to per-visit objects and skip messages."""
    by_id = {cp.id: cp.coord for cp in cps}
    assert got.checkpoint_ids == [v.checkpoint_id for v in visits]
    assert got.t_rep.tolist() == [v.t_rep for v in visits]
    assert got.est.tolist() == [[v.p_est.easting, v.p_est.northing, v.p_est.height]
                                for v in visits]
    assert got.ref.tolist() == [[by_id[v.checkpoint_id].easting,
                                 by_id[v.checkpoint_id].northing,
                                 by_id[v.checkpoint_id].height] for v in visits]
    assert got.skipped == skipped


def test_lookup_tie_and_bound_cases():
    """Halfway takes the earlier sample, a gap equal to max_gap is kept, and
    an unknown id after a skipped visit still raises."""
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    track = _track([0.0, 0.5, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                     [2.0, 0.0, 0.0]])
    idx, gap = nearest_samples(track.t, np.array([0.25, 0.75, 1.25, -0.25]))
    assert idx.tolist() == [0, 1, 2, 0]
    assert gap.tolist() == [0.25] * 4
    table = VisitTable("seq", "slam", [CheckpointVisit("CP1", 1.25, cps[0].coord, 0.0),
                                       CheckpointVisit("CP1", 9.0, cps[0].coord, 0.0)])
    visits = visits_from_table(table, track, cps, ctx, max_gap=0.25)
    assert visits.t_rep.tolist() == [1.25]
    assert visits.skipped == ["CP1@9.000: nearest sample is 8.000 s from t=9.000 "
                              "(limit 0.25 s)"]
    table.visits.append(CheckpointVisit("GHOST", 0.5, cps[0].coord, 0.0))
    with pytest.raises(UnknownCheckpoint, match="GHOST"):
        visits_from_table(table, track, cps, ctx)
    _assert_columns_equal(visits_from_table(VisitTable("seq", "slam", []), track, cps, ctx),
                          [], [], cps)
    assert match_visits([], cps, ctx).visits == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_visits_from_table_rejects_non_finite_times(bad):
    ctx = _ctx()
    cps = [_cp_at_enu(ctx, "CP1", 0.0, 0.0, 0.0)]
    table = VisitTable("seq", "slam", [CheckpointVisit("CP1", bad, cps[0].coord, 0.0)])
    with pytest.raises(SchemaMismatch, match="non-finite"):
        visits_from_table(table, _track([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2), cps, ctx)


def _sample_table(ctx) -> VisitTable:
    coord = ctx.enu_to_utm((1.25, -0.5, 0.125))
    return VisitTable(
        "2024-05-14-run3", "slam",
        [CheckpointVisit("CP01", 12.375, coord, 0.0421)],
        [DwellSegment(40.0, 47.5, (10.0, 20.0, 0.5))],
        ["CP02"],
        {"gate_radius": 1.0, "min_dwell": 5.0},
    )


def test_export_import_export_is_byte_identical():
    table = _sample_table(_ctx())
    text1 = export_visit_table(table)
    text2 = export_visit_table(import_visit_table(text1.encode()))
    assert text1 == text2


def test_import_restores_every_field():
    table = _sample_table(_ctx())
    got = import_visit_table(export_visit_table(table).encode())
    assert got.sequence_id == table.sequence_id
    assert got.generator_method == table.generator_method
    assert got.visits[0].checkpoint_id == "CP01"
    assert got.visits[0].t_rep == 12.375
    assert got.visits[0].p_est.easting == table.visits[0].p_est.easting
    assert got.unmatched_segments[0].p_rep == (10.0, 20.0, 0.5)
    assert got.unvisited_checkpoints == ["CP02"]
    assert got.params == table.params


def test_export_is_deterministic():
    a = export_visit_table(_sample_table(_ctx()))
    b = export_visit_table(_sample_table(_ctx()))
    assert a == b


def test_import_rejects_bad_documents():
    with pytest.raises(SchemaMismatch):
        import_visit_table(b"not json at all{")
    with pytest.raises(SchemaMismatch):
        import_visit_table(b"{}")
    with pytest.raises(SchemaMismatch):
        import_visit_table(b"[1, 2, 3]")
    table = _sample_table(_ctx())
    doc = export_visit_table(table).replace('"t_rep"', '"when"')
    with pytest.raises(SchemaMismatch):
        import_visit_table(doc.encode())


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_import_rejects_non_finite_numbers(token):
    text = export_visit_table(_sample_table(_ctx())).replace('"t_rep": 12.375',
                                                           f'"t_rep": {token}')
    assert token in text
    with pytest.raises(SchemaMismatch, match="non-finite"):
        import_visit_table(text.encode())


def test_export_refuses_non_finite_numbers():
    table = _sample_table(_ctx())
    table.visits[0] = CheckpointVisit("CP01", float("nan"), table.visits[0].p_est, 0.0)
    with pytest.raises(ValueError):
        export_visit_table(table)


def test_import_from_path(tmp_path):
    table = _sample_table(_ctx())
    path = tmp_path / "table.json"
    path.write_text(export_visit_table(table), encoding="utf-8")
    got = import_visit_table(path)
    assert got.visits[0].t_rep == 12.375
