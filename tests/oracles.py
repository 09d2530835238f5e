"""Independent high-precision oracles used to freeze expected values.

Everything here is deliberately computed by a *different* route than the
package under test:

* ECEF: closed-form ellipsoid formula evaluated with 50-digit mpmath.
* Transverse Mercator: instead of any truncated series, the projection is
  evaluated as the analytic continuation of the meridian-arc function.
  Writing z = psi + i*lam (isometric latitude + i * longitude from the
  central meridian), the projected point is F(z) where F restricted to the
  real axis is the meridian arc and F'(z) = nu(phi) * cos(phi) via the
  Cauchy-Riemann structure of the conformal map.  F is evaluated by
  high-order quadrature along a straight path from the real axis, with the
  (complex) geodetic latitude recovered from psi by Newton iteration at
  every quadrature node.  Accuracy is limited only by mpmath precision.
* Rigid alignment: Horn's closed-form quaternion method, the top
  eigenvector of a symmetric 4x4 (the package takes Umeyama's SVD route).
* Dwell detection: the original greedy scan that recomputes ``np.median``
  for every grown window, with no bounds or prefilter; the package's
  ``detect_dwells`` must return exactly the same segments.
* TUM writing: the original writer, one ``repr`` per field and pose; the
  package's ``write_trajectory`` must produce the same text.
* Synthetic receiver track and drift: the original per-sample loops over
  motion segments and outage runs; ``synth`` must reproduce them bit for bit.
* Visit matching, pose lookup and outage coordinates: the original loops,
  one scalar geodesy call, one ``np.linalg.norm`` and one full ``argmin`` or
  ``np.min`` scan per dwell or visit; ``matching``, ``drift`` and the
  ``synth`` oracle must reproduce them bit for bit.
* Checkpoint errors and the accuracy summary: the original path with one
  error object per visit, looked up by checkpoint id, and the point arrays
  rebuilt from those objects; ``metrics.summarize`` on columns must
  reproduce it bit for bit.
* RTK receiver log: the original per-record chain of scalar geodesy calls
  and ``GeodeticCoord`` objects that built the synthetic log, the
  per-record parser and the per-record writer; ``synth`` and
  ``trajectory_io`` must reproduce them bit for bit.

Run as a script to print the frozen fixture values.
"""

import math

import mpmath as mp
import numpy as np

from geotraj import trajectory_io
from geotraj.errors import (MalformedLine, NoCheckpoints, NonMonotonicTimestamp,
                            UnknownCheckpoint, UnknownStatus)
from geotraj.geodesy import GeoContext, GeodeticCoord, UtmCoord, utm_to_geodetic
from geotraj.matching import CheckpointVisit, DwellSegment, VisitTable
from geotraj.metrics import AccuracySummary, aligned_rmse, alignment_gap
# Reference rigid alignment, the synthetic oracle's own: (R, t) of est onto ref.
from geotraj.synth import _horn_align as horn_alignment
from geotraj.trajectory_io import GnssStatus

mp.mp.dps = 50

GRS80_A = mp.mpf("6378137")
GRS80_F = 1 / mp.mpf("298.257222101")


def _ecc(f):
    return mp.sqrt(f * (2 - f))


def ecef_oracle(lat_deg, lon_deg, h, a=GRS80_A, f=GRS80_F):
    """Geodetic -> ECEF, closed form at 50 digits. Returns float triple."""
    e2 = f * (2 - f)
    lat = mp.radians(mp.mpf(str(lat_deg)))
    lon = mp.radians(mp.mpf(str(lon_deg)))
    h = mp.mpf(str(h))
    nu = a / mp.sqrt(1 - e2 * mp.sin(lat) ** 2)
    x = (nu + h) * mp.cos(lat) * mp.cos(lon)
    y = (nu + h) * mp.cos(lat) * mp.sin(lon)
    z = (nu * (1 - e2) + h) * mp.sin(lat)
    return float(x), float(y), float(z)


def _isometric(phi, e):
    return mp.atanh(mp.sin(phi)) - e * mp.atanh(e * mp.sin(phi))


def _d_isometric(phi, e):
    e2 = e * e
    return (1 - e2) / ((1 - e2 * mp.sin(phi) ** 2) * mp.cos(phi))


def _phi_from_isometric(z, e, guess):
    """Invert the isometric latitude for complex z by Newton iteration."""
    phi = mp.mpc(guess)
    for _ in range(80):
        step = (_isometric(phi, e) - z) / _d_isometric(phi, e)
        phi = phi - step
        if abs(step) < mp.mpf(10) ** (-(mp.mp.dps - 8)):
            break
    return phi


def _meridian_arc(phi, a, e):
    e2 = e * e
    f = lambda t: (1 - e2) / mp.power(1 - e2 * mp.sin(t) ** 2, mp.mpf(3) / 2)
    return a * mp.quad(f, [0, phi])


def tm_oracle(lat_deg, lon_deg, zone, a=GRS80_A, f=GRS80_F,
              k0=mp.mpf("0.9996"), false_easting=mp.mpf(500000),
              false_northing=mp.mpf(0)):
    """Exact transverse Mercator easting/northing for the given UTM zone.

    Returns (easting, northing) as floats; heights pass through untouched
    in the projection so they are not modeled here.
    """
    e = _ecc(f)
    phi = mp.radians(mp.mpf(str(lat_deg)))
    lam0 = mp.radians(mp.mpf(6 * zone - 183))
    lam = mp.radians(mp.mpf(str(lon_deg))) - lam0
    psi0 = _isometric(phi, e)

    def f_prime(t):
        # F'(psi0 + i t) with phi recovered from the isometric latitude.
        p = _phi_from_isometric(psi0 + 1j * t, e, phi)
        nu = a / mp.sqrt(1 - (e * mp.sin(p)) ** 2)
        return nu * mp.cos(p)

    base = _meridian_arc(phi, a, e)
    cont = mp.quad(f_prime, [0, lam]) * 1j if lam != 0 else mp.mpc(0)
    fz = base + cont
    northing = k0 * mp.re(fz) + false_northing
    easting = k0 * mp.im(fz) + false_easting
    return float(easting), float(northing)


def chi3_mean(sigma):
    """E||X|| for X ~ N(0, sigma^2 I_3)."""
    return float(sigma) * float(mp.sqrt(8 / mp.pi))


def detect_dwells_reference(track, stationary_radius=0.05, min_dwell=5.0):
    """Greedy maximal-window scan; O(n * w^2) with w the dwell sample count."""
    if stationary_radius <= 0 or min_dwell <= 0:
        raise ValueError("stationary_radius and min_dwell must be positive")
    t = track.t
    p = track.p
    n = len(t)
    segments: list[DwellSegment] = []
    i = 0
    while i < n - 1:
        j = i + 1
        # Grow while every sample stays within radius of the window median.
        while j < n:
            window = p[i:j + 1]
            med = np.median(window, axis=0)
            if np.max(np.linalg.norm(window - med, axis=1)) > stationary_radius:
                break
            j += 1
        last = j - 1
        if last > i and t[last] - t[i] >= min_dwell:
            med = np.median(p[i:last + 1], axis=0)
            segments.append(DwellSegment(float(t[i]), float(t[last]),
                                         (float(med[0]), float(med[1]), float(med[2]))))
            i = last + 1
        else:
            i += 1
    return segments


def write_trajectory_reference(traj):
    """TUM text of ``traj``, every field through ``repr(float(v))``."""
    lines = ["# t tx ty tz qx qy qz qw"]
    for t, p, q in zip(traj.t, traj.p, traj.q):
        lines.append(" ".join(repr(float(v)) for v in [t, *p, *q]))
    return "\n".join(lines) + "\n"


def position_at_reference(segments, ts):
    """Plan position at one time: the first segment with t0 <= ts <= t1."""
    for t0, t1, p0, p1 in segments:
        if t0 <= ts <= t1:
            if t1 == t0:
                return p0
            w = (ts - t0) / (t1 - t0)
            return p0 + w * (p1 - p0)
    return segments[-1][3]


def random_walk_reference(t, drift_rate, reset_tau_s, outage_windows, rng):
    """Random walk that grows inside outages and decays outside, one run of
    equal outage state at a time, found sample by sample."""
    n = len(t)
    dt = float(t[1] - t[0]) if n > 1 else 0.0
    step_sigma = drift_rate * math.sqrt(dt)
    inc = rng.normal(0.0, 1.0, size=(n - 1, 3)) * step_sigma
    inside = np.array([any(a <= float(ti) < b for a, b in outage_windows)
                       for ti in t[1:]])
    decay = math.exp(-dt / reset_tau_s)
    rw = np.zeros((n, 3))
    var = np.zeros(n)
    k = 0
    while k < n - 1:
        run_end = k
        state = inside[k]
        while run_end < n - 1 and inside[run_end] == state:
            run_end += 1
        span = run_end - k
        if state:
            rw[k + 1:run_end + 1] = rw[k] + np.cumsum(inc[k:run_end], axis=0)
            var[k + 1:run_end + 1] = var[k] + step_sigma ** 2 * np.arange(1, span + 1)
        else:
            factors = decay ** np.arange(1, span + 1)
            rw[k + 1:run_end + 1] = rw[k] * factors[:, None]
            var[k + 1:run_end + 1] = var[k] * factors ** 2
        k = run_end
    return rw, var


def match_visits_reference(dwells, cps, ctx, gate_radius=1.0, sequence_id="",
                           generator_method=""):
    """Each dwell against every checkpoint, re-sorted by id per dwell; the
    first strictly smaller distance wins."""
    if not cps:
        raise NoCheckpoints("cannot match visits without checkpoints")
    visits, unmatched, visited = [], [], set()
    for seg in dwells:
        p_utm = ctx.enu_to_utm(seg.p_rep)
        est = np.array([p_utm.easting, p_utm.northing, p_utm.height])
        best = None
        for cp in sorted(cps, key=lambda c: c.id):
            ref = np.array([cp.coord.easting, cp.coord.northing, cp.coord.height])
            dist = float(np.linalg.norm(est - ref))
            if best is None or dist < best[0]:
                best = (dist, cp.id)
        if best[0] <= gate_radius:
            visits.append(CheckpointVisit(best[1], seg.t_mid, p_utm, best[0]))
            visited.add(best[1])
        else:
            unmatched.append(seg)
    unvisited = sorted(cp.id for cp in cps if cp.id not in visited)
    return VisitTable(sequence_id, generator_method, visits, unmatched, unvisited)


class LookupGap(Exception):
    """No sample lies within the lookup gap of a table timestamp."""


def pose_at_reference(track, t_rep, max_gap=0.2):
    """Position of the first sample with the smallest |t - t_rep|."""
    idx = int(np.argmin(np.abs(track.t - t_rep)))
    gap = abs(float(track.t[idx]) - t_rep)
    if gap > max_gap:
        raise LookupGap(
            f"nearest sample is {gap:.3f} s from t={t_rep:.3f} (limit {max_gap} s)")
    return track.p[idx]


def visits_from_table_reference(table, track, cps, ctx, max_gap=0.2):
    """One visit at a time: id check, lookup, scalar conversion and norm; a
    lookup beyond ``max_gap`` becomes a skip message. Returns (visits,
    skipped)."""
    if not cps:
        raise NoCheckpoints("cannot evaluate visits without checkpoints")
    by_id = {cp.id: cp for cp in cps}
    visits, skipped = [], []
    for visit in table.visits:
        cp = by_id.get(visit.checkpoint_id)
        if cp is None:
            raise UnknownCheckpoint(f"table references unknown checkpoint "
                                    f"{visit.checkpoint_id!r}")
        try:
            p = pose_at_reference(track, visit.t_rep, max_gap)
        except LookupGap as exc:
            skipped.append(f"{visit.checkpoint_id}@{visit.t_rep:.3f}: {exc}")
            continue
        p_utm = ctx.enu_to_utm(p)
        dist = float(np.linalg.norm(
            np.array([p_utm.easting, p_utm.northing, p_utm.height])
            - np.array([cp.coord.easting, cp.coord.northing, cp.coord.height])))
        visits.append(CheckpointVisit(visit.checkpoint_id, visit.t_rep, p_utm, dist))
    return visits, skipped


def outage_coordinates_reference(track, log, t_rep, min_status=GnssStatus.RTK_FIX):
    """(dt, dx) per visit instant, each a full scan over the fixes."""
    fix_times = np.array([t for t, status in zip(log.t.tolist(), log.status.tolist())
                          if status >= min_status])
    steps = np.linalg.norm(np.diff(track.p, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    fix_s = np.interp(fix_times, track.t, cum)
    out = []
    for t in t_rep:
        dt = float(np.min(np.abs(fix_times - t)))
        s_visit = float(np.interp(t, track.t, cum))
        dx = float(np.min(np.abs(fix_s - s_visit)))
        out.append((dt, dx))
    return out


def summarize_reference(visits, cps):
    """The per-visit accuracy summary: one (cp_id, eps, norm) error per
    visit with ``math.hypot`` norms, the squares added left to right, and
    the point arrays for the aligned metric rebuilt from the visits.
    Returns (summary, errors)."""
    by_id = {cp.id: cp for cp in cps}
    errors = []
    for visit in visits:
        cp = by_id.get(visit.checkpoint_id)
        if cp is None:
            raise UnknownCheckpoint(f"visit references unknown checkpoint "
                                    f"{visit.checkpoint_id!r}")
        eps = (visit.p_est.easting - cp.coord.easting,
               visit.p_est.northing - cp.coord.northing,
               visit.p_est.height - cp.coord.height)
        errors.append((visit.checkpoint_id, eps, math.hypot(*eps)))
    if not errors:
        raise NoCheckpoints("absolute RMSE needs at least one checkpoint error")
    total = 0.0
    for _, _, norm in errors:
        total += norm ** 2
    rmse_abs = math.sqrt(total / len(errors))
    est = np.array([[v.p_est.easting, v.p_est.northing, v.p_est.height]
                    for v in visits], dtype=float).reshape(-1, 3)
    ref = np.array([[by_id[v.checkpoint_id].coord.easting,
                     by_id[v.checkpoint_id].coord.northing,
                     by_id[v.checkpoint_id].coord.height] for v in visits],
                   dtype=float).reshape(-1, 3)
    rmse_al, _ = aligned_rmse(est, ref)
    gap = alignment_gap(rmse_abs, rmse_al) if rmse_abs > 0.0 else 0.0
    axis = np.sqrt(np.mean(np.array([e for _, e, _ in errors]) ** 2, axis=0))
    summary = AccuracySummary(rmse_abs, rmse_al, gap, len(errors),
                              (float(axis[0]), float(axis[1]), float(axis[2])))
    return summary, errors


def expected_nearest_reference(t, visit_t, fix_times, cum):
    """The synthetic oracle's per-visit scans: the nearest sample's index and
    the time and arc length to the nearest fix."""
    k_idx = np.array([int(np.argmin(np.abs(t - v))) for v in visit_t], dtype=int)
    dt_s = np.array([float(np.min(np.abs(fix_times - v))) for v in visit_t])
    s_fix = np.interp(fix_times, t, cum)
    s_vis = np.interp(visit_t, t, cum)
    dx_m = np.array([float(np.min(np.abs(s_fix - s))) for s in s_vis])
    return k_idx, dt_s, dx_m


def rtk_records_reference(segments, total, outage_windows, base0, zone, hemisphere,
                          d_antenna, rate_hz=1.0):
    """(t, GeodeticCoord, GnssStatus) of each receiver record, one record at a
    time: the plan position at each whole tick, then one-row calls of
    ``utm_to_enu_rows``, the antenna offset and ``enu_to_geodetic_rows`` in
    the frame of the plan point ``base0``; ``utm_to_geodetic`` alone without
    an offset."""
    provisional = GeoContext(utm_to_geodetic(
        UtmCoord(*map(float, base0), zone, hemisphere)), zone, hemisphere)
    n_sec = int(math.floor(total / (1.0 / rate_hz) + 1e-9)) + 1
    records = []
    for k in range(n_sec):
        t = k / rate_hz
        pt = position_at_reference(segments, t)
        u = UtmCoord(float(pt[0]), float(pt[1]), float(pt[2]), zone, hemisphere)
        if not np.any(d_antenna):
            g = utm_to_geodetic(u)
        else:
            e = provisional.utm_to_enu_rows(np.array([[u.easting, u.northing, u.height]]))
            lat, lon, h = provisional.enu_to_geodetic_rows(e + d_antenna)
            g = GeodeticCoord.from_normalized(lat[0], lon[0], h[0])
        out = any(a <= t < b for a, b in outage_windows)
        records.append((t, g, GnssStatus.NONE if out else GnssStatus.RTK_FIX))
    return records


def parse_rtk_log_reference(source):
    """(t, GeodeticCoord, GnssStatus) per line, one record object at a time."""
    records = []
    prev_t = None
    for line_no, fields in trajectory_io._csv_rows(
            source, ["t", "lat_deg", "lon_deg", "height", "status"], "RTK log"):
        t, lat, lon, height = (trajectory_io._parse_float(tok, line_no, what)
                               for tok, what in zip(fields, ("timestamp", "latitude",
                                                             "longitude", "height")))
        token = fields[4].upper()
        if token not in trajectory_io._TOKEN_TO_STATUS:
            raise UnknownStatus(line_no, fields[4])
        if prev_t is not None and t < prev_t:
            raise NonMonotonicTimestamp(line_no)
        prev_t = t
        try:
            g = GeodeticCoord.from_degrees(lat, lon, height)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        records.append((t, g, trajectory_io._TOKEN_TO_STATUS[token]))
    return records


def write_rtk_log_reference(records):
    """RTK CSV text of (t, GeodeticCoord, GnssStatus) records, one f-string
    per record."""
    rows = [f"{t!r},{g.lat_deg!r},{g.lon_deg!r},{g.h!r},{status.token}\n"
            for t, g, status in records]
    return "t,lat_deg,lon_deg,height,status\n" + "".join(rows)


def rtk_columns(records):
    """The t, lat, lon, h and status columns of reference records, as lists."""
    return ([t for t, _, _ in records], [g.lat for _, g, _ in records],
            [g.lon for _, g, _ in records], [g.h for _, g, _ in records],
            [int(s) for _, _, s in records])


if __name__ == "__main__":
    print("ECEF of (lat=48.78 deg, lon=9.18 deg, h=300 m), GRS80:")
    x, y, z = ecef_oracle("48.78", "9.18", 300)
    print(f"  x = {x!r}\n  y = {y!r}\n  z = {z!r}")

    print("UTM zone 32 of (48.78 deg, 9.18 deg):")
    easting, northing = tm_oracle("48.78", "9.18", 32)
    print(f"  E = {easting!r}\n  N = {northing!r}")

    print("UTM zone 32 of (48.0 deg, 12.0 deg)  [3 deg off meridian]:")
    easting, northing = tm_oracle("48.0", "12.0", 32)
    print(f"  E = {easting!r}\n  N = {northing!r}")

    print("UTM zone 32 of (0 deg, 9 deg)  [equator, central meridian]:")
    easting, northing = tm_oracle("0", "9", 32)
    print(f"  E = {easting!r}\n  N = {northing!r}")

    print("UTM zone 32 of (60.0 deg, 7.5 deg):")
    easting, northing = tm_oracle("60.0", "7.5", 32)
    print(f"  E = {easting!r}\n  N = {northing!r}")
