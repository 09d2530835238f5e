"""Synthetic scenario generator with analytically known expected metrics.

The world is built directly in UTM coordinates: a walker follows waypoints at
constant speed, pausing on surveyed checkpoints. The corrupted estimate adds,
in the UTM evaluation frame,

  - a constant global bias,
  - a per-axis Gaussian random walk that accumulates only while GNSS is in
    outage (rate ``drift_rate`` in m/sqrt(s)) and decays exponentially toward
    zero with time constant ``reset_tau_s`` while fixes are available,
  - iid Gaussian measurement noise.

The per-sample random-walk variance is tracked alongside the draw, so the
expected error magnitude at every visit is known exactly for the discrete
process (mean of a 3D Gaussian norm: sqrt(v) * sqrt(8/pi) per axis variance
v). ``expected_metrics`` recomputes everything straight from the generated
arrays, deliberately bypassing the parsing/matching/geodesy pipeline it is
used to validate; its SE(3) alignment is Horn's quaternion method, not the
toolkit's SVD.

Output files round-trip through the package's own writers/parsers, and the
PRNG is pinned (numpy PCG64) so a seed fixes every byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSpec
from .drift import DEFAULT_EPS0
from .geodesy import GeoContext, GeodeticCoord, UtmCoord, geodetic_to_utm, utm_to_geodetic
from .matching import DEFAULT_MIN_DWELL
from .metrics import AccuracySummary
from .trajectory_io import (Checkpoint, DeviceCalibration, GnssStatus, RtkLog,
                            Trajectory)

PRNG_ALGORITHM = "pcg64"

CHI3_MEAN = math.sqrt(8.0 / math.pi)

RTK_RATE_HZ = 1.0


@dataclass(eq=False)
class ScenarioSpec:
    seed: int
    waypoints: np.ndarray
    dwells: list[tuple[str, float]]
    speed: float
    origin: GeodeticCoord
    zone: int
    outage_windows: list[tuple[float, float]] = field(default_factory=list)
    drift_rate: float = 0.0
    reset_tau_s: float = 5.0
    global_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    noise_sigma: float = 0.0
    sample_rate_hz: float = 10.0
    calibration: Optional[DeviceCalibration] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "prng": PRNG_ALGORITHM,
            "waypoints": [list(map(float, w)) for w in self.waypoints],
            "dwells": [[cp_id, float(dur)] for cp_id, dur in self.dwells],
            "speed_mps": self.speed,
            "origin": {"lat_deg": self.origin.lat_deg, "lon_deg": self.origin.lon_deg,
                       "h": self.origin.h},
            "zone": self.zone,
            "outage_windows": [[float(a), float(b)] for a, b in self.outage_windows],
            "drift_rate": self.drift_rate,
            "reset_tau_s": self.reset_tau_s,
            "global_bias": list(map(float, self.global_bias)),
            "noise_sigma": self.noise_sigma,
            "sample_rate_hz": self.sample_rate_hz,
            "calibration": None if self.calibration is None else {
                "t_imu_to_base": list(map(float, self.calibration.t_imu_to_base)),
                "t_imu_to_antenna": list(map(float, self.calibration.t_imu_to_antenna)),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        try:
            prng = d.get("prng", PRNG_ALGORITHM)
            if prng != PRNG_ALGORITHM:
                raise InvalidSpec(f"unsupported PRNG {prng!r}; this build pins "
                                  f"{PRNG_ALGORITHM!r}")
            origin = d["origin"]
            calib = d.get("calibration")
            return cls(
                seed=int(d["seed"]),
                waypoints=np.asarray(d["waypoints"], dtype=float),
                dwells=[(str(cp), float(dur)) for cp, dur in d["dwells"]],
                speed=float(d["speed_mps"]),
                origin=GeodeticCoord.from_degrees(float(origin["lat_deg"]),
                                                  float(origin["lon_deg"]),
                                                  float(origin["h"])),
                zone=int(d["zone"]),
                outage_windows=[(float(a), float(b)) for a, b in d.get("outage_windows", [])],
                drift_rate=float(d.get("drift_rate", 0.0)),
                reset_tau_s=float(d.get("reset_tau_s", 5.0)),
                global_bias=np.asarray(d.get("global_bias", [0.0, 0.0, 0.0]), dtype=float),
                noise_sigma=float(d.get("noise_sigma", 0.0)),
                sample_rate_hz=float(d.get("sample_rate_hz", 10.0)),
                calibration=None if calib is None else DeviceCalibration.from_dict(calib),
            )
        except InvalidSpec:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"bad scenario spec: {exc}") from None


@dataclass(frozen=True)
class DwellWindow:
    checkpoint_id: str
    t_start: float
    t_end: float
    waypoint: tuple[float, float, float]

    @property
    def t_mid(self) -> float:
        return 0.5 * (self.t_start + self.t_end)


@dataclass(eq=False)
class ExpectedMetrics:
    """Ground-truth values computed straight from the generated arrays."""

    summary: AccuracySummary
    eps0: float
    visit_ids: list[str]
    visit_t: np.ndarray
    dt_s: np.ndarray
    dx_m: np.ndarray
    eps_m: np.ndarray
    eps_mean_m: np.ndarray
    alpha_time_realized: Optional[float]
    alpha_time_expected: Optional[float]

    def to_dict(self) -> dict:
        s = self.summary
        return {
            "rmse_absolute": s.rmse_absolute,
            "rmse_aligned": s.rmse_aligned,
            "gap_percent": s.gap_percent,
            "n_points": s.n_points,
            "per_axis_rmse": list(s.per_axis_rmse),
            "eps0": self.eps0,
            "alpha_time_realized": self.alpha_time_realized,
            "alpha_time_expected": self.alpha_time_expected,
            "visits": [
                {"cp_id": cid, "t_rep": float(t), "dt_s": float(dt), "dx_m": float(dx),
                 "eps_m": float(e), "eps_mean_m": float(em)}
                for cid, t, dt, dx, e, em in zip(
                    self.visit_ids, self.visit_t, self.dt_s, self.dx_m,
                    self.eps_m, self.eps_mean_m)
            ],
        }


@dataclass(eq=False)
class Scenario:
    spec: ScenarioSpec
    origin: GeodeticCoord
    zone: int
    hemisphere: str
    t: np.ndarray
    truth_utm: np.ndarray
    estimate_utm: np.ndarray
    rw_var: np.ndarray
    dwell_windows: list[DwellWindow]
    truth: Trajectory
    estimate: Trajectory
    rtk: RtkLog
    checkpoints: list[Checkpoint]
    expected: Optional[ExpectedMetrics] = None

    @property
    def context(self) -> GeoContext:
        return GeoContext(self.origin, self.zone, self.hemisphere)


def _validate(spec: ScenarioSpec) -> None:
    wp = np.asarray(spec.waypoints, dtype=float)
    if wp.ndim != 2 or wp.shape[1] != 3 or wp.shape[0] < 2:
        raise InvalidSpec("waypoints must be an (M>=2, 3) array of UTM E/N/h")
    if not np.all(np.isfinite(wp)):
        raise InvalidSpec("waypoints contain non-finite values")
    outside = (wp[:, 0] <= 0.0) | (wp[:, 0] >= 1_000_000.0)
    if outside.any():
        raise InvalidSpec(f"waypoint {int(np.argmax(outside))} has easting "
                          f"{float(wp[outside][0, 0])!r} outside (0, 1e6)")
    if len(spec.dwells) != wp.shape[0]:
        raise InvalidSpec(f"dwells list must pair with waypoints: "
                          f"{len(spec.dwells)} vs {wp.shape[0]} entries "
                          "(use ('', 0.0) for pass-through waypoints)")
    for cp_id, dur in spec.dwells:
        if dur < 0 or not math.isfinite(dur):
            raise InvalidSpec(f"dwell duration {dur} invalid")
        if dur > 0 and not cp_id:
            raise InvalidSpec("dwell with positive duration needs a checkpoint id")
    if not any(dur > 0 for _, dur in spec.dwells):
        raise InvalidSpec("the scenario needs at least one dwell with positive duration")
    if spec.speed <= 0 or spec.sample_rate_hz <= 0 or spec.reset_tau_s <= 0:
        raise InvalidSpec("speed, sample_rate_hz and reset_tau_s must be positive")
    if spec.drift_rate < 0 or spec.noise_sigma < 0:
        raise InvalidSpec("drift_rate and noise_sigma must be non-negative")
    if np.asarray(spec.global_bias, dtype=float).shape != (3,):
        raise InvalidSpec("global_bias must be a 3-vector")
    prev_end = None
    for a, b in spec.outage_windows:
        if not (0.0 <= a < b):
            raise InvalidSpec(f"outage window ({a}, {b}) is not ordered and non-negative")
        if prev_end is not None and a < prev_end:
            raise InvalidSpec("outage windows must be sorted and non-overlapping")
        if a <= 0.0 < b:
            raise InvalidSpec("t=0 must have RTK coverage (the world origin is the "
                              "first fix); move the first outage after t=0")
        prev_end = b
    # The declared origin must sit on the first waypoint, where the first fix
    # happens; everything downstream anchors the local frame there.
    origin_utm = geodetic_to_utm(spec.origin, spec.zone)
    d = math.dist((origin_utm.easting, origin_utm.northing, origin_utm.height),
                  tuple(wp[0]))
    if d > 1e-3:
        raise InvalidSpec(f"origin is {d:.6f} m away from the first waypoint "
                          "(limit 0.001 m)")
    # Duplicate checkpoint ids are revisits; they must reference one place.
    seen: dict[str, tuple[float, float, float]] = {}
    for (cp_id, dur), w in zip(spec.dwells, wp):
        if dur <= 0:
            continue
        pos = (float(w[0]), float(w[1]), float(w[2]))
        if cp_id in seen and seen[cp_id] != pos:
            raise InvalidSpec(f"checkpoint {cp_id!r} dwelled at two different places")
        seen.setdefault(cp_id, pos)


def _schedule(spec: ScenarioSpec):
    """Piecewise-linear motion plan: [(t0, t1, p0, p1)], dwell windows, total T."""
    wp = np.asarray(spec.waypoints, dtype=float)
    segments: list[tuple[float, float, np.ndarray, np.ndarray]] = []
    dwells: list[DwellWindow] = []
    t = 0.0
    for i in range(wp.shape[0]):
        cp_id, dur = spec.dwells[i]
        if dur > 0:
            segments.append((t, t + dur, wp[i], wp[i]))
            dwells.append(DwellWindow(cp_id, t, t + dur,
                                      (float(wp[i][0]), float(wp[i][1]), float(wp[i][2]))))
            t += dur
        if i + 1 < wp.shape[0]:
            dist = float(np.linalg.norm(wp[i + 1] - wp[i]))
            if dist > 0:
                segments.append((t, t + dist / spec.speed, wp[i], wp[i + 1]))
                t += dist / spec.speed
    if not segments:
        raise InvalidSpec("the scenario has zero duration")
    return segments, dwells, t


def _sample_positions(segments, total: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    n = int(math.floor(total / dt + 1e-9)) + 1
    t = np.arange(n) * dt
    p = np.empty((n, 3))
    for t0, t1, p0, p1 in segments:
        lo = int(np.searchsorted(t, t0 - 1e-12, side="left"))
        hi = int(np.searchsorted(t, t1 + 1e-12, side="right"))
        if hi <= lo:
            continue
        w = (t[lo:hi] - t0) / (t1 - t0)
        p[lo:hi] = p0 + np.clip(w, 0.0, 1.0)[:, None] * (p1 - p0)
    return t, p


def _outage_mask(t: np.ndarray, windows: Sequence[tuple[float, float]]) -> np.ndarray:
    """True where ``a <= t < b`` for some outage window (a, b)."""
    inside = np.zeros(len(t), dtype=bool)
    for a, b in windows:
        inside |= (a <= t) & (t < b)
    return inside


def _random_walk(t: np.ndarray, spec: ScenarioSpec, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk drift per sample plus its tracked per-axis variance."""
    n = len(t)
    dt = float(t[1] - t[0]) if n > 1 else 0.0
    step_sigma = spec.drift_rate * math.sqrt(dt)
    # Draw every increment regardless of outage state so the stream layout
    # is independent of the window configuration.
    inc = rng.normal(0.0, 1.0, size=(n - 1, 3)) * step_sigma
    inside = _outage_mask(t[1:], spec.outage_windows)
    decay = math.exp(-dt / spec.reset_tau_s)

    rw = np.zeros((n, 3))
    var = np.zeros(n)
    # Runs of equal outage state over the increments: [k, run_end).
    change = np.flatnonzero(inside[1:] != inside[:-1]) + 1
    bounds = [0, *change.tolist(), n - 1] if n > 1 else []
    for k, run_end in zip(bounds[:-1], bounds[1:]):
        span = run_end - k
        if inside[k]:
            rw[k + 1:run_end + 1] = rw[k] + np.cumsum(inc[k:run_end], axis=0)
            var[k + 1:run_end + 1] = var[k] + step_sigma ** 2 * np.arange(1, span + 1)
        else:
            factors = decay ** np.arange(1, span + 1)
            rw[k + 1:run_end + 1] = rw[k] * factors[:, None]
            var[k + 1:run_end + 1] = var[k] * factors ** 2
    return rw, var


def generate(spec: ScenarioSpec) -> Scenario:
    _validate(spec)
    segments, dwell_windows, total = _schedule(spec)
    dt = 1.0 / spec.sample_rate_hz
    t, truth_utm = _sample_positions(segments, total, dt)

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    rw, rw_var = _random_walk(t, spec, rng)
    noise = rng.normal(0.0, 1.0, size=truth_utm.shape) * spec.noise_sigma
    estimate_utm = truth_utm + np.asarray(spec.global_bias, dtype=float) + rw + noise

    hemisphere = "north" if spec.origin.lat >= 0 else "south"
    calib = spec.calibration if spec.calibration is not None else DeviceCalibration.zero()
    d_antenna = calib.t_imu_to_antenna - calib.t_imu_to_base

    # RTK records carry the antenna position: the base point in the ENU frame
    # of the t=0 base point, shifted by the lever arm. The row methods give
    # each row the bits it gets converted alone.
    provisional = GeoContext(utm_to_geodetic(
        UtmCoord(*map(float, truth_utm[0]), spec.zone, hemisphere)), spec.zone, hemisphere)
    n_sec = int(math.floor(total / (1.0 / RTK_RATE_HZ) + 1e-9)) + 1
    ts = np.arange(n_sec) / RTK_RATE_HZ
    base = _positions_at(segments, ts)
    if np.any(d_antenna):
        lat, lon, h = provisional.enu_to_geodetic_rows(
            provisional.utm_to_enu_rows(base) + d_antenna)
    else:
        lat, lon, h = provisional.utm_to_geodetic_rows(base)
    status = np.where(_outage_mask(ts, spec.outage_windows),
                      GnssStatus.NONE, GnssStatus.RTK_FIX).astype(np.int8)
    rtk = RtkLog(ts, lat, lon, h, status)

    # The pipeline anchors its local frame at the first fix: the t=0
    # record's coordinates after one write/parse round trip through degrees.
    origin = GeodeticCoord.from_degrees(math.degrees(lat[0]), math.degrees(lon[0]),
                                        float(h[0]))
    ctx = GeoContext(origin, spec.zone, hemisphere)

    truth_enu = ctx.utm_to_enu_batch(truth_utm)
    estimate_enu = ctx.utm_to_enu_batch(estimate_utm)
    identity_q = np.tile([0.0, 0.0, 0.0, 1.0], (len(t), 1))
    # TUM files hold IMU-frame positions; with identity orientation the IMU
    # sits at base minus the base lever arm.
    imu_shift = -calib.t_imu_to_base
    truth_traj = Trajectory.from_arrays(t, truth_enu + imu_shift, identity_q)
    estimate_traj = Trajectory.from_arrays(t, estimate_enu + imu_shift, identity_q)

    checkpoints: list[Checkpoint] = []
    seen: set[str] = set()
    for w in dwell_windows:
        if w.checkpoint_id not in seen:
            seen.add(w.checkpoint_id)
            checkpoints.append(Checkpoint(w.checkpoint_id,
                                          UtmCoord(*w.waypoint, spec.zone, hemisphere)))

    scenario = Scenario(spec, origin, spec.zone, hemisphere, t, truth_utm,
                        estimate_utm, rw_var, dwell_windows, truth_traj,
                        estimate_traj, rtk, checkpoints)
    scenario.expected = expected_metrics(scenario)
    return scenario


def _positions_at(segments, ts: np.ndarray) -> np.ndarray:
    """Positions on the plan at sorted times ``ts``: the first segment with
    ``t0 <= ts <= t1`` wins, and times past the plan take its last point."""
    t0, t1, p0, p1 = (np.array(col) for col in zip(*segments))
    # Segment ends never decrease, so the first end >= ts is the only
    # candidate for the first match.
    k = np.minimum(np.searchsorted(t1, ts, side="left"), len(segments) - 1)
    hit = (t0[k] <= ts) & (ts <= t1[k])
    out = np.where(hit[:, None], p0[k], p1[-1])
    moving = hit & (t1[k] != t0[k])
    km = k[moving]
    w = (ts[moving] - t0[km]) / (t1[km] - t0[km])
    out[moving] = p0[km] + w[:, None] * (p1[km] - p0[km])
    return out


def _horn_align(est: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation R and translation t minimizing sum ||R @ est_i + t - ref_i||^2,
    by Horn's closed-form quaternion method (Horn 1987, JOSA A 4(4):629):
    the unit quaternion of R is the top eigenvector of a symmetric 4x4 built
    from the cross-covariance. Independent of the alignment module's SVD.
    """
    mu_e = est.mean(axis=0)
    mu_r = ref.mean(axis=0)
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = (est - mu_e).T @ (ref - mu_r)
    N = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ])
    w, x, y, z = np.linalg.eigh(N)[1][:, -1]
    R = np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])
    return R, mu_r - R @ mu_e


def _nearest(sorted_x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the entry of sorted ``sorted_x`` nearest each ``q`` (the
    earlier one on a tie, as ``argmin`` picks) and its absolute distance."""
    right = np.searchsorted(sorted_x, q)
    left = np.maximum(right - 1, 0)
    d_left = np.where(right > 0, np.abs(sorted_x[left] - q), np.inf)
    d_right = np.where(right < len(sorted_x),
                       np.abs(sorted_x[np.minimum(right, len(sorted_x) - 1)] - q), np.inf)
    take_left = d_left <= d_right
    return np.where(take_left, left, right), np.where(take_left, d_left, d_right)


def _visit_samples(t: np.ndarray, visit_t: np.ndarray, fix_times: np.ndarray,
                   cum: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per visit: the nearest sample's index, and the time and arc length to
    the nearest fix. Each distance is the minimum over every fix: sorting
    keeps the values, and in sorted order the nearest is a neighbour."""
    k_idx, _ = _nearest(t, visit_t)
    _, dt_s = _nearest(np.sort(fix_times), visit_t)
    _, dx_m = _nearest(np.sort(np.interp(fix_times, t, cum)),
                       np.interp(visit_t, t, cum))
    return k_idx, dt_s, dx_m


def expected_metrics(scenario: Scenario, eps0: float = DEFAULT_EPS0) -> ExpectedMetrics:
    """Brute-force expected values from the generated arrays.

    Visits are taken at the sample nearest each dwell midpoint, the same
    convention the matching module applies, but computed directly on the
    arrays without any parsing, dwell detection, or coordinate round trips.
    """
    spec = scenario.spec
    t = scenario.t
    ids = [w.checkpoint_id for w in scenario.dwell_windows]
    vt_arr = np.array([w.t_mid for w in scenario.dwell_windows], dtype=float)
    # Outage coordinates against the analytic fix grid and the truth path.
    fix_times = scenario.rtk.t[scenario.rtk.status == GnssStatus.RTK_FIX]
    steps = np.linalg.norm(np.diff(scenario.truth_utm, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    k_idx, dt_s, dx_m = _visit_samples(t, vt_arr, fix_times, cum)

    ref = np.array([w.waypoint for w in scenario.dwell_windows], dtype=float)
    est = scenario.estimate_utm[k_idx]
    eps_vec = est - ref
    eps_norm = np.linalg.norm(eps_vec, axis=1)
    rmse_abs = float(np.sqrt(np.mean(eps_norm ** 2))) if len(eps_norm) else 0.0
    per_axis = (np.sqrt(np.mean(eps_vec ** 2, axis=0)) if len(eps_norm)
                else np.zeros(3))
    rmse_al = gap = float("nan")
    if rmse_abs == 0.0:
        # Perfect estimate: alignment has nothing to absorb.
        rmse_al, gap = 0.0, 0.0
    elif len(est) >= 3:
        # No fit either for a cross-covariance of rank < 2.
        S = np.linalg.svd((est - est.mean(axis=0)).T @ (ref - ref.mean(axis=0)),
                          compute_uv=False)
        if S[0] > 0.0 and S[1] >= 1e-9 * S[0]:
            R, tvec = _horn_align(est, ref)
            res = est @ R.T + tvec - ref
            rmse_al = float(np.sqrt(np.mean(np.sum(res ** 2, axis=1))))
            gap = 100.0 * (1.0 - rmse_al / rmse_abs)
    summary = AccuracySummary(rmse_abs, rmse_al, gap, len(eps_norm),
                              (float(per_axis[0]), float(per_axis[1]), float(per_axis[2])))

    # Expected error magnitude per visit: chi distribution mean with the
    # tracked random-walk variance plus measurement noise, valid for zero
    # bias (the Gaussian is then centered).
    var = scenario.rw_var[k_idx] + spec.noise_sigma ** 2
    eps_mean = np.sqrt(var) * CHI3_MEAN

    def fixed_intercept_slope(x: np.ndarray, y: np.ndarray) -> Optional[float]:
        sxx = float(np.sum(x * x))
        if len(x) < 2 or sxx == 0.0:
            return None
        return float(np.sum(x * (y - eps0)) / sxx)

    alpha_realized = fixed_intercept_slope(dt_s, eps_norm)
    if np.any(np.asarray(spec.global_bias, dtype=float) != 0.0):
        alpha_expected = None
    else:
        alpha_expected = fixed_intercept_slope(dt_s, eps_mean)

    return ExpectedMetrics(summary, eps0, ids, vt_arr, dt_s, dx_m, eps_norm,
                           eps_mean, alpha_realized, alpha_expected)


def write_scenario(scenario: Scenario, outdir: Path | str,
                   method_label: str = "synthetic") -> dict:
    """Write the file bundle plus a ready-to-run evaluation config.

    Returns the run-config dict that was written to run.json.
    """
    from .trajectory_io import write_checkpoints, write_rtk_log, write_trajectory

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory(scenario.truth, outdir / "truth.tum")
    write_trajectory(scenario.estimate, outdir / "estimate.tum")
    write_rtk_log(scenario.rtk, outdir / "rtk.csv")
    write_checkpoints(scenario.checkpoints, outdir / "checkpoints.csv")
    (outdir / "spec.json").write_text(
        json.dumps(scenario.spec.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    assert scenario.expected is not None
    (outdir / "expected.json").write_text(
        json.dumps(scenario.expected.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    spec = scenario.spec
    calib = spec.calibration if spec.calibration is not None else DeviceCalibration.zero()
    bias_norm = float(np.linalg.norm(np.asarray(spec.global_bias, dtype=float)))
    run_config = {
        "sequence_id": f"synthetic-seed{spec.seed}",
        "zone": scenario.zone,
        "hemisphere": scenario.hemisphere,
        "checkpoints": "checkpoints.csv",
        "rtk_log": "rtk.csv",
        "methods": [{"label": method_label, "trajectory": "estimate.tum"}],
        "calibration": {
            "t_imu_to_base": list(map(float, calib.t_imu_to_base)),
            "t_imu_to_antenna": list(map(float, calib.t_imu_to_antenna)),
        },
        "thresholds": {
            "stationary_radius": max(0.05, 6.0 * spec.noise_sigma),
            "min_dwell": DEFAULT_MIN_DWELL,
            "gate_radius": max(2.0, 2.0 * bias_norm + 10.0 * spec.noise_sigma),
            "eps0": DEFAULT_EPS0,
        },
        "output_dir": "out",
        "include_rtk_method": False,
    }
    (outdir / "run.json").write_text(
        json.dumps(run_config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return run_config
