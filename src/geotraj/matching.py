"""Dwell detection and checkpoint association.

A dwell is a maximal stretch of samples that all stay within
``stationary_radius`` of the stretch's componentwise median and that lasts at
least ``min_dwell`` seconds. Each dwell's median position is matched to the
nearest surveyed checkpoint within ``gate_radius`` (3D distance in UTM).

The resulting visit table fixes the evaluation timestamps. It can be exported
to JSON and re-imported so every method is evaluated at identical instants;
positions are always re-read from the trajectory under evaluation at those
instants, never taken from the table.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .errors import NoCheckpoints, SchemaMismatch, UnknownCheckpoint
from .geodesy import GeoContext, UtmCoord
from .lever_arm import BaseCenterTrack
from .trajectory_io import Checkpoint

DEFAULT_STATIONARY_RADIUS = 0.05
DEFAULT_MIN_DWELL = 5.0
DEFAULT_GATE_RADIUS = 1.0

#: Largest |t_sample - t_rep| allowed when reading a pose at a table timestamp.
LOOKUP_MAX_GAP = 0.2

#: Absolute slack (m) on both median bounds of ``detect_dwells``: far above
#: the float error of distances between track positions, far below any radius.
_BOUND_TOL = 1e-6
#: Relative slack by which ``detect_dwells`` shortens the ``min_dwell`` horizon.
_HORIZON_SLACK = 1e-12
#: Samples converted to Python floats when a window starts growing.
_FIRST_CHUNK = 32
#: Dwells per distance block in ``match_visits``: bounds the (dwells,
#: checkpoints, 3) difference array.
_MATCH_CHUNK = 256


@dataclass(frozen=True)
class DwellSegment:
    t_start: float
    t_end: float
    p_rep: tuple[float, float, float]

    @property
    def t_mid(self) -> float:
        return 0.5 * (self.t_start + self.t_end)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class CheckpointVisit:
    checkpoint_id: str
    t_rep: float
    p_est: UtmCoord
    distance_to_cp: float


@dataclass(eq=False)
class VisitColumns:
    """One method's kept visits in table order: ids, instants, its (V, 3) UTM
    positions and the surveyed ones; one message per skipped visit."""

    checkpoint_ids: list[str]
    t_rep: np.ndarray
    est: np.ndarray
    ref: np.ndarray
    skipped: list[str]


@dataclass(eq=False)
class VisitTable:
    sequence_id: str
    generator_method: str
    visits: list[CheckpointVisit]
    unmatched_segments: list[DwellSegment] = field(default_factory=list)
    unvisited_checkpoints: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)


def detect_dwells(track: BaseCenterTrack,
                  stationary_radius: float = DEFAULT_STATIONARY_RADIUS,
                  min_dwell: float = DEFAULT_MIN_DWELL) -> list[DwellSegment]:
    """Greedy maximal-window scan for dwells.

    From a start ``i``, the window ``p[i..j]`` grows one sample at a time
    while every sample lies within ``stationary_radius`` (r) of
    ``np.median(p[i..j], axis=0)``; the first failing ``j`` ends it at
    ``last = j - 1``. If ``t[last] - t[i] >= min_dwell`` the window is a dwell,
    represented by the median of ``p[i..last]``, and the scan resumes at
    ``last + 1``; otherwise it resumes at ``i + 1``.

    Two bounds skip most medians without changing any segment:

    * Horizon prefilter. A start yields a dwell only if its window up to the
      ``min_dwell`` horizon passes. The componentwise median lies inside the
      window's bounding box, so a box wider than ``2r + tol`` on any axis
      fails the window, and the start is skipped without growing it.
    * Lazy median bound. While a window grows, ``ref`` is a reference point
      and ``far`` the window's largest distance to it. With ``shift`` the
      distance from the running median to ``ref``, the largest distance to
      the median lies in ``[far - shift, far + shift]``: the step passes if
      ``far + shift <= r - tol`` and fails if ``far - shift > r + tol``.
      Only otherwise is the exact median check run, and it resets ``ref``
      to that median.

    The result stays exact because the horizon is found from
    ``t + min_dwell`` shortened by a relative slack, so it is never longer
    than the exact one, and because ``tol`` (``_BOUND_TOL``, absolute) is far
    above the float error of distances between track positions.

    Cost: the prefilter is O(n). The bounds decide a step when the window's
    spread about its median sits well inside or well outside ``r``; a step
    they leave undecided costs one exact median, O(w log w) for a window of
    ``w`` samples. So a stay whose spread stays near ``r`` falls back to the
    old O(w^2 log w) per dwell, and the sorted-list insertion is O(w) per
    sample, which makes very long static stays quadratic in memory moves.

    Raises ``ValueError`` unless ``t`` is strictly increasing and ``t`` and
    ``p`` are finite; a track of fewer than two samples has no dwells.
    """
    if stationary_radius <= 0 or min_dwell <= 0:
        raise ValueError("stationary_radius and min_dwell must be positive")
    t = track.t
    p = track.p
    if len(t) < 2:
        return []
    if not np.all(np.diff(t) > 0):
        raise ValueError("track timestamps must be strictly increasing")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValueError("track times and positions must be finite")
    starts = _horizon_starts(t, p, stationary_radius, min_dwell)
    segments: list[DwellSegment] = []
    i = 0
    while True:
        k = int(np.searchsorted(starts, i))
        if k == len(starts):
            return segments
        i = int(starts[k])
        last = _grow_window(p, i, stationary_radius)
        if last > i and t[last] - t[i] >= min_dwell:
            med = np.median(p[i:last + 1], axis=0)
            segments.append(DwellSegment(float(t[i]), float(t[last]),
                                         (float(med[0]), float(med[1]), float(med[2]))))
            i = last + 1
        else:
            i += 1


def _horizon_starts(t: np.ndarray, p: np.ndarray, radius: float,
                    min_dwell: float) -> np.ndarray:
    """Sorted start indices whose ``min_dwell`` horizon may hold a dwell.

    A start is dropped when no sample lies ``min_dwell`` after it, or when
    the first ``w`` samples of its horizon span more than ``2r + tol`` on an
    axis, where ``w`` is the smallest horizon length in samples.
    """
    n = len(t)
    reach = t + min_dwell - _HORIZON_SLACK * (np.abs(t) + min_dwell)
    horizon = np.searchsorted(t, reach)
    keep = horizon < n
    if not keep.any():
        return np.empty(0, dtype=np.intp)
    length = horizon - np.arange(n) + 1
    w = int(length[keep].min())
    if w > 1:
        wide = np.zeros(n, dtype=bool)
        for axis in range(3):
            wide[:n - w + 1] |= _sliding_extent(p[:, axis], w) > 2.0 * radius + _BOUND_TOL
        keep &= ~wide
    return np.flatnonzero(keep)


def _sliding_extent(x: np.ndarray, w: int) -> np.ndarray:
    """``max - min`` of ``x[k:k + w]`` for every ``k``, in O(len(x)).

    van Herk/Gil-Werman: within blocks of ``w``, a window is the suffix of
    one block joined to the prefix of the next.
    """
    n = len(x)
    blocks = -(-n // w)
    padded = np.concatenate([x, np.full(blocks * w - n, x[-1])]).reshape(blocks, w)
    k = n - w + 1
    out = []
    for ufunc in (np.maximum, np.minimum):
        prefix = ufunc.accumulate(padded, axis=1).ravel()
        suffix = ufunc.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
        out.append(ufunc(suffix[:k], prefix[w - 1:w - 1 + k]))
    return out[0] - out[1]


def _grow_window(p: np.ndarray, i: int, radius: float) -> int:
    """Last index of the window grown from ``i`` before the median check fails."""
    n = len(p)
    rows = p[i:i + _FIRST_CHUNK].tolist()
    xs, ys, zs = ([c] for c in rows[0])
    ref = rows[0]
    far = 0.0
    lo = radius - _BOUND_TOL
    hi = radius + _BOUND_TOL
    j = i + 1
    while j < n:
        if j - i == len(rows):
            # Convert doubling chunks: converting far ahead of the window
            # costs more than it saves on the many short-lived starts.
            rows += p[i + len(rows):i + 2 * len(rows)].tolist()
        row = rows[j - i]
        insort(xs, row[0])
        insort(ys, row[1])
        insort(zs, row[2])
        far = max(far, math.dist(row, ref))
        h = len(xs) // 2
        if len(xs) % 2:
            med = (xs[h], ys[h], zs[h])
        else:
            med = (0.5 * (xs[h - 1] + xs[h]), 0.5 * (ys[h - 1] + ys[h]),
                   0.5 * (zs[h - 1] + zs[h]))
        shift = math.dist(med, ref)
        if far - shift > hi:
            break
        if far + shift > lo:
            window = p[i:j + 1]
            exact = np.median(window, axis=0)
            dist = np.max(np.linalg.norm(window - exact, axis=1))
            if dist > radius:
                break
            ref = exact.tolist()
            far = float(dist)
        j += 1
    return j - 1


def match_visits(dwells: Sequence[DwellSegment], cps: Sequence[Checkpoint],
                 ctx: GeoContext, gate_radius: float = DEFAULT_GATE_RADIUS,
                 sequence_id: str = "", generator_method: str = "") -> VisitTable:
    """Associate each dwell with its nearest checkpoint within the gate.

    Ties break on smaller distance first, then lexicographic checkpoint id.
    """
    if not cps:
        raise NoCheckpoints("cannot match visits without checkpoints")
    if gate_radius <= 0:
        raise ValueError("gate_radius must be positive")

    ordered = sorted(cps, key=lambda c: c.id)
    ref = _utm_rows([cp.coord for cp in ordered])
    coords = ctx.enu_to_utm_coords(
        np.array([seg.p_rep for seg in dwells], dtype=float).reshape(len(dwells), 3))
    est = _utm_rows(coords)
    nearest = np.empty(len(dwells), dtype=np.intp)
    best = np.empty(len(dwells))
    for lo in range(0, len(dwells), _MATCH_CHUNK):
        dist = _norms(est[lo:lo + _MATCH_CHUNK, None, :] - ref)
        # argmin takes the first of equal distances: the smaller id.
        nearest[lo:lo + _MATCH_CHUNK] = dist.argmin(axis=1)
        best[lo:lo + _MATCH_CHUNK] = dist.min(axis=1)

    visits: list[CheckpointVisit] = []
    unmatched: list[DwellSegment] = []
    for seg, coord, k, dist in zip(dwells, coords, nearest.tolist(), best.tolist()):
        if dist <= gate_radius:
            visits.append(CheckpointVisit(ordered[k].id, seg.t_mid, coord, dist))
        else:
            unmatched.append(seg)
    visited = {v.checkpoint_id for v in visits}
    unvisited = sorted(cp.id for cp in cps if cp.id not in visited)
    return VisitTable(sequence_id, generator_method, visits, unmatched, unvisited)


def _utm_rows(coords: Sequence[UtmCoord]) -> np.ndarray:
    """(N, 3) easting/northing/height of UTM coordinates."""
    return np.array([(u.easting, u.northing, u.height) for u in coords],
                    dtype=float).reshape(len(coords), 3)


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each rounded as ``np.linalg.norm``
    rounds one 3-vector: as the square root of one dot product."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def nearest_samples(t: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the entry of sorted ``t`` nearest each query time, and the gap.

    On equal gaps the earlier entry wins, as ``np.argmin(np.abs(t - q))``
    decides. Rounded differences never shrink away from ``q`` in a sorted
    array, so the nearest entry is one of the two that bracket ``q``.
    """
    n = len(t)
    right = np.searchsorted(t, query)
    left = np.maximum(right - 1, 0)
    gap_left = np.where(right > 0, np.abs(t[left] - query), np.inf)
    gap_right = np.where(right < n, np.abs(t[np.minimum(right, n - 1)] - query), np.inf)
    take_left = gap_left <= gap_right
    return (np.where(take_left, left, right),
            np.where(take_left, gap_left, gap_right))


def visits_from_table(table: VisitTable, track: BaseCenterTrack,
                      cps: Sequence[Checkpoint], ctx: GeoContext,
                      max_gap: float = LOOKUP_MAX_GAP) -> VisitColumns:
    """Re-evaluate the table's timestamps against another method's track.

    The table fixes (checkpoint_id, t_rep); the position is the evaluated
    track's nearest sample, with no interpolation, so all methods answer the
    same question: where does this method think it was at the instant the
    device sat on the checkpoint. A visit with no sample within ``max_gap``
    seconds is skipped with a message.

    Raises UnknownCheckpoint or SchemaMismatch (non-finite ``t_rep``) for
    the first such visit in table order.
    """
    if not cps:
        raise NoCheckpoints("cannot evaluate visits without checkpoints")
    by_id = {cp.id: cp for cp in cps}
    for visit in table.visits:
        if visit.checkpoint_id not in by_id:
            raise UnknownCheckpoint(f"table references unknown checkpoint "
                                    f"{visit.checkpoint_id!r}")
        if not math.isfinite(visit.t_rep):
            raise SchemaMismatch(f"visit of {visit.checkpoint_id!r} has non-finite "
                                 f"t_rep {visit.t_rep!r}")
    t_rep = np.array([v.t_rep for v in table.visits], dtype=float)
    idx, gap = nearest_samples(track.t, t_rep)
    near = gap <= max_gap
    kept = [v.checkpoint_id for v, ok in zip(table.visits, near.tolist()) if ok]
    skipped = [f"{v.checkpoint_id}@{v.t_rep:.3f}: nearest sample is {g:.3f} s from "
               f"t={v.t_rep:.3f} (limit {max_gap} s)"
               for v, g, ok in zip(table.visits, gap.tolist(), near.tolist()) if not ok]
    return VisitColumns(kept, t_rep[near], ctx.enu_to_utm_batch(track.p[idx[near]]),
                        _utm_rows([by_id[cp_id].coord for cp_id in kept]), skipped)


_TABLE_SCHEMA_KEYS = {"sequence_id", "generator_method", "visits",
                      "unmatched_segments", "unvisited_checkpoints", "params"}


def export_visit_table(table: VisitTable) -> str:
    """Serialize to JSON. Floats use repr via json, so timestamps round-trip
    bit identically and equal tables serialize to equal bytes."""
    doc = {
        "sequence_id": table.sequence_id,
        "generator_method": table.generator_method,
        "visits": [
            {
                "cp_id": v.checkpoint_id,
                "t_rep": v.t_rep,
                "easting": v.p_est.easting,
                "northing": v.p_est.northing,
                "height": v.p_est.height,
                "zone": v.p_est.zone,
                "hemisphere": v.p_est.hemisphere,
                "distance_to_cp": v.distance_to_cp,
            }
            for v in table.visits
        ],
        "unmatched_segments": [
            {"t_start": s.t_start, "t_end": s.t_end, "p_rep": list(s.p_rep)}
            for s in table.unmatched_segments
        ],
        "unvisited_checkpoints": list(table.unvisited_checkpoints),
        "params": table.params,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_float(token: str) -> float:
    """JSON number or NaN/Infinity token; only finite values pass."""
    value = float(token)
    if not math.isfinite(value):
        raise SchemaMismatch(f"visit table holds a non-finite number: {token}")
    return value


def import_visit_table(source: Union[str, Path, bytes, IO]) -> VisitTable:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    elif isinstance(source, bytes):
        text = source.decode("utf-8", errors="replace")
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="replace")
    try:
        doc = json.loads(text, parse_float=_finite_float,
                         parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"visit table is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not _TABLE_SCHEMA_KEYS.issubset(doc):
        missing = _TABLE_SCHEMA_KEYS - set(doc) if isinstance(doc, dict) else _TABLE_SCHEMA_KEYS
        raise SchemaMismatch(f"visit table missing keys: {sorted(missing)}")
    try:
        visits = [
            CheckpointVisit(
                str(v["cp_id"]), float(v["t_rep"]),
                UtmCoord(float(v["easting"]), float(v["northing"]), float(v["height"]),
                         int(v["zone"]), str(v["hemisphere"])),
                float(v["distance_to_cp"]))
            for v in doc["visits"]
        ]
        unmatched = [
            DwellSegment(float(s["t_start"]), float(s["t_end"]),
                         tuple(float(c) for c in s["p_rep"]))
            for s in doc["unmatched_segments"]
        ]
        unvisited = [str(c) for c in doc["unvisited_checkpoints"]]
        params = dict(doc["params"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"visit table field error: {exc}") from None
    return VisitTable(str(doc["sequence_id"]), str(doc["generator_method"]),
                      visits, unmatched, unvisited, params)
