"""Error-vs-outage analysis: distance/time to the nearest RTK fix and the
fixed-intercept linear drift fit.

For each checkpoint visit the outage coordinate is measured to the *nearest*
fix in either direction, not only the last one before the visit: a checkpoint
rejoining coverage ahead is about to be corrected, and its error reflects
that. The abscissa is either elapsed time or cumulative path length along the
evaluated track.

The drift model is eps(x) = eps0 + alpha * x with eps0 held fixed (default
2 cm, the expected error right at a fix), so

    alpha = sum(x_i * (eps_i - eps0)) / sum(x_i^2)
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import AllZeroAbscissa, InsufficientSamples, NoFixAvailable
from .lever_arm import BaseCenterTrack
from .matching import nearest_samples
from .trajectory_io import GnssStatus, RtkLog, _write_text

DEFAULT_EPS0 = 0.02


@dataclass(frozen=True)
class DriftFit:
    """alpha is m/s against the time axis, m/m against the distance axis."""

    eps0: float
    alpha: float
    n: int


class DriftSample(NamedTuple):
    """One (visit, error) pair annotated for the aggregate CSV."""

    method: str
    sequence: str
    cp_id: str
    dt_s: float
    dx_m: float
    eps_m: float


def _cumulative_path(track: BaseCenterTrack) -> np.ndarray:
    steps = np.linalg.norm(np.diff(track.p, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def outage_coordinates(track: BaseCenterTrack, log: RtkLog, t_rep: np.ndarray,
                       min_status: GnssStatus = GnssStatus.RTK_FIX
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Time and arc length from each visit instant in ``t_rep`` to the
    nearest fix at or above ``min_status``."""
    fix_times = log.t[log.status >= min_status]
    if fix_times.size == 0:
        raise NoFixAvailable("RTK log contains no record at or above "
                             f"{min_status.name}")
    cum = _cumulative_path(track)
    fix_s = np.interp(fix_times, track.t, cum)
    # Arc length at each visit, interpolated and clamped to the track.
    s_visit = np.interp(t_rep, track.t, cum)
    # The nearest value is a neighbour in sorted order; sorting keeps the
    # values, so each gap is the minimum over every fix.
    _, dt = nearest_samples(np.sort(fix_times), t_rep)
    _, dx = nearest_samples(np.sort(fix_s), s_visit)
    return dt, dx


def fit_drift(x: Sequence[float], eps: Sequence[float], eps0: float = DEFAULT_EPS0
              ) -> DriftFit:
    """Least squares for eps = eps0 + alpha*x with the intercept pinned."""
    if len(x) < 2:
        raise InsufficientSamples(f"drift fit needs >= 2 samples, got {len(x)}")
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("outage abscissa must be non-negative")
    sxx = float(np.sum(x * x))
    if sxx == 0.0:
        raise AllZeroAbscissa("every sample sits exactly at a fix; no slope to fit")
    alpha = float(np.sum(x * (eps - eps0)) / sxx)
    return DriftFit(eps0, alpha, len(x))


def write_drift_csv(rows: Iterable[Sequence], sink: Union[str, Path, IO]) -> None:
    """One line per (method, sequence, cp_id, dt_s, dx_m, eps_m) row, such
    as a ``DriftSample``; the floats are written with ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DriftSample._fields)
    for method, sequence, cp_id, *values in rows:
        writer.writerow([method, sequence, cp_id, *map(repr, values)])
    _write_text(sink, buf.getvalue())


def drift_report(samples: Sequence[DriftSample], fits: dict[str, DriftFit],
                 axis: str, out_csv: Union[str, Path, IO],
                 out_svg: Union[str, Path, IO]) -> None:
    """Emit the aggregate CSV plus a log-y scatter with fitted lines."""
    from .svg import drift_scatter

    if axis not in ("time", "distance"):
        raise ValueError("axis must be 'time' or 'distance'")
    write_drift_csv(samples, out_csv)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for s in samples:
        xs, ys = series.setdefault(s.method, ([], []))  # type: ignore[arg-type]
        xs.append(s.dt_s if axis == "time" else s.dx_m)
        ys.append(s.eps_m)
    series_arrays = {m: (np.array(xs), np.array(ys)) for m, (xs, ys) in series.items()}
    _write_text(out_svg, drift_scatter(series_arrays, fits, axis))

