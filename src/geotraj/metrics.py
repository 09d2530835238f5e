"""Checkpoint error metrics: absolute RMSE, SE(3)-aligned RMSE, alignment gap.

The absolute metric compares estimated positions to surveyed coordinates in
the shared UTM frame with no alignment whatsoever; that is the point of the
whole toolkit. The aligned metric applies the optimal rigid transform first,
which absorbs any global offset or rotation. The gap between the two is the
share of error that alignment hides:

    gap = 100 * (1 - rmse_aligned / rmse_absolute)

Summaries round the gap to whole percent; serialized reports keep full
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import RigidTransform, apply_transform, umeyama_align
from .errors import NoCheckpoints, UndefinedGap


@dataclass(frozen=True)
class AccuracySummary:
    rmse_absolute: float
    rmse_aligned: float
    gap_percent: float
    n_points: int
    per_axis_rmse: tuple[float, float, float]

    @property
    def gap_rounded(self) -> int:
        return int(round(self.gap_percent))


def absolute_rmse(norms: Sequence[float]) -> float:
    """Root mean square of 3D error norms; no alignment of any kind.

    The squares are added left to right: the builtin ``sum`` compensates
    from Python 3.12 on, which would make the bits depend on the version.
    Each square is ``v * v``: ``v ** 2`` calls libm ``pow``, whose rounding
    can differ between platforms.
    """
    if len(norms) == 0:
        raise NoCheckpoints("absolute RMSE needs at least one checkpoint error")
    total = 0.0
    for v in norms:
        total += v * v
    return math.sqrt(total / len(norms))


def aligned_rmse(est: np.ndarray, ref: np.ndarray) -> tuple[float, RigidTransform]:
    """RMSE of residuals after the optimal rigid alignment."""
    est = np.asarray(est, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float).reshape(-1, 3)
    T = umeyama_align(est, ref)
    residuals = apply_transform(T, est) - ref
    return float(np.sqrt(np.mean(np.sum(residuals ** 2, axis=1)))), T


def alignment_gap(rmse_abs: float, rmse_aligned: float) -> float:
    """Percent of the absolute error that SE(3) alignment absorbs."""
    if rmse_abs <= 0.0:
        raise UndefinedGap("alignment gap undefined when absolute RMSE is zero")
    gap = 100.0 * (1.0 - rmse_aligned / rmse_abs)
    # Clip the rounding dust from aligned == absolute; real negatives stay.
    if -1e-9 < gap < 0.0:
        gap = 0.0
    return gap


def summarize(est: np.ndarray, ref: np.ndarray
              ) -> tuple[AccuracySummary, np.ndarray, np.ndarray]:
    """Accuracy summary of one method's (V, 3) UTM positions ``est`` against
    the surveyed positions ``ref``, with the (V, 3) signed errors
    (easting, northing, height) and their norms.

    Each norm is ``math.hypot`` of one row: vectorised norms round
    differently in the last bit.
    """
    errors = est - ref
    norms = [math.hypot(*row) for row in errors.tolist()]
    rmse_abs = absolute_rmse(norms)
    rmse_al, _ = aligned_rmse(est, ref)
    gap = alignment_gap(rmse_abs, rmse_al) if rmse_abs > 0.0 else 0.0
    axis = np.sqrt(np.mean(errors ** 2, axis=0))
    summary = AccuracySummary(rmse_abs, rmse_al, gap, len(norms),
                              (float(axis[0]), float(axis[1]), float(axis[2])))
    return summary, errors, np.array(norms)
