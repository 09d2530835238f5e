"""Accuracy metrics: hand-checked arithmetic, published gap figures, invariance.

The gap fixtures are the worked RMSE pairs used throughout the docs: a method
with absolute/aligned RMSE of 0.373/0.089 m hides 76% of its error behind
alignment, 0.068/0.065 m only 4%, 0.092/0.080 m 13%.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.errors import (DegenerateConfiguration, InsufficientPoints, NoCheckpoints,
                            UndefinedGap)
from geotraj.geodesy import UtmCoord
from geotraj.matching import CheckpointVisit
from geotraj.metrics import (
    AccuracySummary,
    absolute_rmse,
    aligned_rmse,
    alignment_gap,
    summarize,
)
from geotraj.trajectory_io import Checkpoint
from oracles import summarize_reference

E0, N0, H0 = 513000.0, 5403000.0, 300.0
SQUARE = np.array([[E0, N0, H0], [E0 + 100.0, N0, H0], [E0 + 100.0, N0 + 100.0, H0],
                   [E0, N0 + 100.0, H0]])


def test_three_four_five_error_norm():
    summary, errors, norms = summarize(SQUARE + [3.0, 4.0, 0.0], SQUARE)
    assert errors.tolist() == [[3.0, 4.0, 0.0]] * 4
    assert norms.tolist() == [5.0] * 4
    assert summary.rmse_absolute == 5.0


def test_rmse_is_quadratic_mean_not_mean():
    assert absolute_rmse([1.0, 7.0]) == pytest.approx(5.0, abs=1e-12)
    offsets = np.array([[1.0, 0.0, 0.0], [0.0, 7.0, 0.0]] * 2)
    summary, _, _ = summarize(SQUARE + offsets, SQUARE)
    assert summary.rmse_absolute == pytest.approx(5.0, abs=1e-12)
    axis = summary.per_axis_rmse
    assert axis[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert axis[1] == pytest.approx(math.sqrt(24.5), abs=1e-12)
    assert axis[2] == 0.0


def test_absolute_rmse_adds_squares_left_to_right():
    """Each 1e-16 square is lost against the running total one at a time; a
    compensated sum (the builtin ``sum`` from Python 3.12 on) would keep
    them. The first norm squares as ``v * v``: with glibc on x86-64,
    ``v ** 2`` (libm ``pow``) rounds it one ulp away, which moves the RMSE."""
    v = 1.6869877081762243
    norms = [v, 1.0] + [1e-8] * 100
    expected = math.sqrt((v * v + 1.0) / 102)
    assert absolute_rmse(norms) == expected
    assert math.sqrt(math.fsum(x * x for x in norms) / 102) != expected


@pytest.mark.parametrize("rmse_abs,rmse_al,expected", [
    (0.373, 0.089, 76),
    (0.068, 0.065, 4),
    (0.092, 0.080, 13),
])
def test_published_gap_figures(rmse_abs, rmse_al, expected):
    gap = alignment_gap(rmse_abs, rmse_al)
    assert abs(round(gap) - expected) <= 1


def test_gap_edge_values():
    assert alignment_gap(1.0, 0.0) == 100.0
    assert alignment_gap(1.0, 1.0) == 0.0
    # Aligned worse than absolute is possible only through misuse, but the
    # formula stays defined and signals it with a negative gap.
    assert alignment_gap(1.0, 1.5) == -50.0
    assert alignment_gap(1.0, 1.0 + 1e-12) == 0.0
    with pytest.raises(UndefinedGap):
        alignment_gap(0.0, 0.0)


def test_metrics_require_data():
    with pytest.raises(NoCheckpoints):
        absolute_rmse([])
    with pytest.raises(NoCheckpoints):
        summarize(np.empty((0, 3)), np.empty((0, 3)))


def test_constant_offset_fully_absorbed_by_alignment():
    est = SQUARE + [1.0, 0.0, 0.0]
    summary, _, _ = summarize(est, SQUARE)
    assert summary.rmse_absolute == pytest.approx(1.0, abs=1e-9)
    assert summary.rmse_aligned < 1e-6
    assert summary.gap_percent == pytest.approx(100.0, abs=1e-3)
    assert summary.gap_rounded == 100
    assert summary.n_points == 4
    # The recovered transform undoes the bias.
    _, transform = aligned_rmse(est, SQUARE)
    assert transform.t[0] == pytest.approx(-1.0, abs=1e-6)


def test_zero_error_summary_has_zero_gap():
    summary, _, norms = summarize(SQUARE.copy(), SQUARE)
    assert summary.rmse_absolute == 0.0
    assert summary.gap_percent == 0.0
    assert np.all(norms == 0.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_invariant_to_rigid_motion_of_estimates(seed):
    """Translating/rotating all estimates changes abs RMSE, not aligned RMSE."""
    rng = np.random.default_rng(seed)
    n = 12
    ref = rng.uniform(-50.0, 50.0, size=(n, 3))
    est = ref + rng.normal(scale=0.1, size=(n, 3))
    rmse1, _ = aligned_rmse(est, ref)
    # Apply an arbitrary extra rigid motion to the estimates.
    theta = rng.uniform(0, 2 * math.pi)
    R = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                  [math.sin(theta), math.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    est2 = est @ R.T + rng.uniform(-100, 100, size=3)
    rmse2, _ = aligned_rmse(est2, ref)
    assert rmse2 == pytest.approx(rmse1, rel=1e-6, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_summary_invariant_to_visit_order(seed):
    rng = np.random.default_rng(seed)
    perturbed = SQUARE + [0.3, -0.2, 0.1]
    perturbed[:, :2] += rng.normal(scale=0.05, size=(4, 2))
    order = rng.permutation(4)
    s1, _, _ = summarize(perturbed, SQUARE)
    s2, _, _ = summarize(perturbed[order], SQUARE[order])
    assert s1.rmse_absolute == pytest.approx(s2.rmse_absolute, rel=1e-12)
    assert s1.rmse_aligned == pytest.approx(s2.rmse_aligned, rel=1e-9, abs=1e-12)


def test_aligned_never_exceeds_absolute_on_real_layouts():
    rng = np.random.default_rng(77)
    for _ in range(25):
        noisy = SQUARE + rng.uniform(-2, 2, 3)
        noisy += rng.normal(scale=[0.2, 0.2, 0.1], size=(4, 3))
        summary, _, _ = summarize(noisy, SQUARE)
        assert summary.rmse_aligned <= summary.rmse_absolute + 1e-12
        assert summary.gap_percent >= 0.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_visits=st.sampled_from([0, 1, 2]) | st.integers(3, 16),
       n_cps=st.integers(3, 8),
       layout=st.sampled_from(["spread", "spread", "spread", "collinear"]),
       scale=st.sampled_from([1e-3, 0.05, 2.0]))
def test_summarize_matches_per_visit_reference(seed, n_visits, n_cps, layout, scale):
    """Differential check against the per-visit path: the same summary,
    errors and norms bit for bit, or the same error class (no visits, one
    or two points, collinear points). Revisits repeat a checkpoint."""
    rng = np.random.default_rng(seed)
    if layout == "collinear":
        ref_cps = (SQUARE[0] + np.outer(rng.uniform(-80.0, 80.0, n_cps),
                                        rng.normal(size=3)))
    else:
        ref_cps = SQUARE[0] + rng.uniform(-80.0, 80.0, size=(n_cps, 3))
    which = rng.integers(0, n_cps, size=n_visits)
    ref = ref_cps[which]
    offset = rng.normal(scale=scale, size=3)
    est = ref + (offset if layout == "collinear"
                 else offset + rng.normal(scale=scale, size=(n_visits, 3)))
    cps = [Checkpoint(f"CP{k}", UtmCoord(*p, 32, "north")) for k, p in enumerate(ref_cps)]
    visits = [CheckpointVisit(f"CP{k}", float(i), UtmCoord(*p, 32, "north"), 0.0)
              for i, (k, p) in enumerate(zip(which, est))]
    try:
        want_summary, want_errors = summarize_reference(visits, cps)
    except (NoCheckpoints, InsufficientPoints, DegenerateConfiguration) as exc:
        with pytest.raises(type(exc)):
            summarize(est, ref)
        return
    summary, errors, norms = summarize(est, ref)
    assert summary == want_summary
    assert errors.tolist() == [list(eps) for _, eps, _ in want_errors]
    assert norms.tolist() == [norm for _, _, norm in want_errors]


def test_gap_rounding_convention():
    assert AccuracySummary(1.0, 0.245, 75.5, 4, (0.0, 0.0, 0.0)).gap_rounded == 76
    assert AccuracySummary(1.0, 0.0, 99.4999, 4, (0.0, 0.0, 0.0)).gap_rounded == 99
