"""Rigid alignment: generate-and-recover trials, invariances, degeneracy.

The reference results come from tests/oracles.py (horn_alignment, Horn's
quaternion method), keeping the production SVD path independent of the check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.alignment import RigidTransform, apply_transform, umeyama_align
from geotraj.errors import DegenerateConfiguration, InsufficientPoints
from oracles import horn_alignment


def _random_rotation(rng) -> np.ndarray:
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Q


def _compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: p -> a(b(p))."""
    return RigidTransform(a.R @ b.R, a.R @ b.t + a.t)


def _inverse(a: RigidTransform) -> RigidTransform:
    return RigidTransform(a.R.T, -a.R.T @ a.t)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60))
@settings(max_examples=150, deadline=None)
def test_exact_recovery_of_random_rigid_motion(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-100.0, 100.0, size=(n, 3))
    R = _random_rotation(rng)
    t = rng.uniform(-500.0, 500.0, size=3)
    T = umeyama_align(pts, pts @ R.T + t)
    assert np.max(np.abs(T.R - R)) < 1e-9
    assert np.max(np.abs(T.t - t)) < 1e-9
    assert abs(np.linalg.det(T.R) - 1.0) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), coplanar=st.booleans())
@settings(max_examples=80, deadline=None)
def test_matches_reference_solver_under_noise(seed, coplanar):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    est = rng.uniform(-50.0, 50.0, size=(n, 3))
    if coplanar:
        # All points at one height, as every synthetic checkpoint set is.
        est[:, 2] = 300.0
    ref = est @ _random_rotation(rng).T + rng.uniform(-20, 20, size=3)
    ref = ref + rng.normal(scale=0.05, size=ref.shape)
    T = umeyama_align(est, ref)
    R_ref, t_ref = horn_alignment(est, ref)
    assert np.max(np.abs(T.R - R_ref)) < 1e-9
    assert np.max(np.abs(T.t - t_ref)) < 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_alignment_never_increases_rmse(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    est = rng.uniform(-30.0, 30.0, size=(n, 3))
    ref = est + rng.normal(scale=1.0, size=est.shape)
    try:
        T = umeyama_align(est, ref)
    except DegenerateConfiguration:
        return
    before = np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1)))
    after = np.sqrt(np.mean(np.sum((apply_transform(T, est) - ref) ** 2, axis=1)))
    assert after <= before + 1e-12


def test_reflection_is_never_returned():
    # Mirrored cloud: the best proper rotation must still have det +1.
    rng = np.random.default_rng(5)
    pts = rng.uniform(-10, 10, size=(20, 3))
    mirrored = pts * np.array([1.0, 1.0, -1.0])
    T = umeyama_align(pts, mirrored)
    assert abs(np.linalg.det(T.R) - 1.0) < 1e-12


def test_insufficient_points():
    pts = np.zeros((2, 3))
    with pytest.raises(InsufficientPoints):
        umeyama_align(pts, pts)


def test_collinear_points_are_degenerate():
    line = np.outer(np.arange(6.0), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(DegenerateConfiguration):
        umeyama_align(line, line + 1.0)


def test_coincident_points_are_degenerate():
    same = np.tile([3.0, -1.0, 2.0], (5, 1))
    with pytest.raises(DegenerateConfiguration):
        umeyama_align(same, same)


def test_planar_points_align_fine():
    # Rank 2 is enough: the reflection fix resolves the free normal.
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(-5, 5, 12), rng.uniform(-5, 5, 12),
                           np.zeros(12)])
    R = _random_rotation(rng)
    t = np.array([1.0, -2.0, 3.0])
    T = umeyama_align(pts, pts @ R.T + t)
    assert np.max(np.abs(apply_transform(T, pts) - (pts @ R.T + t))) < 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_conjugation_invariance(seed):
    """Rigidly moving both clouds conjugates the recovered transform."""
    rng = np.random.default_rng(seed)
    est = rng.uniform(-20, 20, size=(10, 3))
    ref = est @ _random_rotation(rng).T + rng.uniform(-5, 5, 3)
    G = RigidTransform(_random_rotation(rng), rng.uniform(-50, 50, 3))
    T1 = umeyama_align(est, ref)
    T2 = umeyama_align(apply_transform(G, est), apply_transform(G, ref))
    expected = _compose(_compose(G, T1), _inverse(G))
    assert np.max(np.abs(T2.R - expected.R)) < 1e-8
    assert np.max(np.abs(T2.t - expected.t)) < 1e-7


def test_rigid_transform_validation_and_algebra():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    rng = np.random.default_rng(2)
    T = RigidTransform(_random_rotation(rng), rng.uniform(-3, 3, 3))
    eye = _compose(T, _inverse(T))
    assert np.max(np.abs(eye.R - np.eye(3))) < 1e-12
    assert np.max(np.abs(eye.t)) < 1e-12
    p = rng.uniform(-5, 5, size=(7, 3))
    assert np.max(np.abs(apply_transform(_inverse(T), apply_transform(T, p)) - p)) < 1e-12
