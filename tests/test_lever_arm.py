"""Lever-arm transfer: worked offsets, rotation laws, composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.lever_arm import apply_lever_arm
from geotraj.trajectory_io import Trajectory

# Handheld device offsets used throughout the worked examples (body frame, m).
BASE_OFFSET = np.array([-0.073, -0.023, -0.172])
ANTENNA_OFFSET = np.array([0.023, -0.023, 0.090])

IDENTITY_Q = np.array([0.0, 0.0, 0.0, 1.0])


def _traj(t, p, q):
    return Trajectory.from_arrays(np.asarray(t, dtype=float),
                                  np.asarray(p, dtype=float),
                                  np.asarray(q, dtype=float))


def test_identity_orientation_adds_offset():
    traj = _traj([0.0, 1.0], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
                 [IDENTITY_Q, IDENTITY_Q])
    track = apply_lever_arm(traj, BASE_OFFSET)
    assert np.allclose(track.p[0], [0.927, 1.977, 2.828], atol=1e-12)
    assert np.array_equal(track.t, [0.0, 1.0])


def test_quarter_turn_about_up_swings_offset():
    # Yaw +90 deg maps body x to world y.
    yaw90 = np.array([0.0, 0.0, math.sin(math.pi / 4), math.cos(math.pi / 4)])
    traj = _traj([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2, [yaw90, yaw90])
    track = apply_lever_arm(traj, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(track.p[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_zero_offset_is_identity():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    traj = _traj(np.arange(5.0), rng.uniform(-10, 10, (5, 3)), q)
    track = apply_lever_arm(traj, np.zeros(3))
    assert np.array_equal(track.p, traj.positions)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_rotation_preserves_offset_length(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(8, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    offset = rng.uniform(-1.5, 1.5, size=3)
    traj = _traj(np.arange(8.0), np.zeros((8, 3)), q)
    track = apply_lever_arm(traj, offset)
    norms = np.linalg.norm(track.p, axis=1)
    assert np.all(np.abs(norms - np.linalg.norm(offset)) < 1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_offsets_compose_additively(seed):
    """Applying a+b in one step equals summing the separate transfers."""
    rng = np.random.default_rng(seed)
    n = 6
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = rng.uniform(-100, 100, size=(n, 3))
    a = rng.uniform(-0.5, 0.5, size=3)
    b = rng.uniform(-0.5, 0.5, size=3)
    traj = _traj(np.arange(float(n)), p, q)
    combined = apply_lever_arm(traj, a + b).p
    split = (apply_lever_arm(traj, a).p + apply_lever_arm(traj, b).p
             - traj.positions)
    assert np.max(np.abs(combined - split)) < 1e-12


def _rotation_matrix(q):
    """Body-to-world matrix of one (x, y, z, w) unit quaternion, built as
    the sandwich product q v q* applied to each basis vector."""
    x, y, z, w = q

    def hamilton(a, b):
        (ax, ay, az, aw), (bx, by, bz, bw) = a, b
        return (aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
                aw * bw - ax * bx - ay * by - az * bz)

    cols = [hamilton(hamilton((x, y, z, w), (*e, 0.0)), (-x, -y, -z, w))[:3]
            for e in np.eye(3)]
    return np.array(cols).T


def test_batch_matches_per_pose_rotation_matrix():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(10, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = rng.uniform(-50, 50, size=(10, 3))
    traj = _traj(np.arange(10.0), p, q)
    track = apply_lever_arm(traj, ANTENNA_OFFSET)
    for pi, qi, got in zip(p, q, track.p):
        R = _rotation_matrix(qi)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        want = pi + R @ ANTENNA_OFFSET
        assert np.max(np.abs(got - want)) < 1e-14


def test_antenna_to_base_difference_is_rotated_delta():
    """Transferring to two reference points differs by R @ (a - b)."""
    rng = np.random.default_rng(19)
    q = rng.normal(size=(4, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    traj = _traj(np.arange(4.0), rng.uniform(-5, 5, (4, 3)), q)
    base = apply_lever_arm(traj, BASE_OFFSET).p
    ant = apply_lever_arm(traj, ANTENNA_OFFSET).p
    delta = np.linalg.norm(ANTENNA_OFFSET - BASE_OFFSET)
    assert np.allclose(np.linalg.norm(ant - base, axis=1), delta, atol=1e-12)


def test_invalid_offset_rejected():
    traj = _traj([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2, [IDENTITY_Q] * 2)
    with pytest.raises(ValueError):
        apply_lever_arm(traj, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_lever_arm(traj, np.array([np.nan, 0.0, 0.0]))
