"""Closed-form rigid SE(3) point-set alignment (Umeyama, rotation-only scale).

Used exclusively for the aligned variant of the checkpoint metric and the
alignment-gap analysis; the absolute metric never calls into this module.

The rotation comes from the SVD of the 3x3 cross-covariance (Umeyama 1991,
IEEE TPAMI 13(4)), taken from LAPACK through ``np.linalg.svd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InsufficientPoints

_ORTHO_TOL = 1e-9
_DEGENERACY_RATIO = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> R @ p + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("RigidTransform needs a 3x3 R and 3-vector t")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("R is not orthogonal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("R is not a proper rotation (det != +1)")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


def umeyama_align(est: np.ndarray, ref: np.ndarray) -> RigidTransform:
    """Rotation+translation minimizing sum ||R @ est_i + t - ref_i||^2.

    No scale is estimated. Reflections are corrected so det(R) = +1 always.
    """
    est = np.asarray(est, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float).reshape(-1, 3)
    if est.shape != ref.shape:
        raise ValueError(f"point sets differ in shape: {est.shape} vs {ref.shape}")
    n = est.shape[0]
    if n < 3:
        raise InsufficientPoints(f"alignment needs >= 3 point pairs, got {n}")

    mu_est = est.mean(axis=0)
    mu_ref = ref.mean(axis=0)
    X = est - mu_est
    Y = ref - mu_ref
    H = X.T @ Y / n
    U, S, Vt = np.linalg.svd(H)
    V = Vt.T
    if S[0] <= 0.0 or S[1] < _DEGENERACY_RATIO * S[0]:
        raise DegenerateConfiguration(
            "centered cross-covariance has rank < 2 (collinear or coincident points)")
    d = math.copysign(1.0, np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    return RigidTransform(R, mu_ref - R @ mu_est)


def apply_transform(T: RigidTransform, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return pts @ T.R.T + T.t
