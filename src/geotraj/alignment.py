"""Closed-form rigid SE(3) point-set alignment (Umeyama, rotation-only scale).

Used exclusively for the aligned variant of the checkpoint metric and the
alignment-gap analysis; the absolute metric never calls into this module.

The 3x3 SVD is a one-sided (Hestenes) cyclic Jacobi iteration: at this size
it is simple, dependency-free, and accurate to a few ulps, and it handles
rank-deficient inputs by completing the left basis with cross products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InsufficientPoints

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60
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

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.R.T, -self.R.T @ self.t)


def svd_3x3(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose M = U @ diag(S) @ V.T, S sorted descending, U/V orthogonal."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise ValueError("svd_3x3 expects a finite 3x3 matrix")

    A = M.copy()
    V = np.eye(3)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off_diagonal = 0.0
        for p in range(3):
            for q in range(p + 1, 3):
                ap = A[:, p]
                aq = A[:, q]
                app = float(ap @ ap)
                aqq = float(aq @ aq)
                apq = float(ap @ aq)
                if abs(apq) <= _JACOBI_TOL * math.sqrt(app * aqq) or apq == 0.0:
                    continue
                off_diagonal = max(off_diagonal, abs(apq))
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                new_p = c * ap - s * aq
                new_q = s * ap + c * aq
                A[:, p], A[:, q] = new_p, new_q
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        if off_diagonal == 0.0:
            break

    S = np.linalg.norm(A, axis=0)
    order = np.argsort(-S)
    S = S[order]
    A = A[:, order]
    V = V[:, order]

    scale = S[0] if S[0] > 0.0 else 1.0
    U = np.empty((3, 3))
    for i in range(3):
        if S[i] > 1e-15 * scale:
            U[:, i] = A[:, i] / S[i]
        else:
            # Null column: complete an orthonormal basis.
            S[i] = 0.0
            if i == 0:
                S[:] = 0.0
                U[:, :] = np.eye(3)
                break
            cross = np.cross(U[:, 0], U[:, 1]) if i == 2 else None
            if cross is None:
                # i == 1: any unit vector orthogonal to U[:,0].
                seed = np.eye(3)[np.argmin(np.abs(U[:, 0]))]
                cross = seed - (seed @ U[:, 0]) * U[:, 0]
            U[:, i] = cross / np.linalg.norm(cross)
    return U, S, V


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
    U, S, V = svd_3x3(H)
    if S[0] <= 0.0 or S[1] < _DEGENERACY_RATIO * S[0]:
        raise DegenerateConfiguration(
            "centered cross-covariance has rank < 2 (collinear or coincident points)")
    d = math.copysign(1.0, np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    return RigidTransform(R, mu_ref - R @ mu_est)


def apply_transform(T: RigidTransform, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return pts @ T.R.T + T.t
