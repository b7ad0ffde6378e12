"""Rigid-body transform algebra, Z-Y-X Euler rotations, and line/plane intersection.

World convention used throughout the package: z up, water surface at z = 0,
submerged points at z < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLine, GimbalLockNear, ParallelToPlane

ORTHONORMAL_TOL = 1e-9
PITCH_GUARD = 1e-6


def _as_vec3(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; maps a point p to rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = _as_vec3(self.translation)
        if R.shape != (3, 3) or not np.all(np.isfinite(R)):
            raise ValueError("rotation must be a finite 3x3 matrix")
        if np.max(np.abs(R.T @ R - np.eye(3))) > ORTHONORMAL_TOL:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray):
        """Build from float arrays already known to be a rotation and a 3-vector.

        For transforms made inside the loops from checked ones; skips the
        orthonormality and determinant checks of the public constructor.
        """
        H = object.__new__(cls)
        object.__setattr__(H, "rotation", rotation)
        object.__setattr__(H, "translation", translation)
        return H


def transform_point(H: RigidTransform, p) -> np.ndarray:
    """Apply H to a point: R @ p + t."""
    return H.rotation @ _as_vec3(p) + H.translation


def compose(H_a: RigidTransform, H_b: RigidTransform) -> RigidTransform:
    """Chain two transforms so compose(A, B) applied to p equals A applied to (B applied to p)."""
    return RigidTransform._unchecked(
        H_a.rotation @ H_b.rotation,
        H_a.rotation @ H_b.translation + H_a.translation,
    )


def invert(H: RigidTransform) -> RigidTransform:
    """Inverse transform: (R^T, -R^T t)."""
    Rt = H.rotation.T
    return RigidTransform._unchecked(Rt, -Rt @ H.translation)


def euler_zyx_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation matrix for a yaw (z), then pitch (y), then roll (x) sequence.

    Equals Rz(yaw) @ Ry(pitch) @ Rx(roll), written out entry by entry on
    Python floats. Raises GimbalLockNear when |pitch| is within PITCH_GUARD
    of 90 degrees.
    """
    if not (math.isfinite(yaw) and math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError("Euler angles must be finite")
    if abs(pitch) >= math.pi / 2 - PITCH_GUARD:
        raise GimbalLockNear(f"pitch {pitch:.6g} rad is too close to +/-pi/2")
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@dataclass(frozen=True)
class PluckerLine:
    """3D line held as an anchor point and a direction vector."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = _as_vec3(self.point)
        d = _as_vec3(self.direction)
        if np.linalg.norm(d) <= 1e-12:
            raise DegenerateLine("line direction is (near) zero")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d)


def _zplane_hit(px, py, pz, dx, dy, dz, z_plane) -> tuple[float, float, float]:
    """(x, y, k) of the point p + k d where a line crosses z = z_plane, on floats."""
    if abs(dz) <= 1e-9:
        raise ParallelToPlane("line is parallel to the z plane")
    # Python floats overflow to inf without a warning; callers check finiteness
    k = (z_plane - pz) / dz
    return px + k * dx, py + k * dy, k


def _line_zplane_hit(a, b, z_plane: float) -> tuple[float, float, float]:
    """Where the line through float 3-tuples a and b crosses z = z_plane.

    Returns (x, y, k): the line, anchored at b with direction a - b, meets
    the plane at b + k (a - b), whose x and y are returned. Raises
    DegenerateLine when a and b coincide and ParallelToPlane when the line
    has (near) zero z slope.
    """
    (ax, ay, az), (bx, by, bz) = a, b
    dx, dy, dz = ax - bx, ay - by, az - bz
    # hypot does not overflow on huge finite components, where a sum of squares would
    if math.hypot(dx, dy, dz) <= 1e-9:
        raise DegenerateLine("points coincide; no unique line")
    return _zplane_hit(bx, by, bz, dx, dy, dz, z_plane)


def intersect_with_zplane(line: PluckerLine, z_plane: float) -> np.ndarray:
    """Point where the line crosses the horizontal plane z = z_plane.

    The returned z component is exactly z_plane. Raises ParallelToPlane when
    the line has (near) zero z slope.
    """
    x, y, _ = _zplane_hit(*line.point.tolist(), *line.direction.tolist(), z_plane)
    return np.array([x, y, z_plane], dtype=float)
