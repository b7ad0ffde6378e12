"""Rigid-body transform algebra, Z-Y-X Euler rotations, and line/plane intersection.

World convention used throughout the package: z up, water surface at z = 0,
submerged points at z < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._numpy import np
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


def _floats3(v) -> tuple[float, float, float]:
    """v as a float 3-tuple, with _as_vec3's checks and messages.

    An exact list or tuple of three floats with a finite sum is taken as it
    is; any other value goes through _as_vec3, which gives the verdict.
    """
    if (type(v) is list or type(v) is tuple) and len(v) == 3:
        x, y, z = v
        if type(x) is type(y) is type(z) is float and math.isfinite(x + y + z):
            return x, y, z
    return tuple(_as_vec3(v).tolist())


def _built_on_read(name: str, build):
    """Class decorator for a dataclass field that the constructor may leave out
    of the instance dict: its first read then makes build(self) and keeps it.
    It goes over @dataclass, which would take a class attribute as the default."""
    def decorate(cls):
        attr = cached_property(build)
        attr.__set_name__(cls, name)
        setattr(cls, name, attr)
        return cls
    return decorate


def _check_rotation(R: tuple) -> None:
    """Raise ValueError unless the finite row-major 9-tuple R is a rotation:
    R^T R within ORTHONORMAL_TOL of I in every entry, then det R of +1."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = R
    # R^T R - I, diagonal first: a product that overflows makes a diagonal
    # entry inf, and max keeps it over any nan that comes after it
    worst = max(abs(r0 * r0 + r3 * r3 + r6 * r6 - 1.0),
                abs(r1 * r1 + r4 * r4 + r7 * r7 - 1.0),
                abs(r2 * r2 + r5 * r5 + r8 * r8 - 1.0),
                abs(r0 * r1 + r3 * r4 + r6 * r7),
                abs(r0 * r2 + r3 * r5 + r6 * r8),
                abs(r1 * r2 + r4 * r5 + r7 * r8))
    if worst > ORTHONORMAL_TOL:
        raise ValueError("rotation matrix is not orthonormal")
    det = r0 * (r4 * r8 - r5 * r7) - r1 * (r3 * r8 - r5 * r6) + r2 * (r3 * r7 - r4 * r6)
    if abs(det - 1.0) > ORTHONORMAL_TOL:
        raise ValueError("rotation determinant must be +1")


@_built_on_read("translation", lambda H: np.array(H.t))
@_built_on_read("rotation", lambda H: np.array(H.R).reshape(3, 3))
@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; maps a point p to rotation @ p + translation.

    The rotation is held row-major as the float 9-tuple ``R`` and the
    translation as the float 3-tuple ``t`` (see _floats3); the ``rotation``
    and ``translation`` arrays are built from them the first time they are
    read. The rotation may be given as such a 9-tuple, as _euler_zyx returns
    it; any other value goes through numpy and keeps the array it makes.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        fields = self.__dict__
        t = _floats3(fields.pop("translation"))
        R = fields.pop("rotation")
        if not (type(R) is tuple and len(R) == 9 and all(type(r) is float for r in R)
                and math.isfinite(sum(R))):
            M = np.asarray(R, dtype=float)
            if M.shape != (3, 3) or not all(map(math.isfinite, M.ravel().tolist())):
                raise ValueError("rotation must be a finite 3x3 matrix")
            fields["rotation"] = M
            R = tuple(M.ravel().tolist())
        _check_rotation(R)
        fields.update(R=R, t=t)


def transform_point(H: RigidTransform, p) -> np.ndarray:
    """Apply H to a point: R @ p + t."""
    return H.rotation @ _as_vec3(p) + H.translation


def compose(H_a: RigidTransform, H_b: RigidTransform) -> RigidTransform:
    """Chain two transforms so compose(A, B) applied to p equals A applied to (B applied to p)."""
    R = H_a.rotation
    return RigidTransform(R @ H_b.rotation, R @ H_b.translation + H_a.translation)


def invert(H: RigidTransform) -> RigidTransform:
    """Inverse transform: (R^T, -R^T t)."""
    Rt = H.rotation.T
    return RigidTransform(Rt, -Rt @ H.translation)


def _euler_zyx(yaw: float, pitch: float, roll: float) -> tuple:
    """Row-major entries of Rz(yaw) @ Ry(pitch) @ Rx(roll) as a flat 9-tuple of floats.

    Written out entry by entry on Python floats. Raises ValueError for a
    non-finite angle and GimbalLockNear when |pitch| is within PITCH_GUARD
    of 90 degrees.
    """
    if not (math.isfinite(yaw) and math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError("Euler angles must be finite")
    if abs(pitch) >= math.pi / 2 - PITCH_GUARD:
        raise GimbalLockNear(f"pitch {pitch:.6g} rad is too close to +/-pi/2")
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    return (
        cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
        sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
        -sp, cp * sr, cp * cr,
    )


def euler_zyx_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation matrix for a yaw (z), then pitch (y), then roll (x) sequence.

    Equals Rz(yaw) @ Ry(pitch) @ Rx(roll): _euler_zyx's entries laid out as
    a 3x3 array, with its checks.
    """
    return np.array(_euler_zyx(yaw, pitch, roll)).reshape(3, 3)


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
