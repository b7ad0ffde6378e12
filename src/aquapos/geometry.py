"""Rigid-body transform algebra, Z-Y-X Euler rotations, and line/plane intersection.

World convention used throughout the package: z up, water surface at z = 0,
submerged points at z < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

from ._numpy import np
from .errors import DegenerateLine, GimbalLockNear, ParallelToPlane

ORTHONORMAL_TOL = 1e-9
PITCH_GUARD = 1e-6


def _float(x, message: str) -> float:
    """x as a float by the one rule for a number, else ValueError(message).

    A number is a real number that is not a bool (a string is not a number)
    and that a float holds as a finite value: a float, an int within the
    float range, or a numpy float or integer scalar. The dataset reader
    and the config types take numbers by this rule too.
    """
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, Real):
            raise ValueError(message)
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(message) from None
    if not math.isfinite(x):
        raise ValueError(message)
    return x


def _floats(v, shape: tuple, message: str) -> tuple:
    """v as a tuple of floats, each by _float's rule, else ValueError(message).

    v is a list or a tuple, or an array read through its tolist(), of shape
    (n,) or (n, m); a matrix comes back as a tuple of its rows' tuples.
    """
    if not isinstance(v, (list, tuple)):
        tolist = getattr(v, "tolist", None)
        v = tolist() if tolist is not None else None
        if not isinstance(v, list):
            raise ValueError(message)
    n, *rest = shape
    if len(v) != n:
        raise ValueError(message)
    if rest:
        return tuple(_floats(row, rest, message) for row in v)
    return tuple(_float(x, message) for x in v)


def _floats3(v, message: str = "expected a 3-vector of finite numbers") -> tuple:
    """v as a float 3-tuple by _floats' rule.

    The first line takes an exact list or tuple of three floats whose sum is
    finite as it is: the same rule on a shorter path, since an inf or nan
    makes the sum inf or nan.
    """
    if (type(v) is list or type(v) is tuple) and len(v) == 3:
        x, y, z = v
        if type(x) is type(y) is type(z) is float and math.isfinite(x + y + z):
            return x, y, z
    return _floats(v, (3,), message)


def _check_rotation(R: tuple) -> None:
    """Raise ValueError unless the finite row-major 9-tuple R is a rotation:
    R^T R within ORTHONORMAL_TOL of I in every entry, then det R of +1."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = R
    # R^T R - I by hand, diagonal first: a product that overflows makes a
    # diagonal entry inf, and max keeps it over any nan that comes after it
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


@dataclass(frozen=True, init=False)
class RigidTransform:
    """Rotation plus translation; maps a point p to rotation @ p + translation.

    The rotation is held row-major as the float 9-tuple ``R`` and the
    translation as the float 3-tuple ``t`` (see _floats3); the ``rotation``
    and ``translation`` arrays are built from them the first time they are
    read. The rotation may be given as a 3x3 matrix or as a tuple of its
    nine entries, row-major, as _euler_zyx returns it; either way each entry
    is a number by _float's rule.
    """

    R: tuple
    t: tuple

    def __init__(self, rotation, translation):
        t = _floats3(translation)
        message = "rotation must be a finite 3x3 matrix"
        if type(rotation) is tuple and len(rotation) == 9:
            R = _floats(rotation, (9,), message)
        else:
            r0, r1, r2 = _floats(rotation, (3, 3), message)
            R = r0 + r1 + r2
        self.__dict__.update(R=R, t=t)
        self.__post_init__()

    def __post_init__(self):
        # Every construction ends here, as under a generated __init__: the
        # rotation check on the stored floats.
        _check_rotation(self.R)

    rotation = cached_property(lambda H: np.array(H.R).reshape(3, 3))
    translation = cached_property(lambda H: np.array(H.t))


def _mat_mul(A: tuple, B: tuple) -> tuple:
    """A B for row-major float 9-tuples. Every 3x3 rotation product in the
    package goes through this, _mat_vec or _mat_t_vec: each entry summed row
    by column, left to right, on Python floats. numpy's BLAS kernel would
    round with fused multiply-adds that differ from CPU to CPU; these sums
    give every host the bits numpy gives on a kernel without FMA."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = B
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _mat_vec(A: tuple, v) -> tuple:
    """A v for a row-major float 9-tuple A and a float 3-vector v, by _mat_mul's rule."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    x, y, z = v
    return a0 * x + a1 * y + a2 * z, a3 * x + a4 * y + a5 * z, a6 * x + a7 * y + a8 * z


def _mat_t_vec(A: tuple, v) -> tuple:
    """A^T v for a row-major float 9-tuple A and a float 3-vector v, by _mat_mul's rule."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    x, y, z = v
    return a0 * x + a3 * y + a6 * z, a1 * x + a4 * y + a7 * z, a2 * x + a5 * y + a8 * z


def transform_point(H: RigidTransform, p) -> np.ndarray:
    """Apply H to a point: R p + t."""
    (x, y, z), (tx, ty, tz) = _mat_vec(H.R, _floats3(p)), H.t
    return np.array([x + tx, y + ty, z + tz])


def compose(H_a: RigidTransform, H_b: RigidTransform) -> RigidTransform:
    """Chain two transforms so compose(A, B) applied to p equals A applied to (B applied to p)."""
    (x, y, z), (tx, ty, tz) = _mat_vec(H_a.R, H_b.t), H_a.t
    return RigidTransform(_mat_mul(H_a.R, H_b.R), (x + tx, y + ty, z + tz))


def invert(H: RigidTransform) -> RigidTransform:
    """Inverse transform: (R^T, -R^T t)."""
    R, (x, y, z) = H.R, _mat_t_vec(H.R, H.t)
    return RigidTransform(R[0::3] + R[1::3] + R[2::3], (-x, -y, -z))


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


@dataclass(frozen=True, init=False)
class PluckerLine:
    """3D line held as an anchor point and a direction vector, the float
    3-tuples ``point_xyz`` and ``direction_xyz`` (see _floats3); they build
    the ``point`` and ``direction`` arrays when first read."""

    point_xyz: tuple
    direction_xyz: tuple

    def __init__(self, point, direction):
        p = _floats3(point)
        d = _floats3(direction)
        if math.hypot(*d) <= 1e-12:
            raise DegenerateLine("line direction is (near) zero")
        self.__dict__.update(point_xyz=p, direction_xyz=d)

    point = cached_property(lambda line: np.array(line.point_xyz))
    direction = cached_property(lambda line: np.array(line.direction_xyz))


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
    x, y, _ = _zplane_hit(*line.point_xyz, *line.direction_xyz, z_plane)
    return np.array([x, y, z_plane], dtype=float)
