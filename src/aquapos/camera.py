"""Pinhole camera model, tag observations, and planar-tag pose recovery.

Camera frame: x right, y down, z forward (out of the lens). Pixels are
(u, v) with u along image x and v along image y; sub-pixel values allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

from ._numpy import np
from .errors import BehindCamera, PnPDegenerate, PnPNoConvergence
from .geometry import RigidTransform, _float, _floats, _floats3, _mat_mul, _Value

MIN_QUAD_AREA_PX2 = 1.0
# a corner this many focal lengths off-axis sits within 1e-6 rad of the image
# plane, beyond any pinhole lens; the bound keeps the solve's arithmetic finite
_MAX_RAY_SLOPE = 1e6

_REFINE_MAX_ITERS = 100
_REFINE_MAX_RETRIES = 12
_REFINE_FTOL = 1e-6
# two candidates whose rotations agree this closely in every entry are one minimum
_MERGE_TOL = 1e-3


@dataclass(frozen=True, eq=False, repr=False)
class Intrinsics(_Value):
    """Pinhole intrinsics in pixels plus the image size. Width and height are
    whole numbers (an int or a finite float with no fraction, not a bool),
    held as ints; the other four are floats by geometry._float's rule."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        fields = self.__dict__
        message = f"width and height must be whole numbers, got {(self.width, self.height)}"
        for name in ("width", "height"):
            size = fields[name]
            if (isinstance(size, bool) or not isinstance(size, Real)
                    or not -math.inf < size < math.inf or int(size) != size):
                raise ValueError(message)
            fields[name] = int(size)
        message = "focal lengths must be positive and finite"
        for name in ("fx", "fy"):
            fields[name] = focal = _float(fields[name], message)
            if focal <= 0:
                raise ValueError(message)
        message = "principal point must lie inside the image"
        for name, size in (("cx", self.width), ("cy", self.height)):
            fields[name] = c = _float(fields[name], message)
            if not 0 < c < size:
                raise ValueError(message)


# bench-calibrated defaults used when no intrinsics file is configured
DEFAULT_INTRINSICS = Intrinsics(
    fx=514.177765, fy=513.054629, cx=346.861136, cy=220.015799, width=800, height=600
)


def _pixel_ray(K: Intrinsics, u: float, v: float) -> tuple[float, float, float]:
    """Ray through pixel (u, v), scaled to unit camera depth, as floats:
    ((u-cx)/fx, (v-cy)/fy, 1).

    Raises BehindCamera for a pixel more than _MAX_RAY_SLOPE focal lengths
    off-axis: its ray lies in the camera plane to within 1e-6 rad.
    """
    x = (u - K.cx) / K.fx
    y = (v - K.cy) / K.fy
    if not (abs(x) <= _MAX_RAY_SLOPE and abs(y) <= _MAX_RAY_SLOPE):
        raise BehindCamera("pixel lies too far off the optical axis for a ray")
    return x, y, 1.0


def _project(K: Intrinsics, x: float, y: float, z: float) -> tuple[float, float] | None:
    """The pinhole model: pixel (u, v) of the camera-frame point (x, y, z) as
    floats, or None for z <= 1e-6, a point not in front of the camera."""
    if z <= 1e-6:
        return None
    return K.fx * x / z + K.cx, K.fy * y / z + K.cy


def project_point(K: Intrinsics, p_cam) -> np.ndarray:
    """Pixel (u, v) for a camera-frame point; raises BehindCamera for z <= 1e-6."""
    x, y, z = _floats3(p_cam)
    pixel = _project(K, x, y, z)
    if pixel is None:
        raise BehindCamera(f"point depth {z:.3g} m is not in front of the camera")
    return np.array(pixel)


def _float_quad(c):
    """((u0, v0), ..., (u3, v3)) when c is an exact list of four exact [u, v]
    lists of floats whose sum is finite, else None; an inf or nan makes the
    sum inf or nan. TagObservation's first line: corners it declines go
    through _floats, by the same rule on the longer path."""
    if type(c) is list and len(c) == 4:
        c0, c1, c2, c3 = c
        if (type(c0) is type(c1) is type(c2) is type(c3) is list
                and len(c0) == len(c1) == len(c2) == len(c3) == 2):
            u0, v0 = c0
            u1, v1 = c1
            u2, v2 = c2
            u3, v3 = c3
            if (type(u0) is type(v0) is type(u1) is type(v1) is type(u2)
                    is type(v2) is type(u3) is type(v3) is float
                    and math.isfinite(u0 + v0 + u1 + v1 + u2 + v2 + u3 + v3)):
                return (u0, v0), (u1, v1), (u2, v2), (u3, v3)
    return None


@dataclass(init=False, eq=False, repr=False)
class TagObservation(_Value):
    """Four ordered corner pixels of a detected square tag, held in ``px`` as
    four (u, v) float pairs, each a number by geometry._float's rule; the
    ``corners`` array is built the first time it is read.
    """

    timestamp: float
    px: tuple

    def __init__(self, timestamp: float, corners):
        px = _float_quad(corners) or _floats(corners, (4, 2),
                                             "corner pixels must be 4 finite (u, v) pairs")
        # one dict update; a frozen dataclass's __init__ calls object.__setattr__ per field
        self.__dict__.update(timestamp=_float(timestamp, "timestamp must be finite"), px=px)

    corners = cached_property(lambda obs: np.array(obs.px))


def _center(px) -> tuple[float, float]:
    """Mean (u, v) of four corner pixels given as float pairs.

    Quartering first is exact and keeps the sum of huge pixels finite; the
    quarters are added in corner order, as numpy's column sum adds them.
    """
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = px
    return (
        ((u0 * 0.25 + u1 * 0.25) + u2 * 0.25) + u3 * 0.25,
        ((v0 * 0.25 + v1 * 0.25) + v2 * 0.25) + v3 * 0.25,
    )


@dataclass(frozen=True, eq=False, repr=False)
class TagGeometry(_Value):
    """Square tag of known side length; corner order is fixed.

    Marker-frame corners sit at (-s/2,-s/2), (s/2,-s/2), (s/2,s/2), (-s/2,s/2)
    in the z = 0 plane, and observations list pixels in the same order.
    """

    side_length: float = 0.2  # the bench tag, metres

    def __post_init__(self):
        message = "tag side length must be positive and finite"
        self.__dict__["side_length"] = side = _float(self.side_length, message)
        if side <= 0:
            raise ValueError(message)

    @cached_property
    def corners_xy(self) -> tuple:
        """Marker-plane (x, y) of each corner, in observation order, as floats."""
        h = self.side_length / 2.0
        return (-h, -h), (h, -h), (h, h), (-h, h)

    def corners(self) -> np.ndarray:
        return np.array([(x, y, 0.0) for x, y in self.corners_xy])


@dataclass(frozen=True, eq=False, repr=False)
class TagPose(_Value):
    """Recovered tag pose in the camera frame plus its reprojection RMS: R
    row-major as a float 9-tuple and t a float 3-tuple, which ``transform``
    holds as a RigidTransform, built the first time it is read."""

    R: tuple
    t: tuple
    reproj_rms: float

    @cached_property
    def transform(self) -> RigidTransform:
        return RigidTransform(self.R, self.t)


def quad_area(corners) -> float:
    """Shoelace area of a pixel quad, as half the cross product of its diagonals."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
    return 0.5 * abs((x2 - x0) * (y3 - y1) - (x3 - x1) * (y2 - y0))


def _ippe_seed(K: Intrinsics, side: float, px) -> list:
    """Both poses of the planar ambiguity, [(R, t), (R', t')], from four corner pixels.

    R is row-major. Raises PnPDegenerate for corners more than _MAX_RAY_SLOPE
    focal lengths off-axis, a quad of at most MIN_QUAD_AREA_PX2, corners
    that are not a strictly convex quad (no pose of a square in front of a
    pinhole images to one), a homography with no rotation at the tag centre,
    or corners too tightly bunched, next to their distance off-axis, to fix
    a translation. The arithmetic runs on Python floats, in normalized image
    coordinates centred on the corners' mean (mx, my).
    """
    fx, fy, cx, cy = K.fx, K.fy, K.cx, K.cy
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = px
    x0, x1, x2, x3 = (u0 - cx) / fx, (u1 - cx) / fx, (u2 - cx) / fx, (u3 - cx) / fx
    y0, y1, y2, y3 = (v0 - cy) / fy, (v1 - cy) / fy, (v2 - cy) / fy, (v3 - cy) / fy
    far = max(abs(x0), abs(x1), abs(x2), abs(x3), abs(y0), abs(y1), abs(y2), abs(y3))
    if far > _MAX_RAY_SLOPE:
        raise PnPDegenerate("tag corners lie too far off the optical axis")
    if quad_area(px) <= MIN_QUAD_AREA_PX2:
        raise PnPDegenerate("tag corners are collinear or the quad is too small")
    mx, my = 0.25 * (x0 + x1 + x2 + x3), 0.25 * (y0 + y1 + y2 + y3)
    x0, x1, x2, x3 = x0 - mx, x1 - mx, x2 - mx, x3 - mx
    y0, y1, y2, y3 = y0 - my, y1 - my, y2 - my, y3 - my
    # turn k_i at corner i: the cross product of the edges into and out of it
    ex0, ey0, ex1, ey1 = x1 - x0, y1 - y0, x2 - x1, y2 - y1
    ex2, ey2, ex3, ey3 = x3 - x2, y3 - y2, x0 - x3, y0 - y3
    k0, k1 = ex3 * ey0 - ey3 * ex0, ex0 * ey1 - ey0 * ex1
    k2, k3 = ex1 * ey2 - ey1 * ex2, ex2 * ey3 - ey2 * ex3
    if not (k0 > 0.0 and k1 > 0.0 and k2 > 0.0 and k3 > 0.0
            or k0 < 0.0 and k1 < 0.0 and k2 < 0.0 and k3 < 0.0):
        raise PnPDegenerate("tag corners do not form a strictly convex quad")
    # Heckbert's unit-square-to-quad homography ("Fundamentals of Texture
    # Mapping and Image Warping", 1989) sends the square's corners (0, 0),
    # (1, 0), (1, 1), (0, 1) to the tag's and (s, r) to ((a s + b r + x0) /
    # (g s + h r + 1), (d s + e r + y0) / (g s + h r + 1)). His determinants
    # for g and h reduce to turns; convexity keeps k2 and every corner's
    # weight (1, 1 + g, 1 + g + h, 1 + h) nonzero and of one sign.
    g, h = (k3 - k2) / k2, (k1 - k2) / k2
    a, b = x1 - x0 + g * x1, x3 - x0 + h * x3
    d, e = y1 - y0 + g * y1, y3 - y0 + h * y3
    # the tag centre, (s, r) = (1/2, 1/2), and the Jacobian there in marker
    # (x, y): marker x is side (s - 1/2)
    wc = 1.0 + 0.5 * (g + h)
    pc, qc = (0.5 * (a + b) + x0) / wc, (0.5 * (d + e) + y0) / wc
    ws = wc * side
    j00, j01 = (a - g * pc) / ws, (b - h * pc) / ws
    j10, j11 = (d - g * qc) / ws, (e - h * qc) / ws
    p, q = pc + mx, qc + my
    # IPPE (Collins & Bartoli, "Infinitesimal Plane-Based Pose Estimation",
    # IJCV 2014): the Jacobian at the tag centre fixes the rotation up to a
    # mirror of the tag normal about the viewing ray. Rv turns the optical
    # axis onto the viewing ray (p, q, 1) / n.
    n = math.sqrt(p * p + q * q + 1.0)
    ax, ay = p / n, q / n
    dn = n / (n + 1.0)
    v00, v01, v11, v22 = 1.0 - ax * ax * dn, -ax * ay * dn, 1.0 - ay * ay * dn, 1.0 / n
    # the projection's Jacobian at the ray, on the plane normal to it, is
    # B = I + n^2 / (n + 1) a a^T with a = (ax, ay); A = B^-1 J = J - dn a a^T J
    # is the top-left 2x2 block of Rv^T R over the centre's depth
    m0 = dn * (ax * j00 + ay * j10)
    m1 = dn * (ax * j01 + ay * j11)
    a00, a01 = j00 - ax * m0, j01 - ax * m1
    a10, a11 = j10 - ay * m0, j11 - ay * m1
    # a rotation's 2x2 block has largest singular value 1, which sets the depth
    s00 = a00 * a00 + a01 * a01
    s01 = a00 * a10 + a01 * a11
    s11 = a10 * a10 + a11 * a11
    root = math.sqrt((s00 - s11) ** 2 + 4.0 * s01 * s01)
    gamma = math.sqrt(0.5 * (s00 + s11 + root))
    if not gamma > 0.0:
        raise PnPDegenerate("homography has no rotation at the tag centre")
    r00, r01 = a00 / gamma, a01 / gamma
    r10, r11 = a10 / gamma, a11 / gamma
    # complete the unit columns (r00, r10, b0) and (r01, r11, b1): the block's
    # Gram matrix is I - b b^T, so b0 b1 is minus the columns' dot product.
    # Only the larger of b0, b1 takes a root; dividing for the other keeps
    # the columns orthogonal where a root of rounding noise would not.
    b0_sq = 1.0 - r00 * r00 - r10 * r10
    b1_sq = 1.0 - r01 * r01 - r11 * r11
    big = math.sqrt(max(0.0, b0_sq, b1_sq))
    other = -(r00 * r01 + r10 * r11) / big if big > 0.0 else 0.0
    b0, b1 = (big, other) if b0_sq >= b1_sq else (other, big)
    c0, c1, c2 = r10 * b1 - b0 * r11, b0 * r01 - r00 * b1, r00 * r11 - r10 * r01
    # Rv Rp with Rp = [[r00, r01, c0], [r10, r11, c1], [b0, b1, c2]]: entry
    # ij is t_ij, from Rp's top two rows, plus B_ij, from its third row.
    # Negating b0 and b1 mirrors the tag normal, diag(1, 1, -1) Rp
    # diag(1, 1, -1), which flips B in columns 0 and 1 and t in column 2:
    # both poses share these hand-written products, which _mat_mul cannot.
    t00, t01, t02 = v00 * r00 + v01 * r10, v00 * r01 + v01 * r11, v00 * c0 + v01 * c1
    t10, t11, t12 = v01 * r00 + v11 * r10, v01 * r01 + v11 * r11, v01 * c0 + v11 * c1
    t20, t21, t22 = -ax * r00 - ay * r10, -ax * r01 - ay * r11, -ax * c0 - ay * c1
    B00, B01, B02 = ax * b0, ax * b1, ax * c2
    B10, B11, B12 = ay * b0, ay * b1, ay * c2
    B20, B21, B22 = v22 * b0, v22 * b1, v22 * c2
    R = (t00 + B00, t01 + B01, t02 + B02, t10 + B10, t11 + B11, t12 + B12,
         t20 + B20, t21 + B21, t22 + B22)
    Rm = (t00 - B00, t01 - B01, B02 - t02, t10 - B10, t11 - B11, B12 - t12,
          t20 - B20, t21 - B21, B22 - t22)
    # Translation: a corner (u, v) = (mx + du, my + dv) with q = R X gives
    # t_x - u t_z = u q_z - q_x and t_y - v t_z = v q_z - q_y. Eliminating
    # t_x and t_y from the 3x3 normal equations leaves t_z times the spread
    # S = sum(du^2 + dv^2), the Schur complement of the t_x, t_y block. With
    # X = (side / 2) (sx, sy), sx = (-1, 1, 1, -1) and sy = (-1, -1, 1, 1),
    # every sum over corners is a moment of du, dv shared by both rotations.
    s0, s1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    s2, s3 = x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    spread = s0 + s1 + s2 + s3
    if not spread > 1e-12 * (spread + 4.0 * (mx * mx + my * my)):
        # the normal equations' condition number is past 1e12
        raise PnPDegenerate("tag corners do not determine a translation")
    ux, uy = x1 + x2 - x0 - x3, x2 + x3 - x0 - x1
    vx, vy = y1 + y2 - y0 - y3, y2 + y3 - y0 - y1
    wx = mx * ux + my * vx + (s1 + s2 - s0 - s3)
    wy = mx * uy + my * vy + (s2 + s3 - s0 - s1)
    z_scale, xy_scale = 0.5 * side / spread, 0.125 * side
    poses = []
    for r in (R, Rm):
        r00, r01, _, r10, r11, _, r20, r21, _ = r
        tz = z_scale * (r00 * ux + r01 * uy + r10 * vx + r11 * vy - r20 * wx - r21 * wy)
        tx = xy_scale * (r20 * ux + r21 * uy) + mx * tz
        poses.append((r, (tx, xy_scale * (r20 * vx + r21 * vy) + my * tz, tz)))
    return poses


def _rotation(w0, w1, w2, R) -> tuple:
    """exp([w]x) R for the rotation vector w (Rodrigues' formula), row-major.

    w must be finite: the sines never see a non-finite angle.
    """
    theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    a, b = 1.0, 0.5  # sin(theta) / theta and (1 - cos(theta)) / theta^2 at 0
    if theta > 0.0:
        a = math.sin(theta) / theta
        s = math.sin(0.5 * theta) / (0.5 * theta)
        b = 0.5 * s * s
    bxy, bxz, byz = b * w0 * w1, b * w0 * w2, b * w1 * w2
    e00, e01, e02 = 1.0 - b * (w1 * w1 + w2 * w2), bxy - a * w2, bxz + a * w1
    e10, e11, e12 = bxy + a * w2, 1.0 - b * (w0 * w0 + w2 * w2), byz - a * w0
    e20, e21, e22 = bxz - a * w1, byz + a * w0, 1.0 - b * (w0 * w0 + w1 * w1)
    return _mat_mul((e00, e01, e02, e10, e11, e12, e20, e21, e22), R)


def _normal_equations(K: Intrinsics, corners, px, R, t):
    """Cost, model Hessian H and gradient J^T r of the pixel residuals at the
    pose (R, t), in one pass.

    corners holds the marker-plane (x, y) of each corner (z = 0), px the
    observed pixels, R the rotation row-major and t the translation. The
    residual of a corner is its projection minus its pixel, u then v. J is
    taken in a left rotation increment w, then the translation:
    exp([w]x) R moves the corner P = Q + t (Q = R X) by w x Q, so a
    residual's w part is Q x (its gradient in P). H is J^T J plus the
    rotation step's own curvature: to second order the step moves Q by
    w x Q + w x (w x Q) / 2, which adds sym([c]x [Q]x) to the (w0, w1)
    block, c being the residuals' gradient in P (Absil, Mahony &
    Sepulchre, "Optimization Algorithms on Matrix Manifolds", 2008, ch. 5).
    That turns the damped step into a Newton-type step along the weakly
    observed tilts, but H need not be positive semi-definite. Returns
    (cost, H, g) with H's 21 upper-triangle entries row by row (h34 is
    always 0: no residual moves with both t_x and t_y), or None when a
    corner is not in front of the camera or the cost is not finite.
    """
    fx, fy, cx, cy = K.fx, K.fy, K.cx, K.cy
    r00, r01, _, r10, r11, _, r20, r21, _ = R
    tx, ty, tz = t
    cost = h00 = h01 = h02 = h03 = h04 = h05 = h11 = h12 = h13 = h14 = h15 = 0.0
    h22 = h23 = h24 = h25 = h33 = h35 = h44 = h45 = h55 = 0.0
    g0 = g1 = g2 = g3 = g4 = g5 = t00 = t01 = t11 = 0.0
    for (X, Y), (u, v) in zip(corners, px):
        qx = r00 * X + r01 * Y
        qy = r10 * X + r11 * Y
        qz = r20 * X + r21 * Y
        z = qz + tz
        if not 1e-9 < z < math.inf:
            return None
        x, y = (qx + tx) / z, (qy + ty) / z
        ru, rv = x * fx + (cx - u), y * fy + (cy - v)
        cost += ru * ru + rv * rv
        # du = a (-qy x, qz + qx x, -qy, 1, 0, -x)
        # dv = b (-qy y - qz, qx y, qx, 0, 1, -y)
        a, b = fx / z, fy / z
        d0, d1, d2, d5 = -a * qy * x, a * (qz + qx * x), -a * qy, -a * x
        e0, e1, e2, e5 = -b * (qy * y + qz), b * qx * y, b * qx, -b * y
        h00 += d0 * d0 + e0 * e0
        h01 += d0 * d1 + e0 * e1
        h02 += d0 * d2 + e0 * e2
        h03 += d0 * a
        h04 += e0 * b
        h05 += d0 * d5 + e0 * e5
        h11 += d1 * d1 + e1 * e1
        h12 += d1 * d2 + e1 * e2
        h13 += d1 * a
        h14 += e1 * b
        h15 += d1 * d5 + e1 * e5
        h22 += d2 * d2 + e2 * e2
        h23 += d2 * a
        h24 += e2 * b
        h25 += d2 * d5 + e2 * e5
        h33 += a * a
        h35 += a * d5
        h44 += b * b
        h45 += b * e5
        h55 += d5 * d5 + e5 * e5
        g0 += d0 * ru + e0 * rv
        g1 += d1 * ru + e1 * rv
        g2 += d2 * ru + e2 * rv
        g5 += d5 * ru + e5 * rv
        # c = (A, B, -(A x + B y)) is the residuals' gradient in P, and
        # t00, t01 / 2, t11 the (w0, w1) block of sym([c]x [Q]x)
        A, B = a * ru, b * rv
        g3 += A
        g4 += B
        Gz = (A * x + B * y) * qz
        t00 += Gz - B * qy
        t01 += A * qy + B * qx
        t11 += Gz - A * qx
    if not cost < math.inf:
        return None
    H = (h00 + t00, h01 + 0.5 * t01, h02, h03, h04, h05, h11 + t11, h12, h13, h14, h15,
         h22, h23, h24, h25, h33, 0.0, h35, h44, h45, h55)
    return cost, H, (g0, g1, g2, g3, g4, g5)


def _damped_step(H, g, lam):
    """Solve (H + lam I) step = -g by block elimination; returns (step, |step|^2).

    H is _normal_equations' model. The translation block (h34 = 0) takes a
    symmetric cofactor inverse and the rotation part comes from its 3x3
    Schur complement. The step is a descent step only for a positive
    definite system, so this returns None, a failed solve, unless both
    blocks are: the translation block, J^T J's own plus lam, by a positive
    determinant, the Schur complement by its leading minors. It also
    returns None when a determinant or the step is not finite.
    """
    (h00, h01, h02, h03, h04, h05, h11, h12, h13, h14, h15,
     h22, h23, h24, h25, h33, _, h35, h44, h45, h55) = H
    g0, g1, g2, g3, g4, g5 = g
    c33, c44, c55 = h33 + lam, h44 + lam, h55 + lam
    i33, i34, i35 = c44 * c55 - h45 * h45, h35 * h45, -c44 * h35
    i44, i45, i55 = c33 * c55 - h35 * h35, -c33 * h45, c33 * c44
    det = c33 * i33 + h35 * i35
    if not 0.0 < det < math.inf:
        return None
    # M = B C^-1, row i of B being (h_i3, h_i4, h_i5)
    m03 = (h03 * i33 + h04 * i34 + h05 * i35) / det
    m04 = (h03 * i34 + h04 * i44 + h05 * i45) / det
    m05 = (h03 * i35 + h04 * i45 + h05 * i55) / det
    m13 = (h13 * i33 + h14 * i34 + h15 * i35) / det
    m14 = (h13 * i34 + h14 * i44 + h15 * i45) / det
    m15 = (h13 * i35 + h14 * i45 + h15 * i55) / det
    m23 = (h23 * i33 + h24 * i34 + h25 * i35) / det
    m24 = (h23 * i34 + h24 * i44 + h25 * i45) / det
    m25 = (h23 * i35 + h24 * i45 + h25 * i55) / det
    # Schur complement S = A + lam I - M B^T and its right-hand side
    s00 = h00 + lam - (m03 * h03 + m04 * h04 + m05 * h05)
    s01 = h01 - (m03 * h13 + m04 * h14 + m05 * h15)
    s02 = h02 - (m03 * h23 + m04 * h24 + m05 * h25)
    s11 = h11 + lam - (m13 * h13 + m14 * h14 + m15 * h15)
    s12 = h12 - (m13 * h23 + m14 * h24 + m15 * h25)
    s22 = h22 + lam - (m23 * h23 + m24 * h24 + m25 * h25)
    b0 = m03 * g3 + m04 * g4 + m05 * g5 - g0
    b1 = m13 * g3 + m14 * g4 + m15 * g5 - g1
    b2 = m23 * g3 + m24 * g4 + m25 * g5 - g2
    k00, k01, k02 = s11 * s22 - s12 * s12, s02 * s12 - s01 * s22, s01 * s12 - s02 * s11
    k11, k12, k22 = s00 * s22 - s02 * s02, s01 * s02 - s00 * s12, s00 * s11 - s01 * s01
    det_s = s00 * k00 + s01 * k01 + s02 * k02
    # Sylvester's criterion: every leading minor of S positive
    if not (s00 > 0.0 and k22 > 0.0 and 0.0 < det_s < math.inf):
        return None
    w0 = (k00 * b0 + k01 * b1 + k02 * b2) / det_s
    w1 = (k01 * b0 + k11 * b1 + k12 * b2) / det_s
    w2 = (k02 * b0 + k12 * b1 + k22 * b2) / det_s
    # back-substitute: C tau = -g_t - B^T w
    c3 = -g3 - (h03 * w0 + h13 * w1 + h23 * w2)
    c4 = -g4 - (h04 * w0 + h14 * w1 + h24 * w2)
    c5 = -g5 - (h05 * w0 + h15 * w1 + h25 * w2)
    t0 = (i33 * c3 + i34 * c4 + i35 * c5) / det
    t1 = (i34 * c3 + i44 * c4 + i45 * c5) / det
    t2 = (i35 * c3 + i45 * c4 + i55 * c5) / det
    norm2 = w0 * w0 + w1 * w1 + w2 * w2 + t0 * t0 + t1 * t1 + t2 * t2
    if not norm2 < math.inf:
        return None
    return (w0, w1, w2, t0, t1, t2), norm2


def _floor(c) -> float:
    """The model floor of c, cost - g^T H^-1 g; -inf for an H that is not
    positive definite, whose model has no floor."""
    solved = _damped_step(c[3], c[4], 0.0)
    if solved is None:
        return -math.inf
    g0, g1, g2, g3, g4, g5 = c[4]
    (w0, w1, w2, s0, s1, s2), _ = solved
    # summed left to right by hand: from Python 3.12 on, sum() of floats
    # compensates its rounding, and the bits would depend on the version
    return c[2] + (g0 * w0 + g1 * w1 + g2 * w2 + g3 * s0 + g4 * s1 + g5 * s2)


def _descend(K: Intrinsics, corners, px, c) -> bool:
    """One damped iteration of c = [R, t, cost, H, g, lam, done] on the model
    of _normal_equations, J^T J plus the rotation step's curvature.

    Returns True once c has converged: no retry, each ten times stiffer,
    lowers the cost, a step gains under _REFINE_FTOL of it, or the predicted
    decrease lam |step|^2 - g^T step is that small, which skips the trial
    pass (Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least Squares
    Problems", 2004). A damped system that is not positive definite is a
    failed solve and retries stiffer. A taken step updates c in place; R and
    t are as for _normal_equations. On Python floats: numpy's per-call cost
    outweighs 6x6 work.
    """
    R, t, cost, H, g, lam = c[:6]
    g0, g1, g2, g3, g4, g5 = g
    tol = _REFINE_FTOL * (cost + 1e-20)
    for _ in range(_REFINE_MAX_RETRIES):
        solved = _damped_step(H, g, lam)
        if solved is not None:
            (w0, w1, w2, s0, s1, s2), norm2 = solved
            if lam * norm2 - (g0 * w0 + g1 * w1 + g2 * w2 + g3 * s0 + g4 * s1 + g5 * s2) < tol:
                return True
            R_new, t_new = _rotation(w0, w1, w2, R), (t[0] + s0, t[1] + s1, t[2] + s2)
            terms = _normal_equations(K, corners, px, R_new, t_new)
            if terms is not None and terms[0] < cost:
                break
        lam *= 10.0
    else:
        return True  # no damped step lowers the cost: at the (local) minimum
    c[:6] = R_new, t_new, *terms, max(lam * 0.3, 1e-12)
    # noisy fronto-parallel views crawl along a near-flat tilt valley
    return cost - terms[0] < tol


def _away(c) -> bool:
    """True when candidate c's tag faces away: marker +z along the viewing ray."""
    R, t = c[0], c[1]
    # one entry of R^T t, by hand: _mat_t_vec would take all three
    return R[2] * t[0] + R[5] * t[1] + R[8] * t[2] >= 0


def solve_pnp_planar(K: Intrinsics, geom: TagGeometry, obs: TagObservation) -> TagPose:
    """Recover the tag pose in the camera frame from its four corner pixels.

    IPPE reads both poses of the planar ambiguity (the tag normal mirrored
    about the viewing ray) off the closed-form homography between the marker
    plane and normalized image coordinates. Damped steps on J^T J plus the
    rotation step's curvature, each solved only where that system is
    positive definite, polish both in lockstep, one _descend each per
    round, until the two merge or one is dropped; the last one left polishes
    on alone. The converged pose with the tag face toward the camera and the
    lower RMS wins. Raises PnPDegenerate for corners that no pose of the tag
    explains (see _ippe_seed).
    """
    px = obs.px
    corners = geom.corners_xy
    cands = [[R, t, *terms, 1e-3, False] for R, t in _ippe_seed(K, geom.side_length, px)
             if (terms := _normal_equations(K, corners, px, R, t)) is not None]
    rounds = 0
    while len(cands) == 2 and rounds < _REFINE_MAX_ITERS:
        a, b = cands
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = a[0]
        b00, b01, b02, b10, b11, b12, b20, b21, b22 = b[0]
        # twins are one minimum: the lower-cost one, on a tie the first, goes on
        if (abs(a00 - b00) <= _MERGE_TOL and abs(a01 - b01) <= _MERGE_TOL
                and abs(a02 - b02) <= _MERGE_TOL and abs(a10 - b10) <= _MERGE_TOL
                and abs(a11 - b11) <= _MERGE_TOL and abs(a12 - b12) <= _MERGE_TOL
                and abs(a20 - b20) <= _MERGE_TOL and abs(a21 - b21) <= _MERGE_TOL
                and abs(a22 - b22) <= _MERGE_TOL):
            cands = [b] if b[2] < a[2] else [a]
            break
        # descents never raise other's cost, so a costlier c cannot win once
        # its floor is above it, unless other faces away and c does not. The
        # floor is the local model's, so the rule assumes seeds near a minimum,
        # as IPPE's are; tests/test_camera.py's TestLockstepPolish pins that
        # scope: test_same_choice_as_the_reference_on_oblique_views (2,000
        # noisy views) and test_same_choice_as_the_reference_on_the_runs
        if (not a[6] and a[2] > b[2] and _floor(a) > b[2]
                and (_away(a) or not _away(b))):
            cands = [b]
            break
        if (not b[6] and b[2] > a[2] and _floor(b) > a[2]
                and (_away(b) or not _away(a))):
            cands = [a]
            break
        if a[6] and b[6]:
            break
        a[6] = a[6] or _descend(K, corners, px, a)
        b[6] = b[6] or _descend(K, corners, px, b)
        rounds += 1
    if len(cands) == 1:
        c = cands[0]
        while not c[6] and rounds < _REFINE_MAX_ITERS:
            c[6] = _descend(K, corners, px, c)
            rounds += 1
    # a finite cost puts every corner, and so the tag centre, in front
    found = [c for c in cands if c[6]]
    if not found:
        raise PnPNoConvergence("pose refinement did not produce a valid pose")
    R, t, cost = min(found, key=lambda c: (_away(c), c[2]))[:3]
    return TagPose(R, t, math.sqrt(cost / len(px)))
