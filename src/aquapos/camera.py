"""Pinhole camera model, tag observations, and planar-tag pose recovery.

Camera frame: x right, y down, z forward (out of the lens). Pixels are
(u, v) with u along image x and v along image y; sub-pixel values allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, PnPDegenerate, PnPNoConvergence
from .geometry import RigidTransform

MIN_QUAD_AREA_PX2 = 1.0
# a corner this many focal lengths off-axis sits within 1e-6 rad of the image
# plane, beyond any pinhole lens; the bound keeps the solve's arithmetic finite
_MAX_RAY_SLOPE = 1e6

_REFINE_MAX_ITERS = 100
_REFINE_MAX_RETRIES = 12
_REFINE_STEP_TOL = 1e-10
_REFINE_FTOL = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels plus the image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @classmethod
    def from_dict(cls, d: dict) -> "Intrinsics":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
        )


# bench-calibrated defaults used when no intrinsics file is configured
DEFAULT_INTRINSICS = Intrinsics(
    fx=514.177765,
    fy=513.054629,
    cx=346.861136,
    cy=220.015799,
    width=800,
    height=600,
)


def back_project(K: Intrinsics, px) -> np.ndarray:
    """Ray through a pixel, scaled to unit camera depth: ((u-cx)/fx, (v-cy)/fy, 1).

    Raises BehindCamera for a pixel more than _MAX_RAY_SLOPE focal lengths
    off-axis: its ray lies in the camera plane to within 1e-6 rad.
    """
    x = (float(px[0]) - K.cx) / K.fx
    y = (float(px[1]) - K.cy) / K.fy
    if not (abs(x) <= _MAX_RAY_SLOPE and abs(y) <= _MAX_RAY_SLOPE):
        raise BehindCamera("pixel lies too far off the optical axis for a ray")
    return np.array([x, y, 1.0])


def project_point(K: Intrinsics, p_cam) -> np.ndarray:
    """Pixel (u, v) for a camera-frame point; raises BehindCamera for z <= 1e-6."""
    p = np.asarray(p_cam, dtype=float)
    if p[2] <= 1e-6:
        raise BehindCamera(f"point depth {p[2]:.3g} m is not in front of the camera")
    return np.array([K.fx * p[0] / p[2] + K.cx, K.fy * p[1] / p[2] + K.cy])


@dataclass(frozen=True)
class TagObservation:
    """Four ordered corner pixels of a detected square tag."""

    timestamp: float
    corners: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError(f"expected 4 corner pixels, got shape {c.shape}")
        if not all(map(math.isfinite, c.ravel().tolist())):
            raise ValueError("corner pixels must be finite")
        object.__setattr__(self, "corners", c)


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


@dataclass(frozen=True)
class TagGeometry:
    """Square tag of known side length; corner order is fixed.

    Marker-frame corners sit at (-s/2,-s/2), (s/2,-s/2), (s/2,s/2), (-s/2,s/2)
    in the z = 0 plane, and observations list pixels in the same order.
    """

    side_length: float = 0.2  # the bench tag, metres

    def __post_init__(self):
        if not 0 < self.side_length < math.inf:
            raise ValueError("tag side length must be positive and finite")

    def corners(self) -> np.ndarray:
        h = self.side_length / 2.0
        return np.array(
            [[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]]
        )


@dataclass(frozen=True)
class TagPose:
    """Recovered tag pose in the camera frame plus its reprojection RMS."""

    transform: RigidTransform
    reproj_rms: float

    def __post_init__(self):
        if self.reproj_rms < 0:
            raise ValueError("reprojection RMS cannot be negative")
        if self.transform.translation[2] <= 0:
            raise ValueError("tag must sit in front of the camera")


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
    # diag(1, 1, -1), which flips B in columns 0 and 1 and t in column 2.
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
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    return (
        e00 * r00 + e01 * r10 + e02 * r20,
        e00 * r01 + e01 * r11 + e02 * r21,
        e00 * r02 + e01 * r12 + e02 * r22,
        e10 * r00 + e11 * r10 + e12 * r20,
        e10 * r01 + e11 * r11 + e12 * r21,
        e10 * r02 + e11 * r12 + e12 * r22,
        e20 * r00 + e21 * r10 + e22 * r20,
        e20 * r01 + e21 * r11 + e22 * r21,
        e20 * r02 + e21 * r12 + e22 * r22,
    )


def _normal_equations(K: Intrinsics, corners, px, R, t):
    """Cost, J^T J and J^T r of the pixel residuals at the pose (R, t), in one pass.

    corners holds the marker-plane (x, y) of each corner (z = 0), px the
    observed pixels, R the rotation row-major and t the translation. The
    residual of a corner is its projection minus its pixel, u then v. J is
    taken in a left rotation increment w, then the translation:
    exp([w]x) R moves the corner P = Q + t (Q = R X) by w x Q, so a
    residual's w part is Q x (its gradient in P). Returns (cost, H, g) with
    H the 21 upper-triangle entries of J^T J row by row (h34 is always 0: no
    residual moves with both t_x and t_y), or None when a corner is not
    in front of the camera or the cost is not finite.
    """
    fx, fy, cx, cy = K.fx, K.fy, K.cx, K.cy
    r00, r01, _, r10, r11, _, r20, r21, _ = R
    tx, ty, tz = t
    cost = h00 = h01 = h02 = h03 = h04 = h05 = h11 = h12 = h13 = h14 = h15 = 0.0
    h22 = h23 = h24 = h25 = h33 = h35 = h44 = h45 = h55 = 0.0
    g0 = g1 = g2 = g3 = g4 = g5 = 0.0
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
        g3 += a * ru
        g4 += b * rv
        g5 += d5 * ru + e5 * rv
    if not cost < math.inf:
        return None
    H = (h00, h01, h02, h03, h04, h05, h11, h12, h13, h14, h15,
         h22, h23, h24, h25, h33, 0.0, h35, h44, h45, h55)
    return cost, H, (g0, g1, g2, g3, g4, g5)


def _damped_step(H, g, lam):
    """Solve (J^T J + lam I) step = -g by block elimination; returns (step, |step|^2).

    The translation block (h34 = 0) takes a symmetric cofactor inverse and
    the rotation part comes from its 3x3 Schur complement. Returns None,
    a failed solve, when a block determinant is zero or not finite or the
    step is not finite.
    """
    (h00, h01, h02, h03, h04, h05, h11, h12, h13, h14, h15,
     h22, h23, h24, h25, h33, _, h35, h44, h45, h55) = H
    g0, g1, g2, g3, g4, g5 = g
    c33, c44, c55 = h33 + lam, h44 + lam, h55 + lam
    i33, i34, i35 = c44 * c55 - h45 * h45, h35 * h45, -c44 * h35
    i44, i45, i55 = c33 * c55 - h35 * h35, -c33 * h45, c33 * c44
    det = c33 * i33 + h35 * i35
    if not 0.0 < abs(det) < math.inf:
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
    if not 0.0 < abs(det_s) < math.inf:
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


def _polish(K: Intrinsics, corners, px, R, t):
    """Damped Gauss-Newton on pixel reprojection error; returns (R, t, rms, converged).

    Each iteration builds the normal equations once and retries the damped
    solve, ten times stiffer each time, until a step lowers the cost; taking
    the step relaxes the damping. Only taken steps count against
    _REFINE_MAX_ITERS, and an iteration where no retry descends converges.
    The arithmetic runs on Python floats: on 8 residuals and 6 unknowns
    numpy's per-call cost outweighs the work. corners, px, R and t are as
    for _normal_equations, and R and t come back in the same form.
    """
    terms = _normal_equations(K, corners, px, R, t)
    if terms is None:
        return R, t, math.inf, False
    cost, H, g = terms
    lam = 1e-3
    converged = False
    for _ in range(_REFINE_MAX_ITERS):
        for _ in range(_REFINE_MAX_RETRIES):
            solved = _damped_step(H, g, lam)
            if solved is not None:
                (w0, w1, w2, s0, s1, s2), norm2 = solved
                R_new = _rotation(w0, w1, w2, R)
                t_new = (t[0] + s0, t[1] + s1, t[2] + s2)
                terms = _normal_equations(K, corners, px, R_new, t_new)
                if terms is not None and terms[0] < cost:
                    break
            lam *= 10.0
        else:
            # no damped step lowers the cost: at the (local) minimum
            converged = True
            break
        cost_new, H, g = terms
        # noisy fronto-parallel views crawl along a near-flat tilt valley, so
        # a marginal relative gain ends the polish; exact views converge
        # quadratically to the step tolerance instead
        small = norm2 < _REFINE_STEP_TOL**2
        converged = small or cost - cost_new < _REFINE_FTOL * (cost + 1e-20)
        R, t, cost = R_new, t_new, cost_new
        lam = max(lam * 0.3, 1e-12)
        if converged:
            break
    return R, t, math.sqrt(cost / len(px)), converged


def solve_pnp_planar(K: Intrinsics, geom: TagGeometry, obs: TagObservation) -> TagPose:
    """Recover the tag pose in the camera frame from its four corner pixels.

    IPPE reads both poses of the planar ambiguity (the tag normal mirrored
    about the viewing ray) off the closed-form homography between the marker
    plane and normalized image coordinates. Damped Gauss-Newton polishes each
    against pixel reprojection error, and the pose with the tag face toward
    the camera and the lower RMS wins. Raises PnPDegenerate for corners
    that no pose of the tag explains (see _ippe_seed).
    """
    px = obs.corners.tolist()
    h = 0.5 * geom.side_length
    corners = ((-h, -h), (h, -h), (h, h), (-h, h))
    candidates = []
    for R0, t0 in _ippe_seed(K, geom.side_length, px):
        R, t, rms, ok = _polish(K, corners, px, R0, t0)
        if ok and t[2] > 0:
            # tag face toward the camera: marker +z anti-parallel to the viewing ray
            away = R[2] * t[0] + R[5] * t[1] + R[8] * t[2] >= 0
            candidates.append((away, rms, R, t))
    if not candidates:
        raise PnPNoConvergence("pose refinement did not produce a valid pose")
    _, rms, R, t = min(candidates, key=lambda c: c[:2])
    # the seed and the Rodrigues updates keep R orthonormal to rounding
    return TagPose(RigidTransform._unchecked(np.reshape(R, (3, 3)), np.array(t)), rms)
