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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
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

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }


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
    detected: bool = True

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError(f"expected 4 corner pixels, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("corner pixels must be finite")
        object.__setattr__(self, "corners", c)


def tag_center_pixel(obs: TagObservation) -> np.ndarray:
    """Arithmetic mean of the four corner pixels."""
    # quartering first is exact and keeps the sum of huge pixels finite
    return (obs.corners * 0.25).sum(axis=0)


@dataclass(frozen=True)
class TagGeometry:
    """Square tag of known side length; corner order is fixed.

    Marker-frame corners sit at (-s/2,-s/2), (s/2,-s/2), (s/2,s/2), (-s/2,s/2)
    in the z = 0 plane, and observations list pixels in the same order.
    """

    side_length: float

    def __post_init__(self):
        if not self.side_length > 0:
            raise ValueError("tag side length must be positive")

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
    """Shoelace area of a pixel quad."""
    c = np.asarray(corners, dtype=float)
    x, y = c[:, 0], c[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _normalize_2d(pts):
    """Similarity transform sending the centroid to 0 and mean radius to sqrt(2)."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = np.mean(np.linalg.norm(centered, axis=1))
    scale = np.sqrt(2.0) / max(mean_dist, 1e-12)
    T = np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return centered * scale, T


def _homography(src, dst):
    """DLT homography mapping src (x, y) to dst (x, y), both normalized internally."""
    s, Ts = _normalize_2d(src)
    d, Td = _normalize_2d(dst)
    # rows (-x, -y, -1, 0, 0, 0, u x, u y, u) and (0, 0, 0, -x, -y, -1, v x, v y, v)
    xy1 = np.ones((len(s), 3))
    xy1[:, :2] = s
    A = np.zeros((len(s), 2, 9))
    A[:, 0, :3] = A[:, 1, 3:6] = -xy1
    A[:, :, 6:] = d[:, :, None] * xy1[:, None, :]
    _, sv, Vt = np.linalg.svd(A.reshape(-1, 9))
    if sv[-2] < 1e-12:
        raise PnPDegenerate("correspondences do not determine a homography")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ Hn @ Ts
    return H / H[2, 2]


def _ippe_rotations(H) -> np.ndarray:
    """Both tag rotations of the planar ambiguity in closed form, shape (2, 3, 3).

    IPPE (Collins & Bartoli, "Infinitesimal Plane-Based Pose Estimation",
    IJCV 2014): the Jacobian of the plane-to-image homography at the tag
    centre fixes the rotation up to a mirror of the tag normal about the
    viewing ray. H maps marker (x, y) to normalized image coordinates with
    H[2, 2] = 1, so the centre lands at (p, q) = H[:2, 2].
    """
    (h00, h01, p), (h10, h11, q), (h20, h21, _) = H.tolist()
    j00, j01 = h00 - h20 * p, h01 - h21 * p
    j10, j11 = h10 - h20 * q, h11 - h21 * q
    # Rv turns the optical axis onto the viewing ray (p, q, 1) / n
    n = math.sqrt(p * p + q * q + 1.0)
    ax, ay = p / n, q / n
    d = n / (n + 1.0)
    axy = ax * ay * d
    Rv = np.array(
        [
            [1.0 - ax * ax * d, -axy, ax],
            [-axy, 1.0 - ay * ay * d, ay],
            [-ax, -ay, 1.0 / n],
        ]
    )
    # the projection's Jacobian at the ray, on the plane normal to it, is
    # B = I + n^2 / (n + 1) a a^T with a = (ax, ay); A = B^-1 J = J - d a a^T J
    # is the top-left 2x2 block of Rv^T R over the centre's depth
    m0 = d * (ax * j00 + ay * j10)
    m1 = d * (ax * j01 + ay * j11)
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
    Rp = np.array(
        [
            [r00, r01, r10 * b1 - b0 * r11],
            [r10, r11, b0 * r01 - r00 * b1],
            [b0, b1, r00 * r11 - r10 * r01],
        ]
    )
    # negating b0 and b1 mirrors the tag normal: diag(1, 1, -1) Rp diag(1, 1, -1)
    mirror = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    return Rv @ np.array([Rp, Rp * mirror])


def _translations(Rs, obj, uv) -> np.ndarray:
    """Least-squares translation for each rotation in Rs from normalized pixels uv.

    A corner at (u, v) gives two equations linear in t, with q = R X:
    t_x - u t_z = u q_z - q_x and t_y - v t_z = v q_z - q_y.
    """
    u, v = uv[:, 0], uv[:, 1]
    Q = obj @ Rs.transpose(0, 2, 1)
    bu, bv = u * Q[..., 2] - Q[..., 0], v * Q[..., 2] - Q[..., 1]
    su, sv = u.sum(), v.sum()
    normal = np.array(
        [[len(u), 0.0, -su], [0.0, len(u), -sv], [-su, -sv, u @ u + v @ v]]
    )
    rhs = np.stack([bu.sum(axis=1), bv.sum(axis=1), -(bu @ u + bv @ v)])
    try:
        return np.linalg.solve(normal, rhs).T
    except np.linalg.LinAlgError:
        # corners whose spread vanishes next to their distance off-axis
        raise PnPDegenerate("tag corners do not determine a translation") from None


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


def _polish(K: Intrinsics, obj, px_obs, R, t):
    """Damped Gauss-Newton on pixel reprojection error; returns (R, t, rms, converged).

    Each iteration builds the normal equations once and retries the damped
    solve, ten times stiffer each time, until a step lowers the cost; taking
    the step relaxes the damping. Only taken steps count against
    _REFINE_MAX_ITERS, and an iteration where no retry descends converges.
    The arithmetic runs on Python floats: on 8 residuals and 6 unknowns
    numpy's per-call cost outweighs the work.
    """
    corners, px = obj[:, :2].tolist(), px_obs.tolist()
    R, t = tuple(R.ravel().tolist()), tuple(t.tolist())
    terms = _normal_equations(K, corners, px, R, t)
    if terms is None:
        return np.reshape(R, (3, 3)), np.array(t), math.inf, False
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
    return np.reshape(R, (3, 3)), np.array(t), math.sqrt(cost / len(px)), converged


def solve_pnp_planar(K: Intrinsics, geom: TagGeometry, obs: TagObservation) -> TagPose:
    """Recover the tag pose in the camera frame from its four corner pixels.

    IPPE reads both poses of the planar ambiguity (the tag normal mirrored
    about the viewing ray) off the homography between the marker plane and
    normalized image coordinates. Damped Gauss-Newton polishes each against
    pixel reprojection error, and the pose with the tag face toward the
    camera and the lower RMS wins.
    """
    px = obs.corners
    if np.any(np.abs(px - (K.cx, K.cy)) > _MAX_RAY_SLOPE * np.array([K.fx, K.fy])):
        raise PnPDegenerate("tag corners lie too far off the optical axis")
    if quad_area(px) <= MIN_QUAD_AREA_PX2:
        raise PnPDegenerate("tag corners are collinear or the quad is too small")
    obj = geom.corners()
    norm_pts = np.column_stack([(px[:, 0] - K.cx) / K.fx, (px[:, 1] - K.cy) / K.fy])
    Rs = _ippe_rotations(_homography(obj[:, :2], norm_pts))
    candidates = []
    for R0, t0 in zip(Rs, _translations(Rs, obj, norm_pts)):
        R, t, rms, ok = _polish(K, obj, px, R0, t0)
        if ok and t[2] > 0:
            candidates.append((R, t, rms))
    if not candidates:
        raise PnPNoConvergence("pose refinement did not produce a valid pose")
    # tag face toward the camera: marker +z anti-parallel to the viewing ray
    facing = [c for c in candidates if np.dot(c[0][:, 2], c[1]) < 0]
    R, t, rms = min(facing or candidates, key=lambda c: c[2])
    return TagPose(RigidTransform(R, t), rms)

