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
    """Ray through a pixel, scaled to unit camera depth: ((u-cx)/fx, (v-cy)/fy, 1)."""
    u, v = float(px[0]), float(px[1])
    return np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])


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
    return obs.corners.mean(axis=0)


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
    rows = []
    for (x, y), (u, v) in zip(s, d):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    A = np.array(rows)
    _, sv, Vt = np.linalg.svd(A)
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
    return np.linalg.solve(normal, rhs).T


def _rotation(w) -> np.ndarray:
    """Rotation matrix of the rotation vector w (Rodrigues' formula)."""
    x, y, z = w.tolist()
    theta = math.sqrt(x * x + y * y + z * z)
    a, b = 1.0, 0.5  # sin(theta) / theta and (1 - cos(theta)) / theta^2 at 0
    if theta > 0.0:
        a = math.sin(theta) / theta
        b = 0.5 * (math.sin(0.5 * theta) / (0.5 * theta)) ** 2
    return np.array(
        [
            [1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
            [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
            [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def _residuals(K: Intrinsics, P, px_obs) -> np.ndarray:
    """Pixel residuals (u, v) of the camera-frame corners P, corner by corner."""
    return (P[:, :2] / P[:, 2:] * (K.fx, K.fy) + ((K.cx, K.cy) - px_obs)).ravel()


def _jacobian(K: Intrinsics, P, Q) -> np.ndarray:
    """Jacobian of _residuals in a left rotation increment w, then the translation.

    exp([w]x) R moves each corner P = Q + t (Q = R X) by w x Q, so a
    residual's w part is Q x (its gradient in P).
    """
    iz = 1.0 / P[:, 2]
    x, y = P[:, 0] * iz, P[:, 1] * iz
    qx, qy, qz = Q.T
    J = np.zeros((len(P), 2, 6))
    du, dv = J[:, 0], J[:, 1]
    du[:, 0] = -qy * x
    du[:, 1] = qz + qx * x
    du[:, 2] = -qy
    du[:, 3] = 1.0
    du[:, 5] = -x
    dv[:, 0] = -qy * y - qz
    dv[:, 1] = qx * y
    dv[:, 2] = qx
    dv[:, 4] = 1.0
    dv[:, 5] = -y
    J *= np.multiply.outer(iz, (K.fx, K.fy))[:, :, None]
    return J.reshape(-1, 6)


def _polish(K: Intrinsics, obj, px_obs, R, t):
    """Damped Gauss-Newton on pixel reprojection error; returns (R, t, rms, converged).

    Each iteration builds the Jacobian once and retries the damped solve,
    ten times stiffer each time, until a step lowers the cost; taking the
    step relaxes the damping. Only taken steps count against
    _REFINE_MAX_ITERS, and an iteration where no retry descends converges.
    """
    Q = obj @ R.T
    P = Q + t
    if P[:, 2].min() <= 1e-9:
        return R, t, math.inf, False
    r = _residuals(K, P, px_obs)
    cost = r @ r
    lam = 1e-3
    converged = False
    for _ in range(_REFINE_MAX_ITERS):
        J = _jacobian(K, P, Q)
        JtJ, g = J.T @ J, J.T @ r
        for _ in range(_REFINE_MAX_RETRIES):
            try:
                step = np.linalg.solve(JtJ + lam * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            R_new, t_new = _rotation(step[:3]) @ R, t + step[3:]
            Q_new = obj @ R_new.T
            P_new = Q_new + t_new
            if P_new[:, 2].min() > 1e-9:
                r_new = _residuals(K, P_new, px_obs)
                cost_new = r_new @ r_new
                if cost_new < cost:
                    break
            lam *= 10.0
        else:
            # no damped step lowers the cost: at the (local) minimum
            converged = True
            break
        # noisy fronto-parallel views crawl along a near-flat tilt valley, so
        # a marginal relative gain ends the polish; exact views converge
        # quadratically to the step tolerance instead
        small = step @ step < _REFINE_STEP_TOL**2
        converged = small or cost - cost_new < _REFINE_FTOL * (cost + 1e-20)
        R, t, Q, P, r, cost = R_new, t_new, Q_new, P_new, r_new, cost_new
        lam = max(lam * 0.3, 1e-12)
        if converged:
            break
    return R, t, math.sqrt(cost / len(obj)), converged


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


def reprojection_rms(
    K: Intrinsics, geom: TagGeometry, pose: RigidTransform, obs: TagObservation
) -> float:
    """Root-mean-square corner reprojection error of a pose, in pixels."""
    obj = geom.corners()
    r = _residuals(K, obj @ pose.rotation.T + pose.translation, obs.corners)
    return float(np.sqrt(r @ r / len(obj)))
