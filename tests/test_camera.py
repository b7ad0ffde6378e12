import dataclasses
import math

import numpy as np
import pytest

from aquapos.camera import (
    Intrinsics,
    TagGeometry,
    TagObservation,
    _center,
    _damped_step,
    _ippe_seed,
    _normal_equations,
    back_project,
    project_point,
    quad_area,
    solve_pnp_planar,
)
from aquapos.errors import BehindCamera, PnPDegenerate
from aquapos.geometry import RigidTransform

BENCH_K = Intrinsics(
    fx=514.177765, fy=513.054629, cx=346.861136, cy=220.015799, width=800, height=600
)
UNIT_K = Intrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _facing_pose(rng=None, max_tilt=0.0, z_range=(1.5, 1.5), xy_scale=0.0):
    """Ground-truth tag pose with the tag face toward the camera."""
    base = _rx(np.pi)  # marker +z points back at the camera
    if rng is None:
        return base, np.array([0.0, 0.0, 1.5])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_tilt, max_tilt)
    w = axis * angle
    c, s = np.cos(angle), np.sin(angle)
    S = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0.0]])
    if abs(angle) > 1e-12:
        S = S / angle
        R_pert = np.eye(3) + s * S + (1 - c) * (S @ S)
    else:
        R_pert = np.eye(3)
    z = rng.uniform(*z_range)
    t = np.array([rng.uniform(-xy_scale, xy_scale) * z, rng.uniform(-xy_scale, xy_scale) * z, z])
    return R_pert @ base, t


def _kernel_terms(K, geom, R, t, obs):
    return _normal_equations(
        K, geom.corners()[:, :2].tolist(), obs.corners.tolist(),
        tuple(np.ravel(R).tolist()), tuple(np.ravel(t).tolist()),
    )


def _reprojection_rms(K, geom, pose, obs):
    """Corner reprojection RMS of a pose, in pixels, from the polish's own cost."""
    cost = _kernel_terms(K, geom, pose.rotation, pose.translation, obs)[0]
    return math.sqrt(cost / 4)


def _reference_residuals(K, P, px_obs):
    """numpy reference: pixel residuals (u, v) of camera-frame corners P."""
    return (P[:, :2] / P[:, 2:] * (K.fx, K.fy) + ((K.cx, K.cy) - px_obs)).ravel()


def _reference_jacobian(K, P, Q):
    """numpy reference: the residuals' Jacobian in a left rotation increment w,
    then the translation; a residual's w part is Q x (its gradient in P)."""
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


def _full(H):
    """The 6x6 symmetric matrix of 21 upper-triangle entries given row by row."""
    M = np.zeros((6, 6))
    M[np.triu_indices(6)] = H
    return M + np.triu(M, 1).T


def _skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _reference_seed(K, side, px):
    """numpy reference for _ippe_seed: the DLT homography by SVD, IPPE in matrix
    form (Collins & Bartoli 2014, section 4) and translations by np.linalg.solve.

    Returns both (R, t) of the planar ambiguity, the one whose b (see below)
    has its larger entry positive first.
    """
    obj = TagGeometry(side).corners()
    uv = (np.asarray(px, dtype=float) - (K.cx, K.cy)) / (K.fx, K.fy)

    def normalizer(pts):
        c = pts.mean(axis=0)
        s = np.sqrt(2.0) / np.mean(np.linalg.norm(pts - c, axis=1))
        return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])

    Ts, Td = normalizer(obj[:, :2]), normalizer(uv)
    src = np.column_stack([obj[:, :2], np.ones(4)]) @ Ts.T
    dst = np.column_stack([uv, np.ones(4)]) @ Td.T
    rows = []
    for (x, y, _), (u, v, _) in zip(src, dst):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
    H = np.linalg.inv(Td) @ np.linalg.svd(np.array(rows))[2][-1].reshape(3, 3) @ Ts
    H = H / H[2, 2]
    # the tag centre, the marker origin, lands at v; J is the Jacobian there
    v = H[:2, 2]
    J = H[:2, :2] - np.outer(v, H[2, :2])
    ray = np.append(v, 1.0) / np.linalg.norm(np.append(v, 1.0))
    k = _skew(np.cross([0.0, 0.0, 1.0], ray))
    Rv = np.eye(3) + k + k @ k / (1.0 + ray[2])
    B = np.hstack([np.eye(2), -v[:, None]]) @ Rv[:, :2]
    A = np.linalg.solve(B, J)
    R22 = A / np.linalg.svd(A, compute_uv=False)[0]
    lam, vec = np.linalg.eigh(np.eye(2) - R22.T @ R22)
    b = np.sqrt(max(lam[1], 0.0)) * vec[:, 1]
    b = b if b[np.argmax(np.abs(b))] >= 0 else -b
    poses = []
    for bb in (b, -b):
        c0, c1 = np.append(R22[:, 0], bb[0]), np.append(R22[:, 1], bb[1])
        R = Rv @ np.column_stack([c0, c1, np.cross(c0, c1)])
        # per corner: t_x - u t_z = u q_z - q_x and t_y - v t_z = v q_z - q_y
        Q = obj @ R.T
        M = np.zeros((8, 3))
        M[0::2, 0] = M[1::2, 1] = 1.0
        M[0::2, 2], M[1::2, 2] = -uv[:, 0], -uv[:, 1]
        rhs = np.empty(8)
        rhs[0::2] = uv[:, 0] * Q[:, 2] - Q[:, 0]
        rhs[1::2] = uv[:, 1] * Q[:, 2] - Q[:, 1]
        poses.append((R, np.linalg.solve(M.T @ M, M.T @ rhs)))
    return poses


def _project_tag(K, geom, R, t, noise=None, rng=None):
    corners = geom.corners() @ R.T + t
    px = np.array([project_point(K, c) for c in corners])
    if noise:
        px = px + rng.normal(0.0, noise, size=px.shape)
    return TagObservation(timestamp=0.0, corners=px)


class TestBackProject:
    def test_principal_point(self):
        p = back_project(BENCH_K, (346.861136, 220.015799))
        np.testing.assert_allclose(p, [0, 0, 1], atol=0)

    def test_one_metre_offset(self):
        p = back_project(BENCH_K, (861.038901, 220.015799))
        np.testing.assert_allclose(p, [1.0, 0.0, 1.0], atol=1e-9)

    def test_unit_intrinsics(self):
        K = Intrinsics(fx=1, fy=1, cx=0.25, cy=0.25, width=1, height=1)
        np.testing.assert_allclose(back_project(K, (3.25, 4.25)), [3, 4, 1], atol=1e-12)

    def test_z_exactly_one(self):
        assert back_project(BENCH_K, (12.3, 45.6))[2] == 1.0


class TestProjectPoint:
    def test_on_axis(self):
        np.testing.assert_allclose(
            project_point(UNIT_K, [0, 0, 2]), [0.5, 0.5], atol=0
        )

    def test_bench_optical_axis(self):
        np.testing.assert_allclose(
            project_point(BENCH_K, [0, 0, 1.5]), [346.861136, 220.015799], atol=1e-12
        )

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project_point(BENCH_K, [0, 0, -1])

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            z = rng.uniform(0.2, 3.0)
            p = np.array([rng.uniform(-0.6, 0.6) * z, rng.uniform(-0.4, 0.4) * z, z])
            px = project_point(BENCH_K, p)
            back = back_project(BENCH_K, px)
            np.testing.assert_allclose(back, p / p[2], atol=1e-9)


class TestTagCenterPixel:
    """cd's center pixel: the mean of the four corners (camera._center)."""

    def test_unit_square(self):
        obs = TagObservation(0.0, [[0, 0], [2, 0], [2, 2], [0, 2]])
        assert _center(obs.corners.tolist()) == (1.0, 1.0)

    def test_offset_square(self):
        obs = TagObservation(0.0, [[10, 10], [20, 10], [20, 20], [10, 20]])
        assert _center(obs.corners.tolist()) == (15.0, 15.0)

    def test_fronto_parallel_matches_center_projection(self):
        geom = TagGeometry(0.2)
        R, t = _facing_pose()
        obs = _project_tag(BENCH_K, geom, R, t)
        center_proj = project_point(BENCH_K, t)
        np.testing.assert_allclose(_center(obs.corners.tolist()), center_proj, atol=1e-9)


class TestObservationValidation:
    def test_wrong_corner_count(self):
        with pytest.raises(ValueError):
            TagObservation(0.0, [[0, 0], [1, 0], [1, 1]])

    def test_nonfinite_corner(self):
        with pytest.raises(ValueError):
            TagObservation(0.0, [[0, 0], [1, 0], [1, np.inf], [0, 1]])

    def test_quad_area(self):
        assert quad_area([[0, 0], [2, 0], [2, 2], [0, 2]]) == pytest.approx(4.0)


class TestSolvePnp:
    def test_fronto_parallel_on_axis(self):
        geom = TagGeometry(0.2)
        R_true, t_true = _facing_pose()
        obs = _project_tag(BENCH_K, geom, R_true, t_true)
        pose = solve_pnp_planar(BENCH_K, geom, obs)
        np.testing.assert_allclose(pose.transform.translation, t_true, atol=1e-6)
        np.testing.assert_allclose(pose.transform.rotation, R_true, atol=1e-6)
        assert pose.reproj_rms < 1e-6

    def test_translated_tag(self):
        geom = TagGeometry(0.2)
        R_true = _rx(np.pi)
        t_true = np.array([0.3, -0.2, 1.5])
        obs = _project_tag(BENCH_K, geom, R_true, t_true)
        pose = solve_pnp_planar(BENCH_K, geom, obs)
        np.testing.assert_allclose(pose.transform.translation, t_true, atol=1e-6)

    def test_axis_aligned_exact_views(self):
        # with a tag axis square to the viewing ray, one column of the seed
        # rotation's top-left block has unit length, so its third entry is a
        # root of rounding noise that must not break orthonormality
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(16)
        views = [
            (_rx(np.pi), (0.3, 0.0, 1.5)),
            (_rx(np.pi), (0.0, 0.3, 1.5)),
            (_rx(np.pi + 0.5), (0.0, 0.0, 1.5)),
        ]
        for _ in range(50):
            s, z = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0)
            views += [
                (_rx(np.pi), (s, 0.0, z)),
                (_rx(np.pi), (0.0, s, z)),
                (_rx(np.pi + s), (0.0, 0.0, z)),
                (_ry(s) @ _rx(np.pi), (0.0, 0.0, z)),
            ]
        for R_true, t_true in views:
            obs = _project_tag(BENCH_K, geom, R_true, np.array(t_true))
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            R = pose.transform.rotation
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            np.testing.assert_allclose(R, R_true, atol=1e-9)
            np.testing.assert_allclose(pose.transform.translation, t_true, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_corners_raise_without_warning(self):
        obs = TagObservation(0.0, [[1e300, 290], [410, 290], [410, 310], [390, 310]])
        with pytest.raises(PnPDegenerate):
            solve_pnp_planar(BENCH_K, TagGeometry(0.2), obs)

    def test_far_off_axis_speck_raises_degenerate(self):
        # 5e5 focal lengths off-axis, a 4 px quad leaves the translation's
        # normal equations numerically singular
        px = [[-255447087.150, 926.922], [-255447089.792, 928.441],
              [-255447091.777, 925.314], [-255447089.033, 923.049]]
        with pytest.raises(PnPDegenerate):
            solve_pnp_planar(BENCH_K, TagGeometry(0.2), TagObservation(0.0, px))

    @pytest.mark.parametrize(
        "px",
        [
            # dart: the third corner sits inside the triangle of the others
            [[300, 200], [400, 200], [330, 230], [300, 300]],
            # bow-tie: the edges from corner 1 to 2 and 3 to 0 cross
            [[300, 200], [400, 300], [400, 200], [300, 260]],
            # corners 0, 1 and 2 collinear
            [[300, 200], [350, 200], [400, 200], [350, 280]],
        ],
    )
    def test_quads_that_are_not_strictly_convex_raise_degenerate(self, px):
        # no pose of a square in front of a pinhole images to such a quad
        assert quad_area(px) > 1.0
        with pytest.raises(PnPDegenerate):
            solve_pnp_planar(BENCH_K, TagGeometry(0.2), TagObservation(0.0, px))

    def test_clockwise_corners_return_the_flipped_tag(self):
        # listing the corners in reverse order is the same tag turned about
        # its x axis, diag(1, -1, -1): same position, back to the camera
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(19)
        flip = np.diag([1.0, -1.0, -1.0])
        for k in range(100):
            R_true, t_true = _facing_pose(
                rng, max_tilt=np.radians(10 if k % 2 else 50), z_range=(0.5, 2.0),
                xy_scale=0.25,
            )
            obs = _project_tag(BENCH_K, geom, R_true, t_true)
            reversed_obs = TagObservation(0.0, obs.corners[::-1])
            pose = solve_pnp_planar(BENCH_K, geom, reversed_obs)
            R, t = pose.transform.rotation, pose.transform.translation
            np.testing.assert_allclose(t, t_true, atol=1e-6)
            np.testing.assert_allclose(R, R_true @ flip, atol=1e-6)

    def test_collinear_corners(self):
        geom = TagGeometry(0.2)
        obs = TagObservation(0.0, [[0, 0], [10, 0], [20, 0], [30, 0]])
        with pytest.raises(PnPDegenerate):
            solve_pnp_planar(BENCH_K, geom, obs)

    def test_noiseless_recovery_200_poses(self):
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(11)
        worst_t, worst_r = 0.0, 0.0
        for _ in range(200):
            R_true, t_true = _facing_pose(
                rng, max_tilt=np.radians(25), z_range=(0.5, 2.0), xy_scale=0.25
            )
            obs = _project_tag(BENCH_K, geom, R_true, t_true)
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            t_err = np.linalg.norm(pose.transform.translation - t_true)
            cos_angle = (np.trace(pose.transform.rotation.T @ R_true) - 1) / 2
            r_err = np.arccos(np.clip(cos_angle, -1, 1))
            worst_t = max(worst_t, t_err)
            worst_r = max(worst_r, r_err)
        assert worst_t < 1e-6
        assert worst_r < 1e-6

    def test_noisy_pose_is_a_local_minimum(self):
        # no +-1e-6 step along any rotation or translation axis lowers the
        # RMS by more than the 1e-6 relative gain at which refinement stops
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(13)
        for _ in range(200):
            R_true, t_true = _facing_pose(
                rng, max_tilt=np.radians(25), z_range=(0.5, 2.0), xy_scale=0.25
            )
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=0.5, rng=rng)
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            R, t = pose.transform.rotation, pose.transform.translation
            rms = _reprojection_rms(BENCH_K, geom, pose.transform, obs)
            for h in (1e-6, -1e-6):
                bumped = [RigidTransform(rot(h) @ R, t) for rot in (_rx, _ry, _rz)]
                bumped += [RigidTransform(R, t + h * e) for e in np.eye(3)]
                for b in bumped:
                    assert _reprojection_rms(BENCH_K, geom, b, obs) > rms * (1 - 1e-6)

    def test_steep_tilt_picks_the_true_pose(self):
        # mirroring the tag normal about the viewing ray keeps its angle to
        # the ray, so the mirrored pose faces the camera too and only the
        # reprojection error tells the two apart
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(14)
        for _ in range(100):
            phi, tilt = rng.uniform(0, 2 * np.pi), np.radians(rng.uniform(40, 60))
            R_true = _rz(phi) @ _rx(tilt) @ _rz(-phi) @ _rx(np.pi)
            x, y = rng.uniform(-0.2, 0.2, size=2)
            t_true = np.array([x, y, rng.uniform(0.6, 1.5)])
            obs = _project_tag(BENCH_K, geom, R_true, t_true)
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            np.testing.assert_allclose(pose.transform.translation, t_true, atol=1e-6)
            np.testing.assert_allclose(pose.transform.rotation, R_true, atol=1e-6)

    def test_near_fronto_parallel_noisy_views_converge(self):
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(15)
        for _ in range(200):
            R_true, t_true = _facing_pose(
                rng, max_tilt=np.radians(1), z_range=(0.5, 2.0), xy_scale=0.05
            )
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=0.5, rng=rng)
            solve_pnp_planar(BENCH_K, geom, obs)  # raises PnPNoConvergence on failure

    def test_noisy_poses_come_back_orthonormal(self):
        # the winning pose skips the public RigidTransform check, so the
        # seed and the polish must keep R a rotation to rounding
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(21)
        worst_orth, worst_det = 0.0, 0.0
        for k in range(600):
            R_true, t_true = _facing_pose(
                rng, max_tilt=np.radians(50 if k % 2 else 5), z_range=(0.4, 2.5),
                xy_scale=0.25,
            )
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=1.0, rng=rng)
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            R = pose.transform.rotation
            assert R.shape == (3, 3) and pose.transform.translation.shape == (3,)
            worst_orth = max(worst_orth, np.max(np.abs(R.T @ R - np.eye(3))))
            worst_det = max(worst_det, abs(np.linalg.det(R) - 1.0))
        assert worst_orth < 1e-12
        assert worst_det < 1e-12

    def test_depth_noise_amplification(self):
        # corner pixel noise hurts recovered depth far more than lateral position
        geom = TagGeometry(0.2)
        R_true, t_true = _facing_pose()
        rng = np.random.default_rng(12)
        recovered = []
        for _ in range(500):
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=0.5, rng=rng)
            pose = solve_pnp_planar(BENCH_K, geom, obs)
            recovered.append(pose.transform.translation)
        std = np.std(np.array(recovered), axis=0)
        assert std[2] > std[0]
        assert std[2] > std[1]


class TestReprojectionRms:
    def _exact(self):
        geom = TagGeometry(0.2)
        R, t = _facing_pose()
        obs = _project_tag(BENCH_K, geom, R, t)
        return geom, RigidTransform(R, t), obs

    def test_exact_pose_is_zero(self):
        geom, pose, obs = self._exact()
        assert _reprojection_rms(BENCH_K, geom, pose, obs) < 1e-9

    def test_z_perturbation_positive(self):
        geom, pose, obs = self._exact()
        bumped = RigidTransform(pose.rotation, pose.translation + [0, 0, 0.001])
        assert _reprojection_rms(BENCH_K, geom, bumped, obs) > 0

    def test_yaw_costs_more_than_depth(self):
        geom, pose, obs = self._exact()
        bumped_z = RigidTransform(pose.rotation, pose.translation + [0, 0, 0.001])
        yawed = RigidTransform(_rz(np.radians(10)) @ pose.rotation, pose.translation)
        rms_z = _reprojection_rms(BENCH_K, geom, bumped_z, obs)
        rms_yaw = _reprojection_rms(BENCH_K, geom, yawed, obs)
        assert rms_yaw > rms_z


class TestPolishKernel:
    def _poses(self, rng):
        """Facing poses: near fronto-parallel, moderate tilt, and 40-60 deg tilt."""
        for k in range(300):
            if k % 3 == 2:
                phi, tilt = rng.uniform(0, 2 * np.pi), np.radians(rng.uniform(40, 60))
                R = _rz(phi) @ _rx(tilt) @ _rz(-phi) @ _rx(np.pi)
                x, y = rng.uniform(-0.3, 0.3, size=2)
                yield R, np.array([x, y, rng.uniform(0.5, 3.0)])
            else:
                max_tilt = np.radians(0.5 if k % 3 == 0 else 25)
                yield _facing_pose(rng, max_tilt=max_tilt, z_range=(0.5, 3.0),
                                   xy_scale=0.3)

    def test_normal_equations_match_numpy_reference(self):
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(17)
        obj = geom.corners()
        for R_true, t_true in self._poses(rng):
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=1.0, rng=rng)
            # evaluate away from the truth, where the residuals are not small
            R = _rz(rng.normal(0, 0.05)) @ _rx(rng.normal(0, 0.05)) @ R_true
            t = t_true + rng.normal(0, 0.01, size=3)
            cost, H, g = _kernel_terms(BENCH_K, geom, R, t, obs)
            Q = obj @ R.T
            P = Q + t
            r = _reference_residuals(BENCH_K, P, obs.corners)
            J = _reference_jacobian(BENCH_K, P, Q)
            JtJ, Jtr = J.T @ J, J.T @ r
            assert cost == pytest.approx(r @ r, rel=1e-12)
            # scale-free bounds, d being diag(J^T J):
            # |(J^T J)_ij| <= sqrt(d_i d_j) and |(J^T r)_i| <= sqrt(d_i r.r)
            d = np.diag(JtJ)
            assert np.all(np.abs(_full(H) - JtJ) <= 1e-12 * np.sqrt(np.outer(d, d)))
            assert np.all(np.abs(np.array(g) - Jtr) <= 1e-12 * np.sqrt(d * (r @ r)))

    def test_normal_equations_reject_a_corner_behind_the_camera(self):
        geom = TagGeometry(0.2)
        R, t = _facing_pose()
        obs = _project_tag(BENCH_K, geom, R, t)
        assert _kernel_terms(BENCH_K, geom, R, [0.0, 0.0, -0.5], obs) is None
        assert _kernel_terms(BENCH_K, geom, R, [0.0, 0.0, 1e-10], obs) is None
        assert _kernel_terms(BENCH_K, geom, R, [0.0, 0.0, np.inf], obs) is None

    def test_block_solve_matches_numpy_solve(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            # the Jacobian's pattern: u rows never move with t_y, v rows with t_x
            J = rng.normal(size=(8, 6)) * 10.0 ** rng.uniform(-1, 2, size=6)
            J[0::2, 4] = 0.0
            J[1::2, 3] = 0.0
            A = J.T @ J
            g = rng.normal(size=6) * 10.0 ** rng.uniform(-1, 2)
            lam = 10.0 ** rng.uniform(-12, 2)
            H = tuple(A[np.triu_indices(6)].tolist())
            step, norm2 = _damped_step(H, tuple(g.tolist()), lam)
            expected = np.linalg.solve(A + lam * np.eye(6), -g)
            np.testing.assert_allclose(step, expected, rtol=0,
                                       atol=1e-12 * np.linalg.norm(expected))
            assert norm2 == pytest.approx(expected @ expected, rel=1e-9)

    def test_block_solve_fails_on_singular_or_nonfinite_systems(self):
        H = tuple(np.eye(6)[np.triu_indices(6)].tolist())
        g = (1.0,) * 6
        assert _damped_step((0.0,) * 21, g, 0.0) is None
        assert _damped_step((math.inf,) + H[1:], g, 1e-3) is None
        assert _damped_step(H[:15] + (math.nan,) + H[16:], g, 1e-3) is None
        # a finite system whose step overflows
        assert _damped_step(H, (1e300,) * 6, 1e-300) is None


class TestIppeSeed:
    def _views(self, rng):
        """Facing views: near fronto-parallel, 40-60 deg tilt, axis-aligned and
        far off-centre, 250 of each, half of them with 0.5 px corner noise."""
        for k in range(1000):
            family = k % 4
            if family == 0:
                axis = rng.normal(size=3)
                w = np.radians(rng.uniform(0.5, 3.0)) * axis / np.linalg.norm(axis)
                c, s = np.cos(np.linalg.norm(w)), np.sin(np.linalg.norm(w))
                S = _skew(w / np.linalg.norm(w))
                R = (np.eye(3) + s * S + (1 - c) * S @ S) @ _rx(np.pi)
                x, y = rng.uniform(-0.3, 0.3, size=2)
            elif family == 1:
                phi, tilt = rng.uniform(0, 2 * np.pi), np.radians(rng.uniform(40, 60))
                R = _rz(phi) @ _rx(tilt) @ _rz(-phi) @ _rx(np.pi)
                x, y = rng.uniform(-0.3, 0.3, size=2)
            elif family == 2:
                s, off = rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)
                R = [_rx(np.pi + s), _ry(s) @ _rx(np.pi), _rz(s) @ _rx(np.pi)][k % 3]
                x, y = (off, 0.0) if k % 8 == 2 else (0.0, off)
            else:
                R = _facing_pose(rng, max_tilt=np.radians(30))[0]
                x = rng.uniform(0.45, 0.6) * rng.choice([-1, 1])
                y = rng.uniform(-0.4, 0.4)
            z = rng.uniform(0.5, 2.5)
            yield R, np.array([x * z, y * z, z]), (0.5 if k % 8 < 4 else 0.0)

    def test_matches_numpy_reference(self):
        geom = TagGeometry(0.2)
        rng = np.random.default_rng(20)
        for R_true, t_true, noise in self._views(rng):
            obs = _project_tag(BENCH_K, geom, R_true, t_true, noise=noise, rng=rng)
            for px in (obs.corners, obs.corners[::-1]):
                seeds = _ippe_seed(BENCH_K, geom.side_length, px.tolist())
                reference = _reference_seed(BENCH_K, geom.side_length, px)
                for (R, t), (R_ref, t_ref) in zip(seeds, reference):
                    R = np.reshape(R, (3, 3))
                    np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-9)
                    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-9 * t_ref[2])


class TestIntrinsicsValidation:
    def test_negative_focal(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1, fy=1, cx=0.5, cy=0.5, width=1, height=1)

    def test_principal_point_outside(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=1, fy=1, cx=2.0, cy=0.5, width=1, height=1)

    def test_dict_round_trip(self):
        K = Intrinsics.from_dict(dataclasses.asdict(BENCH_K))
        assert K == BENCH_K

    @pytest.mark.parametrize("focal", [math.inf, math.nan])
    def test_non_finite_focal(self, focal):
        with pytest.raises(ValueError, match="finite"):
            Intrinsics(fx=focal, fy=1, cx=0.5, cy=0.5, width=1, height=1)
        with pytest.raises(ValueError, match="finite"):
            Intrinsics(fx=1, fy=focal, cx=0.5, cy=0.5, width=1, height=1)
