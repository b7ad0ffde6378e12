import collections
import contextlib
import dataclasses
import itertools
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_number_rule import NOT_NUMBERS, _first_replaced
from test_number_rule import _hex as _float_hex

from aquapos.attitude import ImuSample, _FilterState
from aquapos.camera import (
    Intrinsics,
    TagGeometry,
    TagObservation,
    project_point,
    solve_pnp_planar,
)
from aquapos.config import load_run_config
from aquapos.dataset import validate_record
from aquapos.depth_calibration import CalibrationParams
from aquapos.errors import NonFiniteEstimate, StaleSensor
from aquapos.estimators import (
    DepthMeasurement,
    EstimationPipeline,
    PositionEstimate,
    RigExtrinsics,
    SensorFrameBundle,
    SensorSynchronizer,
    SurfacePoseState,
    _camera_to_world,
    estimate_cd,
    estimate_cpnp,
)
from aquapos.evaluation import AlignedPair, align
from aquapos.geometry import RigidTransform, euler_zyx_to_rotation
from aquapos.simulator import Simulator

K = Intrinsics(fx=514.177765, fy=513.054629, cx=346.861136, cy=220.015799,
               width=800, height=600)
GEOM = TagGeometry(0.2)


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _down_camera_rig(tx=0.10, tz=-0.02, height=0.05):
    rot = euler_zyx_to_rotation(0.0, 0.0, np.pi)
    return RigExtrinsics(RigidTransform(rot, np.array([tx, 0.0, tz])), height)


def _camera_in_world(pose, rig):
    R_wb = euler_zyx_to_rotation(pose.yaw, pose.pitch, pose.roll)
    t_wb = np.array([pose.x, pose.y, rig.body_height])
    R_wc = R_wb @ rig.camera_in_body.rotation
    t_wc = R_wb @ rig.camera_in_body.translation + t_wb
    return R_wc, t_wc


def _synthesize_tag(pose, rig, marker_pos, marker_yaw, t=0.0):
    """Project the four marker corners into pixels (forward model)."""
    R_wc, t_wc = _camera_in_world(pose, rig)
    R_cm = R_wc.T @ _rz(marker_yaw)
    t_cm = R_wc.T @ (np.asarray(marker_pos, float) - t_wc)
    pixels = [project_point(K, R_cm @ c + t_cm) for c in GEOM.corners()]
    return TagObservation(t, np.array(pixels))


def _bundle(pose, tag=None, depth=None, t=0.0, stale=None):
    return SensorFrameBundle(t, pose, tag, depth, stale or {})


class TestCameraToWorldChain:
    """The float chain with the camera mounted on the body origin, unrotated,
    is the body-in-world transform."""

    RIG = RigExtrinsics(RigidTransform(np.eye(3), np.zeros(3)), 0.05)

    def test_zero_pose(self):
        R, t = _camera_to_world(SurfacePoseState(0.0, 0.0, 0.0, 0.0), self.RIG)
        assert t == (0.0, 0.0, 0.05)
        np.testing.assert_array_equal(np.reshape(R, (3, 3)), np.eye(3))

    def test_pure_yaw(self):
        R, t = _camera_to_world(SurfacePoseState(0.0, 1.0, 2.0, np.pi / 2), self.RIG)
        assert t == (1.0, 2.0, 0.05)
        np.testing.assert_allclose(np.reshape(R, (3, 3)),
                                   [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_seeded_poses_match_product_oracle(self):
        def rx(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def ry(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        rng = np.random.default_rng(41)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, size=2).tolist()
            yaw = float(rng.uniform(-np.pi, np.pi))
            roll, pitch = rng.uniform(-0.3, 0.3, size=2).tolist()
            pose = SurfacePoseState(0.0, x, y, yaw, roll, pitch)
            R, t = _camera_to_world(pose, self.RIG)
            assert t == (x, y, 0.05)
            assert all(type(v) is float for v in R + t)
            np.testing.assert_allclose(np.reshape(R, (3, 3)),
                                       _rz(yaw) @ ry(pitch) @ rx(roll), atol=1e-12)


class TestEstimateCpnp:
    def test_identity_chain(self):
        rig = RigExtrinsics(RigidTransform(np.eye(3), np.zeros(3)), 0.0)
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        # tag facing the camera, 1.5 m straight ahead
        R_cm = euler_zyx_to_rotation(0.0, 0.0, np.pi)
        t_cm = np.array([0.0, 0.0, 1.5])
        pixels = [project_point(K, R_cm @ c + t_cm) for c in GEOM.corners()]
        tag = TagObservation(0.0, np.array(pixels))
        est = estimate_cpnp(_bundle(pose, tag), rig, K, GEOM)
        np.testing.assert_allclose(est.position, [0.0, 0.0, 1.5], atol=1e-9)
        assert est.method == "cpnp"
        assert est.reproj_rms < 1e-6

    def test_noiseless_frames_recover_truth(self):
        rig = _down_camera_rig()
        rng = np.random.default_rng(42)
        for _ in range(200):
            pose = SurfacePoseState(
                0.0,
                rng.uniform(-2, 2),
                rng.uniform(-1.5, 1.5),
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-0.12, 0.12),
                rng.uniform(-0.12, 0.12),
            )
            depth = rng.uniform(0.8, 1.6)
            marker = np.array([
                pose.x + rng.uniform(-0.1, 0.1),
                pose.y + rng.uniform(-0.1, 0.1),
                -depth,
            ])
            tag = _synthesize_tag(pose, rig, marker, rng.uniform(-np.pi, np.pi))
            est = estimate_cpnp(_bundle(pose, tag), rig, K, GEOM)
            assert np.linalg.norm(est.position - marker) < 1e-6

    def test_missing_tag_is_stale(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(StaleSensor):
            estimate_cpnp(_bundle(pose, tag=None), rig, K, GEOM)

    def test_staleness_bound(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        tag = _synthesize_tag(pose, rig, [0.1, 0.0, -1.2], 0.0)
        bundle = _bundle(pose, tag, stale={"pose": 0.3, "tag": 0.0})
        with pytest.raises(StaleSensor):
            estimate_cpnp(bundle, rig, K, GEOM)
        est = estimate_cpnp(bundle, rig, K, GEOM, staleness_bound=0.5)
        assert est.method == "cpnp"

    def test_marker_offset_through_tag_frame(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.4, -0.2, 0.3)
        marker = np.array([0.5, -0.1, -1.1])
        marker_yaw = 0.8
        tag = _synthesize_tag(pose, rig, marker, marker_yaw)
        offset = np.array([0.05, 0.0, 0.03])
        est = estimate_cpnp(_bundle(pose, tag), rig, K, GEOM, marker_offset=offset)
        expected = marker + _rz(marker_yaw) @ offset
        np.testing.assert_allclose(est.position, expected, atol=1e-6)


class TestEstimateCd:
    def test_vertical_ray(self):
        rig = _down_camera_rig(tx=0.0, tz=0.0, height=0.1)
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        corners = np.array([[K.cx - 1, K.cy - 1], [K.cx + 1, K.cy - 1],
                            [K.cx + 1, K.cy + 1], [K.cx - 1, K.cy + 1]])
        bundle = _bundle(pose, TagObservation(0.0, corners), DepthMeasurement(0.0, 1.5))
        est = estimate_cd(bundle, rig, K)
        np.testing.assert_allclose(est.position[:2], [0.0, 0.0], atol=1e-12)
        assert est.position[2] == -1.5

    def test_hand_worked_oblique_ray(self):
        # camera 0.1 m above the surface looking straight down; the center
        # pixel back-projects to (0.1, 0, 1) in the camera frame, giving a
        # world ray point (0.1, 0, -0.9); the plane z = -1.5 is reached at
        # k = -0.6, i.e. (0.16, 0, -1.5)
        rig = _down_camera_rig(tx=0.0, tz=0.0, height=0.1)
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        u = K.cx + 0.1 * K.fx
        corners = np.array([[u - 1, K.cy - 1], [u + 1, K.cy - 1],
                            [u + 1, K.cy + 1], [u - 1, K.cy + 1]])
        bundle = _bundle(pose, TagObservation(0.0, corners), DepthMeasurement(0.0, 1.5))
        est = estimate_cd(bundle, rig, K)
        np.testing.assert_allclose(est.position, [0.16, 0.0, -1.5], atol=1e-12)
        assert est.ray_k == pytest.approx(-0.6, abs=1e-12)
        assert est.position[2] == -1.5

    def test_noiseless_level_frames_are_exact(self):
        rig = _down_camera_rig()
        rng = np.random.default_rng(43)
        for _ in range(200):
            pose = SurfacePoseState(
                0.0,
                rng.uniform(-2, 2),
                rng.uniform(-1.5, 1.5),
                rng.uniform(-np.pi, np.pi),
            )
            depth = rng.uniform(0.8, 1.6)
            marker = np.array([
                pose.x + rng.uniform(-0.15, 0.15),
                pose.y + rng.uniform(-0.15, 0.15),
                -depth,
            ])
            tag = _synthesize_tag(pose, rig, marker, rng.uniform(-np.pi, np.pi))
            bundle = _bundle(pose, tag, DepthMeasurement(0.0, depth))
            est = estimate_cd(bundle, rig, K)
            assert np.linalg.norm(est.position - marker) < 1e-9
            assert est.position[2] == -depth

    def test_tilt_bias_is_small_but_nonzero(self):
        # with a tilted camera the mean of the projected corners is not the
        # projection of the center, so a sub-mm systematic error appears
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0, np.radians(10.0), 0.0)
        marker = np.array([0.1, 0.05, -1.2])
        tag = _synthesize_tag(pose, rig, marker, 0.3)
        bundle = _bundle(pose, tag, DepthMeasurement(0.0, 1.2))
        est = estimate_cd(bundle, rig, K)
        err = np.linalg.norm(est.position - marker)
        assert 1e-6 < err < 5e-3

    def test_requires_depth(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        tag = _synthesize_tag(pose, rig, [0.1, 0.0, -1.2], 0.0)
        with pytest.raises(StaleSensor):
            estimate_cd(_bundle(pose, tag, depth=None), rig, K)

    def test_marker_offset_moves_plane(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.2)
        marker = np.array([0.15, -0.05, -1.3])
        tag = _synthesize_tag(pose, rig, marker, 0.0)
        depth = DepthMeasurement(0.0, 1.3)
        plain = estimate_cd(_bundle(pose, tag, depth), rig, K)
        shifted = estimate_cd(_bundle(pose, tag, depth), rig, K,
                              marker_offset=[0.0, 0.0, 0.03])
        assert shifted.position[2] == pytest.approx(-1.27)
        # the shifted point still lies on the same ray
        direction = plain.position - _camera_in_world(pose, rig)[1]
        gap = shifted.position - plain.position
        cross = np.cross(direction, gap)
        assert np.linalg.norm(cross) < 1e-12


class TestYawEquivariance:
    def test_both_methods(self):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.6, -0.4, 0.5, 0.05, -0.08)
        depth = 1.25
        marker = np.array([0.7, -0.35, -depth])
        tag = _synthesize_tag(pose, rig, marker, 1.1)
        dm = DepthMeasurement(0.0, depth)

        dpsi = 0.7
        Rz = _rz(dpsi)
        xy = Rz[:2, :2] @ [pose.x, pose.y]
        rotated_pose = SurfacePoseState(0.0, xy[0], xy[1], pose.yaw + dpsi,
                                        pose.roll, pose.pitch)

        for method, kwargs in (("cpnp", {"geom": GEOM}), ("cd", {})):
            if method == "cpnp":
                base = estimate_cpnp(_bundle(pose, tag, dm), rig, K, GEOM)
                rot = estimate_cpnp(_bundle(rotated_pose, tag, dm), rig, K, GEOM)
            else:
                base = estimate_cd(_bundle(pose, tag, dm), rig, K)
                rot = estimate_cd(_bundle(rotated_pose, tag, dm), rig, K)
            np.testing.assert_allclose(rot.position, Rz @ base.position, atol=1e-9)


class TestSynchronizer:
    def test_single_sample_staleness(self):
        sync = SensorSynchronizer()
        sync.push("pose", SurfacePoseState(0.0, 0.0, 0.0, 0.0))
        sync.push("tag", TagObservation(0.0, np.zeros((4, 2))))
        sync.push("depth", DepthMeasurement(0.0, 1.0))
        bundle = sync.synchronize(0.05)
        assert bundle.staleness == {"pose": 0.05, "tag": 0.05, "depth": 0.05}

    def test_no_sample_yet(self):
        bundle = SensorSynchronizer().synchronize(0.0)
        assert (bundle.pose, bundle.tag, bundle.depth) == (None, None, None)
        assert bundle.staleness == {}

    def test_require_subset(self):
        # each estimator requires its own streams: cpnp runs without depth, cd
        # reports the missing stream as stale
        sync = SensorSynchronizer()
        sync.push("pose", SurfacePoseState(0.0, 0.0, 0.0, 0.0))
        tag = _synthesize_tag(SurfacePoseState(0.0, 0.0, 0.0, 0.0), _down_camera_rig(),
                              [0.1, 0.0, -1.0], 0.0)
        sync.push("tag", tag)
        bundle = sync.synchronize(0.01)
        assert bundle.depth is None
        assert set(bundle.staleness) == {"pose", "tag"}
        assert estimate_cpnp(bundle, _down_camera_rig(), K, GEOM).method == "cpnp"
        with pytest.raises(StaleSensor, match="no depth sample"):
            estimate_cd(bundle, _down_camera_rig(), K)

    def test_interleaved_rates_bound_staleness(self):
        sync = SensorSynchronizer()
        sync.push("depth", DepthMeasurement(0.0, 1.0))
        next_depth = 1
        for k in range(1, 301):  # 3 s of 100 Hz pose
            t = k / 100.0
            sync.push("pose", SurfacePoseState(t, 0.0, 0.0, 0.0))
            while next_depth / 15.0 <= t:
                sync.push("depth", DepthMeasurement(next_depth / 15.0, 1.0))
                next_depth += 1
            bundle = sync.synchronize(t)
            assert bundle.staleness["depth"] <= 1 / 15 + 1e-12
            assert bundle.staleness["pose"] == 0.0

    def test_monotonic_push_enforced(self):
        sync = SensorSynchronizer()
        sync.push("depth", DepthMeasurement(1.0, 1.0))
        with pytest.raises(ValueError):
            sync.push("depth", DepthMeasurement(0.5, 1.0))

    def test_query_before_sample_rejected(self):
        sync = SensorSynchronizer()
        sync.push("pose", SurfacePoseState(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            sync.synchronize(0.5)


class TestPipeline:
    def _static_records(self, duration=1.0, calibration=None):
        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.3, -0.2, 0.4)
        depth_true = 1.1
        marker = np.array([0.42, -0.15, -depth_true])
        cal = calibration or CalibrationParams(1.0, 0.0)
        records = []
        for k in range(int(100 * duration)):
            records.append({"t": k / 100.0, "kind": "imu",
                            "gyro": [0.0, 0.0, 0.0], "accel": [0.0, 0.0, -9.81]})
        for k in range(int(40 * duration)):
            records.append({"t": k / 40.0, "kind": "slam",
                            "x": pose.x, "y": pose.y, "yaw": pose.yaw})
        for k in range(int(15 * duration)):
            raw = (depth_true - cal.offset) / cal.scale
            records.append({"t": k / 15.0, "kind": "depth", "raw": raw})
        for k in range(int(30 * duration)):
            t = k / 30.0
            tag = _synthesize_tag(pose, rig, marker, 0.9, t=t)
            records.append({"t": t, "kind": "tag", "corners": tag.corners.tolist()})
            records.append({"t": t, "kind": "truth", "p": marker.tolist()})
        records.sort(key=lambda r: r["t"])
        return rig, marker, records

    def test_replay_produces_estimates_for_both_methods(self):
        rig, marker, records = self._static_records()
        pipe = EstimationPipeline(rig, K, GEOM)
        estimates = []
        for rec in records:
            estimates.extend(pipe.process(rec))
        cpnp = [e for e in estimates if e.method == "cpnp"]
        cd = [e for e in estimates if e.method == "cd"]
        assert len(cpnp) == 30 and len(cd) == 30
        for e in cpnp:
            assert np.linalg.norm(e.position - marker) < 1e-6
        for e in cd:
            assert np.linalg.norm(e.position - marker) < 1e-9
            assert e.position[2] == marker[2]

    def test_depth_calibration_applied(self):
        cal = CalibrationParams(2.0, -0.1)
        rig, marker, records = self._static_records(calibration=cal)
        pipe = EstimationPipeline(rig, K, GEOM, calibration=cal, methods=("cd",))
        estimates = []
        for rec in records:
            estimates.extend(pipe.process(rec))
        assert estimates and all(e.position[2] == marker[2] for e in estimates)

    def test_tag_before_pose_is_counted_not_raised(self):
        rig = _down_camera_rig()
        pipe = EstimationPipeline(rig, K, GEOM)
        pose = SurfacePoseState(0.0, 0.0, 0.0, 0.0)
        tag = _synthesize_tag(pose, rig, [0.1, 0.0, -1.0], 0.0)
        out = pipe.process({"t": 0.0, "kind": "tag", "corners": tag.corners.tolist()})
        assert out == []
        assert pipe.counters["cpnp_skipped"] == 1
        assert pipe.counters["cd_skipped"] == 1

    @pytest.mark.parametrize("method, kind, key, offset", [
        ("cpnp", "slam", "x", (1e308, 0.0, 0.0)),
        ("cd", "depth", "raw", (0.0, 0.0, -1e308)),
    ])
    def test_overflowing_estimate_is_a_counted_skip(self, method, kind, key, offset):
        # each input is finite, but the position it gives overflows
        rig, _, records = self._static_records()
        records = [dict(rec, **{key: 1.5e308}) if rec["kind"] == kind else rec
                   for rec in records]
        pipe = EstimationPipeline(rig, K, GEOM, methods=(method,), marker_offset=offset)
        estimates = [e for rec in records for e in pipe.process(rec)]
        assert estimates == []
        assert pipe.counters[f"{method}_skipped"] == 30
        bundle = pipe.sync.synchronize(records[-1]["t"])
        with pytest.raises(NonFiniteEstimate, match=f"^{method} result is not finite$"):
            if method == "cpnp":
                estimate_cpnp(bundle, rig, K, GEOM, marker_offset=offset)
            else:
                estimate_cd(bundle, rig, K, marker_offset=offset)

    SLAM = {"kind": "slam", "x": 0.0, "y": 0.0, "yaw": 0.0}
    TAG = {"kind": "tag", "corners": [[300.0, 200.0], [400.0, 200.0], [400.0, 300.0],
                                      [300.0, 300.0]]}

    @pytest.mark.parametrize("records, kind", [
        pytest.param([{"t": 0.0, **SLAM, "x": math.nan}], "slam", id="nan-x"),
        pytest.param([{"t": 0.5, **SLAM}, {"t": 0.4, **SLAM}], "slam", id="slam-backwards"),
        pytest.param([{"t": 0.0, **TAG, "corners": TAG["corners"][:3]}], "tag",
                     id="three-corners"),
        # the pose is 0.5 s in the tag's future: a negative staleness
        pytest.param([{"t": 1.0, **SLAM}, {"t": 0.5, **TAG}], "tag", id="tag-before-pose"),
        pytest.param([{"t": "noon", "kind": "truth", "p": [0.0, 0.0, 0.0]}], "truth",
                     id="truth-bad-t"),
        # values that are not numbers by the one rule: a numeric string, a
        # bool and an integer beyond the float range
        pytest.param([{"t": "0.5", **SLAM}], "slam", id="string-t"),
        pytest.param([{"t": 0.0, **SLAM, "x": "1.0"}], "slam", id="string-x"),
        pytest.param([{"t": 0.0, **SLAM, "yaw": True}], "slam", id="bool-yaw"),
        pytest.param([{"t": 0.0, **SLAM, "y": 10**400}], "slam", id="huge-y"),
        pytest.param([{"t": 0.0, "kind": "depth", "raw": "1.5"}], "depth", id="string-raw"),
        pytest.param([{"t": 0.0, "kind": "depth", "raw": True}], "depth", id="bool-raw"),
        pytest.param([{"t": 0.0, "kind": "imu", "gyro": ["0", 0.0, 0.0],
                       "accel": [0.0, 0.0, -9.81]}], "imu", id="string-gyro"),
        pytest.param([{"t": 0.0, **TAG, "corners": [[True, 200.0], *TAG["corners"][1:]]}],
                     "tag", id="bool-corner"),
    ])
    def test_unusable_record_is_counted_not_raised(self, records, kind):
        pipe = EstimationPipeline(_down_camera_rig(), K, GEOM)
        out = [pipe.process(rec) for rec in records]
        assert out[-1] == []
        assert {k: v for k, v in pipe.counters.items() if v} == {f"{kind}_rejected": 1}

    @pytest.mark.parametrize("bound", [math.nan, 0.0, -0.1, True, "1", None, -math.inf])
    def test_staleness_bound_must_be_positive(self, bound):
        # with a nan bound no sample would ever be stale; a bool or a string
        # is not a number
        with pytest.raises(ValueError, match="staleness_bound must be positive"):
            EstimationPipeline(_down_camera_rig(), K, GEOM, staleness_bound=bound)

    @pytest.mark.parametrize("bound, held", [(0.2, 0.2), (1, 1.0), (np.float32(0.5), 0.5),
                                             (math.inf, math.inf), (np.float64(math.inf), math.inf)])
    def test_staleness_bound_is_held_as_a_float(self, bound, held):
        pipe = EstimationPipeline(_down_camera_rig(), K, GEOM, staleness_bound=bound)
        assert type(pipe.staleness_bound) is float
        assert pipe.staleness_bound == held

    def test_unknown_kind_rejected(self):
        rig = _down_camera_rig()
        pipe = EstimationPipeline(rig, K, GEOM)
        with pytest.raises(ValueError):
            pipe.process({"t": 0.0, "kind": "sonar"})


# (type, arguments in field order, checks): the arguments mix ints, numpy
# scalars and -0.0, and checks lists in the constructor's order each
# (field, bad value, message), where a bad value of None stands for the
# field's first number replaced by each of test_number_rule's NOT_NUMBERS
_SAMPLE_TYPES = [
    (ImuSample, (np.float64(0.5), [1, -0.0, 0.25], [0.0, np.float32(0.5), -9.75]),
     [("gyro", None, "expected a 3-vector of finite numbers"),
      ("accel", None, "expected a 3-vector of finite numbers"),
      ("accel", [0.0, 0.0, -0.9], "accelerometer magnitude below 0.1 g"),
      ("timestamp", None, "timestamp must be finite")]),
    (SurfacePoseState, (3, -1.5, -0.0, np.float32(0.5), 0.125, np.float64(-0.25)),
     [*((name, None, "pose fields must be finite")
        for name in ("timestamp", "x", "y", "yaw", "roll", "pitch")),
      ("pitch", math.pi / 2, "pitch must satisfy |pitch| < pi/2")]),
    (DepthMeasurement, (np.int64(2), -0.0),
     [("timestamp", None, "depth measurement must be finite"),
      ("depth", None, "depth measurement must be finite"),
      ("depth", -0.01, "depth is positive-down and cannot be negative")]),
]


def _bad_values(base, checks):
    """(index, field, value, message) for each bad value of checks."""
    for i, (field, value, message) in enumerate(checks):
        values = [value] if value is not None else [_first_replaced(base[field], x)
                                                    for x in NOT_NUMBERS]
        for bad in values:
            yield i, field, bad, message


def _message(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


class TestTypes:
    @pytest.mark.parametrize("cls, args, checks", _SAMPLE_TYPES,
                             ids=[t[0].__name__ for t in _SAMPLE_TYPES])
    def test_sample_calls_agree_and_keep_their_messages(self, cls, args, checks):
        names = [f.name for f in dataclasses.fields(cls)]
        base = dict(zip(names, args))
        built = cls(*args)
        for other in (cls(**base), dataclasses.replace(built),
                      dataclasses.replace(cls(**base), **{names[0]: args[0]})):
            assert other == built and hash(other) == hash(built)
            assert repr(other) == repr(built)
            assert ([_float_hex(getattr(other, n)) for n in names]
                    == [_float_hex(getattr(built, n)) for n in names])
        bad = list(_bad_values(base, checks))
        for _, field, value, message in bad:
            assert _message(lambda: cls(**{**base, field: value})) == message, field
            assert _message(lambda: dataclasses.replace(built, **{field: value})) == message
        # with two fields bad, the one checked first speaks
        for (i, field, value, message), (j, other, value2, _) in itertools.product(bad, bad):
            if i < j and field != other:
                assert _message(lambda: cls(**{**base, field: value, other: value2})) == message

    def test_pose_tilt_defaults_to_positive_zero(self):
        pose = SurfacePoseState(0.0, 1.0, 2.0, 0.5)
        assert (pose.roll.hex(), pose.pitch.hex()) == ((0.0).hex(), (0.0).hex())
        assert pose == SurfacePoseState(0.0, 1.0, 2.0, 0.5, roll=0.0, pitch=0.0)

    def test_depth_must_be_non_negative(self):
        with pytest.raises(ValueError):
            DepthMeasurement(0.0, -0.01)

    def test_pose_pitch_limit(self):
        with pytest.raises(ValueError):
            SurfacePoseState(0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            PositionEstimate(0.0, [0.0, 0.0, 0.0], "sonar")
        with pytest.raises(ValueError):
            PositionEstimate(0.0, [np.inf, 0.0, 0.0], "cd")

    def test_estimators_build_what_the_constructor_builds(self, monkeypatch):
        # the estimators go through the public constructor's float path, and
        # what it keeps is what the constructor makes of the position's array
        fields = [f.name for f in dataclasses.fields(PositionEstimate)]
        checked = []
        init = PositionEstimate.__init__
        monkeypatch.setattr(PositionEstimate, "__init__",
                            lambda self, *a, **k: checked.append(1) or init(self, *a, **k))
        for rig, pose, tag, depth, offset in _random_frames(20, 31):
            bundle = _bundle(pose, tag, DepthMeasurement(0.0, depth), t=0.02,
                             stale={"pose": 0.01})
            for est in (estimate_cpnp(bundle, rig, K, GEOM, marker_offset=offset),
                        estimate_cd(bundle, rig, K, marker_offset=offset)):
                assert (est.timestamp, est.roll, est.pitch) == (0.02, pose.roll, pose.pitch)
                assert (est.reproj_rms is None) == (est.method == "cd") == (est.ray_k is not None)
                assert all(type(v) is float for v in est.xyz)
                ref = PositionEstimate(**{name: getattr(est, name) for name in fields})
                assert est.position.dtype == np.float64 and est.position.shape == (3,)
                assert _hex(est.xyz) == _hex(est.position) == _hex(ref.xyz)
                for name in fields:
                    if name != "position":
                        assert getattr(est, name) == getattr(ref, name)
                assert est.staleness == {"pose": 0.01}
                assert est.staleness is not bundle.staleness
        # 20 frames, two methods, and each estimate's rebuilt reference
        assert len(checked) == 20 * 2 * 2

    def test_bundle_rejects_negative_staleness(self):
        with pytest.raises(ValueError):
            SensorFrameBundle(0.0, None, None, None, {"pose": -0.1})

    @pytest.mark.parametrize("age", [math.nan, math.inf])
    def test_bundle_rejects_non_finite_staleness(self, age):
        # a nan age compares false with every bound, so the stream would pass as fresh
        with pytest.raises(ValueError, match="pose"):
            SensorFrameBundle(0.0, None, None, None, {"pose": age})


# finite floats over the whole double range, mixed with sensor-scale values
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi), _FINITE)


@st.composite
def _corners(draw):
    """Tag corners: arbitrary, image-scale, far off-axis, nearly collinear, or a
    dart or bow-tie (not convex)."""
    shape = draw(
        st.sampled_from(("any", "image", "far", "collinear", "dart", "bowtie"))
    )
    if shape == "any":
        return [[draw(_FINITE), draw(_FINITE)] for _ in range(4)]
    u, v = draw(st.floats(-500, 1500)), draw(st.floats(-500, 1000))
    if shape == "far":
        # on both sides of the 1e6 focal lengths past which PnP refuses corners
        u += draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(3, 8.8))
    side, angle = draw(st.floats(0.5, 300)), draw(st.floats(0, 2 * math.pi))
    c, s = math.cos(angle), math.sin(angle)
    h = side / 2
    if shape == "collinear":
        # four points along a line, the third pushed off it by a hair
        offsets = [(k * side, 0.0) for k in range(4)]
        offsets[2] = (2 * side, draw(st.floats(0, 2.0)) / side)
    elif shape == "dart":
        # the third corner pulled across the diagonal between its neighbours
        f = draw(st.floats(0.1, 0.9))
        offsets = [(-h, -h), (h, -h), (-f * h, -f * h), (-h, h)]
    elif shape == "bowtie":
        offsets = [(-h, -h), (h, -h), (-h, h), (h, h)]
    else:
        offsets = [(-h, -h), (h, -h), (h, h), (-h, h)]
    jitter = st.floats(-0.2 * side, 0.2 * side)
    return [
        [u + c * a - s * b + draw(jitter), v + s * a + c * b + draw(jitter)]
        for a, b in offsets
    ]


_IMU = st.fixed_dictionaries({
    "kind": st.just("imu"),
    "gyro": st.lists(_number(-5, 5), min_size=3, max_size=3),
    "accel": st.lists(_number(-12, 12), min_size=3, max_size=3),
})
_SLAM = st.fixed_dictionaries({
    "kind": st.just("slam"), "x": _number(-5, 5), "y": _number(-5, 5),
    "yaw": _number(-4, 4),
})
_DEPTH = st.fixed_dictionaries({"kind": st.just("depth"), "raw": _number(-1, 5)})
_TAG = st.fixed_dictionaries({"kind": st.just("tag"), "corners": _corners()})
_TRUTH = st.fixed_dictionaries({
    "kind": st.just("truth"), "p": st.lists(_FINITE, min_size=3, max_size=3),
})


@st.composite
def _streams(draw):
    """Schema-valid record streams: finite payloads, non-decreasing timestamps.

    A pose and a depth sample open the stream, and most gaps stay inside
    the staleness bound, so most tags reach the estimators.
    """
    record = st.one_of(_IMU, _SLAM, _DEPTH, _TAG, _TRUTH)
    records = [draw(_SLAM), draw(_DEPTH)]
    records += draw(st.lists(record, min_size=1, max_size=25))
    t = draw(_number(0, 10))
    stream = []
    for rec in records:
        stream.append({"t": t, **rec})
        gap = draw(st.one_of(st.just(0.0), st.floats(0, 0.05), st.floats(0, 1e308)))
        if math.isfinite(t + gap):
            t += gap
    return stream


class TestPipelineProperty:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(stream=_streams())
    def test_no_valid_stream_raises_out_of_process(self, stream):
        pipe = EstimationPipeline(_down_camera_rig(), K, GEOM)
        for rec in stream:
            validate_record(rec)
            skipped = pipe.counters["cpnp_skipped"] + pipe.counters["cd_skipped"]
            out = pipe.process(rec)
            for e in out:
                assert all(map(math.isfinite, e.position))
            if rec["kind"] == "tag":
                skipped = (pipe.counters["cpnp_skipped"]
                           + pipe.counters["cd_skipped"] - skipped)
                assert len(out) + skipped == 2


# --- reference: the estimators' chain as plain Python sums over numpy's rows ---
# Every 3x3 product is summed row by column, left to right: the rounding
# numpy's own products give on a BLAS kernel without fused multiply-adds.


def _matvec(A, v):
    return [a0 * v[0] + a1 * v[1] + a2 * v[2] for a0, a1, a2 in A]


def _matmul(A, B):
    columns = list(zip(*B))
    return [_matvec(columns, row) for row in A]


def _plus(a, b):
    return [x + y for x, y in zip(a, b)]


def _ref_camera_to_world(pose, rig):
    cy, sy = np.cos(pose.yaw), np.sin(pose.yaw)
    cp, sp = np.cos(pose.pitch), np.sin(pose.pitch)
    cr, sr = np.cos(pose.roll), np.sin(pose.roll)
    R = np.array([[cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
                  [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
                  [-sp, cp * sr, cp * cr]]).tolist()
    t = [float(pose.x), float(pose.y), float(rig.body_height)]
    H = rig.camera_in_body
    return _matmul(R, H.rotation.tolist()), _plus(_matvec(R, H.translation.tolist()), t)


def _ref_cd(pose, corners, depth, rig, offset=None):
    R, t = _ref_camera_to_world(pose, rig)
    px = (np.asarray(corners, dtype=float) * 0.25).sum(axis=0)
    ray = [(float(px[0]) - K.cx) / K.fx, (float(px[1]) - K.cy) / K.fy, 1.0]
    point = _plus(_matvec(R, ray), t)
    direction = [a - b for a, b in zip(t, point)]
    plane_z = -depth
    if offset is not None:
        plane_z = plane_z + float(np.asarray(offset, dtype=float)[2])
    k = (plane_z - point[2]) / direction[2]
    return [point[0] + k * direction[0], point[1] + k * direction[1], plane_z], k


def _ref_cpnp(pose, tag_pose, rig, offset=None):
    R, t = _ref_camera_to_world(pose, rig)
    Rt = tag_pose.transform.rotation.tolist()
    position = _plus(_matvec(R, tag_pose.transform.translation.tolist()), t)
    if offset is None:
        return position
    return _plus(_matvec(_matmul(R, Rt), [float(v) for v in offset]), position)


def _hex(values):
    return [float(v).hex() for v in values]


def _random_frames(n, seed):
    """Random poses, rigs and tags below the camera, with pixel noise."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        rig = _down_camera_rig(tx=rng.uniform(-0.2, 0.2), tz=rng.uniform(-0.1, 0.1),
                               height=rng.uniform(0.0, 0.2))
        pose = SurfacePoseState(0.0, rng.uniform(-5, 5), rng.uniform(-5, 5),
                                rng.uniform(-np.pi, np.pi), rng.uniform(-0.3, 0.3),
                                rng.uniform(-0.3, 0.3))
        R_wc, t_wc = _camera_in_world(pose, rig)
        depth = rng.uniform(0.5, 3.0)
        below = R_wc @ np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0])
        marker = t_wc + below * (-depth - t_wc[2]) / below[2]
        tag = _synthesize_tag(pose, rig, marker, rng.uniform(-np.pi, np.pi))
        corners = tag.corners + rng.normal(0.0, 0.5, size=(4, 2))
        offset = None if k % 3 else rng.uniform(-0.1, 0.1, size=3).tolist()
        yield rig, pose, TagObservation(0.0, corners), depth, offset


class TestEstimatorsMatchReference:
    def test_cd_bit_for_bit(self):
        for rig, pose, tag, depth, offset in _random_frames(500, 29):
            est = estimate_cd(_bundle(pose, tag, DepthMeasurement(0.0, depth)), rig, K,
                              marker_offset=offset)
            position, k = _ref_cd(pose, tag.corners, depth, rig, offset)
            assert _hex(est.position) == _hex(position)
            assert est.ray_k.hex() == k.hex()

    def test_cpnp_bit_for_bit(self):
        for rig, pose, tag, _, offset in _random_frames(200, 30):
            est = estimate_cpnp(_bundle(pose, tag), rig, K, GEOM, marker_offset=offset)
            want = _ref_cpnp(pose, solve_pnp_planar(K, GEOM, tag), rig, offset)
            assert _hex(est.position) == _hex(want)


class TestCameraToWorldMemo:
    def test_new_slam_record_between_frames_is_used(self):
        rig = _down_camera_rig()
        tag = {"kind": "tag", "corners": [[380.0, 200.0], [420.0, 200.0],
                                          [420.0, 240.0], [380.0, 240.0]]}
        slam_a = {"t": 0.0, "kind": "slam", "x": 0.3, "y": -0.2, "yaw": 0.4}
        slam_b = {"t": 0.02, "kind": "slam", "x": 0.5, "y": 0.1, "yaw": -0.7}
        depth = {"t": 0.0, "kind": "depth", "raw": 1.2}
        pipe = EstimationPipeline(rig, K, GEOM)
        for rec in (slam_a, depth):
            pipe.process(rec)
        first = pipe.process({"t": 0.01, **tag})
        pipe.process(slam_b)
        second = pipe.process({"t": 0.03, **tag})
        fresh = EstimationPipeline(rig, K, GEOM)
        for rec in (depth, slam_b):
            fresh.process(rec)
        want = fresh.process({"t": 0.03, **tag})
        assert [e.method for e in second] == ["cpnp", "cd"]
        for got, ref, old in zip(second, want, first):
            assert _hex(got.position) == _hex(ref.position)
            assert _hex(got.position) != _hex(old.position)

    def test_one_compose_per_pose_used_and_one_bundle_per_frame(self, monkeypatch):
        import aquapos.estimators as estimators

        cfg = load_run_config(None)
        spec = dataclasses.replace(cfg.trajectory, duration=4.0)
        records, _ = Simulator(spec, cfg, cfg.noise).run()
        composed, synced = [], []
        # the float composition evaluates the pose's Euler entries once
        euler = estimators._euler_zyx
        monkeypatch.setattr(estimators, "_euler_zyx",
                            lambda *a: composed.append(1) or euler(*a))
        synchronize = SensorSynchronizer.synchronize
        monkeypatch.setattr(SensorSynchronizer, "synchronize",
                            lambda *a, **k: synced.append(1) or synchronize(*a, **k))
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        slam_seen, poses_used, estimates = 0, set(), 0
        for rec in records:
            slam_seen += rec["kind"] == "slam"
            out = pipe.process(rec)
            if out:
                poses_used.add(slam_seen)
                estimates += len(out)
        assert pipe.counters["cpnp_skipped"] == pipe.counters["cd_skipped"] == 0
        # both methods share a frame's transform, and frames share a held pose
        assert len(composed) == len(poses_used) <= estimates // 2
        assert len(synced) == sum(rec["kind"] == "tag" for rec in records)

    def test_pipeline_checks_marker_offset_once(self):
        rig = _down_camera_rig()
        pipe = EstimationPipeline(rig, K, GEOM, marker_offset=np.array([0.0, 0.1, 0.02]))
        assert pipe.marker_offset == (0.0, 0.1, 0.02)
        assert all(type(v) is float for v in pipe.marker_offset)
        for bad in ([0.0, float("nan"), 0.0], [0.0, 0.0, float("inf")], [1.0, 2.0]):
            with pytest.raises(ValueError):
                EstimationPipeline(rig, K, GEOM, marker_offset=bad)


@contextlib.contextmanager
def _numpy_calls():
    """Names of the numpy functions and array methods called in the block.

    A profile hook sees every call into numpy's C functions, their methods
    on numpy objects and numpy's Python functions; building an array takes
    one of them.
    """
    root = os.path.dirname(np.__file__)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            if ((getattr(arg, "__module__", None) or "").startswith("numpy")
                    or type(owner).__module__.startswith("numpy")):
                calls.append(arg.__name__)
        elif event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


class TestConstructionCounts:
    """What the per-record path builds, counted rather than timed."""

    @pytest.fixture(scope="class")
    def dense_imu_records(self):
        cfg = load_run_config(None)
        spec = dataclasses.replace(cfg.trajectory, duration=3.0)
        scene = dataclasses.replace(cfg,
                                    rates=dataclasses.replace(cfg.rates, imu=400.0))
        records, _ = Simulator(spec, scene, cfg.noise).run()
        assert sum(r["kind"] == "imu" for r in records) >= 1200
        return cfg, records

    def test_numpy_check_counts_an_array(self):
        with _numpy_calls() as calls:
            np.array([[1.0, 0.0], [0.0, 1.0]])
        assert calls == ["array"]

    def test_accepted_imu_sample_builds_no_array(self, dense_imu_records):
        cfg, records = dense_imu_records
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        accepted = 0
        for rec in records:
            if rec["kind"] != "imu":
                pipe.process(rec)
                continue
            rejected = pipe.counters["imu_rejected"]
            with _numpy_calls() as calls:
                pipe.process(rec)
            if pipe.counters["imu_rejected"] == rejected:
                accepted += 1
                assert calls == [], rec
        assert accepted >= 1200

    def test_covariance_is_built_once_and_only_when_read(self, dense_imu_records):
        cfg, records = dense_imu_records
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        states = []
        for rec in records:
            pipe.process(rec)
            if rec["kind"] == "imu":
                states.append(pipe.tracker.state)
        assert all("covariance" not in vars(s) for s in states)
        last = states[-1]
        with _numpy_calls() as first:
            cov = last.covariance
        with _numpy_calls() as again:
            assert last.covariance is cov
        assert first == ["array"] and again == []
        assert all("covariance" not in vars(s) for s in states[:-1])

    def test_each_object_goes_through_its_constructor(self, dense_imu_records,
                                                      monkeypatch):
        cfg, records = dense_imu_records
        inits = collections.Counter()
        for cls in (SensorFrameBundle, _FilterState, AlignedPair, ImuSample,
                    SurfacePoseState, DepthMeasurement):
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *a, _name=cls.__name__, _init=cls.__init__:
                                inits.update([_name]) or _init(self, *a))
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        estimates = [e for rec in records for e in pipe.process(rec)]
        kinds = collections.Counter(rec["kind"] for rec in records)
        # every sample record of the run is accepted, so each builds one sample
        assert not any(pipe.counters[f"{kind}_rejected"] for kind in ("imu", "slam", "depth"))
        assert inits["ImuSample"] == kinds["imu"] > 0
        assert inits["SurfacePoseState"] == kinds["slam"] > 0
        assert inits["DepthMeasurement"] == kinds["depth"] > 0
        assert inits["SensorFrameBundle"] == kinds["tag"]
        assert inits["_FilterState"] == kinds["imu"] - pipe.counters["imu_rejected"] > 0
        truth = [rec for rec in records if rec["kind"] == "truth"]
        pairs, _ = align([e.timestamp for e in estimates], [e.xyz for e in estimates],
                         [rec["t"] for rec in truth], [rec["p"] for rec in truth])
        assert inits["AlignedPair"] == len(pairs) > 0

    @pytest.mark.parametrize("offset", [None, (0.01, -0.02, 0.03)])
    def test_pose_chain_calls_no_numpy(self, monkeypatch, offset):
        import aquapos.estimators as estimators

        rig = _down_camera_rig()
        pose = SurfacePoseState(0.0, 0.3, -0.2, 0.4, 0.05, -0.03)
        tag = _synthesize_tag(pose, rig, [0.35, -0.15, -1.2], 0.7)
        tag_pose = solve_pnp_planar(K, GEOM, tag)
        monkeypatch.setattr(estimators, "solve_pnp_planar", lambda *a: tag_pose)
        with _numpy_calls() as cpnp_calls:
            estimate_cpnp(_bundle(pose, tag), rig, K, GEOM, marker_offset=offset)
        # a pose of its own, so that cd composes its chain afresh
        pose = dataclasses.replace(pose)
        with _numpy_calls() as cd_calls:
            estimate_cd(_bundle(pose, tag, DepthMeasurement(0.0, 1.2)), rig, K,
                        marker_offset=offset)
        assert cpnp_calls == [] and cd_calls == []

    @pytest.mark.parametrize("offset", [None, [0.01, -0.02, 0.03]])
    def test_tag_records_call_no_numpy(self, dense_imu_records, offset):
        cfg, records = dense_imu_records
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, marker_offset=offset)
        estimates = []
        for rec in records:
            if rec["kind"] != "tag":
                pipe.process(rec)
                continue
            with _numpy_calls() as calls:
                estimates += pipe.process(rec)
            assert calls == [], rec
        assert [e.method for e in estimates] == ["cpnp", "cd"] * (len(estimates) // 2)
        assert len(estimates) == 2 * sum(r["kind"] == "tag" for r in records)

    def test_arrays_are_built_once_and_only_when_read(self, dense_imu_records):
        cfg, records = dense_imu_records
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        estimates = [e for rec in records for e in pipe.process(rec)]
        last = [rec for rec in records if rec["kind"] == "tag"][-1]
        tag = TagObservation(last["t"], last["corners"])
        tag_pose = solve_pnp_planar(cfg.intrinsics, cfg.tag, tag)
        for obj, name in [(e, "position") for e in estimates[-2:]] + [
                (tag, "corners"), (tag_pose, "transform")]:
            assert name not in vars(obj)
            with _numpy_calls() as first:
                value = getattr(obj, name)
            with _numpy_calls() as again:
                assert getattr(obj, name) is value
            # the transform takes the pose's float tuples as they are
            assert first == ([] if name == "transform" else ["array"])
            assert again == []
        # its arrays are built once, when read
        T = tag_pose.transform
        for name, calls in (("rotation", ["array", "reshape"]), ("translation", ["array"])):
            assert name not in vars(T)
            with _numpy_calls() as first:
                value = getattr(T, name)
            with _numpy_calls() as again:
                assert getattr(T, name) is value
            assert first == calls and again == []
        assert all("position" not in vars(e) for e in estimates[:-2])
        # each array holds its floats' bits
        assert _hex(estimates[-1].position) == _hex(estimates[-1].xyz)
        assert [_hex(c) for c in tag.corners] == [_hex(c) for c in tag.px]
        assert _hex(T.rotation.ravel()) == _hex(tag_pose.R)
        assert _hex(T.translation) == _hex(tag_pose.t)

    @pytest.mark.parametrize("offset", [None, [0.01, -0.02, 0.03]])
    def test_tag_frame_builds_no_checked_transform(self, dense_imu_records, monkeypatch,
                                                   offset):
        cfg, records = dense_imu_records
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, marker_offset=offset)
        checked = []
        post_init = RigidTransform.__post_init__
        monkeypatch.setattr(RigidTransform, "__post_init__",
                            lambda self: checked.append(1) or post_init(self))
        estimates = 0
        for rec in records:
            estimates += len(pipe.process(rec))
        assert checked == []
        assert estimates == 2 * sum(r["kind"] == "tag" for r in records)
