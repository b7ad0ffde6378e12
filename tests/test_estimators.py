import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquapos.camera import Intrinsics, TagGeometry, TagObservation, project_point
from aquapos.dataset import validate_record
from aquapos.depth_calibration import CalibrationParams
from aquapos.errors import NoSampleYet, StaleSensor
from aquapos.estimators import (
    DepthMeasurement,
    EstimationPipeline,
    PositionEstimate,
    RigExtrinsics,
    SensorFrameBundle,
    SensorSynchronizer,
    SurfacePoseState,
    build_body_to_world,
    estimate_cd,
    estimate_cpnp,
)
from aquapos.geometry import RigidTransform, euler_zyx_to_rotation

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


class TestBuildBodyToWorld:
    def test_zero_pose(self):
        rig = _down_camera_rig()
        H = build_body_to_world(SurfacePoseState(0.0, 0.0, 0.0, 0.0), rig)
        np.testing.assert_array_equal(H.translation, [0.0, 0.0, 0.05])
        np.testing.assert_array_equal(H.rotation, np.eye(3))

    def test_pure_yaw(self):
        rig = _down_camera_rig()
        H = build_body_to_world(SurfacePoseState(0.0, 1.0, 2.0, np.pi / 2), rig)
        np.testing.assert_array_equal(H.translation, [1.0, 2.0, 0.05])
        np.testing.assert_allclose(H.rotation, [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                                   atol=1e-15)

    def test_seeded_poses_match_product_oracle(self):
        def rx(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def ry(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        rig = _down_camera_rig()
        rng = np.random.default_rng(41)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, size=2)
            yaw = rng.uniform(-np.pi, np.pi)
            roll, pitch = rng.uniform(-0.3, 0.3, size=2)
            pose = SurfacePoseState(0.0, x, y, yaw, roll, pitch)
            H = build_body_to_world(pose, rig)
            np.testing.assert_array_equal(H.translation, [x, y, 0.05])
            np.testing.assert_allclose(H.rotation, _rz(yaw) @ ry(pitch) @ rx(roll),
                                       atol=1e-12)


class TestEstimateCpnp:
    def test_identity_chain(self):
        rig = RigExtrinsics(RigidTransform.identity(), 0.0)
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
        sync.push_pose(SurfacePoseState(0.0, 0.0, 0.0, 0.0))
        sync.push_tag(TagObservation(0.0, np.zeros((4, 2))))
        sync.push_depth(DepthMeasurement(0.0, 1.0))
        bundle = sync.synchronize(0.05)
        assert bundle.staleness == {"pose": 0.05, "tag": 0.05, "depth": 0.05}

    def test_no_sample_yet(self):
        with pytest.raises(NoSampleYet):
            SensorSynchronizer().synchronize(0.0)

    def test_require_subset(self):
        sync = SensorSynchronizer()
        sync.push_pose(SurfacePoseState(0.0, 0.0, 0.0, 0.0))
        sync.push_tag(TagObservation(0.0, np.zeros((4, 2))))
        bundle = sync.synchronize(0.01, require=("pose", "tag"))
        assert bundle.depth is None

    def test_interleaved_rates_bound_staleness(self):
        sync = SensorSynchronizer()
        sync.push_depth(DepthMeasurement(0.0, 1.0))
        next_depth = 1
        for k in range(1, 301):  # 3 s of 100 Hz pose
            t = k / 100.0
            sync.push_pose(SurfacePoseState(t, 0.0, 0.0, 0.0))
            while next_depth / 15.0 <= t:
                sync.push_depth(DepthMeasurement(next_depth / 15.0, 1.0))
                next_depth += 1
            bundle = sync.synchronize(t, require=("pose", "depth"))
            assert bundle.staleness["depth"] <= 1 / 15 + 1e-12
            assert bundle.staleness["pose"] == 0.0

    def test_monotonic_push_enforced(self):
        sync = SensorSynchronizer()
        sync.push_depth(DepthMeasurement(1.0, 1.0))
        with pytest.raises(ValueError):
            sync.push_depth(DepthMeasurement(0.5, 1.0))

    def test_query_before_sample_rejected(self):
        sync = SensorSynchronizer()
        sync.push_pose(SurfacePoseState(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            sync.synchronize(0.5, require=("pose",))


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

    def test_unknown_kind_rejected(self):
        rig = _down_camera_rig()
        pipe = EstimationPipeline(rig, K, GEOM)
        with pytest.raises(ValueError):
            pipe.process({"t": 0.0, "kind": "sonar"})


class TestTypes:
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

    def test_bundle_rejects_negative_staleness(self):
        with pytest.raises(ValueError):
            SensorFrameBundle(0.0, None, None, None, {"pose": -0.1})


# finite floats over the whole double range, mixed with sensor-scale values
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi), _FINITE)


@st.composite
def _corners(draw):
    """Tag corners: arbitrary, image-scale, far off-axis, or nearly collinear."""
    shape = draw(st.sampled_from(("any", "image", "far", "collinear")))
    if shape == "any":
        return [[draw(_FINITE), draw(_FINITE)] for _ in range(4)]
    u, v = draw(st.floats(-500, 1500)), draw(st.floats(-500, 1000))
    if shape == "far":
        # on both sides of the 1e6 focal lengths past which PnP refuses corners
        u += draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(3, 8.8))
    side, angle = draw(st.floats(0.5, 300)), draw(st.floats(0, 2 * math.pi))
    c, s = math.cos(angle), math.sin(angle)
    if shape == "collinear":
        # four points along a line, the third pushed off it by a hair
        offsets = [(k * side, 0.0) for k in range(4)]
        offsets[2] = (2 * side, draw(st.floats(0, 2.0)) / side)
    else:
        h = side / 2
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
