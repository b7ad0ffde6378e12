import json
import math
from itertools import islice

import numpy as np
import pytest

from aquapos.attitude import GRAVITY, _tilt
from aquapos.depth_calibration import CalibrationParams
from aquapos.errors import RegionTooSmall
from aquapos.estimators import EstimationPipeline, RigExtrinsics, _camera_in_world
from aquapos.evaluation import align, med
from aquapos.geometry import RigidTransform, euler_zyx_to_rotation
from aquapos.config import (
    MAX_RANDOM_PATH,
    MAX_STREAM_RECORDS,
    FollowerConfig,
    NoiseModel,
    SampleRates,
    SceneConfig,
    TrajectorySpec,
    random_path_length,
    record_count,
)
from aquapos.simulator import (_DRAW_CHUNK, Follower, MarkerTrajectory, Simulator, _draws,
                               gen_trajectory)


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


class TestSquareTrajectory:
    SPEC = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 60.0,
                          depth_mean=1.2, depth_amplitude=0.0)

    def test_corners_and_period(self):
        traj = gen_trajectory(self.SPEC)
        np.testing.assert_allclose(traj.position(0.0)[:2], [-1, -1], atol=1e-12)
        np.testing.assert_allclose(traj.position(10.0)[:2], [1, -1], atol=1e-12)
        np.testing.assert_allclose(traj.position(20.0)[:2], [1, 1], atol=1e-12)
        np.testing.assert_allclose(traj.position(30.0)[:2], [-1, 1], atol=1e-12)
        # 8 m perimeter at 0.2 m/s: the loop closes after 40 s
        np.testing.assert_allclose(traj.position(40.0)[:2], [-1, -1], atol=1e-12)

    def test_mid_leg_and_heading(self):
        traj = gen_trajectory(self.SPEC)
        np.testing.assert_allclose(traj.position(5.0)[:2], [0, -1], atol=1e-12)
        assert traj.pose(5.0)[3] == pytest.approx(0.0)
        assert traj.pose(15.0)[3] == pytest.approx(np.pi / 2)
        assert traj.pose(25.0)[3] == pytest.approx(np.pi)
        assert traj.pose(35.0)[3] == pytest.approx(-np.pi / 2)

    def test_fixed_depth(self):
        traj = gen_trajectory(self.SPEC)
        for t in (0.0, 7.3, 33.3):
            assert traj.position(t)[2] == -1.2

    def test_oscillating_depth(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 60.0,
                              depth_mean=1.2, depth_amplitude=0.5,
                              depth_period=25.0)
        traj = gen_trajectory(spec)
        assert traj.position(0.0)[2] == pytest.approx(-1.2)
        assert traj.position(6.25)[2] == pytest.approx(-1.7)
        assert traj.position(18.75)[2] == pytest.approx(-0.7)


class TestLawnmowerTrajectory:
    def test_three_legs_in_default_tank(self):
        traj = gen_trajectory(TrajectorySpec("lawnmower"))
        wp = traj.waypoints
        assert wp.shape == (6, 2)
        np.testing.assert_allclose(sorted(set(wp[:, 1])), [-1.4, -0.4, 0.6],
                                   atol=1e-12)
        # x sweeps alternate direction and each leg is monotone
        assert wp[0, 0] == -2.0 and wp[1, 0] == 2.0
        assert wp[2, 0] == 2.0 and wp[3, 0] == -2.0
        assert wp[4, 0] == -2.0 and wp[5, 0] == 2.0

    def test_pingpong_retraces(self):
        traj = gen_trajectory(TrajectorySpec("lawnmower", duration=300.0))
        total_t = traj.total_length / 0.2
        before = traj.position(total_t - 5.0)
        after = traj.position(total_t + 5.0)
        np.testing.assert_allclose(after[:2], before[:2], atol=1e-9)


class TestRandomTrajectory:
    @pytest.mark.parametrize("region", [(4.8, 3.6, 2.0), (1.6, 1.6, 2.0)])
    def test_waypoints_inside_region_with_min_legs(self, region):
        spec = TrajectorySpec("random", region, duration=60.0, seed=9)
        traj = gen_trajectory(spec)
        wp = traj.waypoints
        assert np.all(np.abs(wp[:, 0]) <= region[0] / 2 - 0.4 + 1e-12)
        assert np.all(np.abs(wp[:, 1]) <= region[1] / 2 - 0.4 + 1e-12)
        legs = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        assert np.all(legs >= 0.5)
        assert traj.total_length >= 0.2 * 60.0

    @pytest.mark.parametrize("speed, duration", [(1e308, 120.0), (1e3, 100.0)])
    def test_path_past_its_bound_is_rejected(self, speed, duration):
        with pytest.raises(ValueError, match=f"above the bound of {MAX_RANDOM_PATH:g} m"):
            gen_trajectory(TrajectorySpec("random", speed=speed, duration=duration))
        assert random_path_length(0.2, 120.0) == 25.0

    def test_headings_are_libm_atan2(self):
        # numpy's arctan2 loop is chosen by CPU and may differ from libm in
        # the last bit, which would make a random-pattern dataset depend on it
        spec = TrajectorySpec("random", duration=60.0, speed=1.0, seed=1)
        traj = gen_trajectory(spec)
        wp = traj.waypoints.tolist()
        s = 0.0
        for (x0, y0), (x1, y1) in zip(wp, wp[1:]):
            leg = math.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
            heading = traj.pose((s + leg / 2.0) / spec.speed)[3]
            assert heading.hex() == math.atan2(y1 - y0, x1 - x0).hex()
            s += leg

    def test_seed_determinism(self):
        a = gen_trajectory(TrajectorySpec("random", seed=4))
        b = gen_trajectory(TrajectorySpec("random", seed=4))
        c = gen_trajectory(TrajectorySpec("random", seed=5))
        np.testing.assert_array_equal(a.waypoints, b.waypoints)
        assert a.waypoints.shape != c.waypoints.shape or \
            not np.array_equal(a.waypoints, c.waypoints)


class TestRegionValidation:
    def test_square_region_too_small(self):
        with pytest.raises(RegionTooSmall):
            gen_trajectory(TrajectorySpec("square", (0.9, 0.9, 2.0)))

    def test_lawnmower_needs_two_legs(self):
        with pytest.raises(RegionTooSmall):
            gen_trajectory(TrajectorySpec("lawnmower", (4.8, 1.2, 2.0)))

    def test_random_region_too_small(self):
        with pytest.raises(RegionTooSmall):
            gen_trajectory(TrajectorySpec("random", (0.9, 0.9, 2.0)))

    def test_random_region_that_barely_holds_a_leg(self):
        # the inset square's diagonal is 0.5 m plus 0.21 mm, so all 1,000
        # candidates of the first leg fall short of 0.5 m
        with pytest.raises(RegionTooSmall, match="could not place a 0.5 m leg"):
            gen_trajectory(TrajectorySpec("random", (1.1537, 1.1537, 2.0)))

    def test_depth_profile_bounds(self):
        with pytest.raises(ValueError):
            TrajectorySpec(depth_mean=0.4, depth_amplitude=0.5)
        with pytest.raises(ValueError):
            TrajectorySpec(depth_mean=1.6, depth_amplitude=0.5)
        with pytest.raises(ValueError):
            TrajectorySpec(depth_amplitude=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["speed", "duration", "depth_mean", "depth_period"])
    def test_non_finite_trajectory_value(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrajectorySpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_region(self, value):
        with pytest.raises(ValueError, match="finite"):
            TrajectorySpec(region=(4.8, value, 2.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("stream", ["camera", "imu", "depth", "slam", "truth"])
    def test_non_finite_rate(self, stream, value):
        with pytest.raises(ValueError, match="finite"):
            SampleRates(**{stream: value})

    @pytest.mark.parametrize("field", ["pixel_sigma", "gyro_sigma", "accel_sigma",
                                       "depth_sigma", "slam_xy_sigma", "slam_yaw_sigma",
                                       "tilt_frequency", "dropout_base",
                                       "dropout_per_metre"])
    def test_non_finite_noise_value(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(**{field: value})

    def test_run_past_the_record_bound_is_a_value_error(self):
        # rate * duration overflows float; no run that large ever starts
        scene = SceneConfig(rates=SampleRates(imu=1e308))
        with pytest.raises(ValueError, match="not a finite record count"):
            Simulator(TrajectorySpec(duration=120.0), scene).run()

    def test_record_count_bound(self):
        assert record_count(30.0, 120.0) == 3600
        assert record_count(1e5, 100.0) == MAX_STREAM_RECORDS
        with pytest.raises(ValueError, match="above the bound of 1e\\+07 per stream"):
            record_count(1e5, 100.001)

    def test_non_finite_yaw_wave(self):
        for kwargs in ({"yaw_period": math.nan}, {"yaw_period": math.inf},
                       {"yaw_amplitude": math.nan}, {"yaw_amplitude": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                SceneConfig(**kwargs)


class TestFollower:
    K_SCENE = SceneConfig()
    # a level body at the origin whose camera looks straight down from 5 cm up
    RIG_DOWN = RigExtrinsics(
        RigidTransform(euler_zyx_to_rotation(0.0, 0.0, np.pi), np.zeros(3)), 0.05)

    def _camera_down(self, x=0.0, y=0.0):
        return _camera_in_world(0.0, 0.0, 0.0, x, y, self.RIG_DOWN)

    def test_centered_tag_zero_command(self):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        v = f.step(np.array([K.cx, K.cy]), self._camera_down(), -1.0, 1 / 30)
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_deadband(self):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        v = f.step(np.array([K.cx + 3.0, K.cy]), self._camera_down(), -1.0, 1 / 30)
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_offset_command_reduces_pixel_error(self):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        marker = np.array([0.102, 0.0, -1.0])

        def center_pixel(cam):
            R, t = cam
            p_cam = np.reshape(R, (3, 3)).T @ (marker - t)
            return np.array([K.cx + K.fx * p_cam[0] / p_cam[2],
                             K.cy + K.fy * p_cam[1] / p_cam[2]])

        cam = self._camera_down()
        px0 = center_pixel(cam)
        assert px0[0] - K.cx > 40  # starts well off-center
        v = f.step(px0, cam, marker[2], 1 / 30)
        assert v[0] > 0.0
        moved = self._camera_down(x=v[0] * 0.1, y=v[1] * 0.1)
        px1 = center_pixel(moved)
        assert abs(px1[0] - K.cx) < abs(px0[0] - K.cx)

    def test_max_speed_clamp(self):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        v = f.step(np.array([K.cx + 350.0, K.cy + 200.0]),
                   self._camera_down(), -1.8, 1 / 30)
        assert np.linalg.norm(v) == pytest.approx(0.6)

    def test_blind_hold_decays_to_zero(self):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        v0 = f.step(np.array([K.cx + 80.0, K.cy]), self._camera_down(), -1.0, 1 / 30)
        assert v0[0] > 0
        v1 = f.step(None, self._camera_down(), -1.0, 0.5)
        np.testing.assert_allclose(v1, np.multiply(v0, 0.5), atol=1e-15)
        v2 = f.step(None, self._camera_down(), -1.0, 0.5)
        np.testing.assert_array_equal(v2, [0.0, 0.0])
        v3 = f.step(None, self._camera_down(), -1.0, 0.5)
        np.testing.assert_array_equal(v3, [0.0, 0.0])

    @pytest.mark.parametrize("center", [(1e12, 0.0), (np.inf, 0.0), (np.nan, 1.0),
                                        (-np.inf, np.inf)])
    def test_center_with_no_ray_keeps_the_command(self, center):
        K = self.K_SCENE.intrinsics
        f = Follower(K, FollowerConfig())
        v0 = f.step(np.array([K.cx + 80.0, K.cy]), self._camera_down(), -1.0, 1 / 30)
        with np.errstate(all="raise"):
            v1 = f.step(center, self._camera_down(), -1.0, 1 / 30)
        np.testing.assert_array_equal(v1, v0)


@pytest.mark.parametrize("method", ["normal", "uniform"])
@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("n", [0, 1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1,
                               3 * _DRAW_CHUNK + 5])
def test_draws_equal_one_call_per_row(n, width, method):
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    rows = list(_draws(getattr(rng, method), n, width))
    expected = [getattr(reference, method)(size=width).tolist() for _ in range(n)]
    assert len(rows) == n
    for row, values in zip(rows, expected):
        if width == 1:
            assert type(row) is float
            row = (row,)
        else:
            assert type(row) is tuple and len(row) == width
        assert all(type(v) is float for v in row)
        assert [v.hex() for v in row] == [v.hex() for v in values]
    # no draw past the n-th: the generators stand at the same place
    assert getattr(rng, method)() == getattr(reference, method)()


class TestSimulatorStreams:
    def test_record_counts_and_merge_order(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        sim = Simulator(spec, noise=NoiseModel.zero())
        records, stats = sim.run()
        kinds = [r["kind"] for r in records]
        assert kinds.count("imu") == 200
        assert kinds.count("slam") == 80
        assert kinds.count("depth") == 30
        assert kinds.count("truth") == 200
        assert kinds.count("tag") == 60
        assert stats == {"camera_frames": 60, "in_frustum": 60,
                         "tags_emitted": 60}
        times = [r["t"] for r in records]
        assert times == sorted(times)
        # at t = 0 every stream fires; sensors come before the camera
        assert kinds[:5] == ["imu", "slam", "depth", "truth", "tag"]
        json.dumps(records)  # stream is directly serializable

    def test_zero_noise_level_accel_is_exact(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        records, _ = Simulator(spec, noise=NoiseModel.zero()).run()
        for r in records:
            if r["kind"] == "imu":
                assert r["accel"][0] == 0.0
                assert r["accel"][1] == 0.0
                assert r["accel"][2] == -9.81

    def test_gyro_matches_finite_difference_of_rotation(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 3.0)
        noise = NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           tilt_amplitude=math.radians(8.0), tilt_frequency=0.3)
        scene = SceneConfig()
        records, _ = Simulator(spec, scene, noise).run()

        A, f = noise.tilt_amplitude, noise.tilt_frequency

        def rotation(t):
            roll = A * math.sin(2 * math.pi * f * t)
            pitch = A * math.sin(2 * math.pi * 0.8 * f * t + 0.7)
            yaw = scene.yaw_amplitude * math.sin(2 * math.pi * t / scene.yaw_period)
            return _rz(yaw) @ _ry(pitch) @ _rx(roll)

        h = 1e-6
        for r in records[:400]:
            if r["kind"] != "imu":
                continue
            t = r["t"]
            R = rotation(t)
            Rdot = (rotation(t + h) - rotation(t - h)) / (2 * h)
            S = R.T @ Rdot
            omega_fd = np.array([S[2, 1], S[0, 2], S[1, 0]])
            np.testing.assert_allclose(r["gyro"], omega_fd, atol=1e-5)

    def test_accel_round_trips_through_tilt_recovery(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 3.0)
        noise = NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           tilt_amplitude=math.radians(8.0), tilt_frequency=0.3)
        records, _ = Simulator(spec, SceneConfig(), noise).run()
        A, f = noise.tilt_amplitude, noise.tilt_frequency
        checked = 0
        for r in records:
            if r["kind"] != "imu":
                continue
            t = r["t"]
            assert np.linalg.norm(r["accel"]) == pytest.approx(9.81, abs=1e-12)
            roll, pitch = _tilt(*r["accel"])
            assert roll == pytest.approx(A * math.sin(2 * math.pi * f * t), abs=1e-12)
            assert pitch == pytest.approx(
                A * math.sin(2 * math.pi * 0.8 * f * t + 0.7), abs=1e-12)
            checked += 1
        assert checked == 300

    def test_truth_records_follow_trajectory(self):
        spec = TrajectorySpec("lawnmower", duration=2.0)
        sim = Simulator(spec, noise=NoiseModel.zero())
        records, _ = sim.run()
        for r in records:
            if r["kind"] == "truth":
                np.testing.assert_array_equal(
                    r["p"], [float(v) for v in sim.trajectory.position(r["t"])])

    def test_depth_raw_is_inverse_affine(self):
        scene = SceneConfig(calibration=__import__("aquapos").depth_calibration
                            .CalibrationParams(1.3, -0.2))
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        sim = Simulator(spec, scene, NoiseModel.zero())
        records, _ = sim.run()
        for r in records:
            if r["kind"] == "depth":
                d = sim.trajectory.depth(r["t"])
                assert r["raw"] == (d - (-0.2)) / 1.3

    def test_bit_identical_reruns(self):
        spec = TrajectorySpec("random", duration=4.0, seed=3)
        noise = NoiseModel(seed=7)
        r1, s1 = Simulator(spec, SceneConfig(), noise).run()
        r2, s2 = Simulator(spec, SceneConfig(), noise).run()
        assert r1 == r2 and s1 == s2

    def test_each_run_of_one_simulator_is_the_seeded_run(self):
        spec = TrajectorySpec(duration=2.0, seed=3)
        fresh, fresh_stats = Simulator(spec).run()
        sim = Simulator(spec)
        left = sim.stream()  # a stream left half way does not carry over
        head = list(islice(left, len(fresh) // 2))
        for _ in range(2):
            records, stats = sim.run()
            # repr tells -0.0 from 0.0, where == does not
            assert repr(records) == repr(fresh)
            assert stats == fresh_stats
        assert fresh_stats["camera_frames"] == 60
        # and the runs leave it where it was
        assert repr(head + list(left)) == repr(fresh)

    def test_streams_of_one_simulator_are_independent(self):
        spec = TrajectorySpec(duration=2.0, seed=3)
        fresh, fresh_stats = Simulator(spec).run()
        sim = Simulator(spec)
        # the first stream runs ahead, then the two alternate record by record
        first, second = sim.stream(), sim.stream()
        a, b = list(islice(first, 100)), []
        for record in second:
            b.append(record)
            a.extend(islice(first, 1))
        a.extend(first)
        assert repr(a) == repr(fresh)
        assert repr(b) == repr(fresh)
        # stats are the counts of the stream started last
        assert sim.stats == fresh_stats

    def test_different_noise_seed_changes_stream(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        r1, _ = Simulator(spec, noise=NoiseModel(seed=1)).run()
        r2, _ = Simulator(spec, noise=NoiseModel(seed=2)).run()
        assert r1 != r2

    def test_full_dropout_emits_no_tags(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        noise = NoiseModel(dropout_base=1.0)
        records, stats = Simulator(spec, SceneConfig(), noise).run()
        assert all(r["kind"] != "tag" for r in records)
        assert stats["tags_emitted"] == 0
        assert stats["in_frustum"] > 0

    def test_slam_yaw_is_scripted_wave_at_zero_noise(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 2.0)
        scene = SceneConfig()
        records, _ = Simulator(spec, scene, NoiseModel.zero()).run()
        for r in records:
            if r["kind"] == "slam":
                expected = scene.yaw_amplitude * math.sin(
                    2 * math.pi * r["t"] / scene.yaw_period)
                assert r["yaw"] == expected


class _SurfaceRecorder(Simulator):
    """Keeps the surface position each SLAM sample is handed, and the time and
    surface position each camera frame is handed."""

    def _slam_record(self, t, sx, sy, n):
        self.surfaces.append((sx, sy))
        return super()._slam_record(t, sx, sy, n)

    def _camera_record(self, t, sx, sy, pixel_noise, u, follower, stats):
        self.frames.append((t, (sx, sy)))
        return super()._camera_record(t, sx, sy, pixel_noise, u, follower, stats)


def _bits(values):
    # float.hex tells -0.0 from 0.0, where == does not
    return [float(v).hex() for v in values]


def _numpy_position(spec, t):
    """MarkerTrajectory.position as the numpy formula it replaced."""
    wp = gen_trajectory(spec).waypoints
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))])
    s, total = spec.speed * t, cum[-1]
    if spec.pattern == "square":
        s = s % total
    elif spec.pattern == "lawnmower":
        m = s % (2.0 * total)
        s = m if m <= total else 2.0 * total - m
    else:
        s = min(s, total)
    i = min(max(int(np.searchsorted(cum, s, side="right")) - 1, 0), len(wp) - 2)
    xy = wp[i] + (s - cum[i]) / (cum[i + 1] - cum[i]) * (wp[i + 1] - wp[i])
    depth = spec.depth_mean + spec.depth_amplitude * math.sin(
        2.0 * math.pi * t / spec.depth_period)
    return np.array([xy[0], xy[1], -depth])


def _reference_tags(sim):
    """(t, corners) of each tag record the recorded frames should emit.

    Plain left-to-right sums over the rows of euler_zyx_to_rotation and of
    the rig, one pixel and one dropout draw per frame, at the surface
    position the frame read.
    """
    scene, noise = sim.scene, sim.noise
    streams = np.random.SeedSequence(noise.seed).spawn(6)
    rng_pixel, rng_drop = (np.random.default_rng(streams[i]) for i in (0, 5))
    K = scene.intrinsics
    B = scene.rig.camera_in_body.rotation.tolist()
    b = scene.rig.camera_in_body.translation.tolist()
    a, f = noise.tilt_amplitude, noise.tilt_frequency
    tags = []
    for t, (sx, sy) in sim.frames:
        n = rng_pixel.normal(size=(4, 2)).tolist()
        u = rng_drop.uniform()
        roll = a * math.sin(2.0 * math.pi * f * t)
        pitch = a * math.sin(2.0 * math.pi * 0.8 * f * t + 0.7)
        yaw = scene.yaw_amplitude * math.sin(2.0 * math.pi * t / scene.yaw_period)
        A = euler_zyx_to_rotation(yaw, pitch, roll).tolist()
        R = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] + A[i][2] * B[2][j] for j in range(3)]
             for i in range(3)]
        origin = [A[i][0] * b[0] + A[i][1] * b[1] + A[i][2] * b[2] + o
                  for i, o in enumerate((sx, sy, scene.rig.body_height))]
        m = _numpy_position(sim.spec, t).tolist()
        heading = sim.trajectory.pose(t)[3]
        c, s = math.cos(heading), math.sin(heading)
        R_wm = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
        pixels = []
        for corner in scene.tag.corners().tolist():
            w = [r[0] * corner[0] + r[1] * corner[1] + r[2] * corner[2] + m[i] - origin[i]
                 for i, r in enumerate(R_wm)]
            x, y, z = (R[0][j] * w[0] + R[1][j] * w[1] + R[2][j] * w[2] for j in range(3))
            if z > 1e-6:
                px, py = K.fx * x / z + K.cx, K.fy * y / z + K.cy
                if 0.0 <= px <= K.width and 0.0 <= py <= K.height:
                    pixels.append((px, py))
        if len(pixels) == 4 and u >= noise.p_drop(-m[2]):
            sigma = noise.pixel_sigma
            tags.append((t, [[px + sigma * nx, py + sigma * ny]
                             for (px, py), (nx, ny) in zip(pixels, n)]))
    return tags


_REFERENCE_RUNS = pytest.mark.parametrize("spec, noise", [
    (TrajectorySpec("square", speed=0.4, duration=30.0, seed=2), NoiseModel(seed=2)),
    (TrajectorySpec("lawnmower", speed=0.4, duration=40.0), NoiseModel.zero(seed=3)),
    (TrajectorySpec("random", duration=20.0, seed=5),
     NoiseModel(accel_sigma=0.0, tilt_amplitude=0.0, seed=5)),
], ids=["square-noisy", "lawnmower-noiseless", "random-level"])


def _recorded_run(spec, noise):
    scene = SceneConfig(calibration=CalibrationParams(1.05, -0.03))
    sim = _SurfaceRecorder(spec, scene, noise)
    sim.surfaces, sim.frames = [], []
    records, _ = sim.run()
    return sim, records


class TestScalarRecordsMatchNumpyFormulas:
    """IMU, SLAM, depth and truth records equal, bit for bit and signed zeros
    included, the numpy formulas the float-native ones replaced: one draw
    per sample from each stream, omega and R_wb^T (0, 0, -g) as arrays.
    Tag records equal plain left-to-right float sums, which is what numpy's
    products give on a BLAS kernel without fused multiply-add."""

    @_REFERENCE_RUNS
    def test_records_equal_numpy_reference(self, spec, noise):
        sim, records = _recorded_run(spec, noise)
        scene = sim.scene
        streams = np.random.SeedSequence(noise.seed).spawn(6)
        rng_gyro, rng_accel, rng_depth, rng_slam = (
            np.random.default_rng(streams[i]) for i in (1, 2, 3, 4))
        a, f = noise.tilt_amplitude, noise.tilt_frequency
        wr, wp = 2.0 * math.pi * f, 2.0 * math.pi * 0.8 * f
        w = 2.0 * math.pi / scene.yaw_period
        surfaces = iter(sim.surfaces)
        zeros = 0
        for r in records:
            t = r["t"]
            yaw = scene.yaw_amplitude * math.sin(2.0 * math.pi * t / scene.yaw_period)
            if r["kind"] == "imu":
                roll = a * math.sin(2.0 * math.pi * f * t)
                pitch = a * math.sin(2.0 * math.pi * 0.8 * f * t + 0.7)
                roll_rate, pitch_rate = a * wr * math.cos(wr * t), a * wp * math.cos(wp * t + 0.7)
                yaw_rate = scene.yaw_amplitude * w * math.cos(w * t)
                sr, cr = math.sin(roll), math.cos(roll)
                sp, cp = math.sin(pitch), math.cos(pitch)
                omega = np.array([
                    roll_rate - yaw_rate * sp,
                    pitch_rate * cr + yaw_rate * cp * sr,
                    -pitch_rate * sr + yaw_rate * cp * cr,
                ])
                R_wb = euler_zyx_to_rotation(yaw, pitch, roll)
                accel = R_wb.T @ np.array([0.0, 0.0, -GRAVITY])
                gyro = omega + noise.gyro_sigma * rng_gyro.normal(size=3)
                accel = accel + noise.accel_sigma * rng_accel.normal(size=3)
                assert _bits(r["gyro"]) == _bits(gyro)
                assert _bits(r["accel"]) == _bits(accel)
                zeros += sum(v == 0.0 for v in r["accel"])
            elif r["kind"] == "slam":
                surface = np.array(next(surfaces))
                n = noise.slam_xy_sigma * rng_slam.normal(size=2)
                expected = (surface[0] + n[0], surface[1] + n[1],
                            yaw + noise.slam_yaw_sigma * rng_slam.normal())
                assert _bits((r["x"], r["y"], r["yaw"])) == _bits(expected)
            elif r["kind"] == "depth":
                p = scene.calibration
                raw = (-_numpy_position(spec, t)[2] - p.offset) / p.scale
                raw = raw + noise.depth_sigma * rng_depth.normal()
                assert _bits([r["raw"]]) == _bits([raw])
            elif r["kind"] == "truth":
                assert _bits(r["p"]) == _bits(_numpy_position(spec, t))
        assert next(surfaces, None) is None
        # level runs without accelerometer noise write signed zeros
        assert zeros > 0 or noise.accel_sigma > 0

    @_REFERENCE_RUNS
    def test_tag_records_equal_float_reference(self, spec, noise):
        sim, records = _recorded_run(spec, noise)
        tags = [(r["t"], r["corners"]) for r in records if r["kind"] == "tag"]
        expected = _reference_tags(sim)
        assert len(tags) == len(expected) > 0
        for (t, corners), (t_ref, corners_ref) in zip(tags, expected):
            assert t == t_ref
            assert _bits(sum(corners, [])) == _bits(sum(corners_ref, []))


class TestClosedLoop:
    def test_follower_keeps_tag_in_frustum_over_square_loop(self):
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 45.0)
        _, stats = Simulator(spec, noise=NoiseModel.zero()).run()
        assert stats["camera_frames"] == 1350
        assert stats["in_frustum"] / stats["camera_frames"] >= 0.99

    def test_noiseless_stream_reproduces_truth_through_estimators(self):
        rates = SampleRates(camera=30.0, imu=30.0, depth=30.0, slam=30.0,
                            truth=30.0)
        scene = SceneConfig(rates=rates)
        spec = TrajectorySpec("square", (2.8, 2.8, 2.0), 0.2, 10.0)
        records, stats = Simulator(spec, scene, NoiseModel.zero()).run()
        assert stats["tags_emitted"] == stats["camera_frames"]

        pipe = EstimationPipeline(scene.rig, scene.intrinsics, scene.tag)
        estimates = []
        for rec in records:
            estimates.extend(pipe.process(rec))
        assert all(v == 0 for v in pipe.counters.values())

        truth = [(r["t"], r["p"]) for r in records if r["kind"] == "truth"]
        truth_t = [t for t, _ in truth]
        truth_p = [p for _, p in truth]
        by_depth = {r["t"]: r["raw"] for r in records if r["kind"] == "depth"}

        for method, tol in (("cd", 1e-9), ("cpnp", 1e-6)):
            sel = [e for e in estimates if e.method == method]
            assert len(sel) == 300
            pairs, dropped = align([e.timestamp for e in sel],
                                   [e.position for e in sel], truth_t, truth_p)
            assert dropped == 0
            assert med(pairs) < tol
        for e in estimates:
            if e.method == "cd":
                # identity depth calibration passes the raw value through,
                # so the z channel is bit-exact
                assert e.position[2] == -by_depth[e.timestamp]
