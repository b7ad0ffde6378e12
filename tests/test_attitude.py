import numpy as np
import pytest

from aquapos.attitude import (
    GRAVITY,
    ImuSample,
    TiltConfig,
    TiltState,
    TiltTracker,
    accel_to_tilt,
    ekf_predict,
    ekf_update,
    fuse_full_rotation,
    predict_mean,
    prediction_jacobian,
)
from aquapos.camera import DEFAULT_INTRINSICS, TagGeometry
from aquapos.errors import AccelOutOfRange, GimbalLockNear, PitchSingularity
from aquapos.estimators import EstimationPipeline, default_rig


def _gravity_accel(roll, pitch):
    """Body-frame accelerometer reading for a static vehicle at the given tilt."""
    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return GRAVITY * np.array([sp, -cp * sr, -cp * cr])


def _body_rates(roll, pitch, roll_rate, pitch_rate, yaw_rate):
    """Gyro reading equivalent to the given Euler-angle rates."""
    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return np.array(
        [
            roll_rate - yaw_rate * sp,
            pitch_rate * cr + yaw_rate * cp * sr,
            -pitch_rate * sr + yaw_rate * cp * cr,
        ]
    )


class TestPredict:
    def test_zero_rates_grow_covariance_by_q(self):
        cfg = TiltConfig()
        s = TiltState(0.05, -0.02, np.diag([1e-3, 2e-3]))
        out = ekf_predict(s, [0, 0, 0], 0.01, cfg)
        assert out.roll == s.roll and out.pitch == s.pitch
        np.testing.assert_allclose(out.covariance, s.covariance + cfg.q, atol=0)

    def test_pure_roll_rate(self):
        cfg = TiltConfig()
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        out = ekf_predict(s, [0.1, 0, 0], 0.01, cfg)
        assert out.roll == pytest.approx(0.001, abs=1e-15)
        assert out.pitch == 0.0

    def test_jacobian_against_finite_differences(self):
        rng = np.random.default_rng(20)
        h = 1e-6
        for _ in range(100):
            roll = rng.uniform(-0.5, 0.5)
            pitch = rng.uniform(-0.5, 0.5)
            gyro = rng.uniform(-1, 1, size=3)
            dt = rng.uniform(0.001, 0.05)
            A = prediction_jacobian(roll, pitch, gyro, dt)
            fd = np.zeros((2, 2))
            for j, (dr, dp) in enumerate([(h, 0.0), (0.0, h)]):
                fp = predict_mean(roll + dr, pitch + dp, gyro, dt)
                fm = predict_mean(roll - dr, pitch - dp, gyro, dt)
                fd[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
            assert np.max(np.abs(A - fd)) <= 1e-6

    def test_dt_bounds(self):
        s = TiltState(0, 0, np.eye(2) * 1e-4)
        with pytest.raises(ValueError):
            ekf_predict(s, [0, 0, 0], 0.0, TiltConfig())
        with pytest.raises(ValueError):
            ekf_predict(s, [0, 0, 0], 0.6, TiltConfig())

    def test_pitch_singularity(self):
        s = TiltState(0.0, np.pi / 2 - 1e-4, np.eye(2) * 1e-4)
        with pytest.raises(PitchSingularity):
            ekf_predict(s, [0, 0.1, 0], 0.01, TiltConfig())


class TestAccelToTilt:
    def test_level(self):
        roll, pitch = accel_to_tilt([0, 0, -GRAVITY])
        assert roll == 0.0 and pitch == 0.0

    def test_upside_down_regression(self):
        # pinned behaviour for an inverted sensor
        roll, pitch = accel_to_tilt([0, 0, GRAVITY])
        assert abs(roll) == pytest.approx(np.pi)
        assert pitch == 0.0

    def test_out_of_range(self):
        with pytest.raises(AccelOutOfRange):
            accel_to_tilt([0, 0, -0.01])
        with pytest.raises(AccelOutOfRange):
            accel_to_tilt([0, 0, -2.0 * GRAVITY])

    def test_round_trip_from_gravity_model(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            roll = rng.uniform(-1.0, 1.0)
            pitch = rng.uniform(-1.0, 1.0)
            r, p = accel_to_tilt(_gravity_accel(roll, pitch))
            assert r == pytest.approx(roll, abs=1e-12)
            assert p == pytest.approx(pitch, abs=1e-12)


class TestUpdate:
    def test_measurement_at_prior_mean(self):
        cfg = TiltConfig()
        s = TiltState(0.1, -0.05, np.diag([1e-3, 1e-3]))
        out = ekf_update(s, _gravity_accel(0.1, -0.05), cfg)
        assert out.roll == pytest.approx(0.1, abs=1e-12)
        assert out.pitch == pytest.approx(-0.05, abs=1e-12)
        assert np.trace(out.covariance) < np.trace(s.covariance)

    def test_static_convergence_200_steps(self):
        cfg = TiltConfig()
        s = TiltState(0.2, 0.0, cfg.p0)
        accel = [0.0, 0.0, -GRAVITY]
        for _ in range(200):
            s = ekf_predict(s, [0, 0, 0], 0.01, cfg)
            s = ekf_update(s, accel, cfg)
        assert abs(s.roll) < 1e-3

    def test_zero_gain_freezes_state(self):
        cfg = TiltConfig(q=np.zeros((2, 2)), p0=np.zeros((2, 2)))
        s = TiltState(0.0, 0.0, cfg.p0)
        for _ in range(50):
            s = ekf_predict(s, [0, 0, 0], 0.01, cfg)
            s = ekf_update(s, _gravity_accel(0.1, 0.05), cfg)
        assert s.roll == 0.0 and s.pitch == 0.0

    def test_trace_never_increases_on_update(self):
        rng = np.random.default_rng(22)
        cfg = TiltConfig()
        for _ in range(100):
            P = rng.uniform(1e-6, 1e-2) * np.eye(2)
            P[0, 1] = P[1, 0] = rng.uniform(-1e-6, 1e-6)
            s = TiltState(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), P)
            out = ekf_update(s, _gravity_accel(0.0, 0.0), cfg)
            assert np.trace(out.covariance) <= np.trace(s.covariance) + 1e-15


class TestCovarianceHealth:
    def test_psd_through_10000_cycles(self):
        rng = np.random.default_rng(23)
        cfg = TiltConfig()
        s = TiltState(0.0, 0.0, cfg.p0)
        roll = pitch = 0.0
        for _ in range(10000):
            roll = np.clip(roll + rng.normal(0, 0.002), -0.4, 0.4)
            pitch = np.clip(pitch + rng.normal(0, 0.002), -0.4, 0.4)
            gyro = rng.normal(0, 0.2, size=3)
            s = ekf_predict(s, gyro, 0.01, cfg)
            s = ekf_update(s, _gravity_accel(roll, pitch), cfg)
            P = s.covariance
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.linalg.eigvalsh(P)[0] >= -1e-12


class TestConvergenceAndTracking:
    def test_static_convergence_within_5s(self):
        cfg = TiltConfig()
        for roll0, pitch0 in [(0.3, 0.3), (-0.3, 0.2), (0.25, -0.3), (-0.1, -0.25)]:
            s = TiltState(roll0, pitch0, cfg.p0)
            accel = [0.0, 0.0, -GRAVITY]
            for _ in range(500):  # 5 s at 100 Hz
                s = ekf_predict(s, [0, 0, 0], 0.01, cfg)
                s = ekf_update(s, accel, cfg)
            err = np.hypot(s.roll, s.pitch)
            assert err < np.radians(0.5)

    def test_sinusoidal_tracking_rms(self):
        amp = np.radians(10.0)
        freq = 0.5
        w = 2 * np.pi * freq
        tracker = TiltTracker(TiltConfig())
        errors = []
        for k in range(2000):  # 20 s at 100 Hz
            t = k / 100.0
            roll = amp * np.sin(w * t)
            pitch = amp * np.sin(w * t + 1.0)
            roll_rate = amp * w * np.cos(w * t)
            pitch_rate = amp * w * np.cos(w * t + 1.0)
            sample = ImuSample(
                t,
                _body_rates(roll, pitch, roll_rate, pitch_rate, 0.0),
                _gravity_accel(roll, pitch),
            )
            state = tracker.feed(sample)
            errors.append([state.roll - roll, state.pitch - pitch])
        rms = np.sqrt(np.mean(np.square(errors)))
        assert rms < np.radians(0.5)


class TestFuseFullRotation:
    def test_identity(self):
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        np.testing.assert_allclose(fuse_full_rotation(s, 0.0), np.eye(3), atol=0)

    def test_pure_yaw(self):
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        R = fuse_full_rotation(s, np.pi / 2)
        np.testing.assert_allclose(R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_per_axis_product_oracle(self):
        def rx(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def ry(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        def rz(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        s = TiltState(0.05, -0.03, np.eye(2) * 1e-4)
        R = fuse_full_rotation(s, 1.0)
        np.testing.assert_allclose(R, rz(1.0) @ ry(-0.03) @ rx(0.05), atol=1e-12)

    def test_gimbal_guard_propagates(self):
        s = TiltState(0.0, np.pi / 2 - 1e-8, np.eye(2) * 1e-4)
        with pytest.raises(GimbalLockNear):
            fuse_full_rotation(s, 0.0)


class TestTypesAndTracker:
    def test_imu_sample_rejects_free_fall(self):
        with pytest.raises(ValueError):
            ImuSample(0.0, [0, 0, 0], [0, 0, -0.05])

    def test_tilt_state_validation(self):
        with pytest.raises(ValueError):
            TiltState(0.0, np.pi / 2, np.eye(2))
        with pytest.raises(ValueError):
            TiltState(0.0, 0.0, np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            TiltState(0.0, 0.0, np.diag([1.0, -1.0]))

    def test_config_requires_pd_measurement_noise(self):
        with pytest.raises(ValueError):
            TiltConfig(r=np.zeros((2, 2)))
        TiltConfig(q=np.zeros((2, 2)))  # semi-definite process noise is fine

    def test_tracker_initializes_from_first_sample(self):
        tracker = TiltTracker()
        state = tracker.feed(ImuSample(0.0, [0, 0, 0], _gravity_accel(0.1, -0.2)))
        assert state.roll == pytest.approx(0.1, abs=1e-12)
        assert state.pitch == pytest.approx(-0.2, abs=1e-12)

    def test_tracker_skips_update_on_bad_accel(self):
        tracker = TiltTracker()
        tracker.feed(ImuSample(0.0, [0, 0, 0], [0, 0, -GRAVITY]))
        # 0.3 g passes sample validation but is outside the quasi-static range
        state = tracker.feed(ImuSample(0.01, [0.1, 0, 0], [0, 0, -0.3 * GRAVITY]))
        assert state.roll == pytest.approx(0.001, abs=1e-12)


def _reference_predict(roll, pitch, P, gyro, dt, q):
    """Matrix form of the prediction: Euler kinematics, A P A^T + Q."""
    wx, wy, wz = gyro
    sr, cr, tp = np.sin(roll), np.cos(roll), np.tan(pitch)
    x = np.array([roll + dt * (wx + wy * sr * tp + wz * cr * tp),
                  pitch + dt * (wy * cr - wz * sr)])
    A = np.array([
        [1.0 + dt * tp * (wy * cr - wz * sr),
         dt * (wy * sr + wz * cr) / np.cos(pitch) ** 2],
        [-dt * (wy * sr + wz * cr), 1.0],
    ])
    P = A @ P @ A.T + q
    return x, 0.5 * (P + P.T)


def _reference_update(roll, pitch, P, accel, r):
    """Matrix form of the update: K = P (P + R)^-1 and the Joseph form."""
    a = np.asarray(accel)
    z = np.array([np.arctan2(-a[1], -a[2]), np.arctan2(a[0], np.hypot(a[1], a[2]))])
    x = np.array([roll, pitch])
    innovation = (z - x + np.pi) % (2 * np.pi) - np.pi
    K = P @ np.linalg.inv(P + r)
    IK = np.eye(2) - K
    P = IK @ P @ IK.T + K @ r @ K.T
    return x + K @ innovation, 0.5 * (P + P.T)


def _random_psd(rng, scale, rank=2):
    M = rng.normal(size=(2, rank)) * scale
    return M @ M.T


def _assert_matches(step, x, P_ref):
    """step() agrees with the reference mean x and covariance P_ref, or raises
    like the TiltState constructor when the reference pitch leaves the range."""
    if abs(x[1]) >= np.pi / 2:
        with pytest.raises(ValueError, match="pitch"):
            step()
        return False
    out = step()
    assert abs(out.roll - x[0]) <= 1e-12 and abs(out.pitch - x[1]) <= 1e-12
    assert np.max(np.abs(out.covariance - P_ref)) <= 1e-12
    np.testing.assert_array_equal(out.covariance, out.covariance.T)
    return True


class TestScalarKernels:
    def test_predict_and_update_match_matrix_formulas(self):
        rng = np.random.default_rng(25)
        matched = 0
        for k in range(1200):
            # rank-1 q is semi-definite; both are non-diagonal
            q = _random_psd(rng, rng.uniform(1e-4, 1e-2), rank=1 + k % 2)
            # a well-conditioned r: with cond(P + R) ~ 1e4 both forms round
            # the gain to a few 1e-13, which says nothing about either form
            r_scale = rng.uniform(0.03, 0.3)
            r = _random_psd(rng, r_scale) + r_scale**2 * np.eye(2)
            cfg = TiltConfig(q=q, r=r)
            P = _random_psd(rng, rng.uniform(1e-3, 0.3))
            s = TiltState(rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0), P)
            gyro = rng.uniform(-1.0, 1.0, size=3)
            dt = rng.uniform(1e-4, 0.25)
            matched += _assert_matches(
                lambda: ekf_predict(s, gyro, dt, cfg),
                *_reference_predict(s.roll, s.pitch, s.covariance, gyro, dt, cfg.q),
            )
            # a tilt near the state's, across the +/-pi roll wrap for some
            accel = (_gravity_accel(s.roll + rng.normal(0.0, 0.5),
                                    s.pitch + rng.normal(0.0, 0.2))
                     + rng.normal(0.0, 0.5, size=3))
            matched += _assert_matches(
                lambda: ekf_update(s, accel, cfg),
                *_reference_update(s.roll, s.pitch, s.covariance, accel, cfg.r),
            )
        assert matched >= 2000


class TestTrackerInvariants:
    def test_noisy_stream_states_pass_public_checks(self):
        rng = np.random.default_rng(26)
        tracker = TiltTracker()
        t = roll = pitch = 0.0
        for k in range(2000):
            t += rng.uniform(0.001, 0.02)
            roll = np.clip(roll + rng.normal(0, 0.01), -0.6, 0.6)
            pitch = np.clip(pitch + rng.normal(0, 0.01), -0.6, 0.6)
            accel = _gravity_accel(roll, pitch) + rng.normal(0, 0.3, size=3)
            if k % 50 == 7:
                accel = 0.3 * accel  # outside the quasi-static range: no update
            s = tracker.feed(ImuSample(t, rng.normal(0, 0.3, size=3), accel))
            checked = TiltState(s.roll, s.pitch, s.covariance)
            np.testing.assert_array_equal(checked.covariance, s.covariance)

    @pytest.mark.parametrize(
        "accel0, t1, error",
        [
            # pitch within 1e-3 rad of 90 deg: the next predict is singular
            ([GRAVITY, 0.0, -0.005], 0.01, PitchSingularity),
            # a gap longer than the 0.5 s dt bound
            ([0.0, 0.0, -GRAVITY], 0.6, ValueError),
        ],
    )
    def test_rejected_sample_leaves_state_and_counts(self, accel0, t1, error):
        first = {"t": 0.0, "kind": "imu", "gyro": [0.0, 0.0, 0.0], "accel": accel0}
        bad = {"t": t1, "kind": "imu", "gyro": [0.0, 0.1, 0.0],
               "accel": [0.0, 0.0, -GRAVITY]}
        tracker = TiltTracker()
        tracker.feed(ImuSample(first["t"], first["gyro"], first["accel"]))
        before = tracker.state
        with pytest.raises(error):
            tracker.feed(ImuSample(bad["t"], bad["gyro"], bad["accel"]))
        assert tracker.state is before

        pipeline = EstimationPipeline(default_rig(), DEFAULT_INTRINSICS, TagGeometry(0.2))
        pipeline.process(first)
        before = pipeline.tracker.state
        pipeline.process(bad)
        assert pipeline.tracker.state is before
        assert pipeline.counters["imu_rejected"] == 1

    def test_gap_rejects_one_sample_and_the_filter_runs_on(self):
        # a gap over the 0.5 s dt bound rejects the sample after it; the
        # clock still advances, so the samples that follow predict again
        pipeline = EstimationPipeline(
            default_rig(), DEFAULT_INTRINSICS, TagGeometry(0.2)
        )
        level = [0.0, 0.0, -GRAVITY]
        for t in [0.0, 0.01] + [0.70 + 0.01 * k for k in range(100)]:
            pipeline.process({"t": t, "kind": "imu", "gyro": [0.0, 0.1, 0.0],
                              "accel": level})
        assert pipeline.counters["imu_rejected"] == 1
        # 99 predicts at 0.1 rad/s pitch rate moved the pitch off zero
        assert pipeline.tracker.state.pitch > 1e-3
