import math

import numpy as np
import pytest

from aquapos import attitude
from aquapos.attitude import (
    GRAVITY,
    MAX_VARIANCE,
    ImuSample,
    TiltConfig,
    TiltState,
    TiltTracker,
    _entries,
    _propagate,
    _step,
    _tilt,
    ekf_update,
    prediction_jacobian,
)
from aquapos.camera import DEFAULT_INTRINSICS, TagGeometry
from aquapos.errors import AccelOutOfRange, GimbalLockNear, PitchSingularity
from aquapos.estimators import EstimationPipeline, default_rig
from aquapos.geometry import euler_zyx_to_rotation


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


def _predict_state(state, gyro, dt, cfg):
    """The filter kernel's predict half on a TiltState, the type ekf_update takes."""
    roll, pitch, p00, p01, p11 = _step(
        (state.roll, state.pitch, *_entries(state.covariance)),
        [float(w) for w in gyro], dt, _entries(cfg.q), None, None)
    return TiltState(roll, pitch, [[p00, p01], [p01, p11]])


class TestPredict:
    def test_zero_rates_grow_covariance_by_q(self):
        cfg = TiltConfig()
        s = TiltState(0.05, -0.02, np.diag([1e-3, 2e-3]))
        out = _predict_state(s, [0, 0, 0], 0.01, cfg)
        assert out.roll == s.roll and out.pitch == s.pitch
        np.testing.assert_allclose(out.covariance, s.covariance + cfg.q, atol=0)

    def test_pure_roll_rate(self):
        cfg = TiltConfig()
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        out = _predict_state(s, [0.1, 0, 0], 0.01, cfg)
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
                fp = _propagate(roll + dr, pitch + dp, *gyro, dt)[:2]
                fm = _propagate(roll - dr, pitch - dp, *gyro, dt)[:2]
                fd[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
            assert np.max(np.abs(A - fd)) <= 1e-6

    def test_dt_bounds(self):
        s = TiltState(0, 0, np.eye(2) * 1e-4)
        with pytest.raises(ValueError):
            _predict_state(s, [0, 0, 0], 0.0, TiltConfig())
        with pytest.raises(ValueError):
            _predict_state(s, [0, 0, 0], 0.6, TiltConfig())

    def test_pitch_singularity(self):
        s = TiltState(0.0, np.pi / 2 - 1e-4, np.eye(2) * 1e-4)
        with pytest.raises(PitchSingularity):
            _predict_state(s, [0, 0.1, 0], 0.01, TiltConfig())


class TestOneRulePerStep:
    # a pitch 2e-3 rad short of 90 deg at 1 rad/s predicts to 8e-3 rad past it
    X = (0.0, math.pi / 2 - 2e-3, 1e-2, 0.0, 1e-2)
    GYRO, DT = (0.0, 1.0, 0.0), 0.01

    def test_update_that_mends_the_predicted_state_is_accepted(self):
        cfg = TiltConfig()
        q, r = _entries(cfg.q), _entries(cfg.r)
        with pytest.raises(ValueError, match="pitch out of"):
            _step(self.X, self.GYRO, self.DT, q, None, r)
        # the same sample's level accelerometer pulls the pitch back inside
        roll, pitch, *_ = _step(self.X, self.GYRO, self.DT, q, (0.0, 0.0), r)
        assert abs(pitch) < 0.1 and roll == 0.0

    def test_each_sample_checks_one_state(self, monkeypatch):
        calls = []
        checked = attitude._checked
        monkeypatch.setattr(attitude, "_checked", lambda *x: calls.append(x) or checked(*x))
        tracker = TiltTracker()
        for k in range(50):
            tracker.feed(ImuSample(0.01 * k, [0.0, 0.1, 0.0], _gravity_accel(0.0, 0.001 * k)))
        assert len(calls) == 50
        assert calls[-1] == tracker.state._x


class TestAccelToTilt:
    def test_level(self):
        roll, pitch = _tilt(0, 0, -GRAVITY)
        assert roll == 0.0 and pitch == 0.0

    def test_upside_down_regression(self):
        # pinned behaviour for an inverted sensor
        roll, pitch = _tilt(0, 0, GRAVITY)
        assert abs(roll) == pytest.approx(np.pi)
        assert pitch == 0.0

    def test_out_of_range(self):
        with pytest.raises(AccelOutOfRange):
            _tilt(0, 0, -0.01)
        with pytest.raises(AccelOutOfRange):
            _tilt(0, 0, -2.0 * GRAVITY)

    def test_round_trip_from_gravity_model(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            roll = rng.uniform(-1.0, 1.0)
            pitch = rng.uniform(-1.0, 1.0)
            r, p = _tilt(*_gravity_accel(roll, pitch))
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
            s = _predict_state(s, [0, 0, 0], 0.01, cfg)
            s = ekf_update(s, accel, cfg)
        assert abs(s.roll) < 1e-3

    def test_zero_gain_freezes_state(self):
        cfg = TiltConfig(q=np.zeros((2, 2)), p0=np.zeros((2, 2)))
        s = TiltState(0.0, 0.0, cfg.p0)
        for _ in range(50):
            s = _predict_state(s, [0, 0, 0], 0.01, cfg)
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
            s = _predict_state(s, gyro, 0.01, cfg)
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
                s = _predict_state(s, [0, 0, 0], 0.01, cfg)
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
    """Body-to-world rotation from the filter's tilt plus an external yaw."""

    @staticmethod
    def _fuse(tilt, yaw):
        return euler_zyx_to_rotation(yaw, tilt.pitch, tilt.roll)

    def test_identity(self):
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        np.testing.assert_allclose(self._fuse(s, 0.0), np.eye(3), atol=0)

    def test_pure_yaw(self):
        s = TiltState(0.0, 0.0, np.eye(2) * 1e-4)
        R = self._fuse(s, np.pi / 2)
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
        R = self._fuse(s, 1.0)
        np.testing.assert_allclose(R, rz(1.0) @ ry(-0.03) @ rx(0.05), atol=1e-12)

    def test_gimbal_guard_propagates(self):
        s = TiltState(0.0, np.pi / 2 - 1e-8, np.eye(2) * 1e-4)
        with pytest.raises(GimbalLockNear):
            self._fuse(s, 0.0)


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

    def test_config_arrays_read_as_before(self):
        cfg = TiltConfig()
        for name, var in (("q", 1e-6), ("r", 4e-4), ("p0", 1e-2)):
            assert name not in vars(cfg)
            M = getattr(cfg, name)
            assert M.dtype == np.float64 and np.array_equal(M, np.diag([var, var]))
            assert getattr(cfg, name) is M
        assert (cfg._q, cfg._r, cfg._p0) == ((1e-6, 0.0, 1e-6), (4e-4, 0.0, 4e-4),
                                             (1e-2, 0.0, 1e-2))

    def test_config_takes_float_rows_and_arrays_alike(self):
        rows = ((2e-4, 1e-5), (1e-5, 3e-4))
        from_rows = TiltConfig(r=rows)
        from_array = TiltConfig(r=np.array(rows))
        from_lists = TiltConfig(r=[list(row) for row in rows])
        assert from_rows._r == from_array._r == from_lists._r == (2e-4, 1e-5, 3e-4)
        assert np.array_equal(from_rows.r, np.array(rows))
        # a matrix off symmetric within 1e-12 is symmetrised
        near = TiltConfig(q=((1e-3, 1e-13), (0.0, 1e-3)))
        assert near._q == (1e-3, 0.5e-13, 1e-3)

    @pytest.mark.parametrize("value, message", [
        (((1.0, 0.5), (0.0, 1.0)), "r must be symmetric"),
        (((1.0, float("nan")), (float("nan"), 1.0)), "r must be a finite 2x2 matrix"),
        (((1.0, 0.0), (0.0, 0.0)), "r must be positive definite"),
        (((1.0, 0.0, 0.0),), "r must be a finite 2x2 matrix"),
        (((1.0, 1e308), (-1e308, 1.0)), "r must be symmetric"),
    ])
    def test_config_float_rows_get_the_array_checks(self, value, message):
        for r in (value, np.array(value)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                TiltConfig(r=r)

    def test_config_bounds_variances_whose_square_overflows(self):
        # above about 1.3e154 a product of two entries overflows, and the
        # filter would reject every sample after the first
        for name in ("q", "p0"):
            with pytest.raises(ValueError, match=f"^{name} entries must not exceed 1e\\+150$"):
                TiltConfig(**{name: np.diag([1e160, 1e160])})
        big = np.diag([MAX_VARIANCE] * 2)
        tracker = TiltTracker(TiltConfig(q=big, p0=big))
        for k in range(800):
            t = k / 400.0
            tracker.feed(ImuSample(t, [0.2 * math.cos(2 * t), -0.15 * math.sin(3 * t), 0.01],
                                   _gravity_accel(0.1 * math.sin(2 * t), 0.05 * math.cos(3 * t))))
        assert all(map(math.isfinite, tracker.state._x))

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
                lambda: _predict_state(s, gyro, dt, cfg),
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

    def test_near_vertical_state_rejects_one_sample_then_reseeds(self):
        # a state within 1e-3 rad of 90 deg pitch cannot be predicted from;
        # the sample after the rejected one seeds the filter from its accel
        pipeline = EstimationPipeline(
            default_rig(), DEFAULT_INTRINSICS, TagGeometry(0.2)
        )
        pipeline.process({"t": 0.0, "kind": "imu", "gyro": [0.0, 0.0, 0.0],
                          "accel": [GRAVITY, 0.0, -0.005]})
        for k in range(1, 101):
            pipeline.process({"t": 0.01 * k, "kind": "imu", "gyro": [0.0, 0.0, 0.0],
                              "accel": [0.0, 0.0, -GRAVITY]})
        assert pipeline.counters["imu_rejected"] == 1
        assert abs(pipeline.tracker.state.pitch) < 1e-3


# --- reference: the tracker as it was on TiltState objects and numpy vectors ---


def _ref_vec3(v):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError("components must be finite")
    return a


def _ref_sample(t, gyro, accel):
    g, a = _ref_vec3(gyro), _ref_vec3(accel)
    ax, ay, az = a.tolist()
    if math.sqrt(ax * ax + ay * ay + az * az) <= 0.1 * GRAVITY:
        raise ValueError("accelerometer magnitude below 0.1 g")
    return t, g, a


def _ref_state(roll, pitch, p00, p01, p11):
    if not (math.isfinite(roll) and math.isfinite(pitch)):
        raise ValueError("angles must be finite")
    if abs(pitch) >= math.pi / 2:
        raise ValueError("pitch out of (-pi/2, pi/2)")
    if not (math.isfinite(p00) and math.isfinite(p01) and math.isfinite(p11)):
        raise ValueError("covariance must be a finite 2x2 matrix")
    if 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01) < -1e-12:
        raise ValueError("covariance must be positive semi-definite")
    state = object.__new__(TiltState)
    object.__setattr__(state, "roll", roll)
    object.__setattr__(state, "pitch", pitch)
    object.__setattr__(state, "covariance", np.array([[p00, p01], [p01, p11]]))
    return state


def _ref_entries(P):
    (p00, p01), (_, p11) = P.tolist()
    return p00, p01, p11


def _ref_accel_to_tilt(accel):
    ax, ay, az = _ref_vec3(accel).tolist()
    mag = math.sqrt(ax * ax + ay * ay + az * az)
    if not (0.5 * GRAVITY <= mag <= 1.5 * GRAVITY):
        raise AccelOutOfRange("not near gravity")
    return math.atan2(-ay, -az), math.atan2(ax, math.hypot(ay, az))


def _ref_predict(state, gyro, dt, q):
    if not (0 < dt <= 0.5):
        raise ValueError("dt outside (0, 0.5]")
    if abs(state.pitch) >= math.pi / 2 - 1e-3:
        raise PitchSingularity("pitch too close to +/-90 deg")
    wx, wy, wz = _ref_vec3(gyro).tolist()
    roll, pitch = state.roll, state.pitch
    sr, cr, tp, cp = math.sin(roll), math.cos(roll), math.tan(pitch), math.cos(pitch)
    pitch_rate = wy * cr - wz * sr
    cross = wy * sr + wz * cr
    roll, pitch = roll + dt * (wx + wy * sr * tp + wz * cr * tp), pitch + dt * pitch_rate
    a00, a01, a10 = 1.0 + dt * tp * pitch_rate, dt * cross * (1.0 / (cp * cp)), -dt * cross
    p00, p01, p11 = _ref_entries(state.covariance)
    q00, q01, q11 = q
    b00, b01 = a00 * p00 + a01 * p01, a00 * p01 + a01 * p11
    b10, b11 = a10 * p00 + p01, a10 * p01 + p11
    m01, m10 = b00 * a10 + b01 + q01, b10 * a00 + b11 * a01 + q01
    return _ref_state(roll, pitch, b00 * a00 + b01 * a01 + q00, 0.5 * (m01 + m10),
                      b10 * a10 + b11 + q11)


def _ref_update(state, accel, r):
    z_roll, z_pitch = _ref_accel_to_tilt(accel)
    roll, pitch = state.roll, state.pitch
    p00, p01, p11 = _ref_entries(state.covariance)
    r00, r01, r11 = r
    s00, s01, s11 = p00 + r00, p01 + r01, p11 + r11
    det = s00 * s11 - s01 * s01
    if det == 0.0:
        raise ValueError("innovation covariance is singular")
    k00, k01 = (p00 * s11 - p01 * s01) / det, (p01 * s00 - p00 * s01) / det
    k10, k11 = (p01 * s11 - p11 * s01) / det, (p11 * s00 - p01 * s01) / det
    v_roll = (z_roll - roll + math.pi) % (2 * math.pi) - math.pi
    v_pitch = (z_pitch - pitch + math.pi) % (2 * math.pi) - math.pi
    roll, pitch = roll + (k00 * v_roll + k01 * v_pitch), pitch + (k10 * v_roll + k11 * v_pitch)
    i00, i01, i10, i11 = 1.0 - k00, -k01, -k10, 1.0 - k11
    b00, b01 = i00 * p00 + i01 * p01, i00 * p01 + i01 * p11
    b10, b11 = i10 * p00 + i11 * p01, i10 * p01 + i11 * p11
    c00, c01 = k00 * r00 + k01 * r01, k00 * r01 + k01 * r11
    c10, c11 = k10 * r00 + k11 * r01, k10 * r01 + k11 * r11
    n01 = (b00 * i10 + b01 * i11) + (c00 * k10 + c01 * k11)
    n10 = (b10 * i00 + b11 * i01) + (c10 * k00 + c11 * k01)
    return _ref_state(roll, pitch, (b00 * i00 + b01 * i01) + (c00 * k00 + c01 * k01),
                      0.5 * (n01 + n10), (b10 * i10 + b11 * i11) + (c10 * k10 + c11 * k11))


class _RefTracker:
    def __init__(self, cfg):
        self.cfg, self.state, self._seed_next, self._t_last = cfg, None, True, None
        self._q, self._r = _ref_entries(cfg.q), _ref_entries(cfg.r)

    def feed(self, sample):
        t, gyro, accel = sample
        t_last, self._t_last = self._t_last, t
        if self._seed_next:
            roll, pitch = _ref_accel_to_tilt(accel)
            self.state = TiltState(roll, pitch, self.cfg.p0)
            self._seed_next = False
            return self.state
        state = self.state
        dt = t - t_last
        if dt > 0:
            try:
                state = _ref_predict(state, gyro, dt, self._q)
            except PitchSingularity:
                self._seed_next = True
                raise
        try:
            state = _ref_update(state, accel, self._r)
        except AccelOutOfRange:
            pass
        self.state = state
        return state


def _hex_state(s):
    return tuple(float(v).hex() for v in (s.roll, s.pitch, *s.covariance.ravel().tolist()))


def _edge_imu_stream(n=2000, seed=27):
    """(t, gyro, accel) lists as a dataset holds them, with every rejection path."""
    rng = np.random.default_rng(seed)
    t, roll, pitch = 0.0, 0.0, 0.0
    out = []
    for k in range(n):
        t += 0.0 if k % 97 == 5 else float(rng.uniform(0.001, 0.02))  # some equal stamps
        if k == 700:
            t += 0.8  # a gap over the 0.5 s dt bound
        roll = float(np.clip(roll + rng.normal(0, 0.02), -0.8, 0.8))
        pitch = float(np.clip(pitch + rng.normal(0, 0.02), -0.8, 0.8))
        accel = (_gravity_accel(roll, pitch) + rng.normal(0, 0.3, size=3)).tolist()
        gyro = rng.normal(0, 0.3, size=3).tolist()
        if k % 61 == 11 and k < 1200:
            accel = [0.3 * v for v in accel]  # out of the quasi-static range: no update
        elif k % 89 == 13:
            accel = [0.05 * v for v in accel]  # under 0.1 g: the sample is rejected
        elif k == 0 or 1200 <= k < 1450:
            # still, near-vertical readings drive pitch within 1e-3 rad of 90 deg
            gyro, accel = [0.0, 0.0, 0.0], [GRAVITY, float(rng.normal(0, 1e-3)), -0.005]
        elif k % 53 == 17:
            gyro = [0, 0, 0]  # ints: the validating path rather than the fast one
        elif k % 71 == 3:
            accel = accel[:2]  # wrong length
        out.append((t, gyro, accel))
    return out


class TestTrackerMatchesReference:
    def test_states_rejections_and_reseeds_match_bit_for_bit(self):
        stream = _edge_imu_stream()
        cfg = TiltConfig()
        ref, new = _RefTracker(cfg), TiltTracker(cfg)
        outcomes = {"ref": [], "new": []}
        for t, gyro, accel in stream:
            for name, make, tracker in (("ref", _ref_sample, ref), ("new", ImuSample, new)):
                try:
                    outcomes[name].append(_hex_state(tracker.feed(make(t, gyro, accel))))
                except (ValueError, PitchSingularity) as exc:
                    outcomes[name].append(type(exc).__name__)
        assert outcomes["new"] == outcomes["ref"]
        rejected = [o for o in outcomes["ref"] if isinstance(o, str)]
        # the stream reaches the free-fall, bad-shape, gap and singularity rejections
        assert rejected.count("ValueError") >= 3 and "PitchSingularity" in rejected

        pipeline = EstimationPipeline(default_rig(), DEFAULT_INTRINSICS, TagGeometry(0.2))
        for t, gyro, accel in stream:
            pipeline.process({"t": t, "kind": "imu", "gyro": gyro, "accel": accel})
        assert pipeline.counters["imu_rejected"] == len(rejected)
        assert _hex_state(pipeline.tracker.state) == _hex_state(ref.state)


class TestFilterStates:
    def test_states_and_covariances_match_the_reference_bit_for_bit(self):
        cfg = TiltConfig()
        ref, new = _RefTracker(cfg), TiltTracker(cfg)
        compared = 0
        for t, gyro, accel in _edge_imu_stream():
            try:
                want = ref.feed(_ref_sample(t, gyro, accel))
            except (ValueError, PitchSingularity):
                want = None
            try:
                got = new.feed(ImuSample(t, gyro, accel))
            except (ValueError, PitchSingularity):
                got = None
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert isinstance(got, TiltState)
            assert (got.roll.hex(), got.pitch.hex()) == (want.roll.hex(), want.pitch.hex())
            a, b = got.covariance, want.covariance
            assert (a.dtype, a.shape, a.strides, a.flags.c_contiguous) == (
                b.dtype, b.shape, b.strides, b.flags.c_contiguous)
            assert a.tobytes() == b.tobytes()
            compared += 1
        assert compared >= 1500

    def test_covariance_is_built_when_first_read_and_kept(self):
        tracker = TiltTracker()
        states = [tracker.feed(ImuSample(0.01 * k, [0.0, 0.1, 0.0], [0.0, 0.0, -GRAVITY]))
                  for k in range(20)]
        assert all("covariance" not in vars(s) for s in states)
        cov = states[-1].covariance
        assert states[-1].covariance is cov
        assert "covariance" not in vars(states[-2])
        # the public constructor accepts what the filter made
        np.testing.assert_array_equal(TiltState(states[-1].roll, states[-1].pitch,
                                                cov).covariance, cov)
        with pytest.raises(AttributeError):
            states[-1].covariance = np.eye(2)

    def test_a_state_holds_only_the_filter_floats(self, monkeypatch):
        tracker = TiltTracker()
        for k in range(50):
            t = 0.01 * k
            state = tracker.feed(ImuSample(t, [0.2 * math.cos(2 * t), -0.15, 0.01],
                                           _gravity_accel(0.1 * math.sin(t), -0.05)))
        x = state._x
        assert list(vars(state)) == ["_x"]
        assert len(x) == 5 and all(type(v) is float for v in x)
        assert (state.roll.hex(), state.pitch.hex()) == (x[0].hex(), x[1].hex())
        with pytest.raises(AttributeError):
            state.roll = 0.0
        built = []
        matrix = attitude._matrix
        monkeypatch.setattr(attitude, "_matrix", lambda *p: built.append(p) or matrix(*p))
        cov = state.covariance
        assert state.covariance is cov and built == [x[2:]]
        assert sorted(vars(state)) == ["_x", "covariance"]
        assert cov.tolist() == [[x[2], x[3]], [x[3], x[4]]]
