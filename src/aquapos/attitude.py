"""Roll/pitch estimation for the surface vehicle.

An extended Kalman filter integrates gyro rates through the Euler-angle
kinematics and corrects with the gravity direction seen by the
accelerometer. Yaw comes from elsewhere (SLAM) and is fused in only when
building the full body rotation.

The filter runs on Python floats: the state is (roll, pitch) plus the
three distinct entries (p00, p01, p11) of its symmetric covariance, and
predict and update are closed-form 2x2 algebra on those five floats.
``ImuSample`` stores its readings as float 3-tuples. The numpy matrices
of ``TiltConfig`` and the public ``TiltState`` constructor are checked
once, where they come in; states made inside the filter get the same
checks in scalar form, and the tracker builds one ``TiltState`` per
accepted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccelOutOfRange, PitchSingularity
from .geometry import _as_vec3

GRAVITY = 9.81


def _as_cov2(M, name: str, positive_definite: bool) -> np.ndarray:
    P = np.asarray(M, dtype=float)
    if P.shape != (2, 2) or not np.all(np.isfinite(P)):
        raise ValueError(f"{name} must be a finite 2x2 matrix")
    if np.max(np.abs(P - P.T)) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    P = 0.5 * (P + P.T)
    eigs = np.linalg.eigvalsh(P)
    if positive_definite:
        if eigs[0] <= 0:
            raise ValueError(f"{name} must be positive definite")
    elif eigs[0] < -1e-12:
        raise ValueError(f"{name} must be positive semi-definite")
    return P


def _entries(P: np.ndarray) -> tuple[float, float, float]:
    """(p00, p01, p11) of a symmetric 2x2 matrix."""
    (p00, p01), (_, p11) = P.tolist()
    return p00, p01, p11


def _floats3(v) -> tuple[float, float, float]:
    """v as a float 3-tuple, with _as_vec3's checks and messages.

    An exact list of three floats with a finite sum is taken as it is; any
    other value goes through _as_vec3, which gives the verdict.
    """
    if type(v) is list and len(v) == 3:
        x, y, z = v
        if type(x) is type(y) is type(z) is float and math.isfinite(x + y + z):
            return x, y, z
    return tuple(_as_vec3(v).tolist())


@dataclass(frozen=True)
class ImuSample:
    """One gyro + accelerometer reading, each a float 3-tuple.

    Rejects free-fall/garbage samples.
    """

    timestamp: float
    gyro: tuple
    accel: tuple

    def __post_init__(self):
        g = _floats3(self.gyro)
        a = _floats3(self.accel)
        ax, ay, az = a
        if math.sqrt(ax * ax + ay * ay + az * az) <= 0.1 * GRAVITY:
            raise ValueError("accelerometer magnitude below 0.1 g")
        object.__setattr__(self, "gyro", g)
        object.__setattr__(self, "accel", a)


@dataclass(frozen=True)
class TiltState:
    """Filter state: roll and pitch with their 2x2 covariance."""

    roll: float
    pitch: float
    covariance: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.roll) and np.isfinite(self.pitch)):
            raise ValueError("angles must be finite")
        if abs(self.pitch) >= np.pi / 2:
            raise ValueError("pitch out of (-pi/2, pi/2)")
        P = _as_cov2(self.covariance, "covariance", positive_definite=False)
        object.__setattr__(self, "covariance", P)


# Inside the filter a state is the float tuple (roll, pitch, p00, p01, p11):
# the angles and the three distinct entries of the symmetric covariance.


def _checked(roll, pitch, p00, p01, p11) -> tuple:
    """The filter floats as a state tuple, after the TiltState constructor's
    checks in scalar form."""
    if not (math.isfinite(roll) and math.isfinite(pitch)):
        raise ValueError("angles must be finite")
    if abs(pitch) >= math.pi / 2:
        raise ValueError("pitch out of (-pi/2, pi/2)")
    if not (math.isfinite(p00) and math.isfinite(p01) and math.isfinite(p11)):
        raise ValueError("covariance must be a finite 2x2 matrix")
    # smaller eigenvalue of [[p00, p01], [p01, p11]]
    if 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01) < -1e-12:
        raise ValueError("covariance must be positive semi-definite")
    return roll, pitch, p00, p01, p11


def _as_state(x) -> TiltState:
    """TiltState from a checked state tuple, without checking it again."""
    roll, pitch, p00, p01, p11 = x
    state = object.__new__(TiltState)
    object.__setattr__(state, "roll", roll)
    object.__setattr__(state, "pitch", pitch)
    object.__setattr__(state, "covariance", np.array([[p00, p01], [p01, p11]]))
    return state


@dataclass(frozen=True)
class TiltConfig:
    """Noise settings for the tilt filter.

    r must be positive definite (it is inverted in the update); q and p0 may
    be semi-definite, which freezes the corresponding state directions.
    """

    q: np.ndarray = field(default_factory=lambda: np.diag([1e-6, 1e-6]))
    r: np.ndarray = field(default_factory=lambda: np.diag([4e-4, 4e-4]))
    p0: np.ndarray = field(default_factory=lambda: np.diag([1e-2, 1e-2]))

    def __post_init__(self):
        object.__setattr__(self, "q", _as_cov2(self.q, "q", False))
        object.__setattr__(self, "r", _as_cov2(self.r, "r", True))
        object.__setattr__(self, "p0", _as_cov2(self.p0, "p0", False))


def _propagate(roll, pitch, wx, wy, wz, dt):
    """Euler-kinematics step and its Jacobian's entries a00, a01, a10 (a11 = 1)."""
    sr, cr = math.sin(roll), math.cos(roll)
    tp = math.tan(pitch)
    cp = math.cos(pitch)
    pitch_rate = wy * cr - wz * sr
    cross = wy * sr + wz * cr
    roll_next = roll + dt * (wx + wy * sr * tp + wz * cr * tp)
    pitch_next = pitch + dt * pitch_rate
    a00 = 1.0 + dt * tp * pitch_rate
    a01 = dt * cross * (1.0 / (cp * cp))
    a10 = -dt * cross
    return roll_next, pitch_next, a00, a01, a10


def prediction_jacobian(roll: float, pitch: float, gyro, dt: float) -> np.ndarray:
    """d(next state)/d(state) for the Euler-kinematics step of _propagate."""
    wx, wy, wz = gyro
    _, _, a00, a01, a10 = _propagate(roll, pitch, wx, wy, wz, dt)
    return np.array([[a00, a01], [a10, 1.0]])


def _predict(x: tuple, gyro, dt: float, q) -> tuple:
    """Mean through the kinematics, covariance as A P A^T + Q, symmetrised.

    x is a state tuple, gyro a float 3-tuple and q the entries of Q.
    """
    if not (0 < dt <= 0.5):
        raise ValueError(f"dt {dt:.4g} s outside (0, 0.5]")
    roll, pitch, p00, p01, p11 = x
    if abs(pitch) >= math.pi / 2 - 1e-3:
        raise PitchSingularity("pitch too close to +/-90 deg for tan(pitch)")
    wx, wy, wz = gyro
    roll, pitch, a00, a01, a10 = _propagate(roll, pitch, wx, wy, wz, dt)
    q00, q01, q11 = q
    # B = A P, then B A^T + Q
    b00 = a00 * p00 + a01 * p01
    b01 = a00 * p01 + a01 * p11
    b10 = a10 * p00 + p01
    b11 = a10 * p01 + p11
    m01 = b00 * a10 + b01 + q01
    m10 = b10 * a00 + b11 * a01 + q01
    return _checked(
        roll,
        pitch,
        b00 * a00 + b01 * a01 + q00,
        0.5 * (m01 + m10),
        b10 * a10 + b11 + q11,
    )


def _tilt(ax: float, ay: float, az: float) -> tuple[float, float]:
    """(roll, pitch) implied by a quasi-static accelerometer reading.

    With gravity the only sensed acceleration, the body-frame reading is
    g * (sin pitch, -cos pitch sin roll, -cos pitch cos roll), so pitch
    comes from the x axis and roll from the y/z pair. A reading of
    (0, 0, +g), an upside-down sensor, maps to roll = pi, pitch = 0.
    Raises AccelOutOfRange when |accel| is not within half a g of gravity.
    """
    mag = math.sqrt(ax * ax + ay * ay + az * az)
    if not (0.5 * GRAVITY <= mag <= 1.5 * GRAVITY):
        raise AccelOutOfRange(f"|accel| = {mag:.3g} m/s^2 is not near gravity")
    return math.atan2(-ay, -az), math.atan2(ax, math.hypot(ay, az))


def _wrap_pi(x: float) -> float:
    return (x + math.pi) % (2 * math.pi) - math.pi


def _update(x: tuple, accel, r) -> tuple:
    """Gain K = P S^-1 with S = P + R inverted in closed form; Joseph-form
    covariance (I - K) P (I - K)^T + K R K^T, symmetrised.

    x is a state tuple, accel a float 3-tuple and r the entries of R.
    """
    z_roll, z_pitch = _tilt(*accel)
    roll, pitch, p00, p01, p11 = x
    r00, r01, r11 = r
    s00, s01, s11 = p00 + r00, p01 + r01, p11 + r11
    det = s00 * s11 - s01 * s01
    if det == 0.0:
        raise ValueError("innovation covariance is singular")
    k00 = (p00 * s11 - p01 * s01) / det
    k01 = (p01 * s00 - p00 * s01) / det
    k10 = (p01 * s11 - p11 * s01) / det
    k11 = (p11 * s00 - p01 * s01) / det
    v_roll = _wrap_pi(z_roll - roll)
    v_pitch = _wrap_pi(z_pitch - pitch)
    roll = roll + (k00 * v_roll + k01 * v_pitch)
    pitch = pitch + (k10 * v_roll + k11 * v_pitch)
    i00, i01, i10, i11 = 1.0 - k00, -k01, -k10, 1.0 - k11
    # B = (I - K) P and C = K R
    b00 = i00 * p00 + i01 * p01
    b01 = i00 * p01 + i01 * p11
    b10 = i10 * p00 + i11 * p01
    b11 = i10 * p01 + i11 * p11
    c00 = k00 * r00 + k01 * r01
    c01 = k00 * r01 + k01 * r11
    c10 = k10 * r00 + k11 * r01
    c11 = k10 * r01 + k11 * r11
    n01 = (b00 * i10 + b01 * i11) + (c00 * k10 + c01 * k11)
    n10 = (b10 * i00 + b11 * i01) + (c10 * k00 + c11 * k01)
    return _checked(
        roll,
        pitch,
        (b00 * i00 + b01 * i01) + (c00 * k00 + c01 * k01),
        0.5 * (n01 + n10),
        (b10 * i10 + b11 * i11) + (c10 * k10 + c11 * k11),
    )


def ekf_update(state: TiltState, accel, cfg: TiltConfig) -> TiltState:
    """Correct the state with the accelerometer tilt observation (H = I)."""
    x = _update((state.roll, state.pitch, *_entries(state.covariance)),
                _as_vec3(accel).tolist(), _entries(cfg.r))
    return _as_state(x)


class TiltTracker:
    """Streams IMU samples through the filter.

    The first in-range sample initializes the state straight from the
    accelerometer; later samples predict with their gyro over the elapsed
    time and then correct with their accelerometer. Out-of-range
    accelerometer readings skip the correction but keep the prediction.
    A sample that raises leaves the state as it was but still advances the
    clock, so one gap longer than the predict's dt bound rejects only the
    sample after it. A state whose pitch is too close to 90 degrees to
    predict from rejects one sample; the next in-range sample initializes
    the state afresh, as the first one does.
    """

    def __init__(self, cfg: TiltConfig | None = None):
        self.cfg = cfg if cfg is not None else TiltConfig()
        # the last accepted state, as a TiltState and as the filter's floats
        self.state: TiltState | None = None
        self._x: tuple | None = None
        self._seed_next = True
        self._t_last: float | None = None
        self._p0 = _entries(self.cfg.p0)
        self._q = _entries(self.cfg.q)
        self._r = _entries(self.cfg.r)

    def feed(self, sample: ImuSample) -> TiltState:
        t_last, self._t_last = self._t_last, sample.timestamp
        if self._seed_next:
            x = _checked(*_tilt(*sample.accel), *self._p0)
            self._seed_next = False
        else:
            x = self._x
            dt = sample.timestamp - t_last
            if dt > 0:
                try:
                    x = _predict(x, sample.gyro, dt, self._q)
                except PitchSingularity:
                    # every later predict from this state would raise as well
                    self._seed_next = True
                    raise
            try:
                x = _update(x, sample.accel, self._r)
            except AccelOutOfRange:
                pass
        self._x = x
        self.state = _as_state(x)
        return self.state
