"""Roll/pitch estimation for the surface vehicle.

An extended Kalman filter integrates gyro rates through the Euler-angle
kinematics and corrects with the gravity direction seen by the
accelerometer. Yaw comes from elsewhere (SLAM) and is fused in only when
building the full body rotation.

The filter runs on Python floats: the state is (roll, pitch) plus the
three distinct entries (p00, p01, p11) of its symmetric covariance, and
one kernel runs a sample's predict and update as closed-form 2x2 algebra
on those five floats. ``ImuSample`` stores its readings as float
3-tuples. A state made inside the filter, or by the ``TiltState``
constructor, passes one scalar rule, ``_checked``. The tracker returns a
``TiltState`` per accepted sample that holds only the five floats: its
roll and pitch read them, and its covariance array is built the first
time it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._numpy import np
from .errors import AccelOutOfRange, PitchSingularity
from .geometry import _built_on_read, _float, _floats, _floats3

GRAVITY = 9.81
MAX_VARIANCE = 1e150  # the filter multiplies two covariance entries
MAX_PREDICT_DT = 0.5  # seconds: the longest gap one predict step spans


def _smaller_eigenvalue(p00, p01, p11) -> float:
    """Smaller eigenvalue of [[p00, p01], [p01, p11]]; halving first cannot overflow."""
    return 0.5 * p00 + 0.5 * p11 - math.hypot(0.5 * p00 - 0.5 * p11, p01)


def _as_cov2(M, name: str, positive_definite: bool) -> tuple[float, float, float]:
    """(p00, p01, p11) of M, a finite 2x2 matrix symmetric within 1e-12, once
    symmetrised and found positive semi-definite, or definite when asked.

    Each entry is a number by geometry._float's rule; the checks run on floats.
    """
    (p00, p01), (p10, p11) = _floats(M, (2, 2), f"{name} must be a finite 2x2 matrix")
    if abs(p01 - p10) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    p01 = 0.5 * p01 + 0.5 * p10  # halving first cannot overflow
    smaller = _smaller_eigenvalue(p00, p01, p11)
    if positive_definite:
        if smaller <= 0:
            raise ValueError(f"{name} must be positive definite")
    elif smaller < -1e-12:
        raise ValueError(f"{name} must be positive semi-definite")
    return p00, p01, p11


def _matrix(p00, p01, p11) -> np.ndarray:
    """The symmetric 2x2 array with the distinct entries p00, p01 and p11."""
    return np.array([[p00, p01], [p01, p11]])


def _entries(P: np.ndarray) -> tuple[float, float, float]:
    """(p00, p01, p11) of a symmetric 2x2 matrix."""
    (p00, p01), (_, p11) = P.tolist()
    return p00, p01, p11


@dataclass(frozen=True, init=False)
class ImuSample:
    """One gyro + accelerometer reading, each a float 3-tuple, at a float
    timestamp; every number by geometry._float's rule.

    Rejects free-fall/garbage samples.
    """

    timestamp: float
    gyro: tuple
    accel: tuple

    def __init__(self, timestamp, gyro, accel):
        g = _floats3(gyro)
        a = _floats3(accel)
        ax, ay, az = a
        if math.sqrt(ax * ax + ay * ay + az * az) <= 0.1 * GRAVITY:
            raise ValueError("accelerometer magnitude below 0.1 g")
        self.__dict__.update(timestamp=_float(timestamp, "timestamp must be finite"),
                             gyro=g, accel=a)


@dataclass(frozen=True)
class TiltState:
    """Filter state: roll and pitch with their 2x2 covariance."""

    roll: float
    pitch: float
    covariance: np.ndarray

    def __post_init__(self):
        roll, pitch = (_float(a, "angles must be finite") for a in (self.roll, self.pitch))
        x = _checked(roll, pitch,
                     *_as_cov2(self.covariance, "covariance", positive_definite=False))
        self.__dict__.update(roll=roll, pitch=pitch, covariance=_matrix(*x[2:]))


# Inside the filter a state is the float tuple (roll, pitch, p00, p01, p11):
# the angles and the three distinct entries of the symmetric covariance.


def _checked(roll, pitch, p00, p01, p11) -> tuple:
    """The filter floats as a state tuple, after the one tilt-state rule: finite
    angles, |pitch| < pi/2 and a finite positive semi-definite covariance."""
    if not (math.isfinite(roll) and math.isfinite(pitch)):
        raise ValueError("angles must be finite")
    if abs(pitch) >= math.pi / 2:
        raise ValueError("pitch out of (-pi/2, pi/2)")
    if not (math.isfinite(p00) and math.isfinite(p01) and math.isfinite(p11)):
        raise ValueError("covariance must be a finite 2x2 matrix")
    if _smaller_eigenvalue(p00, p01, p11) < -1e-12:
        raise ValueError("covariance must be positive semi-definite")
    return roll, pitch, p00, p01, p11


class _FilterState(TiltState):
    """A TiltState made inside the filter from a state tuple x that _checked
    returned. It holds only x, the five filter floats: roll and pitch read
    x, and the covariance array is built the first time it is read."""

    def __init__(self, x: tuple):
        self.__dict__["_x"] = x

    @property
    def roll(self) -> float:
        return self._x[0]

    @property
    def pitch(self) -> float:
        return self._x[1]

    @cached_property
    def covariance(self) -> np.ndarray:
        return _matrix(*self._x[2:])


@_built_on_read("p0", lambda cfg: _matrix(*cfg._p0))
@_built_on_read("r", lambda cfg: _matrix(*cfg._r))
@_built_on_read("q", lambda cfg: _matrix(*cfg._q))
@dataclass(frozen=True)
class TiltConfig:
    """Noise settings for the tilt filter.

    r must be positive definite (it is inverted in the update); q and p0 may
    be semi-definite, which freezes the corresponding state directions, and
    their entries may not exceed MAX_VARIANCE, whose square is finite. Each
    matrix is held as its entries (p00, p01, p11) from _as_cov2, in ``_q``,
    ``_r`` and ``_p0``, and its array is built the first time it is read.
    """

    q: np.ndarray = ((1e-6, 0.0), (0.0, 1e-6))
    r: np.ndarray = ((4e-4, 0.0), (0.0, 4e-4))
    p0: np.ndarray = ((1e-2, 0.0), (0.0, 1e-2))

    def __post_init__(self):
        fields = self.__dict__
        q, r, p0 = (_as_cov2(fields.pop(name), name, name == "r") for name in ("q", "r", "p0"))
        for name, entries in (("q", q), ("p0", p0)):
            if max(map(abs, entries)) > MAX_VARIANCE:
                raise ValueError(f"{name} entries must not exceed {MAX_VARIANCE:g}")
        fields.update(_q=q, _r=r, _p0=p0)


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


def _step(x: tuple, gyro, dt: float, q, z, r) -> tuple:
    """One filter step on a state tuple: predict, then update.

    Predict, skipped when gyro is None, moves the mean through the
    kinematics over dt with the float 3-tuple gyro and the covariance to
    A P A^T + Q, symmetrised; q holds Q's entries. Update, skipped when z
    is None, corrects with the tilt observation z = (roll, pitch) from
    _tilt: gain K = P S^-1 with S = P + R inverted in closed form, then the
    Joseph-form covariance (I - K) P (I - K)^T + K R K^T, symmetrised; r
    holds R's entries. Only the state returned passes _checked: a predicted
    state that breaks the rule stands when the same sample's update mends it.
    """
    if gyro is not None:
        if not (0 < dt <= MAX_PREDICT_DT):
            raise ValueError(f"dt {dt:.4g} s outside (0, {MAX_PREDICT_DT:g}]")
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
        x = (roll, pitch, b00 * a00 + b01 * a01 + q00, 0.5 * (m01 + m10),
             b10 * a10 + b11 + q11)
    if z is None:
        return _checked(*x)
    z_roll, z_pitch = z
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
    # the innovation, wrapped into [-pi, pi)
    v_roll = (z_roll - roll + math.pi) % (2 * math.pi) - math.pi
    v_pitch = (z_pitch - pitch + math.pi) % (2 * math.pi) - math.pi
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
    x = _step((state.roll, state.pitch, *_entries(state.covariance)), None, 0.0,
              None, _tilt(*_floats3(accel)), cfg._r)
    return _FilterState(x)


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
        # the last accepted state; its _x holds the filter's floats
        self.state: TiltState | None = None
        self._seed_next = True
        self._t_last: float | None = None
        self._p0, self._q, self._r = self.cfg._p0, self.cfg._q, self.cfg._r

    def feed(self, sample: ImuSample) -> TiltState:
        t_last, self._t_last = self._t_last, sample.timestamp
        if self._seed_next:
            x = _checked(*_tilt(*sample.accel), *self._p0)
            self._seed_next = False
        else:
            try:
                z = _tilt(*sample.accel)
            except AccelOutOfRange:
                z = None  # keep the prediction, skip the correction
            dt = sample.timestamp - t_last
            try:
                x = _step(self.state._x, sample.gyro if dt > 0 else None, dt,
                          self._q, z, self._r)
            except PitchSingularity:
                # every later predict from this state would raise as well
                self._seed_next = True
                raise
        state = self.state = _FilterState(x)
        return state
