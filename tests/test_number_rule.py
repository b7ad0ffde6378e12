"""Every public constructor takes a number by one rule, geometry._float.

A number is a real number that is not a bool (a string is not a number)
and that a float holds as a finite value. A vector or a matrix may come as
lists, tuples or an array, read through its tolist(); whatever form it
takes, the constructor holds the same floats. The dataset reader applies
the same rule.
"""

import math

import numpy as np
import pytest

from aquapos.attitude import ImuSample, TiltConfig, TiltState
from aquapos.camera import (DEFAULT_INTRINSICS, Intrinsics, TagGeometry, TagObservation,
                            project_point)
from aquapos.config import (FollowerConfig, NoiseModel, SampleRates, SceneConfig,
                            TrajectorySpec)
from aquapos.dataset import validate_record
from aquapos.depth_calibration import CalibrationParams, PsoConfig
from aquapos.estimators import (DepthMeasurement, PositionEstimate, RigExtrinsics,
                                SurfacePoseState, default_rig)
from aquapos.evaluation import AlignedPair
from aquapos.geometry import PluckerLine, RigidTransform

# (name, make, base, read): make builds the object from one vector or
# matrix of numbers, base is that value as exact floats, and read gives the
# floats the object holds
VALUES = [
    ("RigidTransform.rotation",
     lambda R: RigidTransform(R, [0.0, 0.0, 0.0]),
     [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], lambda H: H.R),
    ("RigidTransform.translation",
     lambda t: RigidTransform(np.eye(3), t), [0.5, -1.25, 2.0], lambda H: H.t),
    ("TagObservation.corners",
     lambda c: TagObservation(0.0, c),
     [[10.0, 20.5], [30.5, 20.5], [30.5, 40.0], [10.0, 40.0]], lambda obs: obs.px),
    ("ImuSample.gyro",
     lambda g: ImuSample(0.0, g, [0.0, 0.5, -9.75]), [0.5, -0.25, 1.0],
     lambda s: s.gyro),
    ("ImuSample.accel",
     lambda a: ImuSample(0.0, [0.0, 0.0, 0.0], a), [0.0, 0.5, -10.0],
     lambda s: s.accel),
    ("PositionEstimate.position",
     lambda p: PositionEstimate(0.0, p, "cd"), [1.5, -2.0, -3.25], lambda e: e.xyz),
    ("TiltState.covariance",
     lambda P: TiltState(0.0, 0.0, P), [[0.5, 0.125], [0.125, 2.0]],
     lambda s: s.covariance.tolist()),
    ("TiltConfig.q", lambda q: TiltConfig(q=q), [[0.5, 0.125], [0.125, 2.0]],
     lambda cfg: cfg.q.tolist()),
    ("TiltConfig.r", lambda r: TiltConfig(r=r), [[0.5, 0.125], [0.125, 2.0]],
     lambda cfg: cfg.r.tolist()),
    ("TiltConfig.p0", lambda p0: TiltConfig(p0=p0), [[0.5, 0.125], [0.125, 2.0]],
     lambda cfg: cfg.p0.tolist()),
    ("AlignedPair.estimate",
     lambda e: AlignedPair(0.5, e, [1.0, 2.0, 3.0]), [1.5, -2.0, 3.25],
     lambda pair: pair.estimate_xyz),
    ("AlignedPair.truth",
     lambda t: AlignedPair(0.5, [1.0, 2.0, 3.0], t), [1.5, -2.0, 3.25],
     lambda pair: pair.truth_xyz),
    ("PluckerLine.point",
     lambda p: PluckerLine(p, [0.0, 0.5, 1.0]), [0.5, 0.0, -1.0],
     lambda line: line.point.tolist()),
    ("PluckerLine.direction",
     lambda d: PluckerLine([0.5, 0.0, -1.0], d), [0.0, 0.5, 1.0],
     lambda line: line.direction.tolist()),
    ("project_point",
     lambda p: project_point(DEFAULT_INTRINSICS, p), [0.5, -0.25, 2.0],
     lambda px: px.tolist()),
]

# (name, make, base, read) for the scalars a constructor checks
SCALARS = [
    ("TiltState.roll", lambda a: TiltState(a, 0.0, np.eye(2)), 0.25, lambda s: s.roll),
    ("TiltState.pitch", lambda a: TiltState(0.0, a, np.eye(2)), -1.0, lambda s: s.pitch),
    ("AlignedPair.timestamp", lambda t: AlignedPair(t, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
     2.0, lambda pair: pair.timestamp),
    ("ImuSample.timestamp", lambda t: ImuSample(t, [0.0, 0.0, 0.0], [0.0, 0.0, -9.75]),
     0.5, lambda s: s.timestamp),
    ("TagObservation.timestamp",
     lambda t: TagObservation(t, [[1.0, 2.0], [3.0, 2.0], [3.0, 4.0], [1.0, 4.0]]), 7.0,
     lambda obs: obs.timestamp),
    ("SurfacePoseState.x", lambda x: SurfacePoseState(0.0, x, 0.0, 0.0), -1.5,
     lambda pose: pose.x),
    ("SurfacePoseState.timestamp", lambda t: SurfacePoseState(t, 0.0, 0.0, 0.0), 3.0,
     lambda pose: pose.timestamp),
    ("DepthMeasurement.depth", lambda d: DepthMeasurement(0.0, d), 1.25,
     lambda m: m.depth),
    ("PositionEstimate.timestamp", lambda t: PositionEstimate(t, [0.0, 0.0, -1.0], "cd"),
     4.0, lambda e: e.timestamp),
    ("PositionEstimate.roll", lambda a: PositionEstimate(0.0, [0.0, 0.0, -1.0], "cd", roll=a),
     0.125, lambda e: e.roll),
    ("PositionEstimate.pitch",
     lambda a: PositionEstimate(0.0, [0.0, 0.0, -1.0], "cd", pitch=a), -0.25,
     lambda e: e.pitch),
    ("PositionEstimate.reproj_rms",
     lambda r: PositionEstimate(0.0, [0.0, 0.0, -1.0], "cpnp", reproj_rms=r), 2.0,
     lambda e: e.reproj_rms),
    ("PositionEstimate.ray_k",
     lambda k: PositionEstimate(0.0, [0.0, 0.0, -1.0], "cd", ray_k=k), -0.5,
     lambda e: e.ray_k),
]

# a numeric string, a bool and an int beyond the float range
NOT_NUMBERS = ["1.0", True, 10**400]

# (name, make) for the numbers of the config types: make builds the type
# with one number, or one entry of a pair or a triple, set to its argument
CONFIG_NUMBERS = [
    ("CalibrationParams.scale", lambda x: CalibrationParams(x, 0.0)),
    ("CalibrationParams.offset", lambda x: CalibrationParams(1.0, x)),
    ("PsoConfig.inertia", lambda x: PsoConfig(inertia=x)),
    ("PsoConfig.social", lambda x: PsoConfig(social=x)),
    ("PsoConfig.scale_bounds", lambda x: PsoConfig(scale_bounds=(x, 2.0))),
    ("RigExtrinsics.body_height",
     lambda x: RigExtrinsics(default_rig().camera_in_body, x)),
    ("Intrinsics.fx", lambda x: Intrinsics(x, 500.0, 320.0, 240.0, 640, 480)),
    ("Intrinsics.cy", lambda x: Intrinsics(500.0, 500.0, 320.0, x, 640, 480)),
    ("TagGeometry.side_length", lambda x: TagGeometry(x)),
    ("TrajectorySpec.speed", lambda x: TrajectorySpec(speed=x)),
    ("TrajectorySpec.region", lambda x: TrajectorySpec(region=(x, 3.6, 2.0))),
    ("NoiseModel.pixel_sigma", lambda x: NoiseModel(pixel_sigma=x)),
    ("NoiseModel.tilt_amplitude", lambda x: NoiseModel(tilt_amplitude=x)),
    ("SampleRates.imu", lambda x: SampleRates(imu=x)),
    ("FollowerConfig.max_speed", lambda x: FollowerConfig(max_speed=x)),
    ("FollowerConfig.gain_x", lambda x: FollowerConfig(gain_x=x)),
    ("SceneConfig.yaw_period", lambda x: SceneConfig(yaw_period=x)),
]


def _map(value, f):
    """value with f applied to every number, lists kept as lists."""
    return [_map(v, f) for v in value] if isinstance(value, list) else f(value)


def _first_replaced(value, x):
    """value with its first number replaced by x."""
    if not isinstance(value, list):
        return x
    return [_first_replaced(value[0], x), *value[1:]]


def _hex(value):
    """Every float of value, as float.hex, in its nesting; ints and numpy
    scalars are not floats and fail the comparison."""
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    assert type(value) is float, value
    return value.hex()


def _forms(base):
    """base as ints where it is whole, as numpy scalars, as float32 and
    float64 arrays, as tuples and, for a matrix, as a list of ndarray rows."""
    yield _map(base, lambda x: int(x) if x.is_integer() else x)
    yield _map(base, np.float64)
    yield np.array(base, dtype=np.float32)
    yield np.array(base)
    yield tuple(tuple(row) if isinstance(row, list) else row for row in base)
    if isinstance(base[0], list):
        yield [np.array(row) for row in base]


@pytest.mark.parametrize("name, make, base, read", VALUES, ids=[v[0] for v in VALUES])
def test_constructors_take_numbers_by_one_rule(name, make, base, read):
    want = _hex(read(make(base)))
    for form in _forms(base):
        assert _hex(read(make(form))) == want, (name, form)
    for x in NOT_NUMBERS:
        with pytest.raises(ValueError):
            make(_first_replaced(base, x))
    for array in (np.array(base).astype(str), np.array(base).astype(bool)):
        with pytest.raises(ValueError):
            make(array)


@pytest.mark.parametrize("name, make, base, read", SCALARS, ids=[v[0] for v in SCALARS])
def test_scalars_take_numbers_by_one_rule(name, make, base, read):
    want = _hex(read(make(base)))
    for form in (int(base) if base.is_integer() else base, np.float64(base),
                 np.float32(base)):
        assert _hex(read(make(form))) == want, (name, form)
    for x in NOT_NUMBERS:
        with pytest.raises(ValueError):
            make(x)


def test_the_reader_and_the_constructors_agree():
    accel = [0.0, 0.0, -9.81]
    for x in (0.5, -0.0, 3, -(2**60), 10**308, np.float64(1.5), np.float32(0.1),
              np.int64(7), *NOT_NUMBERS, False, None, [1.0], math.nan, math.inf):
        try:
            validate_record({"t": 0.0, "kind": "imu", "gyro": [x, 0.0, 0.0], "accel": accel})
        except ValueError:
            read = False
        else:
            read = True
        try:
            ImuSample(0.0, [x, 0.0, 0.0], accel)
        except ValueError:
            built = False
        else:
            built = True
        assert read is built, x


@pytest.mark.parametrize("value", [True, "1"])
@pytest.mark.parametrize("name, make", CONFIG_NUMBERS, ids=[c[0] for c in CONFIG_NUMBERS])
def test_config_types_take_numbers_by_one_rule(name, make, value):
    with pytest.raises(ValueError):
        make(value)
