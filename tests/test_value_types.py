"""The value types compare, hash and print by their fields, and refuse change.

Every value type takes ``==``, ``hash``, ``repr`` and the refusal of
assignment and deletion from one base, ``geometry._Value``, which gives each
as ``@dataclass(frozen=True)`` would generate it. The types that hold exact
floats have those floats as their dataclass fields, and build their arrays
on first read outside the fields, so ``==``, ``hash``, ``repr`` and
``dataclasses.asdict`` see only the floats.
"""

import dataclasses
import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import aquapos
from aquapos import geometry
from aquapos.attitude import ImuSample, TiltConfig, TiltState, TiltTracker
from aquapos.camera import Intrinsics, TagGeometry, TagObservation, TagPose
from aquapos.config import (FollowerConfig, NoiseModel, RunConfig, SampleRates, SceneConfig,
                            TrajectorySpec)
from aquapos.depth_calibration import CalibrationParams, PsoConfig
from aquapos.estimators import (DepthMeasurement, PositionEstimate, RigExtrinsics,
                                SensorFrameBundle, SurfacePoseState, default_rig)
from aquapos.evaluation import AlignedPair, RegressionResult
from aquapos.geometry import PluckerLine, RigidTransform

CORNERS = [[300.5, 200.25], [340.0, 201.0], [339.5, 240.75], [301.0, 239.5]]
COV = [[1e-3, 1e-5], [1e-5, 2e-3]]


def _up(x):
    return math.nextafter(x, math.inf)


# per type: two calls that give the same floats from inputs of different
# kinds, one that differs from them in a single float by one ulp, and the
# arrays the type builds on first read
CASES = {
    "RigidTransform": (
        lambda: RigidTransform(np.eye(3), np.array([0.1, 0.0, -0.02])),
        lambda: RigidTransform((1, 0, 0, 0, 1, 0, 0, 0, 1.0), [0.1, 0, -0.02]),
        lambda: RigidTransform(np.eye(3), [0.1, 0.0, _up(-0.02)]),
        ("rotation", "translation")),
    "PluckerLine": (
        lambda: PluckerLine([0.1, 0.0, -0.9], [-0.1, 0.0, 1.0]),
        lambda: PluckerLine(np.array([0.1, 0, -0.9]), (np.float64(-0.1), 0, 1)),
        lambda: PluckerLine([0.1, 0.0, -0.9], [-0.1, 0.0, _up(1.0)]),
        ("point", "direction")),
    "TagObservation": (
        lambda: TagObservation(0.5, CORNERS),
        lambda: TagObservation(np.float64(0.5), np.array(CORNERS)),
        lambda: TagObservation(0.5, [*CORNERS[:3], [301.0, _up(239.5)]]),
        ("corners",)),
    "PositionEstimate": (
        lambda: PositionEstimate(0.5, [1.0, 2.0, -1.0], "cd", 0.01, -0.02, ray_k=2.0),
        lambda: PositionEstimate(0.5, np.array([1, 2, -1]), "cd", np.float64(0.01),
                                 -0.02, ray_k=2),
        lambda: PositionEstimate(0.5, [1.0, 2.0, -1.0], "cd", 0.01, _up(-0.02), ray_k=2.0),
        ("position",)),
    "AlignedPair": (
        lambda: AlignedPair(0.5, [1.0, 2.0, -1.0], [1.01, 1.98, -1.0]),
        lambda: AlignedPair(0.5, (1, 2, -1), np.array([1.01, 1.98, -1.0])),
        lambda: AlignedPair(_up(0.5), [1.0, 2.0, -1.0], [1.01, 1.98, -1.0]),
        ("estimate", "truth")),
    "TiltConfig": (
        lambda: TiltConfig(q=((2e-6, 0.0), (0.0, 2e-6))),
        lambda: TiltConfig(q=np.diag([2e-6, 2e-6]), r=np.diag([4e-4, 4e-4])),
        lambda: TiltConfig(q=((2e-6, 0.0), (0.0, 2e-6)), p0=((1e-2, 0.0), (0.0, _up(1e-2)))),
        ("q", "r", "p0")),
    "TiltState": (
        lambda: TiltState(0.1, -0.2, COV),
        lambda: TiltState(np.float64(0.1), -0.2, np.array(COV)),
        lambda: TiltState(0.1, _up(-0.2), COV),
        ("covariance",)),
}

_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def _floats_in(value):
    """The floats of a value from dataclasses.astuple, in order."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return _floats_in(list(value.values()))
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _floats_in(v)]
    return []


@pytest.mark.parametrize("name", CASES)
def test_fields_are_the_floats_the_constructor_stores(name):
    make, *_ = CASES[name]
    obj = make()
    assert [f.name for f in dataclasses.fields(obj)] == list(vars(obj))


@pytest.mark.parametrize("name", CASES)
def test_equal_floats_compare_and_hash_equal(name):
    make, same, other, arrays = CASES[name]
    a, b = make(), same()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != other() and repr(a) != repr(other())
    # the arrays built on read are kept outside the fields
    for attr in arrays:
        assert isinstance(getattr(a, attr), np.ndarray)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("name", CASES)
def test_repr_holds_every_float_exactly(name):
    for make in CASES[name][:3]:
        obj = make()
        want = _floats_in(dataclasses.astuple(obj))
        assert want and all(type(x) is float for x in want)
        got = [float(s) for s in _FLOAT.findall(repr(obj))]
        assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("name", CASES)
def test_replace_is_not_offered(name):
    # a TiltConfig with its own q is not rebuilt with the default q
    obj = CASES[name][0]()
    with pytest.raises(TypeError):
        dataclasses.replace(obj)


def test_estimate_with_a_staleness_dict_compares_but_does_not_hash():
    a, b = (PositionEstimate(0.5, [1.0, 2.0, -1.0], "cd", staleness={"pose": 0.01})
            for _ in range(2))
    assert a == b
    assert a != PositionEstimate(0.5, [1.0, 2.0, -1.0], "cd", staleness={"pose": 0.02})
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_filter_states_compare_hash_and_print_by_their_floats():
    samples = [ImuSample(0.01 * k, [0.0, 0.1, 0.0], [0.0, 0.0, -9.81]) for k in range(20)]
    first, second = TiltTracker(), TiltTracker()
    a, b = ([tracker.feed(s) for s in samples] for tracker in (first, second))
    assert a == b and list(map(hash, a)) == list(map(hash, b))
    assert a[-1] != a[-2]
    state = a[-1]
    assert list(vars(state)) == ["_x"]
    x = state._x
    assert repr(state) == f"_FilterState(roll={x[0]!r}, pitch={x[1]!r}, _cov={x[2:]!r})"
    # the public constructor takes its floats and holds the same ones, so
    # the filter state and its public rebuild compare and hash equal
    public = TiltState(state.roll, state.pitch, state.covariance)
    assert (public.roll, public.pitch, public._cov) == (state.roll, state.pitch, state._cov)
    assert state == public and public == state and hash(state) == hash(public)
    assert state != TiltState(state.roll, math.nextafter(state.pitch, 1.0), state.covariance)
    assert dataclasses.asdict(state) == dataclasses.asdict(public)


# --- one base for every value type ---------------------------------------

# the dataclasses that define their own comparison: ErrorReport holds arrays
# and compares by identity; a filter state equals the TiltState of its floats
OFF_THE_BASE = {"ErrorReport"}
OWN_METHODS = {"TiltState": {"__eq__", "__hash__"}}


def _dataclasses():
    for info in pkgutil.iter_modules(aquapos.__path__):
        module = importlib.import_module(f"aquapos.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(cls)):
                yield cls


def test_every_value_type_is_declared_over_the_base():
    found = {cls.__qualname__: cls for cls in _dataclasses()}
    assert {"RigidTransform", "_FilterState", "RunConfig", "AlignedPair",
            "RegressionResult", "ErrorReport"} <= set(found)
    for name, cls in found.items():
        if name in OFF_THE_BASE:
            assert not issubclass(cls, geometry._Value)
            continue
        assert issubclass(cls, geometry._Value), name
        own = {"__eq__", "__hash__", "__repr__"} & set(vars(cls))
        assert own == OWN_METHODS.get(name, set()), name
        params = cls.__dataclass_params__
        # a generated __init__ sets fields through object.__setattr__ only when frozen
        assert params.frozen == params.init, name


def _pose():
    return SurfacePoseState(0.5, 1.0, 2.0, 0.3, 0.01, -0.02)


def _bundle(pose_staleness):
    return SensorFrameBundle(0.5, _pose(), TagObservation(0.5, CORNERS),
                             DepthMeasurement(0.5, 1.2), {"pose": pose_staleness})


# per type CASES lacks: two calls that give equal values, the first from
# floats and the second, where the constructor takes numbers by
# geometry._float's rule, from other kinds of number, and one call that
# differs from them in a single value
VALUES = {
    "ImuSample": (
        lambda: ImuSample(0.5, [0.0, 0.1, 0.0], [0.0, 0.0, -9.81]),
        lambda: ImuSample(np.float64(0.5), np.array([0, 0.1, 0]), (0, 0, -9.81)),
        lambda: ImuSample(_up(0.5), [0.0, 0.1, 0.0], [0.0, 0.0, -9.81])),
    "SurfacePoseState": (
        _pose,
        lambda: SurfacePoseState(np.float64(0.5), 1, 2, 0.3, 0.01, -0.02),
        lambda: SurfacePoseState(0.5, 1.0, 2.0, _up(0.3), 0.01, -0.02)),
    "DepthMeasurement": (
        lambda: DepthMeasurement(0.5, 1.2),
        lambda: DepthMeasurement(np.float64(0.5), np.float64(1.2)),
        lambda: DepthMeasurement(0.5, _up(1.2))),
    "SensorFrameBundle": (
        lambda: _bundle(0.01),
        lambda: _bundle(0.01),
        lambda: _bundle(_up(0.01))),
    "Intrinsics": (
        lambda: Intrinsics(500.0, 501.0, 320.0, 240.0, 640, 480),
        lambda: Intrinsics(500, np.float64(501.0), 320, 240, 640.0, 480.0),
        lambda: Intrinsics(500.0, 501.0, 320.0, _up(240.0), 640, 480)),
    "TagGeometry": (
        lambda: TagGeometry(0.2),
        lambda: TagGeometry(np.float64(0.2)),
        lambda: TagGeometry(_up(0.2))),
    "TagPose": (
        lambda: TagPose((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.1, 0.0, 1.0), 0.5),
        lambda: TagPose((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.1, 0.0, 1.0), 0.5),
        lambda: TagPose((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.1, 0.0, 1.0),
                        _up(0.5))),
    "CalibrationParams": (
        lambda: CalibrationParams(1.02, -0.01),
        lambda: CalibrationParams(np.float64(1.02), -0.01),
        lambda: CalibrationParams(1.02, _up(-0.01))),
    "PsoConfig": (
        lambda: PsoConfig(swarm_size=20, scale_bounds=(0.5, 2.0)),
        lambda: PsoConfig(swarm_size=20, scale_bounds=[0.5, 2]),
        lambda: PsoConfig(swarm_size=20, scale_bounds=(0.5, _up(2.0)))),
    "RigExtrinsics": (
        default_rig,
        lambda: RigExtrinsics(default_rig().camera_in_body, np.float64(0.05)),
        lambda: RigExtrinsics(default_rig().camera_in_body, _up(0.05))),
    "TrajectorySpec": (
        lambda: TrajectorySpec(),
        lambda: TrajectorySpec(region=[4.8, 3.6, 2], duration=120),
        lambda: TrajectorySpec(speed=_up(0.2))),
    "NoiseModel": (
        lambda: NoiseModel(),
        lambda: NoiseModel(pixel_sigma=np.float64(0.5), tilt_frequency=0.3),
        lambda: NoiseModel(depth_sigma=_up(0.002))),
    "SampleRates": (
        lambda: SampleRates(),
        lambda: SampleRates(camera=30, imu=np.float64(100.0)),
        lambda: SampleRates(imu=_up(100.0))),
    "FollowerConfig": (
        lambda: FollowerConfig(),
        lambda: FollowerConfig(gain_x=2.5, deadband_px=5),
        lambda: FollowerConfig(max_speed=_up(0.6))),
    "SceneConfig": (
        lambda: SceneConfig(),
        lambda: SceneConfig(yaw_period=40),
        lambda: SceneConfig(yaw_amplitude=_up(0.15))),
    "RunConfig": (
        lambda: RunConfig(marker_offset=(0.0, 0.0, 0.1)),
        lambda: RunConfig(marker_offset=[0, 0, np.float64(0.1)]),
        lambda: RunConfig(marker_offset=(0.0, 0.0, _up(0.1)))),
    "RegressionResult": (
        lambda: RegressionResult(0.1, -0.2, 0.003, 0.5),
        lambda: RegressionResult(0.1, -0.2, 0.003, 0.5),
        lambda: RegressionResult(0.1, -0.2, 0.003, _up(0.5))),
}


def _stdlib_repr(value):
    args = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(value))
    return f"{type(value).__qualname__}({args})"


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_hash_and_print_equal(name):
    make, same, other = VALUES[name]
    a, b = make(), same()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and a != other() and not a == other()
    assert repr(a) == repr(b) == _stdlib_repr(a) != repr(other())
    if name == "SensorFrameBundle":
        # its staleness is a dict, so it has no hash, as under the generated one
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_value_never_equals_one_of_another_type():
    values = [make() for make, _, _ in VALUES.values()]
    values += [make() for make, *_ in CASES.values()]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b and not a == b
    # the same field values in another type, or in a subclass, are not equal
    assert DepthMeasurement(1.0, 0.0) != CalibrationParams(1.0, 0.0)
    assert SceneConfig() != RunConfig() and RunConfig() != SceneConfig()


@pytest.mark.parametrize("name", [*VALUES, *CASES])
def test_fields_and_new_names_are_refused(name):
    value = (VALUES.get(name) or CASES[name])[0]()
    first = dataclasses.fields(value)[0].name
    for attr in (first, "new_name"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{attr}'$"):
            setattr(value, attr, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{attr}'$"):
            delattr(value, attr)
    assert getattr(value, first) == getattr((VALUES.get(name) or CASES[name])[0](), first)
