"""The value types that hold exact floats compare, hash and print by them.

Each type's dataclass fields are the floats its constructor stores, and its
arrays are built on first read outside the fields, so the generated ``==``,
``hash``, ``repr`` and ``dataclasses.asdict`` see only the floats.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from aquapos.attitude import ImuSample, TiltConfig, TiltState, TiltTracker
from aquapos.camera import TagObservation
from aquapos.estimators import PositionEstimate
from aquapos.evaluation import AlignedPair
from aquapos.geometry import RigidTransform

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
