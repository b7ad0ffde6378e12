import json
import math

import numpy as np
import pytest

from aquapos import cli
from aquapos.dataset import (
    estimate_to_dict,
    load_pairs_csv,
    read_estimates,
    read_records,
    validate_record,
    write_records,
)
from aquapos.errors import DatasetFormatError
from aquapos.estimators import EstimationPipeline, PositionEstimate
from aquapos.simulator import NoiseModel, Simulator, TrajectorySpec

from conftest import WORKLOAD_CONFIGS


def _sample_records():
    return [
        {"t": 0.0, "kind": "imu", "gyro": [0.0, 0.1, -0.2], "accel": [0.0, 0.0, -9.81]},
        {"t": 0.0, "kind": "slam", "x": 1.0, "y": 2.0, "yaw": 0.3},
        {"t": 0.01, "kind": "depth", "raw": 1.2},
        {"t": 0.02, "kind": "tag", "corners": [[10.0, 20.0], [30.0, 20.0], [30.0, 40.0], [10.0, 40.0]]},
        {"t": 0.02, "kind": "truth", "p": [0.5, -0.5, -1.2]},
    ]


class TestRecordRoundTrip:
    def test_write_then_read_preserves_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recs = _sample_records()
        assert write_records(path, recs) == len(recs)
        assert list(read_records(path)) == recs

    def test_lines_are_compact_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_records(path, _sample_records())
        for line in path.read_text(encoding="utf-8").splitlines():
            assert ": " not in line and ", " not in line
            json.loads(line)

    def test_equal_timestamps_allowed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recs = [
            {"t": 1.0, "kind": "depth", "raw": 1.0},
            {"t": 1.0, "kind": "depth", "raw": 1.1},
        ]
        write_records(path, recs)
        assert len(list(read_records(path))) == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        body = '{"t":0.0,"kind":"depth","raw":1.0}\n\n{"t":0.5,"kind":"depth","raw":1.1}\n'
        path.write_text(body, encoding="utf-8")
        assert len(list(read_records(path))) == 2

    def test_reader_is_lazy(self, tmp_path):
        # the generator must not touch the file until iterated
        path = tmp_path / "run.jsonl"
        write_records(path, _sample_records())
        gen = read_records(path)
        next(gen)
        gen.close()


def _expect_line_error(path, lineno):
    with pytest.raises(DatasetFormatError) as err:
        list(read_records(path))
    assert f":{lineno}:" in str(err.value)


class TestRecordValidation:
    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0.0,"kind":"depth","raw":1.0}\n{oops\n', encoding="utf-8")
        _expect_line_error(path, 2)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0.0,"kind":"sonar","raw":1.0}\n', encoding="utf-8")
        _expect_line_error(path, 1)

    def test_timestamp_regression_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"t":1.0,"kind":"depth","raw":1.0}\n{"t":0.9,"kind":"depth","raw":1.0}\n',
            encoding="utf-8",
        )
        _expect_line_error(path, 2)

    def test_wrong_corner_count_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"t": 0.0, "kind": "tag", "corners": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        _expect_line_error(path, 1)

    def test_missing_and_extra_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            validate_record({"t": 0.0, "kind": "slam", "x": 1.0, "y": 2.0})
        with pytest.raises(ValueError, match="unexpected"):
            validate_record({"t": 0.0, "kind": "depth", "raw": 1.0, "note": "hi"})

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            validate_record({"t": 0.0, "kind": "depth", "raw": float("nan")})

    def test_integer_too_big_for_a_float_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":' + "1" * 400 + ',"kind":"depth","raw":1.0}\n',
                        encoding="utf-8")
        _expect_line_error(path, 1)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        # json itself refuses integers over 4,300 digits with a bare ValueError
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0.0,"kind":"depth","raw":1.0}\n'
                        '{"t":' + "1" * 5000 + ',"kind":"depth","raw":1.0}\n',
                        encoding="utf-8")
        _expect_line_error(path, 2)

    def test_integer_a_float_can_hold_is_a_number(self):
        validate_record({"t": 10**300, "kind": "depth", "raw": 2})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValueError):
            validate_record({"t": 0.0, "kind": "depth", "raw": True})

    def test_writer_refuses_bad_record(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "x.jsonl", [{"t": 0.0, "kind": "depth"}])

    def test_writer_error_names_the_record(self, tmp_path):
        recs = _sample_records()
        recs[2] = {"t": 0.01, "kind": "depth", "raw": float("inf")}
        path = tmp_path / "x.jsonl"
        with pytest.raises(ValueError, match=r"^record 3 \(depth at t=0.01\): raw"):
            write_records(path, recs)
        assert path.read_bytes() == _dumps_lines(recs[:2])

    def test_source_failing_part_way_keeps_the_lines_before(self, tmp_path):
        # the outcome a streamed simulate must share: the source's exception
        # passes through as it is, and the records before it stay written
        recs = _sample_records()[:3]
        failure = RuntimeError("the source failed")

        def source():
            yield from recs
            raise failure

        path = tmp_path / "x.jsonl"
        with pytest.raises(RuntimeError) as info:
            write_records(path, source())
        assert info.value is failure
        assert info.value.__cause__ is None and info.value.__context__ is None
        assert path.read_bytes() == _dumps_lines(recs)

    def test_unhashable_kind_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0.0,"kind":["depth"],"raw":1.0}\n', encoding="utf-8")
        _expect_line_error(path, 1)


def _dumps_lines(records) -> bytes:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records).encode("utf-8")


class _List(list):
    pass


class _Float(float):
    def __repr__(self):
        return "not json"


# exact floats that print oddly or sit at the ends of the range
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1e308, -1e308,
                1.7976931348623157e308, 0.1, -9.81]


def _random_exact_records(rng, n):
    """n records, each of a random kind, in the format's key order and of
    exact floats: each number an edge float or a normal draw at a random scale."""
    def number():
        if rng.random() < 0.6:
            return _EDGE_FLOATS[rng.integers(len(_EDGE_FLOATS))]
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))

    def numbers(k):
        return [number() for _ in range(k)]

    kinds = ("imu", "slam", "tag", "depth", "truth")
    for _ in range(n):
        kind = kinds[rng.integers(len(kinds))]
        rec = {"t": number(), "kind": kind}
        if kind == "imu":
            rec.update(gyro=numbers(3), accel=numbers(3))
        elif kind == "slam":
            rec.update(zip(("x", "y", "yaw"), numbers(3)))
        elif kind == "tag":
            rec["corners"] = [numbers(2) for _ in range(4)]
        elif kind == "depth":
            rec["raw"] = number()
        else:
            rec["p"] = numbers(3)
        yield rec


class TestWriterBytes:
    """write_records writes what json.dumps(record, separators=(",", ":")) does."""

    @pytest.mark.parametrize("noise", [NoiseModel(seed=4), NoiseModel.zero(seed=4)],
                             ids=["default", "noiseless"])
    def test_simulated_records(self, tmp_path, noise):
        records, _ = Simulator(TrajectorySpec(duration=4.0, seed=4), noise=noise).run()
        assert {r["kind"] for r in records} == {"imu", "slam", "depth", "truth", "tag"}
        path = tmp_path / "run.jsonl"
        write_records(path, records)
        assert path.read_bytes() == _dumps_lines(records)

    def test_edge_records(self, tmp_path):
        f64 = np.float64
        records = [
            {"t": f64(0.5), "kind": "imu", "gyro": [f64(1e-300), -0.0, 1e300],
             "accel": [f64(-0.0), 0.0, f64(-9.81)]},
            {"t": 0, "kind": "slam", "x": 1, "y": -0.0, "yaw": f64(3.0)},
            {"t": 1e-300, "kind": "depth", "raw": 10**300},
            {"t": 1e300, "kind": "truth", "p": [f64(0.1), 2, -1e-300]},
            {"t": 2.0, "kind": "tag",
             "corners": [[0.5, f64(1.5)], [1, 2], [-0.0, 3.0], [1e300, -1e-300]]},
            {"t": f64(-0.0), "kind": "depth", "raw": f64(1e300)},
            # keys out of the format's order keep their order, as in json.dumps
            {"kind": "depth", "raw": 1.5, "t": 3.0},
            {"p": [1.0, 2.0, 3.0], "t": 4.0, "kind": "truth"},
            # finite numbers whose sum overflows
            {"t": 5.0, "kind": "imu", "gyro": [1e308, 1e308, 0.0], "accel": [0.0, 0.0, -9.81]},
            {"t": 5.0, "kind": "slam", "x": -1e308, "y": -1e308, "yaw": 0.0},
            # subclasses of list and float, printed as the list and the float
            {"t": 6.0, "kind": "truth", "p": _List([0.5, -0.5, -1.2])},
            {"t": 6.0, "kind": "tag",
             "corners": [[1.0, 2.0], _List([3.0, 4.0]), [5.0, 6.0], [7.0, 8.0]]},
            {"t": _Float(7.0), "kind": "depth", "raw": 1.25},
            {"t": 7.0, "kind": "imu", "gyro": [0.0, _Float(0.5), 0.0],
             "accel": [0.0, 0.0, -9.81]},
            *_random_exact_records(np.random.default_rng(29), 200),
        ]
        path = tmp_path / "edge.jsonl"
        assert write_records(path, records) == len(records)
        assert path.read_bytes() == _dumps_lines(records)
        assert b"np." not in path.read_bytes()

    @pytest.mark.parametrize("bad, message", [
        ({"t": 0.5, "kind": "imu", "gyro": (0.0, 0.1, 0.2), "accel": [0.0, 0.0, -9.81]},
         "record 2 (imu at t=0.5): gyro must be a list of 3 finite numbers"),
        ({"t": 1.0, "kind": "slam", "x": 1.0, "y": True, "yaw": 0.3},
         "record 2 (slam at t=1.0): y must be a finite number"),
        ({"t": True, "kind": "depth", "raw": 1.0},
         "record 2 (depth at t=True): t must be a finite number"),
        ({"t": 1.5, "kind": "depth", "raw": float("nan")},
         "record 2 (depth at t=1.5): raw must be a finite number"),
        ({"t": float("nan"), "kind": "depth", "raw": 1.0},
         "record 2 (depth at t=nan): t must be a finite number"),
        ({"t": 2.0, "kind": "truth", "p": [0.5, -0.5, -1.2, 0.0]},
         "record 2 (truth at t=2.0): p must be a list of 3 finite numbers"),
        ({"t": 2.5, "kind": "tag",
          "corners": [[1.0, 2.0], [3.0, 4.0], [5.0, float("inf")], [7.0, 8.0]]},
         "record 2 (tag at t=2.5): corner must be a list of 2 finite numbers"),
        ({"t": 3.0, "kind": "imu", "gyro": [0.0, 0.1, 0.2], "accel": [0.0, float("nan"), -9.81]},
         "record 2 (imu at t=3.0): accel must be a list of 3 finite numbers"),
        ({"t": 3.0, "kind": "imu", "gyro": [0.0, 0.1, 0.2], "accel": [0.0, -9.81]},
         "record 2 (imu at t=3.0): accel must be a list of 3 finite numbers"),
        ({"t": 3.5, "kind": "slam", "x": 1.0, "y": 2.0, "yaw": -float("inf")},
         "record 2 (slam at t=3.5): yaw must be a finite number"),
        ({"t": 4.0, "kind": "truth", "p": [0.5, float("inf"), -1.2]},
         "record 2 (truth at t=4.0): p must be a list of 3 finite numbers"),
        ({"t": float("inf"), "kind": "tag",
          "corners": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]},
         "record 2 (tag at t=inf): t must be a finite number"),
    ], ids=["tuple-gyro", "bool", "bool-t", "nan", "nan-t", "p-of-4", "inf-corner",
            "nan-accel", "accel-of-2", "inf-yaw", "inf-p", "inf-tag-t"])
    def test_rejected_records(self, tmp_path, bad, message):
        good = {"t": 0.0, "kind": "depth", "raw": 1.0}
        path = tmp_path / "bad.jsonl"
        with pytest.raises(ValueError) as info:
            write_records(path, [good, bad, good])
        assert str(info.value) == message
        assert path.read_bytes() == _dumps_lines([good])


class TestEstimateIO:
    def test_round_trip_with_diagnostics(self, tmp_path):
        path = tmp_path / "est.jsonl"
        ests = [
            PositionEstimate(0.5, np.array([1.0, 2.0, -1.5]), "cpnp",
                             roll=0.01, pitch=-0.02, reproj_rms=0.3),
            PositionEstimate(0.6, np.array([1.1, 2.0, -1.5]), "cd",
                             roll=0.0, pitch=0.0, ray_k=-0.6),
        ]
        path.write_text("".join(json.dumps(estimate_to_dict(e)) + "\n" for e in ests),
                        encoding="utf-8")
        back = read_estimates(path)
        assert back[0]["method"] == "cpnp"
        assert back[0]["reproj_rms"] == pytest.approx(0.3)
        assert "ray_k" not in back[0]
        assert back[1]["ray_k"] == pytest.approx(-0.6)
        assert back[1]["p"] == pytest.approx([1.1, 2.0, -1.5])

    def test_malformed_estimate_names_line(self, tmp_path):
        path = tmp_path / "est.jsonl"
        path.write_text(
            '{"t":0.0,"method":"cd","p":[0,0,0],"roll":0,"pitch":0}\n'
            '{"t":0.1,"method":"sonar","p":[0,0,0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError, match=":2:"):
            read_estimates(path)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "est.jsonl"
        path.write_text('{"t":' + "1" * 5000 + ',"method":"cd","p":[0,0,0]}\n',
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=r":1: invalid JSON \(.*4300"):
            read_estimates(path)


class TestPairsCsv:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1.0,1.5\n2.0,2.8\n", encoding="utf-8")
        pairs = load_pairs_csv(path)
        assert pairs.shape == (2, 2)
        assert pairs[1, 1] == 2.8

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("raw,truth\n1.0,1.5\n", encoding="utf-8")
        assert load_pairs_csv(path).shape == (1, 2)

    def test_empty_file_gives_empty_array(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("", encoding="utf-8")
        assert load_pairs_csv(path).shape == (0, 2)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1.0,1.5\nx,2.0\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_pairs_csv(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1.0,1.5,9.9\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=":1:"):
            load_pairs_csv(path)


# --- the reader before its fast paths, kept as the reference --------------

def _ref_is_number(v) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, int) and not isinstance(v, bool):
        try:
            float(v)
        except OverflowError:
            return False
        return True
    return False


def _ref_check_vector(value, length, what):
    if (not isinstance(value, list) or len(value) != length
            or not all(map(_ref_is_number, value))):
        raise ValueError(f"{what} must be a list of {length} finite numbers")


_REF_KEYS = {
    "imu": frozenset(("t", "kind", "gyro", "accel")),
    "slam": frozenset(("t", "kind", "x", "y", "yaw")),
    "tag": frozenset(("t", "kind", "corners")),
    "depth": frozenset(("t", "kind", "raw")),
    "truth": frozenset(("t", "kind", "p")),
}


def _ref_validate(obj):
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _REF_KEYS:
        raise ValueError(f"unknown kind {kind!r}")
    expected = _REF_KEYS[kind]
    if obj.keys() != expected:
        missing = expected - obj.keys()
        extra = obj.keys() - expected
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unexpected keys {sorted(extra)}")
        raise ValueError(f"{kind} record: " + ", ".join(parts))
    if not _ref_is_number(obj["t"]):
        raise ValueError("t must be a finite number")
    if kind == "imu":
        _ref_check_vector(obj["gyro"], 3, "gyro")
        _ref_check_vector(obj["accel"], 3, "accel")
    elif kind == "slam":
        for key in ("x", "y", "yaw"):
            if not _ref_is_number(obj[key]):
                raise ValueError(f"{key} must be a finite number")
    elif kind == "tag":
        corners = obj["corners"]
        if not isinstance(corners, list) or len(corners) != 4:
            raise ValueError("corners must be a list of 4 pixel pairs")
        for c in corners:
            _ref_check_vector(c, 2, "corner")
    elif kind == "depth":
        if not _ref_is_number(obj["raw"]):
            raise ValueError("raw must be a finite number")
    else:
        _ref_check_vector(obj["p"], 3, "p")
    return obj


def _ref_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})")
            yield lineno, obj


def _ref_read_records(path):
    last_t = None
    out = []
    for lineno, obj in _ref_lines(path):
        try:
            _ref_validate(obj)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}")
        if last_t is not None and obj["t"] < last_t:
            raise DatasetFormatError(f"{path}:{lineno}: timestamp {obj['t']} precedes {last_t}")
        last_t = obj["t"]
        out.append(obj)
    return out


def _ref_read_estimates(path):
    out = []
    for lineno, obj in _ref_lines(path):
        if (not isinstance(obj, dict) or not _ref_is_number(obj.get("t"))
                or obj.get("method") not in ("cpnp", "cd")):
            raise DatasetFormatError(f"{path}:{lineno}: malformed estimate")
        try:
            _ref_check_vector(obj["p"], 3, "p")
        except (KeyError, ValueError):
            raise DatasetFormatError(f"{path}:{lineno}: malformed estimate")
        out.append(obj)
    return out


def _outcome(fn, *args):
    """repr of the result (so -0.0, ints and floats stay apart), or the error."""
    try:
        return "ok", repr(list(fn(*args)))
    except DatasetFormatError as exc:
        return "DatasetFormatError", str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


# Replacements for one number of a record: JSON text spliced in place of it
_NUMBER_TOKENS = ["1", "0", "-7", "true", "false", "null", "1" * 400, "-" + "1" * 400,
                  "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0.0", "0.0",
                  "[1.0]", "[]", "{}", '"1.0"', "1e308", "-1e-320"]
_LIST_TOKENS = ["[]", "[1.0]", "[1.0, 2.0, 3.0, 4.0]", "[[1.0, 2.0]]", '"abc"',
                '{"a": 1.0, "b": 2.0, "c": 3.0}', "null", "1.0"]


def _numbers(obj, path=()):
    """Paths to every number of a parsed record, t included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _numbers(value, path + (i,))
    elif isinstance(obj, float):
        yield path


def _lists(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _lists(value, path + (key,))
    elif isinstance(obj, list):
        yield path
        for i, value in enumerate(obj):
            yield from _lists(value, path + (i,))


_MARK = "\x00MARK\x00"


def _replaced(obj, path, value):
    """A deep copy of a parsed record with the value at path replaced."""
    copy = json.loads(json.dumps(obj))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def _splice(obj, path, token):
    """The record's compact line with the value at path replaced by JSON text."""
    line = json.dumps(_replaced(obj, path, _MARK), separators=(",", ":"))
    return line.replace(json.dumps(_MARK), token)


def _record_mutations(rec):
    """Lines derived from one valid record: each one valid or invalid."""
    line = json.dumps(rec, separators=(",", ":"))
    yield line
    for path in _numbers(rec):
        for token in _NUMBER_TOKENS:
            yield _splice(rec, path, token)
    for path in _lists(rec):
        for token in _LIST_TOKENS:
            yield _splice(rec, path, token)
    numbers = list(_numbers(rec))
    for a, b in zip(numbers, numbers[1:]):
        # finite numbers whose plain sum overflows, or cancels to 0
        yield _splice(json.loads(_splice(rec, a, "1e308")), b, "1e308")
        yield _splice(json.loads(_splice(rec, a, "1e308")), b, "-1e308")
    yield json.dumps(dict(reversed(list(rec.items()))))
    for key in rec:
        yield json.dumps({k: v for k, v in rec.items() if k != key})
    yield json.dumps({**rec, "extra": 1.0})
    yield json.dumps({**rec, "kind": "sonar"})
    yield json.dumps({**rec, "kind": ["depth"]})
    yield json.dumps({**rec, "kind": None})
    yield "\ufeff" + line
    yield line + " x"
    yield line + "}"
    yield line + line
    yield line[:-1]
    yield "  \t" + line + " \t "
    yield "[" + line + "]"


_OTHER_LINES = ["", "   ", "3", '"depth"', "null", "[1.0, 2.0]", "{", "}", "{}",
                '{"t":1.0}', "NaN", "\ufeff"]


def _simulated_records():
    records, _ = Simulator(TrajectorySpec(duration=1.0, seed=9), noise=NoiseModel(seed=9)).run()
    first = {}
    for rec in records:
        first.setdefault(rec["kind"], rec)
    assert set(first) == {"imu", "slam", "depth", "truth", "tag"}
    return list(first.values())


def _estimate_lines():
    rec = {"t": 0.25, "method": "cd", "p": [0.5, -0.25, -1.5], "roll": 0.01,
           "pitch": -0.02, "ray_k": -0.6}
    yield from _record_mutations(rec)
    yield json.dumps({**rec, "method": "cpnp"})
    yield json.dumps({**rec, "method": "sonar"})
    yield json.dumps({**rec, "method": ["cd"]})
    yield json.dumps({k: v for k, v in rec.items() if k not in ("roll", "pitch", "ray_k")})


class TestReaderMatchesReference:
    """read_records and read_estimates against the plain json.loads reader."""

    def _compare(self, tmp_path, lines, read, reference):
        path = tmp_path / "case.jsonl"
        for i, line in enumerate(lines):
            # the case between two valid lines, so line numbers and the
            # timestamp check take part
            body = ('{"t":-1.0,"kind":"depth","raw":1.0}\n' + line + "\n\n"
                    + '{"t":1e300,"kind":"depth","raw":1.0}\n')
            path.write_text(body, encoding="utf-8")
            assert _outcome(read, path) == _outcome(reference, path), (i, line)

    def test_records(self, tmp_path):
        lines = [m for rec in _simulated_records() for m in _record_mutations(rec)]
        lines += _OTHER_LINES
        self._compare(tmp_path, lines, read_records, _ref_read_records)

    def test_estimates(self, tmp_path):
        lines = list(_estimate_lines()) + _OTHER_LINES
        path = tmp_path / "case.jsonl"
        for i, line in enumerate(lines):
            path.write_text('{"t":0.0,"method":"cpnp","p":[0.0,0.0,0.0]}\n'
                            + line + "\n\n", encoding="utf-8")
            assert _outcome(read_estimates, path) == _outcome(_ref_read_estimates, path), (i, line)

    def test_validate_record_on_objects(self):
        # objects json never yields: tuples, numpy floats, float subclasses
        class F(float):
            pass

        objects = []
        for rec in _simulated_records():
            for path in _numbers(rec):
                for value in (np.float64(1.5), F(1.5), 2, 10**400, True, None):
                    objects.append(_replaced(rec, path, value))
            for path in _lists(rec):
                target = rec
                for key in path:
                    target = target[key]
                objects.append(_replaced(rec, path, tuple(target)))
        for obj in objects:
            assert (_outcome(lambda o: [validate_record(o)], obj)
                    == _outcome(lambda o: [_ref_validate(o)], obj)), obj


def _json_line(d):
    return json.dumps(d, separators=(",", ":")) + "\n"


def _estimate_args(value):
    """PositionEstimate's arguments for each diagnostic shape, with value in
    each number slot in turn."""
    base = dict(timestamp=1.5, position=[0.25, -0.5, -1.25], roll=0.01, pitch=-0.02)
    for extra in ({}, {"reproj_rms": 0.3}, {"ray_k": -0.6},
                  {"reproj_rms": 0.3, "ray_k": -0.6}):
        fields = {**base, **extra}
        slots = ["timestamp", 0, 1, 2, "roll", "pitch", *extra]
        for slot in slots:
            case = {**fields, "position": list(fields["position"])}
            if isinstance(slot, int):
                case["position"][slot] = value
            else:
                case[slot] = value
            method = "cd" if "ray_k" in extra else "cpnp"
            yield (case.pop("timestamp"), np.array(case.pop("position")), method), case


class TestEstimateLine:
    """estimate's lines, the compact json.dumps of estimate_to_dict, read
    back by read_estimates bit for bit."""

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    def test_every_estimate_of_the_workload_runs(self, tmp_path, workload_run, workload):
        methods = set()
        # noiseless-exact's seeds differ only in the sign of zero gyro entries,
        # which seed 1 already holds, and give byte-identical estimates
        seeds = (1,) if workload == "noiseless-exact" else (1, 2, 3)
        for seed in seeds:
            path, cfg, records = workload_run(workload, seed)
            pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag,
                                      calibration=cfg.calibration, tilt_config=cfg.tilt)
            dicts = [estimate_to_dict(e) for rec in records for e in pipe.process(rec)]
            data, out = tmp_path / f"run{seed}.jsonl", tmp_path / f"est{seed}.jsonl"
            write_records(data, records)
            assert cli.main(["estimate", str(data), "--config", str(path),
                             "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == "".join(map(_json_line, dicts))
            # repr keeps -0.0 and 0.0 apart
            assert repr(read_estimates(out)) == repr(dicts)
            methods |= {d["method"] for d in dicts}
        assert methods == {"cpnp", "cd"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.5", True, None, 10**400, 3,
                                       np.float32(0.5)])
    def test_every_estimate_the_constructor_takes_reads_back(self, tmp_path, value):
        path = tmp_path / "est.jsonl"
        for args, kwargs in _estimate_args(value):
            try:
                est = PositionEstimate(*args, **kwargs)
            except ValueError:
                continue
            d = estimate_to_dict(est)
            path.write_text(_json_line(d), encoding="utf-8")
            assert repr(read_estimates(path)) == repr([d]), d

    @pytest.mark.parametrize("value", [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16,
                                       1e-7, 0.1, 123456789.125])
    def test_hand_picked_floats_in_every_slot(self, tmp_path, value):
        path = tmp_path / "est.jsonl"
        for args, kwargs in _estimate_args(value):
            d = estimate_to_dict(PositionEstimate(*args, **kwargs))
            path.write_text(_json_line(d), encoding="utf-8")
            [back] = read_estimates(path)
            assert repr(back) == repr(d), d
            numbers = [back["t"], *back["p"]] + [
                v for k, v in back.items() if k not in ("t", "method", "p")]
            assert repr(value) in map(repr, numbers), d
