import json

import numpy as np
import pytest

from aquapos.dataset import (
    load_pairs_csv,
    read_estimates,
    read_records,
    validate_record,
    write_estimates,
    write_records,
)
from aquapos.errors import DatasetFormatError
from aquapos.estimators import PositionEstimate


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

    def test_integer_a_float_can_hold_is_a_number(self):
        validate_record({"t": 10**300, "kind": "depth", "raw": 2})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValueError):
            validate_record({"t": 0.0, "kind": "depth", "raw": True})

    def test_writer_refuses_bad_record(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "x.jsonl", [{"t": 0.0, "kind": "depth"}])


class TestEstimateIO:
    def test_round_trip_with_diagnostics(self, tmp_path):
        path = tmp_path / "est.jsonl"
        ests = [
            PositionEstimate(0.5, np.array([1.0, 2.0, -1.5]), "cpnp",
                             roll=0.01, pitch=-0.02, reproj_rms=0.3),
            PositionEstimate(0.6, np.array([1.1, 2.0, -1.5]), "cd",
                             roll=0.0, pitch=0.0, ray_k=-0.6),
        ]
        assert write_estimates(path, ests) == 2
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
