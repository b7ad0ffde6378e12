"""Hostile input files end cleanly in ``evaluate`` and ``calibrate-depth``.

An input file is a boundary, as a config is (tests/test_config_fuzz.py):
whatever a field holds, the command exits 0, 1 or 2 with at most one
``error:`` line and no traceback. ``evaluate`` reads an estimate file and
the truth records of a dataset, and ``calibrate-depth`` a CSV of pairs.
Each case changes one field of the first record, or of every record, of
one file, or replaces one cell of the CSV, and runs the command in-process
through ``cli.main`` with warnings as errors.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
import yaml

from aquapos import cli

# JSON values: 10**400 is an integer beyond float range, nan and inf are
# json's NaN and Infinity
HOSTILE = (True, "x", None, [], {}, -1, 0, 1.0e308, -1.0e308, 1.5e308, math.nan, math.inf,
           -math.inf, 1e-300, [1, 2], 10**30, -0.0, 10**400)

# CSV cells
HOSTILE_CELLS = ("x", "", " ", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e-300",
                 "-0.0", "0", "True", "1_0", "0x10", "1,2", "9" * 400, "1e30")

# whole lines in place of a record
HOSTILE_LINES = (b"null", b"[]", b"{}", b"{", b"1.0", b'"t"', b"\xff\xfe", b"1" * 5000)

BASE = {"simulation": {"trajectory": {"duration": 1.0}},
        "pso": {"swarm_size": 4, "iterations": 10}}

ESTIMATE_FIELDS = ("t", "method", "p", "p.0", "p.1", "p.2", "roll", "pitch",
                   "reproj_rms", "ray_k")
TRUTH_FIELDS = ("t", "p", "p.0", "p.1", "p.2")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a clean dataset, its estimates and calibration pairs."""
    work = tmp_path_factory.mktemp("inputs")
    config, data, est = work / "run.yaml", work / "run.jsonl", work / "est.jsonl"
    config.write_text(yaml.safe_dump(BASE), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--out", str(est)]) == 0
    pairs = [(r, 1.1 * r - 0.05) for r in (0.5, 0.8, 1.1, 1.4, 1.7)]
    return {"config": config, "data": data.read_text(encoding="utf-8").splitlines(),
            "est": est.read_text(encoding="utf-8").splitlines(), "pairs": pairs}


def _broken(argv) -> list:
    """What breaks the rule when cli.main runs argv: an exception, an exit
    code outside 0-2, more than one error line or a traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("error")
            rc = cli.main(argv)
    except Exception as exc:  # anything main lets out is a traceback
        return [f"raised {type(exc).__name__}: {exc}"]
    err = stderr.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if rc not in (0, 1, 2) or len(errors) > 1 or "Traceback" in err:
        return [f"exit {rc}: {err.strip()}"]
    return []


def _set(record: dict, field: str, value) -> dict:
    """record with the dotted field ("p.0" is p's first entry) set to value."""
    key, _, index = field.partition(".")
    if index:
        record[key] = list(record[key])
        record[key][int(index)] = value
    else:
        record[key] = value
    return record


def _text(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _with_field(lines, field, value, every, kind=None) -> bytes:
    """The JSONL lines with field set to value in the first record of kind,
    or in all of them."""
    out, done = [], False
    for line in lines:
        record = json.loads(line)
        if (kind is None or record["kind"] == kind) and (every or not done):
            record = _set(record, field, value)
            done = True
        out.append(json.dumps(record))
    return _text(out)


def _evaluate(tmp_path, est: bytes, data: bytes) -> list:
    est_path, data_path = tmp_path / "est.jsonl", tmp_path / "run.jsonl"
    est_path.write_bytes(est)
    data_path.write_bytes(data)
    return _broken(["evaluate", str(est_path), str(data_path), "--out", str(tmp_path / "r")])


@pytest.mark.parametrize("field", ESTIMATE_FIELDS)
def test_hostile_estimate_field_ends_cleanly(tmp_path, inputs, field):
    data = _text(inputs["data"])
    failures = {f"{value!r} every={every}": broken
                for value in HOSTILE for every in (False, True)
                if (broken := _evaluate(tmp_path, _with_field(inputs["est"], field, value, every),
                                        data))}
    assert failures == {}


@pytest.mark.parametrize("field", TRUTH_FIELDS)
def test_hostile_truth_field_ends_cleanly(tmp_path, inputs, field):
    est = _text(inputs["est"])
    failures = {f"{value!r} every={every}": broken
                for value in HOSTILE for every in (False, True)
                if (broken := _evaluate(tmp_path, est,
                                        _with_field(inputs["data"], field, value, every,
                                                    "truth")))}
    assert failures == {}


def test_hostile_lines_end_cleanly(tmp_path, inputs):
    est, data = _text(inputs["est"]), _text(inputs["data"])
    failures = {}
    for line in HOSTILE_LINES:
        for which, args in (("est", (line + b"\n" + est, data)),
                            ("data", (est, data + line + b"\n"))):
            if broken := _evaluate(tmp_path, *args):
                failures[f"{which}: {line[:20]!r}"] = broken
    assert failures == {}


def _calibrate(tmp_path, inputs, csv: bytes) -> list:
    path = tmp_path / "pairs.csv"
    path.write_bytes(csv)
    return _broken(["calibrate-depth", str(path), "--config", str(inputs["config"]),
                    "--out", str(tmp_path / "fit.json")])


def test_hostile_csv_cells_end_cleanly(tmp_path, inputs):
    failures = {}
    for cell in HOSTILE_CELLS:
        for column in (0, 1):
            for every in (False, True):
                rows = [[repr(v) for v in pair] for pair in inputs["pairs"]]
                for row in rows if every else rows[:1]:
                    row[column] = cell
                # a cell with a comma is quoted, as the csv module writes it
                csv = "".join(",".join(f'"{c}"' if "," in c else c for c in row) + "\n"
                              for row in rows)
                if broken := _calibrate(tmp_path, inputs, csv.encode("utf-8")):
                    failures[f"{cell[:20]!r} column={column} every={every}"] = broken
    assert failures == {}


@pytest.mark.parametrize("csv", [b"", b"raw,truth\n", b"1,2\n", b"1,2,3\n4,5,6\n", b"1\n2\n",
                                 b"\xef\xbb\xbf1,2\n3,4\n5,6\n", b"\xff\xfe1,2\n3,4\n",
                                 b"1,2\n\x00\n3,4\n", b"1,2\r\n3,4\r\n5,6\r\n"])
def test_hostile_csv_files_end_cleanly(tmp_path, inputs, csv):
    assert _calibrate(tmp_path, inputs, csv) == []
