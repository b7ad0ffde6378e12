"""JSONL dataset and estimate serialization.

A dataset is UTF-8 JSON lines, one record per line, each carrying a
timestamp ``t``, a ``kind`` and the exact payload for that kind:

    {"t": 0.0, "kind": "imu", "gyro": [..3..], "accel": [..3..]}
    {"t": 0.0, "kind": "slam", "x": ..., "y": ..., "yaw": ...}
    {"t": 0.0, "kind": "tag", "corners": [[u, v] x4]}
    {"t": 0.0, "kind": "depth", "raw": ...}
    {"t": 0.0, "kind": "truth", "p": [x, y, z]}

Timestamps must be non-decreasing within a file (equal stamps are fine).
The reader is strict and line-precise: any malformed line raises
DatasetFormatError naming the line number. The readers decode a byte that
is not UTF-8 as a lone surrogate (errors="surrogateescape"), which no valid
line holds, so such a line is malformed too.
"""

from __future__ import annotations

import csv
import json
from math import isfinite

from ._numpy import np
from .camera import _float_quad
from .errors import DatasetFormatError
from .estimators import METHODS
from .geometry import _float

_PAYLOAD_KEYS = {
    "imu": ("gyro", "accel"),
    "slam": ("x", "y", "yaw"),
    "tag": ("corners",),
    "depth": ("raw",),
    "truth": ("p",),
}
_KEY_ORDER = {kind: ("t", "kind", *keys) for kind, keys in _PAYLOAD_KEYS.items()}
_KEY_SETS = {kind: frozenset(keys) for kind, keys in _KEY_ORDER.items()}


def _is_number(v) -> bool:
    """True for a number by the constructors' rule, geometry._float: a real
    number, not a bool, that a float holds as a finite value."""
    try:
        _float(v, "")
    except ValueError:
        return False
    return True


def _check_vector(value, length, what):
    if (not isinstance(value, list) or len(value) != length
            or not all(map(_is_number, value))):
        raise ValueError(f"{what} must be a list of {length} finite numbers")


def _check_record(obj) -> None:
    """The format's full checks; raise ValueError naming the first violation."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown kind {kind!r}")
    expected = _KEY_SETS[kind]
    if obj.keys() != expected:
        missing = expected - obj.keys()
        extra = obj.keys() - expected
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unexpected keys {sorted(extra)}")
        raise ValueError(f"{kind} record: " + ", ".join(parts))
    if not _is_number(obj["t"]):
        raise ValueError("t must be a finite number")
    if kind == "imu":
        _check_vector(obj["gyro"], 3, "gyro")
        _check_vector(obj["accel"], 3, "accel")
    elif kind == "slam":
        for key in ("x", "y", "yaw"):
            if not _is_number(obj[key]):
                raise ValueError(f"{key} must be a finite number")
    elif kind == "tag":
        corners = obj["corners"]
        if not isinstance(corners, list) or len(corners) != 4:
            raise ValueError("corners must be a list of 4 pixel pairs")
        for c in corners:
            _check_vector(c, 2, "corner")
    elif kind == "depth":
        if not _is_number(obj["raw"]):
            raise ValueError("raw must be a finite number")
    else:  # truth
        _check_vector(obj["p"], 3, "p")


# Per kind, a fast acceptance test for a record whose keys are already the
# kind's key set: every list an exact list of the right length, every number
# an exact float, and the plain sum of the numbers finite. An inf or nan
# makes the sum inf or nan; a sum that overflows from finite terms only
# declines the record, and _check_record then accepts it.
def _fast_imu(r) -> bool:
    g, a = r["gyro"], r["accel"]
    if type(g) is type(a) is list and len(g) == len(a) == 3:
        t = r["t"]
        g0, g1, g2 = g
        a0, a1, a2 = a
        return (type(t) is type(g0) is type(g1) is type(g2) is type(a0)
                is type(a1) is type(a2) is float
                and isfinite(t + g0 + g1 + g2 + a0 + a1 + a2))
    return False


def _fast_slam(r) -> bool:
    t, x, y, yaw = r["t"], r["x"], r["y"], r["yaw"]
    return type(t) is type(x) is type(y) is type(yaw) is float and isfinite(t + x + y + yaw)


def _fast_tag(r) -> bool:
    t = r["t"]
    return type(t) is float and isfinite(t) and _float_quad(r["corners"]) is not None


def _fast_depth(r) -> bool:
    t, raw = r["t"], r["raw"]
    return type(t) is type(raw) is float and isfinite(t + raw)


def _fast_truth(r) -> bool:
    p = r["p"]
    if type(p) is list and len(p) == 3:
        t = r["t"]
        p0, p1, p2 = p
        return type(t) is type(p0) is type(p1) is type(p2) is float and isfinite(t + p0 + p1 + p2)
    return False


_FAST_CHECKS = {"imu": _fast_imu, "slam": _fast_slam, "tag": _fast_tag,
                "depth": _fast_depth, "truth": _fast_truth}


def validate_record(obj) -> dict:
    """Check one parsed record against the format; returns it unchanged.

    Records the per-kind fast check accepts are valid. Every other record
    goes through the full checks, which decide and word the verdict.
    """
    if type(obj) is dict:
        kind = obj.get("kind")
        if type(kind) is str:
            fast = _FAST_CHECKS.get(kind)
            if fast is not None and obj.keys() == _KEY_SETS[kind] and fast(obj):
                return obj
    _check_record(obj)
    return obj


_repr = float.__repr__

# Per kind: the compact JSON line, keys in the format's order, and the
# record's numbers printed in the order the line takes them.
_LINES = {
    "imu": ('{"t":%s,"kind":"imu","gyro":[%s,%s,%s],"accel":[%s,%s,%s]}\n',
            lambda r: (_repr(r["t"]), *map(_repr, r["gyro"]), *map(_repr, r["accel"]))),
    "slam": ('{"t":%s,"kind":"slam","x":%s,"y":%s,"yaw":%s}\n',
             lambda r: (_repr(r["t"]), _repr(r["x"]), _repr(r["y"]), _repr(r["yaw"]))),
    "tag": ('{"t":%s,"kind":"tag","corners":[[%s,%s],[%s,%s],[%s,%s],[%s,%s]]}\n',
            lambda r: (_repr(r["t"]), *(_repr(v) for c in r["corners"] for v in c))),
    "depth": ('{"t":%s,"kind":"depth","raw":%s}\n',
              lambda r: (_repr(r["t"]), _repr(r["raw"]))),
    "truth": ('{"t":%s,"kind":"truth","p":[%s,%s,%s]}\n',
              lambda r: (_repr(r["t"]), *map(_repr, r["p"]))),
}


def _line(rec: dict) -> str:
    """A valid record's line: json.dumps(rec, separators=(",", ":")) and a newline.

    Records with their keys in the format's order and only float numbers,
    as the simulator writes them, take their kind's template. json.dumps
    prints a float, numpy's float64 included, with float.__repr__, and so
    does the template; plain repr would print np.float64(...) under numpy 2.
    """
    kind = rec["kind"]
    if tuple(rec) == _KEY_ORDER[kind]:
        template, numbers = _LINES[kind]
        try:
            return template % numbers(rec)
        except TypeError:  # an int among the numbers
            pass
    return json.dumps(rec, separators=(",", ":")) + "\n"


def write_records(path, records):
    """Write records as compact JSONL; returns the number written.

    Each record is validated first: an invalid one raises ValueError
    naming it, and the lines before it stay written.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            n += 1
            try:
                validate_record(rec)
            except ValueError as exc:
                where = f"record {n}"
                if isinstance(rec, dict) and "kind" in rec and "t" in rec:
                    where += f" ({rec['kind']} at t={rec['t']})"
                raise ValueError(f"{where}: {exc}") from None
            fh.write(_line(rec))
    return n


# The C scanner behind json.loads, called directly: json.loads adds a Python
# wrapper per line that the stripped, one-value lines here do not need.
_scan_once = json.JSONDecoder().scan_once


def _parse(path, lineno, line):
    """The JSON value on a stripped line; DatasetFormatError if it is not one.

    A line the scanner cannot take whole is parsed again by json.loads, so
    the message is json.loads' own. json raises a plain ValueError for an
    integer longer than Python's int string conversion limit (4,300 digits
    by default); its message is kept too.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError):
        pass
    try:
        return json.loads(line)
    except ValueError as exc:
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({msg})") from None


def read_records(path):
    """Yield validated records one line at a time (constant memory).

    Raises DatasetFormatError with the offending line number on parse
    failures, payload violations, or a timestamp regression.
    """
    last_t = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # validate_record's fast case inline: a whole line, a fast-checked record
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                obj = _parse(path, lineno, line)
            if not (type(obj) is dict and type(kind := obj.get("kind")) is str
                    and (fast := _FAST_CHECKS.get(kind)) is not None
                    and obj.keys() == _KEY_SETS[kind] and fast(obj)):
                try:
                    _check_record(obj)
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: {exc}")
            if last_t is not None and obj["t"] < last_t:
                raise DatasetFormatError(
                    f"{path}:{lineno}: timestamp {obj['t']} precedes {last_t}"
                )
            last_t = obj["t"]
            yield obj


def estimate_to_dict(est) -> dict:
    """Serializable form of a PositionEstimate; `estimate` writes its
    compact json.dumps, one line per estimate."""
    out = {
        "t": float(est.timestamp),
        "method": est.method,
        "p": list(est.xyz),
        "roll": float(est.roll),
        "pitch": float(est.pitch),
    }
    if est.reproj_rms is not None:
        out["reproj_rms"] = float(est.reproj_rms)
    if est.ray_k is not None:
        out["ray_k"] = float(est.ray_k)
    return out


def _valid_estimate(obj) -> bool:
    if type(obj) is dict:
        t, p = obj.get("t"), obj.get("p")
        if type(p) is list and len(p) == 3 and obj.get("method") in METHODS:
            p0, p1, p2 = p
            if type(t) is type(p0) is type(p1) is type(p2) is float and isfinite(t + p0 + p1 + p2):
                return True
    if (not isinstance(obj, dict) or not _is_number(obj.get("t"))
            or obj.get("method") not in METHODS):
        return False
    try:
        _check_vector(obj["p"], 3, "p")
    except (KeyError, ValueError):
        return False
    return True


def read_estimates(path) -> list:
    """Read an estimate file back into a list of dicts."""
    out = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = _parse(path, lineno, line)
            if not _valid_estimate(obj):
                raise DatasetFormatError(f"{path}:{lineno}: malformed estimate")
            out.append(obj)
    return out


def load_pairs_csv(path) -> np.ndarray:
    """Load (raw, truth) calibration pairs from a two-column CSV.

    A non-numeric first row is treated as a header and skipped. Returns
    an (n, 2) float array; n may be zero for an empty file.
    """
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected 2 columns, got {len(row)}"
                )
            try:
                pair = (float(row[0]), float(row[1]))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric row")
            if not all(map(isfinite, pair)):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
            rows.append(pair)
    return np.array(rows, dtype=float).reshape(-1, 2)
