"""JSONL dataset and estimate serialization.

A dataset is UTF-8 JSON lines, one record per line, each carrying a
timestamp ``t``, a ``kind`` and the exact payload for that kind:

    {"t": 0.0, "kind": "imu", "gyro": [..3..], "accel": [..3..]}
    {"t": 0.0, "kind": "slam", "x": ..., "y": ..., "yaw": ...}
    {"t": 0.0, "kind": "tag", "corners": [[u, v] x4]}
    {"t": 0.0, "kind": "depth", "raw": ...}
    {"t": 0.0, "kind": "truth", "p": [x, y, z]}

Timestamps must be non-decreasing within a file (equal stamps are fine).
Every number must pass geometry._float's rule, the one the public
constructors apply, and every list is a JSON list of its exact length.
One check per record kind holds that rule: validate_record, which the
reader calls on every line, words what it rejects, and read_estimates
checks an estimate line by the same helpers. The writer checks and prints
a record of exact floats in the format's key order in one pass, by the
rule's first line, and hands any other record to validate_record before
json.dumps prints it. The reader is strict and line-precise: any
malformed line raises DatasetFormatError naming the line number. The
readers decode a byte that is not UTF-8 as a lone surrogate
(errors="surrogateescape"), which no valid line holds, so such a line is
malformed too.
"""

from __future__ import annotations

import csv
import json
from math import isfinite

from ._numpy import np
from .camera import _float_quad
from .errors import DatasetFormatError
from .estimators import METHODS
from .geometry import _float, _floats

_PAYLOAD_KEYS = {
    "imu": ("gyro", "accel"),
    "slam": ("x", "y", "yaw"),
    "tag": ("corners",),
    "depth": ("raw",),
    "truth": ("p",),
}
_KEY_ORDER = {kind: ("t", "kind", *keys) for kind, keys in _PAYLOAD_KEYS.items()}
_KEY_SETS = {kind: frozenset(keys) for kind, keys in _KEY_ORDER.items()}


def _list3(v, message) -> None:
    """Raise ValueError(message) unless v is a list of three numbers by
    geometry._float's rule.

    The first line takes an exact list of three floats whose sum is finite,
    as geometry._floats3 does: the same rule on a shorter path.
    """
    if type(v) is list and len(v) == 3:
        x, y, z = v
        if type(x) is type(y) is type(z) is float and isfinite(x + y + z):
            return
    if not isinstance(v, list):
        raise ValueError(message)
    _floats(v, (3,), message)


def _imu(r) -> None:
    _list3(r["gyro"], "gyro must be a list of 3 finite numbers")
    _list3(r["accel"], "accel must be a list of 3 finite numbers")


def _slam(r) -> None:
    _float(r["x"], "x must be a finite number")
    _float(r["y"], "y must be a finite number")
    _float(r["yaw"], "yaw must be a finite number")


def _tag(r) -> None:
    corners = r["corners"]
    if _float_quad(corners) is not None:  # exact floats, the same rule's first line
        return
    if not isinstance(corners, list) or len(corners) != 4:
        raise ValueError("corners must be a list of 4 pixel pairs")
    message = "corner must be a list of 2 finite numbers"
    for c in corners:
        if not isinstance(c, list):
            raise ValueError(message)
        _floats(c, (2,), message)


def _depth(r) -> None:
    _float(r["raw"], "raw must be a finite number")


def _truth(r) -> None:
    _list3(r["p"], "p must be a list of 3 finite numbers")


# Per kind, the check of its payload: every number by geometry._float's
# rule, every list an exact list (a subclass of list too) of its length.
_PAYLOAD_CHECKS = {"imu": _imu, "slam": _slam, "tag": _tag, "depth": _depth,
                   "truth": _truth}


def validate_record(obj) -> dict:
    """Check one parsed record against the format; returns it unchanged.

    Raises ValueError naming the first violation: not an object, an
    unknown kind, keys other than the kind's, then t and the payload.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _PAYLOAD_CHECKS:
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
    _float(obj["t"], "t must be a finite number")
    _PAYLOAD_CHECKS[kind](obj)
    return obj


# The writer's one pass, per kind: the line's template and the function that
# takes a record's values, in the format's key order, and applies the number
# rule's first line to them as _list3, geometry._floats3 and
# camera._float_quad do: exact lists of their exact lengths, every number a
# float and a finite sum. It returns the numbers in the line's order, or None
# for a record it declines, which validate_record and json.dumps take. json.dumps
# prints a float with float.__repr__, and so does %r on an exact float.


def _imu_numbers(t, _kind, gyro, accel):
    if type(gyro) is list and type(accel) is list and len(gyro) == 3 and len(accel) == 3:
        g0, g1, g2 = gyro
        a0, a1, a2 = accel
        if (type(t) is type(g0) is type(g1) is type(g2) is type(a0) is type(a1)
                is type(a2) is float and isfinite(t + g0 + g1 + g2 + a0 + a1 + a2)):
            return t, g0, g1, g2, a0, a1, a2
    return None


def _slam_numbers(t, _kind, x, y, yaw):
    if type(t) is type(x) is type(y) is type(yaw) is float and isfinite(t + x + y + yaw):
        return t, x, y, yaw
    return None


def _tag_numbers(t, _kind, corners):
    quad = _float_quad(corners)
    if quad is not None and type(t) is float and isfinite(t):
        (u0, v0), (u1, v1), (u2, v2), (u3, v3) = quad
        return t, u0, v0, u1, v1, u2, v2, u3, v3
    return None


def _depth_numbers(t, _kind, raw):
    if type(t) is type(raw) is float and isfinite(t + raw):
        return t, raw
    return None


def _truth_numbers(t, _kind, p):
    if type(p) is list and len(p) == 3:
        x, y, z = p
        if type(t) is type(x) is type(y) is type(z) is float and isfinite(t + x + y + z):
            return t, x, y, z
    return None


_LINES = {
    "imu": ('{"t":%r,"kind":"imu","gyro":[%r,%r,%r],"accel":[%r,%r,%r]}\n', _imu_numbers),
    "slam": ('{"t":%r,"kind":"slam","x":%r,"y":%r,"yaw":%r}\n', _slam_numbers),
    "tag": ('{"t":%r,"kind":"tag","corners":[[%r,%r],[%r,%r],[%r,%r],[%r,%r]]}\n',
            _tag_numbers),
    "depth": ('{"t":%r,"kind":"depth","raw":%r}\n', _depth_numbers),
    "truth": ('{"t":%r,"kind":"truth","p":[%r,%r,%r]}\n', _truth_numbers),
}


def write_records(path, records):
    """Write records as compact JSONL; returns the number written.

    Each line is json.dumps(record, separators=(",", ":")) and a newline. A
    record of exact floats in the format's key order, as the simulator makes,
    is checked and printed in one pass by its kind's template; any other
    record goes to validate_record first. An invalid record raises
    ValueError naming it, and the lines before it stay written.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for rec in records:
            n += 1
            if type(rec) is dict:
                kind = rec.get("kind")
                if type(kind) is str and tuple(rec) == _KEY_ORDER.get(kind):
                    template, numbers = _LINES[kind]
                    values = numbers(*rec.values())
                    if values is not None:
                        write(template % values)
                        continue
            try:
                validate_record(rec)
            except ValueError as exc:
                where = f"record {n}"
                if isinstance(rec, dict) and "kind" in rec and "t" in rec:
                    where += f" ({rec['kind']} at t={rec['t']})"
                raise ValueError(f"{where}: {exc}") from None
            write(json.dumps(rec, separators=(",", ":")) + "\n")
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


def _read(path, check, ordered: bool):
    """Yield the value of each non-blank line of a JSONL file once check
    passes it. Raises DatasetFormatError naming the line for a parse
    failure, for a ValueError from check and, when ordered, for a timestamp
    that precedes the one before it."""
    last_t = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = _parse(path, lineno, line)
            try:
                check(obj)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}")
            if ordered:
                if last_t is not None and obj["t"] < last_t:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: timestamp {obj['t']} precedes {last_t}"
                    )
                last_t = obj["t"]
            yield obj


def read_records(path):
    """Yield validated records one line at a time (constant memory).

    Raises DatasetFormatError with the offending line number on parse
    failures, payload violations, or a timestamp regression.
    """
    return _read(path, validate_record, True)


def estimate_to_dict(est) -> dict:
    """Serializable form of a PositionEstimate, whose numbers are all floats;
    `estimate` writes its compact json.dumps, one line per estimate."""
    out = {"t": est.timestamp, "method": est.method, "p": list(est.xyz),
           "roll": est.roll, "pitch": est.pitch}
    if est.reproj_rms is not None:
        out["reproj_rms"] = est.reproj_rms
    if est.ray_k is not None:
        out["ray_k"] = est.ray_k
    return out


def _check_estimate(obj) -> None:
    """Raise ValueError unless obj is an estimate: an object with a method of
    METHODS, a number t by geometry._float's rule and a list p of three."""
    message = "malformed estimate"
    if not (isinstance(obj, dict) and obj.get("method") in METHODS):
        raise ValueError(message)
    _float(obj.get("t"), message)
    _list3(obj.get("p"), message)


def read_estimates(path) -> list:
    """Read an estimate file back into a list of dicts."""
    return list(_read(path, _check_estimate, False))


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
