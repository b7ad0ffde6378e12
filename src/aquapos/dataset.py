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
DatasetFormatError naming the line number.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import DatasetFormatError

_PAYLOAD_KEYS = {
    "imu": ("gyro", "accel"),
    "slam": ("x", "y", "yaw"),
    "tag": ("corners",),
    "depth": ("raw",),
    "truth": ("p",),
}


def _is_number(v) -> bool:
    """A finite JSON number: a float, or an int (not a bool) a float can hold."""
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, int) and not isinstance(v, bool):
        try:
            float(v)
        except OverflowError:
            return False
        return True
    return False


def _check_vector(value, length, what):
    if (not isinstance(value, list) or len(value) != length
            or not all(map(_is_number, value))):
        raise ValueError(f"{what} must be a list of {length} finite numbers")


def validate_record(obj) -> dict:
    """Check one parsed record against the format; returns it unchanged."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    kind = obj.get("kind")
    if kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown kind {kind!r}")
    expected = {"t", "kind", *_PAYLOAD_KEYS[kind]}
    if set(obj) != expected:
        missing = expected - set(obj)
        extra = set(obj) - expected
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
    return obj


def write_records(path, records):
    """Write records as compact JSONL; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            validate_record(rec)
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def read_records(path):
    """Yield validated records one line at a time (constant memory).

    Raises DatasetFormatError with the offending line number on parse
    failures, payload violations, or a timestamp regression.
    """
    last_t = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})")
            try:
                validate_record(obj)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}")
            if last_t is not None and obj["t"] < last_t:
                raise DatasetFormatError(
                    f"{path}:{lineno}: timestamp {obj['t']} precedes {last_t}"
                )
            last_t = obj["t"]
            yield obj


def estimate_to_dict(est) -> dict:
    """Serializable form of a PositionEstimate."""
    out = {
        "t": float(est.timestamp),
        "method": est.method,
        "p": [float(v) for v in est.position],
        "roll": float(est.roll),
        "pitch": float(est.pitch),
    }
    if est.reproj_rms is not None:
        out["reproj_rms"] = float(est.reproj_rms)
    if est.ray_k is not None:
        out["ray_k"] = float(est.ray_k)
    return out


def write_estimates(path, estimates):
    """Write PositionEstimate objects as JSONL; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for est in estimates:
            fh.write(json.dumps(estimate_to_dict(est), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def read_estimates(path) -> list:
    """Read an estimate file back into a list of dicts."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})")
            if (not isinstance(obj, dict) or not _is_number(obj.get("t"))
                    or obj.get("method") not in ("cpnp", "cd")):
                raise DatasetFormatError(f"{path}:{lineno}: malformed estimate")
            try:
                _check_vector(obj["p"], 3, "p")
            except (KeyError, ValueError):
                raise DatasetFormatError(f"{path}:{lineno}: malformed estimate")
            out.append(obj)
    return out


def load_pairs_csv(path) -> np.ndarray:
    """Load (raw, truth) calibration pairs from a two-column CSV.

    A non-numeric first row is treated as a header and skipped. Returns
    an (n, 2) float array; n may be zero for an empty file.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
            if not all(np.isfinite(v) for v in pair):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
            rows.append(pair)
    return np.array(rows, dtype=float).reshape(-1, 2)
