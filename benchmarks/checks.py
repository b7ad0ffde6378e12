"""Correctness checks on the outputs of one workload iteration.

The checks read the CLI's output files with plain ``json`` and numpy, not
through ``aquapos``, so a fault in the package's own readers or scorers
cannot hide itself. Any failed check raises CheckFailed; the benchmark
then reports ``"correct": false`` and no metrics.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

ALIGN_TOLERANCE = 0.02  # seconds; evaluate's nearest-truth window
CRITERION_2_RANGE = (0.005, 0.150)  # metres, both MEDs on noisy data
EXACT_BOUND = {"cpnp": 1e-6, "cd": 1e-9}  # metres, criterion 1
FIT_TOLERANCE = 1e-3  # criterion 6
FIT_STANDARD_ERRORS = 5.0
PSO_VS_LEAST_SQUARES = 1e-6

_COUNTER = re.compile(r"\b(\w+_(?:skipped|rejected)) (\d+)")


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


@dataclass
class DatasetScan:
    """What the checks need from a dataset file, read independently."""

    counts: dict = field(default_factory=dict)
    truth_t: np.ndarray | None = None
    truth_p: np.ndarray | None = None
    pairs: np.ndarray | None = None  # (raw depth, truth depth) at shared stamps

    @property
    def records(self) -> int:
        return sum(self.counts.values())


def scan_dataset(path) -> DatasetScan:
    counts = {}
    truth_t, truth_p, depth_raw = [], [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec["kind"]
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "truth":
                truth_t.append(rec["t"])
                truth_p.append(rec["p"])
            elif kind == "depth":
                depth_raw[rec["t"]] = rec["raw"]
    pairs = [(depth_raw[t], -p[2]) for t, p in zip(truth_t, truth_p)
             if t in depth_raw]
    return DatasetScan(
        counts=counts,
        truth_t=np.array(truth_t, dtype=float),
        truth_p=np.array(truth_p, dtype=float).reshape(-1, 3),
        pairs=np.array(pairs, dtype=float).reshape(-1, 2),
    )


def read_estimates(path) -> dict:
    """Estimate file -> {method: (times (n,), points (n, 3))}."""
    by_method = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            est = json.loads(line)
            t, p = by_method.setdefault(est["method"], ([], []))
            t.append(est["t"])
            p.append(est["p"])
    return {m: (np.array(t, dtype=float), np.array(p, dtype=float).reshape(-1, 3))
            for m, (t, p) in by_method.items()}


def stage_counters(estimate_stdout: str) -> dict:
    """Skip and rejection counters as ``estimate`` prints them."""
    return {k: int(v) for k, v in _COUNTER.findall(estimate_stdout)}


def recompute_med(est_t, est_p, truth_t, truth_p, max_dt=ALIGN_TOLERANCE):
    """(MED, pairs, dropped) by nearest truth sample, earlier one on ties."""
    idx = np.searchsorted(truth_t, est_t)
    left = np.clip(idx - 1, 0, truth_t.size - 1)
    right = np.clip(idx, 0, truth_t.size - 1)
    d_left = np.abs(truth_t[left] - est_t)
    d_right = np.abs(truth_t[right] - est_t)
    best = np.where(d_left <= d_right, left, right)
    keep = np.minimum(d_left, d_right) <= max_dt
    errors = np.linalg.norm(est_p[keep] - truth_p[best[keep]], axis=1)
    med = float(np.mean(errors)) if errors.size else float("nan")
    return med, int(keep.sum()), int((~keep).sum())


def check_exit_codes(codes: dict):
    bad = {stage: rc for stage, rc in codes.items() if rc != 0}
    if bad:
        raise CheckFailed(f"stages exited non-zero: {bad}")


def check_estimate_count(estimates: dict, tag_frames: int, methods, counters):
    skips = sum(counters.get(f"{m}_skipped", 0) for m in methods)
    written = sum(t.size for t, _ in estimates.values())
    expected = tag_frames * len(methods) - skips
    if written != expected:
        raise CheckFailed(
            f"{written} estimates written, expected {tag_frames} tag frames "
            f"x {len(methods)} methods - {skips} skips = {expected}"
        )
    extra = set(estimates) - set(methods)
    if extra:
        raise CheckFailed(f"estimates for methods not asked for: {sorted(extra)}")


def check_report(report: dict, estimates: dict, scan: DatasetScan,
                 rel_tol=1e-9, abs_tol=1e-15) -> dict:
    """Recompute every method's MED and compare with evaluate's report.

    Returns {method: MED in metres} as recomputed.
    """
    meds = {}
    for method, (t, p) in estimates.items():
        med, n, dropped = recompute_med(t, p, scan.truth_t, scan.truth_p)
        got = report.get(method)
        if got is None:
            raise CheckFailed(f"report has no {method} entry")
        if got["n"] != n or got["dropped"] != dropped:
            raise CheckFailed(
                f"{method}: report pairs/dropped {got['n']}/{got['dropped']}, "
                f"recomputed {n}/{dropped}"
            )
        if not abs(got["med"] - med) <= abs_tol + rel_tol * abs(med):
            raise CheckFailed(
                f"{method}: report MED {got['med']!r} m, recomputed {med!r} m"
            )
        meds[method] = med
    extra = set(report) - set(estimates)
    if extra:
        raise CheckFailed(f"report scores methods with no estimates: {sorted(extra)}")
    return meds


def check_criterion_2(meds: dict):
    lo, hi = CRITERION_2_RANGE
    for method in ("cpnp", "cd"):
        if not lo <= meds[method] <= hi:
            raise CheckFailed(f"{method} MED {meds[method]:.6f} m outside [{lo}, {hi}]")
    if not meds["cd"] < meds["cpnp"]:
        raise CheckFailed(
            f"cd MED {meds['cd']:.6f} m does not beat cpnp {meds['cpnp']:.6f} m"
        )


def check_exactness(meds: dict):
    for method, bound in EXACT_BOUND.items():
        if not meds[method] < bound:
            raise CheckFailed(f"{method} MED {meds[method]!r} m is not below {bound} m")


def check_fit(scale: float, offset: float, pairs: np.ndarray,
              true_scale: float, true_offset: float):
    """The PSO fit must match least squares and recover the simulated sensor.

    The recovery tolerance is criterion 6's 1e-3 or five standard errors
    of the least-squares estimate, whichever is larger: with 0.002 m depth
    noise, an exact least-squares fit on a few hundred pairs misses 1e-3
    for some seeds, and that is the data, not the program.
    """
    n = pairs.shape[0]
    if n < 3:
        raise CheckFailed(f"only {n} calibration pairs")
    design = np.column_stack([pairs[:, 0], np.ones(n)])
    coef, rss, _, _ = np.linalg.lstsq(design, pairs[:, 1], rcond=None)
    sigma2 = float(rss[0]) / (n - 2) if rss.size else 0.0
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(design.T @ design)))
    fit = np.array([scale, offset])
    if np.max(np.abs(fit - coef)) > PSO_VS_LEAST_SQUARES:
        raise CheckFailed(f"PSO fit {fit.tolist()} differs from least squares "
                          f"{coef.tolist()}")
    tol = np.maximum(FIT_TOLERANCE, FIT_STANDARD_ERRORS * se)
    err = np.abs(fit - (true_scale, true_offset))
    if np.any(err > tol):
        raise CheckFailed(
            f"fit {fit.tolist()} misses the simulated sensor "
            f"({true_scale}, {true_offset}) by {err.tolist()} > {tol.tolist()}"
        )
