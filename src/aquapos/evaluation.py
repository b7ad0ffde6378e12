"""Trajectory error metrics: alignment, MED, per-axis stats, regression.

Estimates and ground truth are matched by nearest timestamp within a
tolerance; matched pairs feed the mean-Euclidean-distance (MED) summary,
per-axis RMSE/MAE, an error histogram, and an optional least-squares
regression of error against platform tilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, SingularDesign

DEFAULT_ALIGN_TOLERANCE = 0.02  # seconds
DEFAULT_BIN_WIDTH = 0.01  # metres


@dataclass(frozen=True)
class AlignedPair:
    """One estimate matched to the nearest ground-truth sample."""

    timestamp: float
    estimate: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=float)
        tru = np.asarray(self.truth, dtype=float)
        if est.shape != (3,) or tru.shape != (3,):
            raise ValueError("estimate and truth must be 3-vectors")
        if not (np.isfinite(self.timestamp) and np.all(np.isfinite(est)) and np.all(np.isfinite(tru))):
            raise ValueError("aligned pair must be finite")
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "truth", tru)

    @classmethod
    def _unchecked(cls, timestamp: float, estimate: np.ndarray, truth: np.ndarray):
        """Build from a float and two finite float 3-vectors; skips the checks."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "timestamp", timestamp)
        object.__setattr__(pair, "estimate", estimate)
        object.__setattr__(pair, "truth", truth)
        return pair


@dataclass(frozen=True)
class RegressionResult:
    """OLS fit of error against (pitch, roll, 1)."""

    coef_pitch: float
    coef_roll: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


@dataclass
class ErrorReport:
    """Summary statistics plus the raw error series for export."""

    n: int
    dropped: int
    med: float
    rmse_xyz: np.ndarray
    mae_xyz: np.ndarray
    axis_errors: np.ndarray  # (n, 3) estimate - truth
    euclidean: np.ndarray  # (n,)
    hist_edges: np.ndarray
    hist_counts: np.ndarray

    def to_dict(self) -> dict:
        axes = ("x", "y", "z")
        return {
            "n": int(self.n),
            "dropped": int(self.dropped),
            "med": float(self.med),
            "rmse": {a: float(v) for a, v in zip(axes, self.rmse_xyz)},
            "mae": {a: float(v) for a, v in zip(axes, self.mae_xyz)},
            "histogram": {
                "bin_edges": [float(v) for v in self.hist_edges],
                "counts": [int(v) for v in self.hist_counts],
            },
        }


def align(est_times, est_points, truth_times, truth_points,
          max_dt: float = DEFAULT_ALIGN_TOLERANCE):
    """Match each estimate to the nearest truth sample within max_dt.

    Truth timestamps must be sorted (non-decreasing). Returns the list of
    AlignedPair plus the count of estimates dropped for lack of a truth
    sample within tolerance.
    """
    et = np.asarray(est_times, dtype=float)
    ep = np.asarray(est_points, dtype=float)
    tt = np.asarray(truth_times, dtype=float)
    tp = np.asarray(truth_points, dtype=float)
    if et.ndim != 1 or ep.shape != (et.size, 3):
        raise ValueError("estimates must be times (n,) with points (n, 3)")
    if tt.ndim != 1 or tp.shape != (tt.size, 3):
        raise ValueError("truth must be times (m,) with points (m, 3)")
    if tt.size and np.any(np.diff(tt) < 0):
        raise ValueError("truth timestamps must be non-decreasing")

    if tt.size == 0:
        return [], int(et.size)
    # the truth samples either side of each estimate; at either end both
    # indices clip to the same sample. The earlier sample wins a tie.
    idx = np.searchsorted(tt, et)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, tt.size - 1)
    d_lo = np.abs(tt[lo] - et)
    d_hi = np.abs(tt[hi] - et)
    later = d_hi < d_lo
    keep = np.where(later, d_hi, d_lo) <= max_dt
    t_kept = et[keep]
    e_kept = ep[keep]
    p_kept = tp[np.where(later, hi, lo)[keep]]
    if not (np.isfinite(t_kept).all() and np.isfinite(e_kept).all()
            and np.isfinite(p_kept).all()):
        raise ValueError("aligned pair must be finite")
    new = AlignedPair._unchecked
    pairs = [new(t, e, p) for t, e, p in zip(t_kept.tolist(), e_kept, p_kept)]
    return pairs, int(et.size - len(pairs))


def _error_series(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis errors (n, 3), estimate - truth, and their norms (n,): the one
    error formula behind med, the report and evaluate's CSV."""
    if len(pairs) == 0:
        raise EmptySeries("no aligned pairs")
    axis_err = np.array([p.estimate for p in pairs]) - np.array([p.truth for p in pairs])
    return axis_err, np.linalg.norm(axis_err, axis=1)


def med(pairs) -> float:
    """Mean Euclidean distance over aligned pairs."""
    return float(np.mean(_error_series(pairs)[1]))


def histogram(series, bin_width: float = DEFAULT_BIN_WIDTH):
    """Fixed-width bins anchored at the series minimum.

    Returns (edges, counts); counts always sum to len(series).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise EmptySeries("cannot histogram an empty series")
    lo = float(np.min(x))
    n_bins = int(np.floor((float(np.max(x)) - lo) / bin_width)) + 1
    edges = lo + bin_width * np.arange(n_bins + 1)
    index = np.clip(np.floor((x - lo) / bin_width).astype(int), 0, n_bins - 1)
    counts = np.bincount(index, minlength=n_bins)
    return edges, counts


def tilt_error_regression(errors, pitch, roll) -> RegressionResult:
    """OLS of the error series on pitch, roll and an intercept."""
    e = np.asarray(errors, dtype=float)
    p = np.asarray(pitch, dtype=float)
    r = np.asarray(roll, dtype=float)
    if not (e.ndim == p.ndim == r.ndim == 1 and e.size == p.size == r.size):
        raise ValueError("errors, pitch and roll must be 1-d series of equal length")
    design = np.column_stack([p, r, np.ones(e.size)])
    sol, _, rank, _ = np.linalg.lstsq(design, e, rcond=None)
    if rank < 3:
        raise SingularDesign("regressors are constant or collinear")
    residual = e - design @ sol
    ss_res = float(residual @ residual)
    centered = e - e.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return RegressionResult(float(sol[0]), float(sol[1]), float(sol[2]), r2)


def build_error_report(pairs, dropped: int = 0,
                       bin_width: float = DEFAULT_BIN_WIDTH) -> ErrorReport:
    """Assemble the full metric set from aligned pairs."""
    axis_err, eucl = _error_series(pairs)
    edges, counts = histogram(eucl, bin_width)
    return ErrorReport(
        n=len(pairs),
        dropped=int(dropped),
        med=float(np.mean(eucl)),
        rmse_xyz=np.sqrt(np.mean(np.square(axis_err), axis=0)),
        mae_xyz=np.mean(np.abs(axis_err), axis=0),
        axis_errors=axis_err,
        euclidean=eucl,
        hist_edges=edges,
        hist_counts=counts,
    )
