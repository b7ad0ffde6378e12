"""Trajectory error metrics: alignment, MED, per-axis stats, regression.

Estimates and ground truth are matched by nearest timestamp within a
tolerance; matched pairs feed the mean-Euclidean-distance (MED) summary,
per-axis RMSE/MAE, an error histogram, and an optional least-squares
regression of error against platform tilt.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from ._numpy import np
from .errors import EmptySeries, NonFiniteEstimate, SingularDesign
from .geometry import _float, _floats3, _Value

DEFAULT_ALIGN_TOLERANCE = 0.02  # seconds
DEFAULT_BIN_WIDTH = 0.01  # metres
# one far-off estimate would otherwise size the histogram by its error
MAX_BINS = 1000


@dataclass(init=False, eq=False, repr=False)
class AlignedPair(_Value):
    """One estimate matched to the nearest ground-truth sample. The timestamp
    is a float and the positions are the float 3-tuples ``estimate_xyz`` and
    ``truth_xyz``, each number by geometry._float's rule; they build the
    ``estimate`` and ``truth`` arrays when first read."""

    timestamp: float
    estimate_xyz: tuple
    truth_xyz: tuple

    def __init__(self, timestamp, estimate, truth):
        message = "aligned pair must be finite"
        self.__dict__.update(timestamp=_float(timestamp, message),
                             estimate_xyz=_floats3(estimate, message),
                             truth_xyz=_floats3(truth, message))

    estimate = cached_property(lambda pair: np.array(pair.estimate_xyz))
    truth = cached_property(lambda pair: np.array(pair.truth_xyz))


@dataclass(frozen=True, eq=False, repr=False)
class RegressionResult(_Value):
    """OLS fit of error against (pitch, roll, 1)."""

    coef_pitch: float
    coef_roll: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


@dataclass(eq=False)
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

    keep, nearest = _match(et, tt, max_dt)
    t_kept = et[keep]
    e_kept = ep[keep]
    p_kept = tp[nearest]
    # each row a float tuple, read by columns: no list per row
    pairs = [AlignedPair(t, e, p) for t, e, p in
             zip(t_kept.tolist(), zip(*e_kept.T.tolist()), zip(*p_kept.T.tolist()))]
    return pairs, int(et.size - len(pairs))


def _match(et, tt, max_dt: float):
    """The nearest-truth rule on float arrays: estimate times et (n,) and
    sorted truth times tt (m,). Returns the mask of the estimates kept,
    those within max_dt of a truth sample, and for each kept one the index
    of its nearest truth sample; the earlier sample wins a tie."""
    if tt.size == 0:
        return np.zeros(et.size, dtype=bool), np.zeros(0, dtype=np.intp)
    # the truth samples either side of each estimate; at either end both
    # indices clip to the same sample
    idx = np.searchsorted(tt, et)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, tt.size - 1)
    # a distance past the float range is past any tolerance: inf, not a warning
    with np.errstate(over="ignore"):
        d_lo = np.abs(tt[lo] - et)
        d_hi = np.abs(tt[hi] - et)
    later = d_hi < d_lo
    keep = np.where(later, d_hi, d_lo) <= max_dt
    return keep, np.where(later, hi, lo)[keep]


@contextlib.contextmanager
def _finite_errors():
    """Context manager and decorator: numpy overflow in the error arithmetic
    as NonFiniteEstimate, where a huge but finite estimate would otherwise
    make an inf error and a warning."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NonFiniteEstimate(f"estimate errors overflow: {exc}") from None


@_finite_errors()
def _errors(est, tru) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis errors (n, 3), estimate - truth, of two (n, 3) position
    arrays, and their norms (n,): the one error formula behind med, the
    report and evaluate's CSV."""
    axis_err = est - tru
    return axis_err, np.linalg.norm(axis_err, axis=1)


def _error_series(pairs) -> tuple[np.ndarray, np.ndarray]:
    """_errors of the aligned pairs."""
    n = len(pairs)
    if n == 0:
        raise EmptySeries("no aligned pairs")
    # flat reads of the tuples: np.array stacks a list of tuples more slowly
    flat = itertools.chain.from_iterable
    est = np.fromiter(flat(p.estimate_xyz for p in pairs), float, 3 * n)
    tru = np.fromiter(flat(p.truth_xyz for p in pairs), float, 3 * n)
    return _errors(est.reshape(n, 3), tru.reshape(n, 3))


@_finite_errors()
def med(pairs) -> float:
    """Mean Euclidean distance over aligned pairs."""
    return float(np.mean(_error_series(pairs)[1]))


def histogram(series, bin_width: float = DEFAULT_BIN_WIDTH):
    """Fixed-width bins anchored at the series minimum, at most MAX_BINS of them.

    A series spread over more bins gets MAX_BINS - 1 fixed-width bins and
    an open last bin that takes the rest; its right edge is the series
    maximum. Returns (edges, counts); counts always sum to len(series).
    """
    message = f"bin_width must be a positive number, got {bin_width!r}"
    bin_width = _float(bin_width, message)
    if not bin_width > 0:
        raise ValueError(message)
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise EmptySeries("cannot histogram an empty series")
    lo, hi = float(np.min(x)), float(np.max(x))
    span = (hi - lo) / bin_width  # inf for a tiny width, which takes MAX_BINS
    n_bins = int(np.floor(span)) + 1 if span < MAX_BINS else MAX_BINS
    edges = lo + bin_width * np.arange(n_bins + 1)
    if span >= MAX_BINS:
        edges[-1] = hi
    # capped before the cast, so a far-off error cannot overflow the index; a
    # quotient past the float range is inf, which the cap takes as well
    with np.errstate(over="ignore"):
        index = np.floor(np.minimum((x - lo) / bin_width, n_bins - 1)).astype(int)
    counts = np.bincount(index, minlength=n_bins)
    return edges, counts


def _centred(values: list) -> tuple[float, list]:
    """The mean of a float series, from its correctly rounded sum, and the series less it."""
    mean = math.fsum(values) / len(values)
    return mean, [v - mean for v in values]


def tilt_error_regression(errors, pitch, roll) -> RegressionResult:
    """OLS of the error series on pitch, roll and an intercept, on Python floats.

    No BLAS runs, so the bits do not depend on the kernel: math.fsum sums the
    means and centred products, the slopes solve the centred 2x2 normal
    equations in closed form and the intercept follows from the means. Raises
    SingularDesign for fewer than 3 samples, or for a centred system whose
    determinant, or either regressor's spread, is under 1e-12 of its scale.
    """
    e = np.asarray(errors, dtype=float)
    p = np.asarray(pitch, dtype=float)
    r = np.asarray(roll, dtype=float)
    if not (e.ndim == p.ndim == r.ndim == 1 and e.size == p.size == r.size):
        raise ValueError("errors, pitch and roll must be 1-d series of equal length")
    e, p, r = e.tolist(), p.tolist(), r.tolist()
    if not all(map(math.isfinite, e + p + r)):
        raise ValueError("errors, pitch and roll must be finite")
    if len(e) < 3:
        raise SingularDesign("three coefficients need at least three samples")
    fsum = math.fsum
    (me, ce), (mp, cp), (mr, cr) = _centred(e), _centred(p), _centred(r)
    spp, srr = fsum(a * a for a in cp), fsum(a * a for a in cr)
    spr = fsum(a * b for a, b in zip(cp, cr))
    spe, sre = fsum(a * b for a, b in zip(cp, ce)), fsum(a * b for a, b in zip(cr, ce))
    det = spp * srr - spr * spr
    if not (spp > 1e-12 * fsum(a * a for a in p) and srr > 1e-12 * fsum(a * a for a in r)
            and det > 1e-12 * spp * srr):
        raise SingularDesign("regressors are constant or collinear")
    coef_pitch = (srr * spe - spr * sre) / det
    coef_roll = (spp * sre - spr * spe) / det
    residual = [a - coef_pitch * b - coef_roll * c for a, b, c in zip(ce, cp, cr)]
    ss_res = fsum(a * a for a in residual)
    ss_tot = fsum(a * a for a in ce)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return RegressionResult(coef_pitch, coef_roll, me - coef_pitch * mp - coef_roll * mr, r2)


def build_error_report(pairs, dropped: int = 0,
                       bin_width: float = DEFAULT_BIN_WIDTH) -> ErrorReport:
    """Assemble the full metric set from aligned pairs.

    Raises NonFiniteEstimate when an error, or a sum of them or of their
    squares, overflows.
    """
    return _report(*_error_series(pairs), dropped, bin_width)


@_finite_errors()
def _report(axis_err, eucl, dropped: int,
            bin_width: float = DEFAULT_BIN_WIDTH) -> ErrorReport:
    """The metric set of the errors _errors returns, and the count of
    estimates dropped."""
    edges, counts = histogram(eucl, bin_width)
    return ErrorReport(
        n=len(eucl),
        dropped=int(dropped),
        med=float(np.mean(eucl)),
        rmse_xyz=np.sqrt(np.mean(np.square(axis_err), axis=0)),
        mae_xyz=np.mean(np.abs(axis_err), axis=0),
        axis_errors=axis_err,
        euclidean=eucl,
        hist_edges=edges,
        hist_counts=counts,
    )
