"""Affine depth-sensor calibration fitted by particle swarm optimization.

A pressure-derived depth reading ``raw`` is mapped to true depth through
``depth = scale * raw + offset``. The two parameters are recovered from
(raw, truth) sample pairs by minimizing the sum of squared residuals with
a small deterministic PSO. The cost is convex quadratic, so the swarm is
overkill for the model itself, but it keeps the fit robust to poor
initial bounds and needs no linear-algebra assumptions downstream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, InsufficientData

# Per-step velocity clamp, as a fraction of each parameter's search range.
_VELOCITY_CLAMP_FRACTION = 0.2


def _is_int(value) -> bool:
    """True for an integer of any integral type except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """Raise ValueError unless seed is a non-negative integer, as numpy's
    seeding takes; shared by every config type that holds a seed."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class CalibrationParams:
    """Affine depth correction: true depth = scale * raw + offset."""

    scale: float
    offset: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and np.isfinite(self.offset)):
            raise ValueError("calibration parameters must be finite")
        if self.scale == 0.0:
            raise ValueError("calibration scale must be nonzero")

    def to_dict(self) -> dict:
        return {"scale": float(self.scale), "offset": float(self.offset)}

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationParams":
        return cls(float(data["scale"]), float(data["offset"]))


IDENTITY_CALIBRATION = CalibrationParams(1.0, 0.0)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters and search bounds for the calibration fit."""

    swarm_size: int = 30
    iterations: int = 200
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    scale_bounds: tuple = (0.5, 2.0)
    offset_bounds: tuple = (-1.0, 1.0)
    seed: int = 1

    def __post_init__(self):
        if not (_is_int(self.swarm_size) and self.swarm_size >= 2):
            raise ValueError("swarm_size must be an integer of at least 2")
        if not (_is_int(self.iterations) and self.iterations >= 1):
            raise ValueError("iterations must be a positive integer")
        if not 0.0 <= self.inertia <= 1.0:
            raise ValueError("inertia must lie in [0, 1]")
        if self.cognitive < 0.0 or self.social < 0.0:
            raise ValueError("acceleration coefficients must be non-negative")
        for lo, hi in (self.scale_bounds, self.offset_bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError("bounds must be finite with lower < upper")
        _check_seed(self.seed)

    def lower(self) -> np.ndarray:
        return np.array([self.scale_bounds[0], self.offset_bounds[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.scale_bounds[1], self.offset_bounds[1]])


def _as_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array of (raw, truth) rows")
    if not np.all(np.isfinite(arr)):
        raise ValueError("calibration pairs must be finite")
    return arr


def _costs(x, pairs) -> np.ndarray:
    """Sum of squared residuals for each (scale, offset) row of x.

    pairs is an already checked (n, 2) array. Each row's residuals are
    summed by a dot product of their own, for a swarm as for a single
    parameter vector: np.einsum row sums add them in another order and
    move the fit's last bits.
    """
    residuals = x[:, :1] * pairs[:, 0] + x[:, 1:] - pairs[:, 1]
    return np.array([r @ r for r in residuals])


def calibration_cost(theta, pairs) -> float:
    """Sum of squared residuals of the affine model over the pairs."""
    arr = _as_pairs(pairs)
    if arr.shape[0] < 2:
        raise InsufficientData("need at least 2 calibration pairs")
    return float(_costs(np.asarray(theta, dtype=float).reshape(1, 2), arr)[0])


def _pso_step(x, v, best_x, best_cost, g_best, pairs, cfg: PsoConfig, rng):
    """Advance the swarm one step and refresh personal bests, all in place.

    x, v and best_x are (swarm, 2) arrays of positions, velocities and
    personal bests, best_cost the personal bests' costs. One
    ``rng.uniform(size=(swarm, 2))`` call gives each particle its r1 and
    r2, in swarm order; the velocity update is

        v' = w*v + c1*r1*(p_best - x) + c2*r2*(g_best - x)

    with v' clamped per component and the new position clipped to the
    search bounds. A personal best moves only on a strictly lower cost.
    ``g_best`` is held fixed for the whole step, so the sweep is
    synchronous; the caller rescans personal bests afterwards.
    """
    lo, hi = cfg.lower(), cfg.upper()
    v_max = _VELOCITY_CLAMP_FRACTION * (hi - lo)
    r = rng.uniform(size=x.shape)
    v[:] = np.clip(
        cfg.inertia * v
        + cfg.cognitive * r[:, :1] * (best_x - x)
        + cfg.social * r[:, 1:] * (g_best - x),
        -v_max,
        v_max,
    )
    x[:] = np.clip(x + v, lo, hi)
    cost = _costs(x, pairs)
    better = cost < best_cost
    best_x[better] = x[better]
    best_cost[better] = cost[better]


def calibrate_with_trace(pairs, cfg: PsoConfig | None = None):
    """Run the full PSO fit; also return the g_best cost after each iteration.

    The trace has ``iterations + 1`` entries, the first being the best
    initial particle. It is bit-identical across runs for a fixed seed,
    config and data, which makes determinism cheap to assert. The pairs
    are checked once here; the swarm is held as arrays (see _pso_step).
    """
    if cfg is None:
        cfg = PsoConfig()
    arr = _as_pairs(pairs)
    if arr.shape[0] < 2:
        raise InsufficientData("need at least 2 calibration pairs")
    if np.ptp(arr[:, 0]) < 1e-12:
        raise DegenerateData("raw depth values are all identical")

    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.lower(), cfg.upper()
    x = lo + rng.uniform(size=(cfg.swarm_size, 2)) * (hi - lo)
    v = np.zeros_like(x)
    best_x, best_cost = x.copy(), _costs(x, arr)
    # the first particle holding the lowest cost leads, on ties too
    i = int(np.argmin(best_cost))
    g_cost, g_pos = float(best_cost[i]), best_x[i].copy()
    trace = [g_cost]
    for _ in range(cfg.iterations):
        _pso_step(x, v, best_x, best_cost, g_pos, arr, cfg, rng)
        i = int(np.argmin(best_cost))
        if best_cost[i] < g_cost:
            g_cost, g_pos = float(best_cost[i]), best_x[i].copy()
        trace.append(g_cost)
    return CalibrationParams(float(g_pos[0]), float(g_pos[1])), trace


def calibrate(pairs, cfg: PsoConfig | None = None) -> CalibrationParams:
    """Fit (scale, offset) to the pairs; see calibrate_with_trace."""
    params, _ = calibrate_with_trace(pairs, cfg)
    return params


def apply_calibration(params: CalibrationParams, raw: float) -> float:
    """Map one raw sensor reading to calibrated depth."""
    return float(params.scale * raw + params.offset)
