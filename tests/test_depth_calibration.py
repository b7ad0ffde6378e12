import hashlib

import numpy as np
import pytest

from aquapos.depth_calibration import (
    IDENTITY_CALIBRATION,
    CalibrationParams,
    PsoConfig,
    _pso_step,
    apply_calibration,
    calibrate,
    calibrate_with_trace,
    calibration_cost,
)
from aquapos.errors import ConfigError, DegenerateData, InsufficientData


def _noisy_pairs(scale, offset, n, sigma, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.3, 2.5, size=n)
    truth = scale * raw + offset + rng.normal(0.0, sigma, size=n)
    return np.column_stack([raw, truth])


def _lstsq_fit(pairs):
    arr = np.asarray(pairs, dtype=float)
    design = np.column_stack([arr[:, 0], np.ones(len(arr))])
    sol, *_ = np.linalg.lstsq(design, arr[:, 1], rcond=None)
    return sol


class TestCost:
    def test_identity_on_equal_pairs(self):
        pairs = [(0.5, 0.5), (1.2, 1.2), (2.0, 2.0)]
        assert calibration_cost((1.0, 0.0), pairs) == 0.0

    def test_exact_affine_fit(self):
        assert calibration_cost((2.0, 0.0), [(1.0, 2.0), (2.0, 4.0)]) == 0.0

    def test_hand_value(self):
        assert calibration_cost((1.0, 0.0), [(1.0, 2.0), (2.0, 4.0)]) == 5.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            calibration_cost((1.0, 0.0), [(1.0, 1.0)])

    def test_theta_must_be_scale_and_offset(self):
        with pytest.raises(ValueError):
            calibration_cost((1.0, 0.0, 0.5), [(1.0, 2.0), (2.0, 4.0)])

    @pytest.mark.parametrize("theta, pairs", [
        ((1.0, 0.0), [(1e308, 1.0), (-1e308, 2.0)]),
        ((1e200, 0.0), [(1e200, 1.0), (2.0, 2.0)]),
        # a cost of 1.2e308 is finite but leaves no room for rounding
        ((1.0, 0.0), [(7.75e153, 0.0), (7.75e153, 0.0)]),
    ])
    def test_pairs_whose_cost_can_overflow_are_rejected(self, theta, pairs):
        # raised before numpy could warn about the overflow
        with pytest.raises(DegenerateData, match="can overflow"):
            calibration_cost(theta, pairs)

    def test_large_pairs_with_small_residuals_keep_their_cost(self):
        assert calibration_cost((1.0, 0.0), [(1e300, 1e300), (-1e300, -1e300)]) == 0.0
        assert calibration_cost((1.0, 0.5), [(1e150, 1e150), (2.0, 2.0)]) == 0.25


def _swarm(*particles):
    """(x, v, best_x, best_cost) arrays from (position, velocity, best position,
    best cost) rows, one row per particle."""
    x, v, best_x, best_cost = (np.array(column, dtype=float) for column in zip(*particles))
    return x, v, best_x, best_cost


class TestPsoStep:
    PAIRS = np.array([(1.0, 2.0), (2.0, 4.0)])

    def test_zero_coefficients_freeze_swarm(self):
        cfg = PsoConfig(inertia=0.0, cognitive=0.0, social=0.0)
        x, v, best_x, best_cost = _swarm(([1.1, 0.2], [0.0, 0.0], [1.3, 0.0], 1.0))
        _pso_step(x, v, best_x, best_cost, np.array([1.5, 0.1]), self.PAIRS, cfg,
                  np.random.default_rng(0))
        np.testing.assert_array_equal(x, [[1.1, 0.2]])
        np.testing.assert_array_equal(v, [[0.0, 0.0]])

    def test_particle_at_both_bests_stays_put(self):
        cfg = PsoConfig(inertia=0.0)
        x, v, best_x, best_cost = _swarm(([1.1, 0.2], [0.3, -0.1], [1.1, 0.2], 5.0))
        _pso_step(x, v, best_x, best_cost, np.array([1.1, 0.2]), self.PAIRS, cfg,
                  np.random.default_rng(0))
        np.testing.assert_array_equal(x, [[1.1, 0.2]])

    def test_one_step_matches_scripted_update(self):
        cfg = PsoConfig()
        particles = [
            ([1.0, 0.0], [0.05, -0.02], [1.2, 0.1], calibration_cost([1.2, 0.1], self.PAIRS)),
            ([1.8, -0.5], [0.0, 0.0], [1.8, -0.5], calibration_cost([1.8, -0.5], self.PAIRS)),
        ]
        g_best = np.array([1.2, 0.1])

        # replicate the documented draw order (r1 then r2, particle by
        # particle) with scalar draws from an identically seeded RNG and
        # recompute the update with plain scalar arithmetic
        script_rng = np.random.default_rng(99)
        lo = [0.5, -1.0]
        hi = [2.0, 1.0]
        expected = []
        for position, velocity, best_position, _ in particles:
            r1 = script_rng.uniform()
            r2 = script_rng.uniform()
            pos = []
            for i in range(2):
                v = (0.7 * velocity[i]
                     + 1.5 * r1 * (best_position[i] - position[i])
                     + 1.5 * r2 * (g_best[i] - position[i]))
                v = min(max(v, -0.2 * (hi[i] - lo[i])), 0.2 * (hi[i] - lo[i]))
                pos.append(min(max(position[i] + v, lo[i]), hi[i]))
            expected.append(pos)

        x, v, best_x, best_cost = _swarm(*particles)
        _pso_step(x, v, best_x, best_cost, g_best, self.PAIRS, cfg,
                  np.random.default_rng(99))
        np.testing.assert_array_equal(x, expected)

    def test_velocity_clamp_and_bounds(self):
        cfg = PsoConfig()
        rng = np.random.default_rng(3)
        x, v, best_x, best_cost = _swarm(([0.5, -1.0], [0.0, 0.0], [2.0, 1.0], 100.0))
        for _ in range(20):
            _pso_step(x, v, best_x, best_cost, np.array([2.0, 1.0]), self.PAIRS, cfg, rng)
            assert abs(v[0, 0]) <= 0.2 * 1.5 + 1e-15
            assert abs(v[0, 1]) <= 0.2 * 2.0 + 1e-15
            assert 0.5 <= x[0, 0] <= 2.0
            assert -1.0 <= x[0, 1] <= 1.0

    def test_personal_best_updates_only_on_improvement(self):
        cfg = PsoConfig()
        # the first particle's best cannot be beaten; any move beats the second's
        x, v, best_x, best_cost = _swarm(([1.0, 0.0], [0.0, 0.0], [1.9, 0.9], 0.0),
                                         ([1.0, 0.0], [0.0, 0.0], [1.9, 0.9], np.inf))
        _pso_step(x, v, best_x, best_cost, np.array([1.9, 0.9]), self.PAIRS, cfg,
                  np.random.default_rng(1))
        np.testing.assert_array_equal(best_x[0], [1.9, 0.9])
        assert best_cost[0] == 0.0
        np.testing.assert_array_equal(best_x[1], x[1])
        assert best_cost[1] == calibration_cost(x[1], self.PAIRS)


class TestTraceDigest:
    """The fit's trace, pinned by the SHA-256 of float.hex over every entry.

    The cost's row sums call no BLAS, so the digests are the same on every
    kernel; TestFitMatchesParticleLoop checks that the swarm draws, updates
    and ranks as the per-particle fit does.
    """

    PAIRS = _noisy_pairs(1.03, -0.05, 120, 0.002, seed=21)
    CASES = (
        (PsoConfig(), "b5b9788a6d47abf9a3063e44f479024822d80c9175246c9149e2314ff7020289"),
        (PsoConfig(swarm_size=7, iterations=60, seed=5),
         "25e9fc37a73503f239033cf76b868d0d062b94f0c0118961d9102733c92027b7"),
        (PsoConfig(inertia=0.4, cognitive=2.0, social=0.5, scale_bounds=(0.8, 1.3),
                   offset_bounds=(-0.2, 0.3), seed=9),
         "70fc3395b0fafb94aaf8665111fce86b940823bcc58c0c0ed7bc319bad908b96"),
    )

    @pytest.mark.parametrize("cfg, digest", CASES, ids=("default", "small-swarm", "narrow-bounds"))
    def test_trace_matches_pinned_digest(self, cfg, digest):
        _, trace = calibrate_with_trace(self.PAIRS, cfg)
        assert len(trace) == cfg.iterations + 1
        assert all(type(c) is float for c in trace)
        text = ",".join(map(float.hex, trace))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _particle_loop_fit(pairs, cfg):
    """The fit as one object per particle with scalar draws: the reference
    for the array swarm, whose arithmetic is the same operation for operation."""
    arr = np.asarray(pairs, dtype=float)

    def cost(theta):
        residual = arr[:, 0] * theta[0] + theta[1] - arr[:, 1]
        return float(np.add.reduce(residual * residual))

    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.lower(), cfg.upper()
    v_max = 0.2 * (hi - lo)
    swarm = []
    for _ in range(cfg.swarm_size):
        pos = lo + rng.uniform(size=2) * (hi - lo)
        swarm.append({"x": pos, "v": np.zeros(2), "best": pos.copy(), "cost": cost(pos)})
    g_cost = min(p["cost"] for p in swarm)
    g_pos = next(p["best"].copy() for p in swarm if p["cost"] == g_cost)
    trace = [g_cost]
    for _ in range(cfg.iterations):
        for p in swarm:
            r1 = rng.uniform()
            r2 = rng.uniform()
            v = (cfg.inertia * p["v"] + cfg.cognitive * r1 * (p["best"] - p["x"])
                 + cfg.social * r2 * (g_pos - p["x"]))
            p["v"] = np.clip(v, -v_max, v_max)
            p["x"] = np.clip(p["x"] + p["v"], lo, hi)
            c = cost(p["x"])
            if c < p["cost"]:
                p["cost"], p["best"] = c, p["x"].copy()
        for p in swarm:
            if p["cost"] < g_cost:
                g_cost, g_pos = p["cost"], p["best"].copy()
        trace.append(g_cost)
    return (float(g_pos[0]), float(g_pos[1])), trace


class TestFitMatchesParticleLoop:
    CONFIGS = (
        PsoConfig(swarm_size=10, iterations=30, seed=3),
        PsoConfig(swarm_size=7, iterations=25, inertia=0.5, cognitive=1.2, social=2.0,
                  scale_bounds=(0.7, 1.6), offset_bounds=(-0.5, 0.4), seed=17),
    )

    def test_traces_equal_to_the_bit(self):
        rng = np.random.default_rng(2024)
        for k in range(40):
            # odd and even pair counts, so the swarm's rows start on every alignment
            n = int(rng.choice([2, 3, 7, 16, 33, 64, 127, 450]))
            raw = rng.uniform(0.1, 3.0, size=n)
            truth = (rng.uniform(0.5, 1.5) * raw + rng.uniform(-0.5, 0.5)
                     + rng.normal(0.0, rng.choice([0.0, 1e-3, 0.05]), size=n))
            pairs = np.column_stack([raw, truth])
            for cfg in self.CONFIGS:
                params, trace = calibrate_with_trace(pairs, cfg)
                (scale, offset), want = _particle_loop_fit(pairs, cfg)
                assert [c.hex() for c in trace] == [c.hex() for c in want]
                assert (params.scale.hex(), params.offset.hex()) == (scale.hex(), offset.hex())
            theta = rng.uniform(-3.0, 3.0, size=2)
            residual = raw * theta[0] + theta[1] - truth
            assert (calibration_cost(theta, pairs).hex()
                    == float(np.add.reduce(residual * residual)).hex())


class TestCalibrate:
    def test_recovers_synthetic_truth_and_matches_lstsq(self):
        pairs = _noisy_pairs(1.03, -0.05, 500, 0.001, seed=11)
        params = calibrate(pairs)
        assert params.scale == pytest.approx(1.03, abs=1e-3)
        assert params.offset == pytest.approx(-0.05, abs=1e-3)
        ls = _lstsq_fit(pairs)
        assert params.scale == pytest.approx(ls[0], abs=1e-3)
        assert params.offset == pytest.approx(ls[1], abs=1e-3)

    def test_noiseless_pairs_reach_tiny_cost(self):
        pairs = _noisy_pairs(1.2, 0.1, 50, 0.0, seed=12)
        params, trace = calibrate_with_trace(pairs)
        assert trace[-1] <= 1e-12
        assert params.scale == pytest.approx(1.2, abs=1e-6)

    def test_monotone_g_best(self):
        pairs = _noisy_pairs(0.9, 0.2, 100, 0.002, seed=13)
        _, trace = calibrate_with_trace(pairs)
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self):
        pairs = _noisy_pairs(1.1, -0.3, 60, 0.001, seed=14)
        p1, t1 = calibrate_with_trace(pairs)
        p2, t2 = calibrate_with_trace(pairs)
        assert t1 == t2
        assert (p1.scale, p1.offset) == (p2.scale, p2.offset)

    def test_seeds_agree_near_optimum(self):
        pairs = _noisy_pairs(1.4, 0.25, 300, 0.001, seed=15)
        ls = _lstsq_fit(pairs)
        for seed in (1, 2, 3):
            params = calibrate(pairs, PsoConfig(seed=seed))
            assert params.scale == pytest.approx(ls[0], abs=1e-3)
            assert params.offset == pytest.approx(ls[1], abs=1e-3)

    def test_degenerate_raw_column(self):
        with pytest.raises(DegenerateData):
            calibrate([(1.0, 0.9), (1.0, 1.1), (1.0, 1.0)])

    @pytest.mark.parametrize("pairs", [[(1e308, 1.0), (-1e308, 2.0)],
                                       [(1e160, 1.0), (2e160, 2.0)],
                                       [(1.0, 1e155), (2.0, 2.0)] + [(3.0, 1e154)] * 200,
                                       # a cost bound of 1.19e308 leaves no room
                                       # for rounding
                                       [(3.8e153, 0.0), (3.9e153, 0.0)]])
    def test_pairs_whose_cost_can_overflow_are_rejected(self, pairs):
        with pytest.raises(DegenerateData, match="too large"):
            calibrate_with_trace(pairs)

    def test_large_pairs_whose_cost_cannot_overflow_still_fit(self):
        # the bound covers the whole search box: wider bounds reject more
        pairs = [(1e150, 1.0), (2e150, 2.0)]
        _, trace = calibrate_with_trace(pairs)
        assert np.isfinite(trace).all()
        with pytest.raises(DegenerateData, match="too large"):
            calibrate_with_trace(pairs, PsoConfig(scale_bounds=(0.5, 1e160)))

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientData):
            calibrate([(1.0, 1.0)])

    def test_swarm_too_large_for_the_pairs_is_rejected_before_the_swarm_is_made(
            self, monkeypatch):
        pairs = _noisy_pairs(1.05, -0.03, 600, 0.001, seed=3)
        made = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: made.append(a) or pytest.fail("swarm made"))
        with pytest.raises(ConfigError, match=r"^pso\.swarm_size: 1000000 particles over "
                                              r"600 pairs is 6e\+08 residuals per step"):
            calibrate_with_trace(pairs, PsoConfig(swarm_size=10**6, iterations=2))
        assert made == []


class TestApplyAndParams:
    def test_identity(self):
        assert apply_calibration(IDENTITY_CALIBRATION, 0.73) == 0.73

    def test_scale_and_offset(self):
        assert apply_calibration(CalibrationParams(2.0, 0.1), 0.5) == pytest.approx(1.1)

    def test_offset_cancellation(self):
        assert apply_calibration(CalibrationParams(1.0, -0.02), 0.02) == 0.0

    def test_returns_python_float(self):
        assert type(apply_calibration(CalibrationParams(1.5, 0.0), np.float64(2.0))) is float

    def test_dict_round_trip(self):
        p = CalibrationParams(1.07, -0.013)
        q = CalibrationParams(**p.to_dict())
        assert (q.scale, q.offset) == (1.07, -0.013)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            CalibrationParams(0.0, 0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=1)
        with pytest.raises(ValueError):
            PsoConfig(inertia=1.5)
        with pytest.raises(ValueError):
            PsoConfig(scale_bounds=(2.0, 0.5))
