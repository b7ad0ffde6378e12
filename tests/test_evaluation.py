import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import aquapos
from aquapos.errors import EmptySeries, NonFiniteEstimate, SingularDesign
from aquapos.evaluation import (
    MAX_BINS,
    AlignedPair,
    RegressionResult,
    align,
    build_error_report,
    histogram,
    med,
    tilt_error_regression,
)


def _pair(est, tru, t=0.0):
    return AlignedPair(t, np.asarray(est, float), np.asarray(tru, float))


class TestEuclidean:
    """The error of one pair: med over that pair alone."""

    def test_identical_points(self):
        assert med([_pair([1, 2, 3], [1, 2, 3])]) == 0.0

    def test_pythagorean_offset(self):
        e = med([_pair([0.003, 0.004, 0.0], [0, 0, 0])])
        assert e == pytest.approx(0.005, abs=1e-15)

    def test_1_2_2_offset(self):
        e = med([_pair([0.001, 0.002, 0.002], [0, 0, 0])])
        assert e == pytest.approx(0.003, abs=1e-15)


class TestMed:
    def test_two_pairs(self):
        pairs = [_pair([0, 0, 0], [0, 0, 0]), _pair([0.01, 0, 0], [0, 0, 0])]
        assert med(pairs) == pytest.approx(0.005, abs=1e-15)

    def test_all_zero(self):
        pairs = [_pair([1, 1, 1], [1, 1, 1])] * 5
        assert med(pairs) == 0.0

    def test_against_brute_force_loop(self):
        rng = np.random.default_rng(31)
        pairs = [
            _pair(rng.normal(size=3), rng.normal(size=3), t=i * 0.01)
            for i in range(1000)
        ]
        total = 0.0
        for p in pairs:
            dx = p.estimate[0] - p.truth[0]
            dy = p.estimate[1] - p.truth[1]
            dz = p.estimate[2] - p.truth[2]
            total += math.sqrt(dx * dx + dy * dy + dz * dz)
        assert abs(med(pairs) - total / 1000) <= 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(32)
        pairs = [_pair(rng.normal(size=3), rng.normal(size=3)) for _ in range(500)]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert abs(med(pairs) - med(shuffled)) <= 1e-12

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            med([])

    @pytest.mark.parametrize("est, tru", [
        ((1e200, 0.0, -1.0), (0.0, 0.0, 0.0)),  # its square overflows
        ((1e154, 1e154, 0.0), (0.0, 0.0, 0.0)),  # the sum of its squares
        ((1.5e308, 0.0, 0.0), (-1.5e308, 0.0, 0.0)),  # the error itself
    ])
    def test_overflowing_error_raises_without_a_warning(self, est, tru):
        pairs = [_pair(est, tru)]
        for score in (med, build_error_report):
            with pytest.raises(NonFiniteEstimate, match="^estimate errors overflow: "):
                score(pairs)


class TestAlign:
    def test_nearest_match_small_offset(self):
        truth_t = np.arange(100) / 100.0
        truth_p = np.column_stack([truth_t, truth_t, truth_t])
        est_t = truth_t[10:20] + 0.003
        est_p = np.zeros((10, 3))
        pairs, dropped = align(est_t, est_p, truth_t, truth_p)
        assert dropped == 0
        assert len(pairs) == 10
        np.testing.assert_allclose([p.truth[0] for p in pairs], truth_t[10:20])

    def test_drops_outside_tolerance(self):
        pairs, dropped = align([0.5], [[0, 0, 0]], [0.0, 1.0],
                               [[1, 1, 1], [2, 2, 2]])
        assert pairs == [] and dropped == 1

    def test_boundary_inclusive(self):
        pairs, dropped = align([0.02], [[0, 0, 0]], [0.0], [[1, 1, 1]])
        assert dropped == 0 and len(pairs) == 1

    def test_empty_truth(self):
        pairs, dropped = align([0.1, 0.2], np.zeros((2, 3)), [], np.zeros((0, 3)))
        assert pairs == [] and dropped == 2

    def test_unsorted_truth_rejected(self):
        with pytest.raises(ValueError):
            align([0.0], [[0, 0, 0]], [1.0, 0.5], np.zeros((2, 3)))


def _loop_align(est_times, est_points, truth_times, truth_points, max_dt=0.02):
    """align as a loop over estimates: the reference for the array version."""
    et = np.asarray(est_times, dtype=float)
    ep = np.asarray(est_points, dtype=float)
    tt = np.asarray(truth_times, dtype=float)
    tp = np.asarray(truth_points, dtype=float)
    pairs = []
    dropped = 0
    if tt.size == 0:
        return pairs, int(et.size)
    idx = np.searchsorted(tt, et)
    for i, t in enumerate(et):
        best = None
        for j in (idx[i] - 1, idx[i]):
            if 0 <= j < tt.size:
                d = abs(tt[j] - t)
                if best is None or d < best[0]:
                    best = (d, j)
        if best is not None and best[0] <= max_dt:
            pairs.append(AlignedPair(float(t), ep[i], tp[best[1]]))
        else:
            dropped += 1
    return pairs, dropped


def _same_alignment(args, **kwargs):
    pairs, dropped = align(*args, **kwargs)
    ref_pairs, ref_dropped = _loop_align(*args, **kwargs)
    assert dropped == ref_dropped
    assert [p.timestamp for p in pairs] == [p.timestamp for p in ref_pairs]
    for p, q in zip(pairs, ref_pairs):
        assert type(p.timestamp) is float
        np.testing.assert_array_equal(p.estimate, q.estimate)
        np.testing.assert_array_equal(p.truth, q.truth)
    return pairs, dropped


class TestAlignMatchesLoop:
    def test_random_inputs(self):
        rng = np.random.default_rng(37)
        for trial in range(200):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(0, 40))
            # coarse stamps make ties, duplicates and exact tolerances common
            tt = np.sort(rng.integers(0, 60, size=m) * 0.01)
            et = rng.integers(-10, 70, size=n) * 0.005
            _same_alignment((et, rng.normal(size=(n, 3)), tt, rng.normal(size=(m, 3))),
                            max_dt=float(rng.choice([0.0, 0.005, 0.01, 0.02, 1.0])))

    def test_midway_estimate_takes_the_earlier_sample(self):
        pairs, dropped = _same_alignment(([0.5], [[0, 0, 0]], [0.0, 1.0],
                                          [[1, 1, 1], [2, 2, 2]]), max_dt=0.5)
        assert dropped == 0 and pairs[0].truth.tolist() == [1, 1, 1]

    def test_duplicate_truth_stamps(self):
        tt = [0.0, 0.0, 0.01, 0.01, 0.01, 0.02, 0.02]
        tp = np.arange(21.0).reshape(7, 3)
        _same_alignment(([-0.005, 0.01, 0.006, 0.014, 0.02, 0.025], np.zeros((6, 3)), tt, tp))
        # every stamp the same, with estimates either side of it
        _same_alignment(([-0.005, 0.0, 0.005], np.zeros((3, 3)), [0.0, 0.0, 0.0], tp[:3]))

    def test_dt_equal_to_tolerance_is_kept(self):
        pairs, dropped = _same_alignment(([0.25, 0.75], np.zeros((2, 3)), [0.5],
                                          [[1, 2, 3]]), max_dt=0.25)
        assert dropped == 0 and len(pairs) == 2

    def test_estimates_outside_the_truth_span(self):
        _same_alignment(([-1.0, -0.01, 0.0, 1.0, 1.01, 5.0], np.ones((6, 3)),
                         [0.0, 0.5, 1.0], np.eye(3)))

    def test_empty_truth(self):
        _same_alignment(([0.1, 0.2], np.zeros((2, 3)), [], np.zeros((0, 3))))

    def test_empty_estimates(self):
        _same_alignment(([], np.zeros((0, 3)), [0.0], [[1, 2, 3]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_raises(self, bad):
        args = ([0.0, 0.01], [[0, 0, 0], [bad, 0, 0]], [0.0, 0.01], np.zeros((2, 3)))
        for fn in (align, _loop_align):
            with pytest.raises(ValueError, match="^aligned pair must be finite$"):
                fn(*args)

    def test_non_finite_stamps_are_dropped(self):
        _same_alignment(([np.nan, np.inf, -np.inf, 0.0], np.zeros((4, 3)), [0.0],
                         [[1, 2, 3]]))


class TestRegression:
    def test_exact_pitch_dependence(self):
        rng = np.random.default_rng(33)
        pitch = rng.normal(0, 0.1, size=200)
        roll = rng.normal(0, 0.1, size=200)
        errors = 2.0 * pitch
        res = tilt_error_regression(errors, pitch, roll)
        assert res.coef_pitch == pytest.approx(2.0, abs=1e-9)
        assert res.coef_roll == pytest.approx(0.0, abs=1e-9)
        assert res.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_r2_near_zero(self):
        rng = np.random.default_rng(34)
        n = 10_000
        res = tilt_error_regression(
            rng.normal(0, 0.01, size=n),
            rng.normal(0, 0.1, size=n),
            rng.normal(0, 0.1, size=n),
        )
        assert res.r_squared < 0.05

    def test_constant_pitch_is_singular(self):
        with pytest.raises(SingularDesign):
            tilt_error_regression([1.0, 2.0, 3.0], [0.1, 0.1, 0.1], [0.0, 0.1, 0.2])

    def test_collinear_regressors_are_singular(self):
        pitch = np.linspace(-0.1, 0.1, 50)
        with pytest.raises(SingularDesign):
            tilt_error_regression(np.sin(pitch), pitch, -3.0 * pitch)

    def test_too_few_samples_is_singular(self):
        with pytest.raises(SingularDesign):
            tilt_error_regression([1.0, 2.0], [0.1, 0.2], [0.0, 0.1])

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(35)
        n = 500
        pitch = rng.normal(0, 0.2, size=n)
        roll = rng.normal(0, 0.2, size=n)
        errors = 0.03 * pitch - 0.01 * roll + rng.normal(0, 0.005, size=n)
        res = tilt_error_regression(errors, pitch, roll)
        predicted = res.coef_pitch * pitch + res.coef_roll * roll + res.intercept
        residual = errors - predicted
        design = np.column_stack([pitch, roll, np.ones(n)])
        assert np.max(np.abs(design.T @ residual)) <= 1e-9

    def test_bits_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS picks its kernel by CPU; Prescott's has no fused multiply-add
        code = (
            "import numpy as np\n"
            "from aquapos.evaluation import tilt_error_regression\n"
            "for n in (50, 333, 3600):\n"
            "    rng = np.random.default_rng(n)\n"
            "    pitch, roll = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)\n"
            "    errors = 0.004 + 0.02 * pitch - 0.01 * roll + rng.normal(0, 0.003, n)\n"
            "    fit = tilt_error_regression(errors, pitch, roll)\n"
            "    print(*(v.hex() for v in (fit.coef_pitch, fit.coef_roll, fit.intercept,\n"
            "                              fit.r_squared)))\n"
        )
        src = os.path.dirname(os.path.dirname(aquapos.__file__))
        outputs = []
        for coretype in (None, "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]

    def test_r_squared_validation(self):
        with pytest.raises(ValueError):
            RegressionResult(0.0, 0.0, 0.0, 1.5)


class TestHistogram:
    def test_single_value(self):
        edges, counts = histogram([0.42])
        assert counts.tolist() == [1]
        assert edges[0] == pytest.approx(0.42)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(36)
        x = rng.uniform(0, 0.2, size=777)
        _, counts = histogram(x)
        assert counts.sum() == 777

    def test_deterministic(self):
        x = [0.0, 0.005, 0.011, 0.019, 0.03]
        e1, c1 = histogram(x)
        e2, c2 = histogram(x)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(c1, c2)

    def test_hand_binning(self):
        edges, counts = histogram([0.0, 0.005, 0.011], bin_width=0.01)
        assert counts.tolist() == [2, 1]
        np.testing.assert_allclose(edges, [0.0, 0.01, 0.02], atol=1e-15)

    def test_bad_width(self):
        # the number rule, then > 0: one message for every width it rejects
        for width in [0.0, -0.01, math.nan, math.inf, -math.inf, True, "0.1", None]:
            with pytest.raises(ValueError, match=r"^bin_width must be a positive number, got "):
                histogram([1.0, 2.0], bin_width=width)

    def test_tiny_width_takes_the_open_last_bin(self):
        # the spread is past the float range in widths; no overflow warning
        edges, counts = histogram([0.0, 0.5, 1.0], bin_width=1e-320)
        assert len(counts) == MAX_BINS and edges[-1] == 1.0
        assert counts[0] == 1 and counts[-1] == 2

    def test_spread_under_the_cap_keeps_fixed_width_bins(self):
        # 999.5 bin widths of spread: MAX_BINS bins, none of them open
        edges, counts = histogram([0.0, 9.995])
        assert counts.tolist() == [1] + [0] * (MAX_BINS - 2) + [1]
        np.testing.assert_array_equal(edges, 0.01 * np.arange(MAX_BINS + 1))

    def test_far_off_outlier_gets_the_open_last_bin(self):
        # a 10,000 km error would ask for a billion 1 cm bins
        x = np.concatenate([np.linspace(0.0, 0.05, 100), [1.0e7]])
        edges, counts = histogram(x)
        assert len(counts) == MAX_BINS and len(edges) == MAX_BINS + 1
        assert counts.sum() == x.size
        assert counts[-1] == 1 and edges[-1] == 1.0e7
        np.testing.assert_array_equal(edges[:-1], 0.01 * np.arange(MAX_BINS))


class TestReport:
    def test_summary_values(self):
        pairs = [
            _pair([0.003, 0.004, 0.0], [0, 0, 0], t=0.0),
            _pair([0.0, 0.0, 0.0], [0, 0, 0], t=0.1),
        ]
        rep = build_error_report(pairs, dropped=3)
        assert rep.n == 2 and rep.dropped == 3
        assert rep.med == pytest.approx(0.0025, abs=1e-15)
        assert rep.rmse_xyz[0] == pytest.approx(0.003 / math.sqrt(2), abs=1e-15)
        assert rep.mae_xyz[1] == pytest.approx(0.002, abs=1e-15)
        assert rep.hist_counts.sum() == 2

    def test_to_dict_json_serializable(self):
        pairs = [_pair([0.01, 0, 0], [0, 0, 0])]
        blob = json.dumps(build_error_report(pairs).to_dict())
        data = json.loads(blob)
        assert data["n"] == 1
        assert data["med"] == pytest.approx(0.01)
        assert set(data["rmse"]) == {"x", "y", "z"}

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            build_error_report([])

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            AlignedPair(0.0, np.array([np.nan, 0, 0]), np.zeros(3))
