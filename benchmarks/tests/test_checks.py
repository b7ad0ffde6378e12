import json

import numpy as np
import pytest

import checks
from run import Runner
from workloads import Workload


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    wl = Workload("tiny", "two seconds of the square path", 
                  {"simulation": {"trajectory": {"duration": 2.0}}},
                  check="noise-ordering")
    runner = Runner(wl, 3, tmp_path_factory.mktemp("tiny"))
    it = runner.chain()
    runner.scan = checks.scan_dataset(runner.data)
    return runner, it


def _exact_checks(runner, it):
    """The checks that hold whatever the MEDs are."""
    estimates = checks.read_estimates(runner.est)
    counters = checks.stage_counters(it.stdout["estimate"])
    checks.check_estimate_count(estimates, runner.scan.counts["tag"],
                                runner.wl.methods, counters)
    report = json.loads(runner.report.with_suffix(".json").read_text())
    return checks.check_report(report, estimates, runner.scan)


def test_untouched_outputs_pass(small_run):
    meds = _exact_checks(*small_run)
    assert set(meds) == {"cpnp", "cd"}


def test_tampered_med_is_rejected(small_run, tmp_path):
    runner, it = small_run
    path = runner.report.with_suffix(".json")
    original = path.read_text()
    report = json.loads(original)
    report["cd"]["med"] *= 1.0 + 1e-6
    try:
        path.write_text(json.dumps(report))
        with pytest.raises(checks.CheckFailed, match="report MED"):
            _exact_checks(runner, it)
    finally:
        path.write_text(original)


def test_truncated_estimate_file_is_rejected(small_run):
    runner, it = small_run
    original = runner.est.read_text()
    try:
        runner.est.write_text("".join(original.splitlines(keepends=True)[:-1]))
        with pytest.raises(checks.CheckFailed, match="estimates written"):
            _exact_checks(runner, it)
    finally:
        runner.est.write_text(original)


def test_criterion_2_rejects_cd_not_beating_cpnp():
    checks.check_criterion_2({"cpnp": 0.011, "cd": 0.008})
    with pytest.raises(checks.CheckFailed):
        checks.check_criterion_2({"cpnp": 0.008, "cd": 0.011})
    with pytest.raises(checks.CheckFailed):
        checks.check_criterion_2({"cpnp": 0.2, "cd": 0.011})


def test_exactness_bounds():
    checks.check_exactness({"cpnp": 1e-12, "cd": 1e-15})
    with pytest.raises(checks.CheckFailed):
        checks.check_exactness({"cpnp": 1e-12, "cd": 2e-9})


def _pairs(n=300, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.6, 1.8, size=n)
    return np.column_stack([raw, 1.05 * raw - 0.03 + rng.normal(0, 0.002, n)])


def test_fit_check_accepts_least_squares_and_rejects_a_wrong_fit():
    pairs = _pairs()
    design = np.column_stack([pairs[:, 0], np.ones(len(pairs))])
    scale, offset = np.linalg.lstsq(design, pairs[:, 1], rcond=None)[0]
    checks.check_fit(scale, offset, pairs, 1.05, -0.03)
    with pytest.raises(checks.CheckFailed, match="least squares"):
        checks.check_fit(scale + 1e-4, offset, pairs, 1.05, -0.03)
    with pytest.raises(checks.CheckFailed, match="misses the simulated sensor"):
        checks.check_fit(scale, offset, pairs, 1.0, 0.0)
