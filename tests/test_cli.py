import csv
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from aquapos import cli, dataset
from aquapos.estimators import PositionEstimate
from aquapos.evaluation import align, med

NOISELESS_YAML = """
simulation:
  trajectory:
    duration: 6.0
  rates: {camera: 30, imu: 30, depth: 30, slam: 30, truth: 30}
  noise:
    pixel_sigma: 0.0
    gyro_sigma: 0.0
    accel_sigma: 0.0
    depth_sigma: 0.0
    slam_xy_sigma: 0.0
    slam_yaw_sigma_deg: 0.0
    tilt_amplitude_deg: 0.0
"""


@pytest.fixture(scope="module")
def noiseless_run(tmp_path_factory):
    """One noiseless aligned-rate simulate shared by the estimate tests."""
    root = tmp_path_factory.mktemp("noiseless")
    config = root / "run.yaml"
    config.write_text(NOISELESS_YAML, encoding="utf-8")
    data = root / "run.jsonl"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    return config, data


class TestSimulate:
    def test_record_count_matches_rate_arithmetic(self, noiseless_run):
        _, data = noiseless_run
        kinds = {}
        for rec in dataset.read_records(data):
            kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
        # five streams at 30 Hz for 6 s; every tag frame lands in frame
        assert kinds == {"imu": 180, "slam": 180, "depth": 180,
                         "truth": 180, "tag": 180}

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(NOISELESS_YAML, encoding="utf-8")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            rc = cli.main(["simulate", "--config", str(config),
                           "--seed", "5", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_small_region_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text(
            "simulation:\n  trajectory:\n    region: [0.2, 0.2, 2.0]\n",
            encoding="utf-8",
        )
        rc = cli.main(["simulate", "--config", str(config),
                       "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("sims: {}\n", encoding="utf-8")
        rc = cli.main(["simulate", "--config", str(config),
                       "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("rates: {camera: .nan}", "simulation.rates: sample rates must be positive and finite"),
        ("rates: {camera: .inf}", "simulation.rates: sample rates must be positive and finite"),
        ("trajectory: {duration: .nan}", "simulation.trajectory: trajectory values must be finite"),
        ("trajectory: {duration: .inf}", "simulation.trajectory: trajectory values must be finite"),
        ("noise: {tilt_frequency: .nan}", "simulation.noise: noise values must be finite"),
        ("surface_yaw_period: .nan", "simulation: yaw period must be positive and finite"),
        ("surface_yaw_period: -1.0", "simulation: yaw period must be positive and finite"),
        ("surface_yaw_amplitude: .inf", "simulation: yaw amplitude must be non-negative"),
    ])
    def test_bad_simulation_value_is_usage_error(self, tmp_path, capsys, entry, message):
        config = tmp_path / "run.yaml"
        config.write_text(f"simulation:\n  {entry}\n", encoding="utf-8")
        out = tmp_path / "x.jsonl"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    def test_infinite_focal_length_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "k.yaml").write_text(
            "fx: .inf\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n",
            encoding="utf-8",
        )
        config = tmp_path / "run.yaml"
        config.write_text("intrinsics_file: k.yaml\n"
                          "simulation:\n  trajectory: {duration: 2.0}\n",
                          encoding="utf-8")
        out = tmp_path / "x.jsonl"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: intrinsics file ")
        assert "focal lengths must be positive and finite" in err
        assert not out.exists()

    def test_overflowing_sample_exits_1_naming_the_record(self, tmp_path):
        # 1e308 times a standard normal draw overflows to inf
        config = tmp_path / "run.yaml"
        config.write_text(
            "simulation:\n  trajectory: {duration: 2.0}\n"
            "  noise: {gyro_sigma: 1.0e+308}\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "aquapos.cli", "simulate", "--config",
             str(config), "--out", str(tmp_path / "x.jsonl")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "record 1 (imu at t=0.0): gyro must be" in proc.stderr

    def test_overflowing_pixel_noise_exits_1_naming_the_tag_frame(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            "simulation:\n  trajectory: {duration: 2.0}\n"
            "  noise: {pixel_sigma: 1.0e+308}\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "aquapos.cli", "simulate", "--config",
             str(config), "--seed", "7", "--out", str(tmp_path / "x.jsonl")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        # one error line and nothing else: no numpy warnings, no traceback
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ")
        assert "(tag at t=" in proc.stderr and "corner must be" in proc.stderr


class TestEstimate:
    def test_noiseless_cd_matches_truth(self, noiseless_run, tmp_path):
        config, data = noiseless_run
        out = tmp_path / "est.jsonl"
        rc = cli.main(["estimate", str(data), "--config", str(config),
                       "--method", "cd", "--out", str(out)])
        assert rc == 0
        truth = {}
        for rec in dataset.read_records(data):
            if rec["kind"] == "truth":
                truth[rec["t"]] = np.array(rec["p"])
        ests = dataset.read_estimates(out)
        assert len(ests) == 180
        worst = max(
            float(np.linalg.norm(np.array(e["p"]) - truth[e["t"]])) for e in ests
        )
        assert worst < 1e-9

    def test_method_both_interleaves_labeled_series(self, noiseless_run, tmp_path):
        config, data = noiseless_run
        out = tmp_path / "both.jsonl"
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
        ests = dataset.read_estimates(out)
        assert len(ests) == 360
        methods = [e["method"] for e in ests]
        assert methods[:4] == ["cpnp", "cd", "cpnp", "cd"]
        # output order equals input (tag) order: timestamps non-decreasing
        times = [e["t"] for e in ests]
        assert times == sorted(times)

    def test_no_tag_records_warns_and_writes_empty(self, tmp_path, caplog):
        data = tmp_path / "quiet.jsonl"
        dataset.write_records(data, [
            {"t": 0.0, "kind": "imu", "gyro": [0.0, 0.0, 0.0],
             "accel": [0.0, 0.0, -9.81]},
            {"t": 0.0, "kind": "slam", "x": 0.0, "y": 0.0, "yaw": 0.0},
            {"t": 0.1, "kind": "depth", "raw": 1.2},
        ])
        out = tmp_path / "est.jsonl"
        with caplog.at_level(logging.WARNING):
            assert cli.main(["estimate", str(data), "--out", str(out)]) == 0
        assert "no tag records" in caplog.text
        assert out.read_text(encoding="utf-8") == ""

    def test_parse_error_reports_line_and_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"t":0.0,"kind":"depth","raw":1.0}\nnonsense\n',
                        encoding="utf-8")
        rc = cli.main(["estimate", str(data), "--out", str(tmp_path / "e.jsonl")])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    def test_integer_too_big_for_a_float_exits_1(self, tmp_path, capsys):
        data = tmp_path / "big.jsonl"
        data.write_text('{"t":' + "1" * 400 + ',"kind":"depth","raw":1.0}\n',
                        encoding="utf-8")
        rc = cli.main(["estimate", str(data), "--out", str(tmp_path / "e.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and ":1:" in err
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        data = tmp_path / "huge.jsonl"
        data.write_text('{"t":' + "1" * 5000 + ',"kind":"depth","raw":1.0}\n',
                        encoding="utf-8")
        rc = cli.main(["estimate", str(data), "--out", str(tmp_path / "e.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and ":1:" in err

    def test_non_finite_marker_offset_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "run.jsonl"
        data.write_text('{"t":0.0,"kind":"depth","raw":1.0}\n', encoding="utf-8")
        for offset in ("[.nan, 0, 0]", "[0, 0, .inf]", "[abc, 0, 0]"):
            config = tmp_path / "run.yaml"
            config.write_text(f"marker_offset: {offset}\n", encoding="utf-8")
            rc = cli.main(["estimate", str(data), "--config", str(config),
                           "--out", str(tmp_path / "e.jsonl")])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: marker_offset")

    def test_overflowing_cd_frame_is_skipped(self, tmp_path, capsys):
        data = tmp_path / "huge.jsonl"
        data.write_text(
            '{"t":0.0,"kind":"slam","x":0.0,"y":0.0,"yaw":0.0}\n'
            '{"t":0.0,"kind":"depth","raw":1e300}\n'
            '{"t":0.01,"kind":"tag",'
            '"corners":[[1e300,290],[410,290],[410,310],[390,310]]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "e.jsonl"
        with np.errstate(over="ignore"):
            rc = cli.main(["estimate", str(data), "--method", "cd", "--out", str(out)])
        assert rc == 0
        assert "cd_skipped 1" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.filterwarnings("error")
    def test_huge_cd_frame_is_skipped_without_warnings(self, tmp_path, capsys):
        data = tmp_path / "huge.jsonl"
        data.write_text(
            '{"t":0.0,"kind":"slam","x":0.0,"y":0.0,"yaw":0.0}\n'
            '{"t":0.0,"kind":"depth","raw":1e306}\n'
            # a pixel beyond any lens, then a ray that meets the plane past 1e308 m
            '{"t":0.01,"kind":"tag",'
            '"corners":[[1e300,290],[410,290],[410,310],[390,310]]}\n'
            '{"t":0.02,"kind":"tag",'
            '"corners":[[1e8,290],[410,290],[410,310],[390,310]]}\n'
            # corners whose sum passes the largest double
            '{"t":0.03,"kind":"tag",'
            '"corners":[[1e308,290],[1e308,290],[1e308,310],[1e308,310]]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "e.jsonl"
        rc = cli.main(["estimate", str(data), "--method", "cd", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "cd_skipped 3" in captured.out
        assert captured.err == ""
        assert out.read_text(encoding="utf-8") == ""

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        rc = cli.main(["estimate", str(tmp_path / "absent.jsonl"),
                       "--out", str(tmp_path / "e.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


def _write_eval_inputs(tmp_path, shift=(0.0, 0.0, 0.0), time_shift=0.0):
    times = [0.1 * k for k in range(20)]
    points = [np.array([0.1 * k, 1.0, -1.5]) for k in range(20)]
    data = tmp_path / "truth.jsonl"
    dataset.write_records(data, [
        {"t": t, "kind": "truth", "p": [float(v) for v in p]}
        for t, p in zip(times, points)
    ])
    est = tmp_path / "est.jsonl"
    est.write_text("".join(
        json.dumps(dataset.estimate_to_dict(
            PositionEstimate(t + time_shift, p + np.asarray(shift), "cd",
                             roll=0.0, pitch=0.0)), separators=(",", ":")) + "\n"
        for t, p in zip(times, points)
    ), encoding="utf-8")
    return est, data


class TestEvaluate:
    def test_perfect_estimates_print_zero_med(self, tmp_path, capsys):
        est, data = _write_eval_inputs(tmp_path)
        assert cli.main(["evaluate", str(est), str(data)]) == 0
        out = capsys.readouterr().out
        assert "cd MED 0.000000000 m" in out

    def test_constant_shift_3_4_0mm_gives_med_5mm(self, tmp_path, capsys):
        est, data = _write_eval_inputs(tmp_path, shift=(0.003, 0.004, 0.0))
        prefix = tmp_path / "report"
        assert cli.main(["evaluate", str(est), str(data),
                         "--out", str(prefix)]) == 0
        assert "cd MED 0.005000000 m" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["cd"]["med"] == pytest.approx(0.005, abs=1e-12)
        assert report["cd"]["n"] == 20
        csv_lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "method,t,err_x,err_y,err_z,euclidean"
        assert len(csv_lines) == 21

    def test_csv_is_the_series_med_averages(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("simulation:\n  trajectory: {duration: 4.0}\n",
                          encoding="utf-8")
        data, est = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
        prefix = tmp_path / "report"
        assert cli.main(["simulate", "--config", str(config), "--seed", "2",
                         "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--out", str(est)]) == 0
        assert cli.main(["evaluate", str(est), str(data), "--out", str(prefix)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        with open(tmp_path / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(report) == ["cd", "cpnp"]
        for method, summary in report.items():
            mine = [r for r in rows if r["method"] == method]
            assert len(mine) == summary["n"]
            err = np.array([[float(r[k]) for k in ("err_x", "err_y", "err_z")]
                            for r in mine])
            euclidean = np.array([float(r["euclidean"]) for r in mine])
            np.testing.assert_array_equal(euclidean, np.linalg.norm(err, axis=1))
            assert float(np.mean(euclidean)) == summary["med"]

    def test_disjoint_ranges_exit_1(self, tmp_path, capsys):
        est, data = _write_eval_inputs(tmp_path, time_shift=100.0)
        rc = cli.main(["evaluate", str(est), str(data)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        est, data = _write_eval_inputs(tmp_path)
        huge = '{"t":' + "1" * 5000 + ',"kind":"truth","p":[0.0,0.0,0.0]}\n'
        for path in (est, data):
            good = path.read_text(encoding="utf-8")
            path.write_text(good + huge, encoding="utf-8")
            rc = cli.main(["evaluate", str(est), str(data)])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith(f"error: {path}:21: invalid JSON")
            path.write_text(good, encoding="utf-8")


class TestCalibrateDepth:
    def _write_pairs(self, path, scale=1.3, offset=-0.2, n=60):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.5, 1.5, size=n)
        rows = "\n".join(
            f"{float(r)!r},{float(scale * r + offset)!r}" for r in raw
        )
        path.write_text(rows + "\n", encoding="utf-8")

    def test_recovers_known_parameters(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        self._write_pairs(pairs)
        out = tmp_path / "theta.json"
        assert cli.main(["calibrate-depth", str(pairs), "--out", str(out)]) == 0
        theta = json.loads(out.read_text(encoding="utf-8"))
        assert theta["scale"] == pytest.approx(1.3, abs=1e-3)
        assert theta["offset"] == pytest.approx(-0.2, abs=1e-3)
        assert theta["cost"] < 1e-6

    def test_seed_choice_does_not_move_final_cost(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        self._write_pairs(pairs)
        costs = []
        for seed in ("2", "3"):
            out = tmp_path / f"theta{seed}.json"
            assert cli.main(["calibrate-depth", str(pairs), "--seed", seed,
                             "--out", str(out)]) == 0
            costs.append(json.loads(out.read_text(encoding="utf-8"))["cost"])
        assert abs(costs[0] - costs[1]) < 1e-6

    def test_empty_csv_exits_1(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("", encoding="utf-8")
        rc = cli.main(["calibrate-depth", str(pairs)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


def _write_pairs_csv(path):
    path.write_text("".join(f"{r!r},{1.1 * r - 0.05!r}\n"
                            for r in (0.5, 0.8, 1.1, 1.4, 1.7)), encoding="utf-8")


class TestValuesOnlyTheConstructorsCanReject:
    """Values of the right YAML shape that numpy's seeding, the PSO or a
    float conversion cannot use: each is a usage error naming the value,
    never a traceback."""

    @pytest.mark.parametrize("command, config_text, extra, message", [
        ("simulate", "", ["--seed", "-1"],
         "--seed: seed must be a non-negative integer, got -1"),
        ("calibrate-depth", "", ["--seed", "-1"],
         "--seed: seed must be a non-negative integer, got -1"),
        ("calibrate-depth", "pso: {seed: -3}", [],
         "pso: seed must be a non-negative integer, got -3"),
        ("simulate", "simulation:\n  noise: {seed: -2}", [],
         "simulation.noise: seed must be a non-negative integer, got -2"),
        ("simulate", "simulation:\n  noise: {seed: 1.5}", [],
         "simulation.noise: seed must be a non-negative integer, got 1.5"),
        ("simulate", "simulation:\n  noise: {seed: true}", [],
         "simulation.noise: seed must be a non-negative integer, got True"),
        ("simulate", "simulation:\n  trajectory: {pattern: random, seed: 1.5}", [],
         "simulation.trajectory: seed must be a non-negative integer, got 1.5"),
        ("calibrate-depth", "pso: {iterations: 10.5}", [],
         "pso: iterations must be a positive integer"),
        ("calibrate-depth", "pso: {swarm_size: 2.5}", [],
         "pso: swarm_size must be an integer of at least 2"),
        ("calibrate-depth", "pso: {swarm_size: .inf}", [],
         "pso: swarm_size must be an integer of at least 2"),
        ("simulate", "simulation:\n  noise: {slam_yaw_sigma_deg: abc}", [],
         "simulation.noise.slam_yaw_sigma_deg: could not convert"),
        ("simulate", "simulation:\n  noise: {tilt_amplitude_deg: [1]}", [],
         "simulation.noise.tilt_amplitude_deg: float() argument"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command,
                                      config_text, extra, message):
        config = tmp_path / "run.yaml"
        config.write_text(config_text + "\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", "--config", str(config), "--out", str(out)]
        else:
            pairs = tmp_path / "pairs.csv"
            _write_pairs_csv(pairs)
            argv = ["calibrate-depth", str(pairs), "--config", str(config),
                    "--out", str(out)]
        rc = cli.main(argv + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("intrinsics_text, message", [
        ("distortion: 0.1\n", "distortion must be a list of numbers"),
        ("distortion: [abc]\n", "distortion must be a list of numbers"),
        ("fx: [500.0\n", "is not valid YAML"),
        ("width: .inf\n", "cannot convert float infinity to integer"),
    ])
    def test_bad_intrinsics_file_is_usage_error(self, tmp_path, capsys,
                                                intrinsics_text, message):
        (tmp_path / "k.yaml").write_text(
            "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n"
            + intrinsics_text, encoding="utf-8")
        config = tmp_path / "run.yaml"
        config.write_text("intrinsics_file: k.yaml\n", encoding="utf-8")
        out = tmp_path / "x.jsonl"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: intrinsics file {tmp_path / 'k.yaml'}")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRoundTrip:
    def test_simulate_estimate_evaluate_on_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text(
            "simulation:\n  trajectory:\n    duration: 10.0\n", encoding="utf-8"
        )
        data = tmp_path / "run.jsonl"
        est = tmp_path / "est.jsonl"
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--out", str(est)]) == 0
        assert cli.main(["evaluate", str(est), str(data),
                         "--out", str(tmp_path / "report")]) == 0
        out = capsys.readouterr().out
        assert "cpnp MED" in out and "cd MED" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()


class TestUsage:
    def test_missing_out_flag_is_usage_error(self):
        assert cli.main(["simulate"]) == 2

    def test_unknown_method_is_usage_error(self, tmp_path):
        assert cli.main(["estimate", "x.jsonl", "--method", "sonar",
                         "--out", "y.jsonl"]) == 2

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 2

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aquapos.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
