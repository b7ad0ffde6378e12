import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import aquapos
from aquapos import cli, dataset
from aquapos.estimators import PositionEstimate
from aquapos.evaluation import AlignedPair, align, med

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


def _write_depth_pairs(data, path):
    """The (raw, true) depth pairs at the stamps the depth and truth streams share."""
    raw, truth = {}, {}
    for record in dataset.read_records(data):
        if record["kind"] == "depth":
            raw[record["t"]] = record["raw"]
        elif record["kind"] == "truth":
            truth[record["t"]] = -record["p"][2]
    path.write_text("".join(f"{raw[t]!r},{truth[t]!r}\n" for t in raw if t in truth),
                    encoding="utf-8")


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

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        config, intrinsics = tmp_path / "run.yaml", tmp_path / "k.yaml"
        intrinsics.write_bytes(b"fx: 500.0 # \xff\n")
        for text, name in ((b"sims: {} # \xff\n", f"config {config}"),
                           (b"intrinsics_file: k.yaml\n", f"intrinsics file {intrinsics}")):
            config.write_bytes(text)
            rc = cli.main(["simulate", "--config", str(config),
                           "--out", str(tmp_path / "x.jsonl")])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: cannot read {name}: ")

    @pytest.mark.parametrize("entry, message", [
        ("rates: {camera: .nan}", "simulation.rates: sample rates must be positive and finite"),
        ("rates: {camera: .inf}", "simulation.rates: sample rates must be positive and finite"),
        ("trajectory: {duration: .nan}", "simulation.trajectory: trajectory values must be finite"),
        ("trajectory: {duration: .inf}", "simulation.trajectory: trajectory values must be finite"),
        ("noise: {tilt_frequency: .nan}", "simulation.noise: noise values must be finite"),
        ("surface_yaw_period: .nan", "simulation: yaw period must be positive and finite"),
        ("surface_yaw_period: -1.0", "simulation: yaw period must be positive and finite"),
        ("surface_yaw_amplitude: .inf", "simulation: yaw amplitude must be non-negative"),
        (f"surface_yaw_period: {10**400}",
         "simulation.surface_yaw_period: int too large to convert to float"),
        ("trajectory: {pattern: random, speed: 1.0e+308}",
         "simulation.trajectory.speed: 1e+308 m/s over 120.0 s is a random path of inf m"),
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

    def test_every_line_is_the_compact_json_of_its_dict(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("simulation: {trajectory: {duration: 4.0}}\n", encoding="utf-8")
        data, out = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
        assert cli.main(["simulate", "--config", str(config), "--seed", "3",
                         "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert {json.loads(line)["method"] for line in lines} == {"cpnp", "cd"}
        for line in lines:
            assert line == json.dumps(json.loads(line), separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("offset", [None, [0.01, -0.02, 0.03]])
    def test_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path, offset):
        # OpenBLAS picks its kernel by CPU; Prescott's has no fused multiply-add
        config = tmp_path / "run.yaml"
        text = "simulation:\n  trajectory:\n    duration: 10.0\n"
        if offset is not None:
            text += f"marker_offset: {offset}\n"
        config.write_text(text, encoding="utf-8")
        src = os.path.dirname(os.path.dirname(aquapos.__file__))
        datasets, outputs, fits = [], [], []
        for coretype in (None, "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            data = tmp_path / f"run-{coretype}.jsonl"
            out = tmp_path / f"est-{coretype}.jsonl"
            pairs = tmp_path / f"pairs-{coretype}.csv"
            theta = tmp_path / f"theta-{coretype}.json"
            for command in (["simulate", "--out", str(data)],
                            ["estimate", str(data), "--out", str(out)],
                            ["calibrate-depth", str(pairs), "--out", str(theta)]):
                if command[0] == "calibrate-depth":
                    _write_depth_pairs(data, pairs)
                proc = subprocess.run(
                    [sys.executable, "-m", "aquapos.cli", *command, "--config", str(config)],
                    env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr
            datasets.append(data.read_bytes())
            outputs.append(out.read_bytes())
            fits.append(theta.read_bytes())
        assert datasets[0] == datasets[1]
        assert outputs[0].count(b"\n") == 600
        assert outputs[0] == outputs[1]
        assert fits[0] == fits[1]

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

    def test_huge_gyro_variance_runs_without_warnings(self, tmp_path, capsys):
        # twice 1e308 overflows: the covariance checks must not form it, and
        # both commands that load the filter refuse a variance whose square
        # overflows, which would reject every IMU sample after the first
        message = ["error: tilt_filter.gyro_var: q entries must not exceed 1e+150"]
        plain, config = tmp_path / "plain.yaml", tmp_path / "run.yaml"
        plain.write_text("simulation:\n  trajectory: {duration: 2.0}\n", encoding="utf-8")
        config.write_text("tilt_filter: {gyro_var: 1.0e+308}\n" + plain.read_text("utf-8"),
                          encoding="utf-8")
        data, out = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
        assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 2
        assert capsys.readouterr().err.splitlines() == message
        assert cli.main(["simulate", "--config", str(plain), "--out", str(data)]) == 0
        capsys.readouterr()
        rc = cli.main(["estimate", str(data), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == message

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

    @pytest.mark.parametrize("method, methods", [("both", ["cd", "cpnp"]), ("cd", ["cd"])])
    def test_csv_is_the_series_med_averages(self, tmp_path, capsys, method, methods):
        config = tmp_path / "run.yaml"
        config.write_text("simulation:\n  trajectory: {duration: 4.0}\n",
                          encoding="utf-8")
        data, est = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
        prefix = tmp_path / "report"
        assert cli.main(["simulate", "--config", str(config), "--seed", "2",
                         "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--method", method, "--out", str(est)]) == 0
        assert cli.main(["evaluate", str(est), str(data), "--out", str(prefix)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        with open(tmp_path / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(report) == methods
        assert len(rows) == sum(summary["n"] for summary in report.values())
        for method, summary in report.items():
            mine = [r for r in rows if r["method"] == method]
            assert len(mine) == summary["n"]
            err = np.array([[float(r[k]) for k in ("err_x", "err_y", "err_z")]
                            for r in mine])
            euclidean = np.array([float(r["euclidean"]) for r in mine])
            np.testing.assert_array_equal(euclidean, np.linalg.norm(err, axis=1))
            assert float(np.mean(euclidean)) == summary["med"]

    def test_scores_a_run_without_building_a_pair(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.yaml"
        config.write_text("simulation:\n  trajectory: {duration: 10.0}\n", encoding="utf-8")
        data, est = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
        assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--out", str(est)]) == 0
        built = []
        init = AlignedPair.__init__
        monkeypatch.setattr(AlignedPair, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        # the wrapper counts: align builds one pair per match
        assert len(align([0.0], [[0.0, 0.0, 0.0]], [0.0], [[0.0, 0.0, 0.0]])[0]) == len(built) == 1
        built.clear()
        assert cli.main(["evaluate", str(est), str(data), "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert sorted(report) == ["cd", "cpnp"] and min(r["n"] for r in report.values()) > 0
        assert built == []

    def test_disjoint_ranges_exit_1(self, tmp_path, capsys):
        est, data = _write_eval_inputs(tmp_path, time_shift=100.0)
        rc = cli.main(["evaluate", str(est), str(data)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["[1e200,0.0,-1.0]", "[1e154,1e154,-1.0]"])
    def test_overflowing_error_exits_1_without_warnings(self, tmp_path, capsys, p):
        est, data = _write_eval_inputs(tmp_path)
        # the error's square overflows, or the sum of two squares does
        est.write_text(f'{{"t":0.1,"method":"cd","p":{p}}}\n'
                       f'{{"t":0.2,"method":"cd","p":[1e154,1e154,-1.0]}}\n',
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["evaluate", str(est), str(data), "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: estimate errors overflow: ")
        assert captured.out == "" and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("t_est, t_truth", [("1.5e308", "-1.5e308"),
                                                ("-1.5e308", "1.5e308")])
    def test_time_gap_past_the_float_range_exits_cleanly(self, tmp_path, capsys,
                                                         t_est, t_truth):
        # the two timestamps' difference overflows: the estimate aligns with nothing
        est, data = tmp_path / "est.jsonl", tmp_path / "data.jsonl"
        est.write_text(f'{{"t":{t_est},"method":"cd","p":[0.0,0.0,0.0]}}\n',
                       encoding="utf-8")
        data.write_text(f'{{"t":{t_truth},"kind":"truth","p":[0.0,0.0,0.0]}}\n',
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["evaluate", str(est), str(data)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "no estimate aligns" in err

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

    @pytest.mark.parametrize("rows", ["1e308,1\n-1e308,2\n", "1e160,1\n2e160,2\n"])
    def test_pairs_whose_cost_overflows_exit_1(self, tmp_path, capsys, rows):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(rows, encoding="utf-8")
        out = tmp_path / "theta.json"
        rc = cli.main(["calibrate-depth", str(pairs), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: calibration pairs are too large")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_swarm_too_large_for_the_pairs_is_usage_error(self, tmp_path, capsys):
        # 10^6 particles over 600 pairs would hold 4.5 GiB of residuals per step
        pairs = tmp_path / "pairs.csv"
        self._write_pairs(pairs, n=600)
        config = tmp_path / "run.yaml"
        config.write_text("pso: {swarm_size: 1000000, iterations: 2}\n", encoding="utf-8")
        rc = cli.main(["calibrate-depth", str(pairs), "--config", str(config)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: pso.swarm_size: 1000000 particles over 600 pairs "
                                "is 6e+08 residuals per step, above the bound of 1e+07\n")

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
    float conversion cannot use, and bools or strings where a number
    belongs: each is a usage error naming the value, never a traceback."""

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
        ("simulate", "simulation:\n  rates: {imu: true}", [],
         "simulation.rates.imu: expected a number, got True"),
        ("calibrate-depth", "staleness_bound: '0.3'", [],
         "staleness_bound: expected a number, got '0.3'"),
        ("calibrate-depth", "pso: {cognitive: .inf}", [],
         "pso: cognitive must be non-negative and finite"),
        ("calibrate-depth", "pso: {social: .inf}", [],
         "pso: social must be non-negative and finite"),
        ("simulate", "tilt_filter: {initial_var: 1.0e+160}", [],
         "tilt_filter.initial_var: p0 entries must not exceed 1e+150"),
        ("simulate", "simulation:\n  rates: {imu: 1.0e+308}", [],
         "simulation.rates.imu: 1e+308 Hz over 120.0 s is not a finite record count"),
        ("simulate", "simulation:\n  noise: {tilt_frequency: 1.0e+308}", [],
         "simulation.noise.tilt_frequency: 1e+308 Hz over 120.0 s is not a finite "
         "tilt phase"),
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
        ("width: .inf\n", "width and height must be whole numbers, got (inf, 480)"),
        ("width: 640.9\n", "width and height must be whole numbers"),
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
    # The bytes of a 10 s run at seed 1 on every BLAS kernel. A change that
    # means to keep every output (a simplification or a speed-up) keeps them;
    # one that moves them on purpose says why where it updates them. The
    # PnP model's rotation-step curvature moved the cpnp estimates in their
    # last digits (cpnp MED 0.014433545 -> 0.014432419 m); the cd lines kept
    # their bytes.
    DIGESTS = {
        "run.jsonl": "9847a96ef59555be7b2158abe296e39fa9ea8d8db7b9f1ae92d6d0c9b8380410",
        "est.jsonl": "ba9f80b4bbb604b36b2cbac991f94820efa8ed6d55866d994e2bca1a01225c38",
        "report.json": "fd68ef97d37539c289b96f5915afdef9fafa82124288cd65309ce456e3911d16",
        "report.csv": "0805ceb2a0b8001687bf6fcc95291311f5e7200615edf7417f537ca276602e7b",
    }
    # The same run through estimate_cpnp's marker-offset branch and a
    # camera-in-body composition other than the default rig's.
    OFFSET_RIG_DIGESTS = {
        "run.jsonl": "e0dceeaef189697f844340e3ea36bd64878ef78fd10ba11ac058a51386d068fc",
        "est.jsonl": "2a6fa72fcba35a04ba666dd6396fee0c4140c92c4d1e18e6b2f2dba0d3df3e1e",
        "report.json": "3a3a606ed3b91ceac6302dbd2ed150dcf4da355f13df60ed6b1369c4a99925a4",
        "report.csv": "0e064f98143eea6e245e3f3b4d5c71d1e14361f9586b2d69bd8b903a471f7879",
    }

    def test_simulate_estimate_evaluate_on_defaults(self, tmp_path, capsys):
        self._assert_chain(tmp_path, capsys, "", self.DIGESTS)

    def test_simulate_estimate_evaluate_with_offset_and_rig(self, tmp_path, capsys):
        self._assert_chain(tmp_path, capsys,
                           "marker_offset: [0.01, -0.02, 0.03]\n"
                           "rig: {camera_translation: [0.08, 0.01, -0.03],\n"
                           "      camera_euler_zyx_deg: [10.0, 5.0, 170.0]}\n",
                           self.OFFSET_RIG_DIGESTS)

    def _assert_chain(self, tmp_path, capsys, config_text, expected):
        config = tmp_path / "run.yaml"
        config.write_text(
            config_text + "simulation:\n  trajectory:\n    duration: 10.0\n", encoding="utf-8"
        )
        data = tmp_path / "run.jsonl"
        est = tmp_path / "est.jsonl"
        assert cli.main(["simulate", "--config", str(config), "--seed", "1",
                         "--out", str(data)]) == 0
        assert cli.main(["estimate", str(data), "--config", str(config),
                         "--method", "both", "--out", str(est)]) == 0
        assert cli.main(["evaluate", str(est), str(data),
                         "--out", str(tmp_path / "report")]) == 0
        out = capsys.readouterr().out
        assert "cpnp MED" in out and "cd MED" in out
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in expected}
        assert digests == expected


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
