import dataclasses
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from aquapos.config import (DEFAULT_SEED, RunConfig, SceneConfig, load_intrinsics,
                            load_run_config)
from aquapos.errors import ConfigError
from aquapos.estimators import EstimationPipeline
from aquapos.geometry import euler_zyx_to_rotation
from aquapos.simulator import Simulator

README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_none_gives_bench_defaults(self):
        cfg = load_run_config(None)
        assert cfg.intrinsics.fx == pytest.approx(514.177765)
        assert cfg.tag.side_length == 0.2
        assert cfg.calibration.scale == 1.0 and cfg.calibration.offset == 0.0
        assert cfg.staleness_bound == 0.2
        assert cfg.trajectory.pattern == "square"
        assert cfg.trajectory.seed == DEFAULT_SEED
        assert cfg.noise.seed == DEFAULT_SEED
        assert cfg.pso.seed == DEFAULT_SEED
        assert cfg.rates.truth == 100.0

    def test_empty_file_equals_defaults(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, ""))
        base = load_run_config(None)
        assert cfg.trajectory == base.trajectory
        assert cfg.noise == base.noise
        assert cfg.pso == base.pso
        assert np.array_equal(
            cfg.rig.camera_in_body.rotation, base.rig.camera_in_body.rotation
        )
        assert cfg.staleness_bound == base.staleness_bound

    def test_scene_mirrors_config(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, (
            "tag: {side_length: 0.15}\n"
            "depth_calibration: {scale: 1.05, offset: -0.03}\n"
            "simulation: {surface_yaw_amplitude: 0.2, surface_yaw_period: 9.0}\n")))
        # the loaded config is the scene simulate hands the simulator
        scene = Simulator(cfg.trajectory, cfg, cfg.noise).scene
        assert scene.intrinsics is cfg.intrinsics
        assert scene.rig is cfg.rig
        assert scene.tag.side_length == 0.15
        assert (scene.calibration.scale, scene.calibration.offset) == (1.05, -0.03)
        assert (scene.yaw_amplitude, scene.yaw_period) == (0.2, 9.0)

    def test_run_config_is_the_scene_plus_run_settings(self):
        cfg = load_run_config(None)
        assert isinstance(cfg, SceneConfig)
        scene_fields = {f.name for f in dataclasses.fields(SceneConfig)}
        assert scene_fields.isdisjoint(RunConfig.__annotations__)


class TestReadmeSchema:
    def test_documented_schema_is_the_default_configuration(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        start = text.index("```yaml\n", text.index("## Configuration")) + 8
        raw = yaml.safe_load(text[start:text.index("```", start)])
        del raw["intrinsics_file"]  # the default intrinsics are built in
        cfg = load_run_config(_write(tmp_path, yaml.safe_dump(raw)))
        assert cfg.marker_offset == (0.0, 0.0, 0.0)
        assert dataclasses.replace(cfg, marker_offset=None) == RunConfig()


class TestSections:
    def test_simulation_overrides(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, """
simulation:
  trajectory:
    pattern: lawnmower
    duration: 60.0
    seed: 7
  rates:
    camera: 30
    imu: 30
    depth: 30
    slam: 30
    truth: 30
  noise:
    pixel_sigma: 0.0
    slam_yaw_sigma_deg: 0.4
    tilt_amplitude_deg: 5.0
    seed: 9
  follower:
    max_speed: 0.8
  surface_yaw_amplitude: 0.0
"""))
        assert cfg.trajectory.pattern == "lawnmower"
        assert cfg.trajectory.duration == 60.0
        assert cfg.trajectory.seed == 7
        assert cfg.rates.imu == 30
        assert cfg.noise.pixel_sigma == 0.0
        assert cfg.noise.slam_yaw_sigma == pytest.approx(math.radians(0.4))
        assert cfg.noise.tilt_amplitude == pytest.approx(math.radians(5.0))
        assert cfg.noise.seed == 9
        assert cfg.follower.max_speed == 0.8
        assert cfg.yaw_amplitude == 0.0

    def test_rig_tag_depth_tilt(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, """
rig:
  camera_translation: [0.2, 0.0, -0.05]
  camera_euler_zyx_deg: [90.0, 0.0, 180.0]
  body_height: 0.1
tag:
  side_length: 0.15
depth_calibration:
  scale: 1.3
  offset: -0.2
tilt_filter:
  gyro_var: 1.0e-5
  accel_var: 1.0e-3
staleness_bound: 0.5
marker_offset: [0.0, 0.1, 0.0]
"""))
        assert cfg.rig.camera_in_body.translation[0] == pytest.approx(0.2)
        assert cfg.rig.body_height == 0.1
        # yaw 90 about z then the downward roll: x_cam maps to +y_world-ish
        col = cfg.rig.camera_in_body.rotation[:, 0]
        assert col == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
        assert cfg.tag.side_length == 0.15
        assert cfg.calibration.scale == 1.3
        assert cfg.tilt.q[0, 0] == pytest.approx(1e-5)
        assert cfg.tilt.r[1, 1] == pytest.approx(1e-3)
        assert cfg.staleness_bound == 0.5
        assert cfg.marker_offset == (0.0, 0.1, 0.0)

    def test_loaded_tilt_and_rig_arrays_read_as_before(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, """
rig: {camera_translation: [0, 0.05, -0.02], camera_euler_zyx_deg: [10.0, 5.0, 170.0]}
tilt_filter: {gyro_var: 2.0e-6, accel_var: 3.0e-4, initial_var: 0.5}
"""))
        for name, var in (("q", 2e-6), ("r", 3e-4), ("p0", 0.5)):
            M = getattr(cfg.tilt, name)
            assert M.dtype == np.float64 and np.array_equal(M, np.diag([var, var]))
        H = cfg.rig.camera_in_body
        assert np.array_equal(H.rotation, euler_zyx_to_rotation(
            *(math.radians(a) for a in (10.0, 5.0, 170.0))))
        assert np.array_equal(H.translation, [0.0, 0.05, -0.02])

    def test_pso_overrides(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, """
pso:
  swarm_size: 10
  iterations: 50
  scale_bounds: [0.8, 1.6]
  seed: 3
"""))
        assert cfg.pso.swarm_size == 10
        assert cfg.pso.iterations == 50
        assert tuple(cfg.pso.scale_bounds) == (0.8, 1.6)
        assert cfg.pso.seed == 3


class TestIntrinsicsFile:
    def test_loaded_relative_to_config(self, tmp_path):
        _write(tmp_path, "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n", name="cam.yaml")
        cfg = load_run_config(_write(tmp_path, "intrinsics_file: cam.yaml\n"))
        assert cfg.intrinsics.width == 640
        assert cfg.intrinsics.fx == 500.0

    def test_nonzero_distortion_warns_and_is_ignored(self, tmp_path, caplog):
        path = _write(
            tmp_path,
            "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n"
            "distortion: [0.1, 0.0, 0.0, 0.0, 0.0]\n",
            name="cam.yaml",
        )
        with caplog.at_level(logging.WARNING):
            intr = load_intrinsics(path)
        assert "distortion" in caplog.text
        assert intr.fx == 500.0

    @pytest.mark.parametrize("entries, index", [("['0.1', 0.0]", 0), ("[0.0, true]", 1),
                                                 ("[0.0, 0.0, [0.1]]", 2)])
    def test_distortion_entry_that_is_not_a_number_rejected(self, tmp_path, entries, index):
        path = _write(
            tmp_path,
            "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n"
            f"distortion: {entries}\n",
            name="cam.yaml",
        )
        with pytest.raises(ConfigError, match=rf"distortion\[{index}\]"):
            load_intrinsics(path)

    @pytest.mark.parametrize("distortion", ["distortion: null\n", "distortion: []\n",
                                            "distortion: [0.0, 0, -0.0]\n", ""])
    def test_zero_or_no_distortion_is_silent(self, tmp_path, caplog, distortion):
        path = _write(
            tmp_path,
            "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\nwidth: 640\nheight: 480\n"
            + distortion,
            name="cam.yaml",
        )
        with caplog.at_level(logging.WARNING):
            load_intrinsics(path)
        assert caplog.text == ""

    @pytest.mark.parametrize("size", ["width: 640.9\nheight: 480\n",
                                      "width: 640\nheight: 480.5\n",
                                      "width: '640'\nheight: 480\n",
                                      "width: true\nheight: 480\n"])
    def test_image_size_that_is_not_a_whole_number_rejected(self, tmp_path, size):
        path = _write(tmp_path, "fx: 500.0\nfy: 500.0\ncx: 0.5\ncy: 0.5\n" + size,
                      name="cam.yaml")
        with pytest.raises(ConfigError, match="width and height must be whole numbers"):
            load_intrinsics(path)

    def test_whole_float_image_size_loads_as_int(self, tmp_path):
        path = _write(tmp_path, "fx: 500.0\nfy: 500.0\ncx: 320.0\ncy: 240.0\n"
                      "width: 640.0\nheight: 480\n", name="cam.yaml")
        intr = load_intrinsics(path)
        assert (intr.width, intr.height) == (640, 480)
        assert type(intr.width) is int

    def test_missing_field_rejected(self, tmp_path):
        path = _write(tmp_path, "fx: 500.0\nfy: 500.0\n", name="cam.yaml")
        with pytest.raises(ConfigError, match="missing"):
            load_intrinsics(path)

    def test_absent_file_rejected(self, tmp_path):
        cfg_path = _write(tmp_path, "intrinsics_file: nope.yaml\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(cfg_path)


class TestRejection:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(_write(tmp_path, "frobnicate: 1\n"))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigError, match="simulation.noise"):
            load_run_config(_write(tmp_path, "simulation:\n  noise:\n    pixel: 0.5\n"))

    def test_owning_validation_becomes_config_error(self, tmp_path):
        # simulator rejects a depth wave that can surface the marker
        with pytest.raises(ConfigError):
            load_run_config(_write(tmp_path, """
simulation:
  trajectory:
    depth_mean: 0.3
    depth_amplitude: 0.5
"""))

    def test_bad_scalar_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="staleness_bound"):
            load_run_config(_write(tmp_path, "staleness_bound: -1.0\n"))
        with pytest.raises(ConfigError, match="staleness_bound"):
            load_run_config(_write(tmp_path, "staleness_bound: soon\n"))
        # nan compares false with everything, so it would turn off every staleness check
        with pytest.raises(ConfigError, match="staleness_bound"):
            load_run_config(_write(tmp_path, "staleness_bound: .nan\n"))

    @pytest.mark.parametrize("entry, message", [
        ("simulation: {rates: {imu: 1.0e+30}}",
         "simulation.rates.imu: 1e+30 Hz over 120.0 s is 1.2e+32 records, above the "
         "bound of 1e+07 per stream"),
        ("simulation: {trajectory: {duration: 1.0e+6}}",
         "simulation.rates.camera: 30.0 Hz over 1000000.0 s is 3e+07 records, above the "
         "bound of 1e+07 per stream"),
        (f"pso: {{swarm_size: {10**30}}}", "pso: swarm_size * iterations must not exceed 1e+07"),
        (f"pso: {{iterations: {10**30}}}", "pso: swarm_size * iterations must not exceed 1e+07"),
        ("simulation: {trajectory: {pattern: random, speed: 1.0e+308}}",
         "simulation.trajectory.speed: 1e+308 m/s over 120.0 s is a random path of inf m, "
         "above the bound of 100000 m"),
        ("simulation: {trajectory: {pattern: random, speed: 1.0e+3, duration: 100.0}}",
         "simulation.trajectory.speed: 1000.0 m/s over 100.0 s is a random path of "
         "100001 m, above the bound of 100000 m"),
    ])
    def test_run_size_past_its_bound_rejected(self, tmp_path, entry, message):
        with pytest.raises(ConfigError) as info:
            load_run_config(_write(tmp_path, entry + "\n"))
        assert str(info.value) == message

    def test_imu_rate_the_tilt_filter_cannot_use_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_run_config(_write(tmp_path, "simulation: {rates: {imu: 1.5}}\n"))
        assert str(info.value) == ("simulation.rates.imu: 1.5 Hz samples every 0.6667 s, "
                                   "above the tilt filter's bound of 0.5 s")
        # at 2 Hz each predict spans the bound exactly, and the filter takes every sample
        cfg = load_run_config(_write(tmp_path, "simulation: {rates: {imu: 2}, "
                                               "trajectory: {duration: 4.0}}\n"))
        pipe = EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag)
        for rec in Simulator(cfg.trajectory, cfg, cfg.noise).stream():
            pipe.process(rec)
        assert pipe.counters["imu_rejected"] == 0

    @pytest.mark.parametrize("entry", ["tag: {side_length: .inf}",
                                       "simulation: {follower: {deadband_px: .nan}}",
                                       "simulation: {follower: {gain_y: .nan}}",
                                       "simulation: {follower: {hold_decay: .nan}}"])
    def test_non_finite_geometry_and_follower_rejected(self, tmp_path, entry):
        with pytest.raises(ConfigError):
            load_run_config(_write(tmp_path, entry + "\n"))

    def test_non_mapping_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(_write(tmp_path, "- a\n- b\n"))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.yaml")

    def test_marker_offset_arity(self, tmp_path):
        with pytest.raises(ConfigError, match="marker_offset"):
            load_run_config(_write(tmp_path, "marker_offset: [1.0, 2.0]\n"))

    @pytest.mark.parametrize("offset", ["[abc, 0, 0]", "[.nan, 0, 0]", "[0, 0, .inf]",
                                        "[0, [1], 0]"])
    def test_marker_offset_entries_must_be_finite_numbers(self, tmp_path, offset):
        with pytest.raises(ConfigError, match="marker_offset"):
            load_run_config(_write(tmp_path, f"marker_offset: {offset}\n"))


class TestNumericKeysTakeNumbersOnly:
    """float() reads a bool as 0 or 1 and a numeric string as its number;
    a numeric key takes neither."""

    @pytest.mark.parametrize("entry, key", [
        ("staleness_bound: true", "staleness_bound"),
        ("staleness_bound: '0.3'", "staleness_bound"),
        ("marker_offset: [true, 0, 0]", "marker_offset[0]"),
        ("marker_offset: [0, 0, '1']", "marker_offset[2]"),
        ("rig: {body_height: true}", "rig.body_height"),
        ("rig: {camera_translation: [0.1, false, 0.0]}", "rig.camera_translation[1]"),
        ("rig: {camera_euler_zyx_deg: [0, 0, '180']}", "rig.camera_euler_zyx_deg[2]"),
        ("tag: {side_length: true}", "tag.side_length"),
        ("depth_calibration: {scale: true}", "depth_calibration.scale"),
        ("depth_calibration: {offset: '0.1'}", "depth_calibration.offset"),
        ("tilt_filter: {gyro_var: true}", "tilt_filter.gyro_var"),
        ("simulation: {rates: {imu: true}}", "simulation.rates.imu"),
        ("simulation: {rates: {imu: '400'}}", "simulation.rates.imu"),
        ("simulation: {trajectory: {duration: true}}", "simulation.trajectory.duration"),
        ("simulation: {trajectory: {region: [4.8, true, 2.0]}}",
         "simulation.trajectory.region[1]"),
        ("simulation: {noise: {pixel_sigma: true}}", "simulation.noise.pixel_sigma"),
        ("simulation: {noise: {tilt_amplitude_deg: '5'}}",
         "simulation.noise.tilt_amplitude_deg"),
        ("simulation: {follower: {max_speed: true}}", "simulation.follower.max_speed"),
        ("simulation: {surface_yaw_period: true}", "simulation.surface_yaw_period"),
        ("pso: {inertia: true}", "pso.inertia"),
        ("pso: {scale_bounds: ['0.5', 2.0]}", "pso.scale_bounds[0]"),
    ])
    def test_bool_or_string_is_rejected_naming_the_key(self, tmp_path, entry, key):
        with pytest.raises(ConfigError) as info:
            load_run_config(_write(tmp_path, entry + "\n"))
        assert str(info.value).startswith(f"{key}: expected a number, got ")

    @pytest.mark.parametrize("entry, key", [
        ("staleness_bound: soon", "staleness_bound"),
        ("simulation: {rates: {imu: fast}}", "simulation.rates.imu"),
        ("simulation: {rates: {imu: [400]}}", "simulation.rates.imu"),
        ("pso: {offset_bounds: [low, 1.0]}", "pso.offset_bounds[0]"),
    ])
    def test_other_non_numbers_keep_floats_message_naming_the_key(self, tmp_path,
                                                                   entry, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: (could not|float)"):
            load_run_config(_write(tmp_path, entry + "\n"))

    @pytest.mark.parametrize("value, form", [("1e308", "1.0e+308"), ("-2E-5", "-2.0e-5"),
                                             ("1.5e3", "1.5e+3"), ("1e+3", "1.0e+3")])
    def test_yaml_11_exponent_string_gets_a_hint(self, tmp_path, value, form):
        # YAML 1.1 reads an exponent as a number only after a dot and with a sign
        with pytest.raises(ConfigError) as info:
            load_run_config(_write(tmp_path, f"simulation: {{rates: {{imu: {value}}}}}\n"))
        assert str(info.value) == (f"simulation.rates.imu: expected a number, got "
                                   f"'{value}'; write {form} for YAML 1.1 to read it")

    @pytest.mark.parametrize("section, key", [
        ("rig", "body_height"), ("tag", "side_length"), ("tilt_filter", "gyro_var"),
        ("depth_calibration", "offset"),
    ])
    def test_integer_beyond_float_range_is_rejected_naming_the_key(self, tmp_path,
                                                                   section, key):
        with pytest.raises(ConfigError) as info:
            load_run_config(_write(tmp_path, f"{section}: {{{key}: {10**400}}}\n"))
        assert str(info.value) == f"{section}.{key}: int too large to convert to float"

    def test_random_path_at_its_bound_loads(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, "simulation: {trajectory: "
                                               "{pattern: random, speed: 833.0}}\n"))
        assert cfg.trajectory.speed * cfg.trajectory.duration + 1.0 <= 1e5

    def test_ints_and_floats_load_as_before(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, """
staleness_bound: 1
marker_offset: [0, 0.1, 0]
rig: {body_height: 0, camera_translation: [0, 0, 0]}
tag: {side_length: 1}
simulation:
  rates: {imu: 400}
  trajectory: {duration: 5, region: [4, 3, 2]}
pso: {inertia: 0.5, scale_bounds: [1, 2]}
"""))
        assert cfg.staleness_bound == 1.0 and cfg.marker_offset == (0.0, 0.1, 0.0)
        assert cfg.rig.body_height == 0.0 and cfg.tag.side_length == 1.0
        assert cfg.rates.imu == 400 and cfg.trajectory.duration == 5
        assert tuple(cfg.trajectory.region) == (4, 3, 2)
        assert tuple(cfg.pso.scale_bounds) == (1, 2)
