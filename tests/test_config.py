import logging
import math

import numpy as np
import pytest

from aquapos.config import DEFAULT_SEED, RunConfig, load_intrinsics, load_run_config
from aquapos.errors import ConfigError


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

    def test_scene_mirrors_config(self):
        cfg = RunConfig()
        scene = cfg.scene()
        assert scene.intrinsics is cfg.intrinsics
        assert scene.rig is cfg.rig
        assert scene.yaw_amplitude == cfg.yaw_amplitude


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
