"""Each run setting has one definition, in the type that holds it.

The loader checks what YAML can get wrong (mappings, known keys, YAML
numbers) and leaves every value error to the type, so a loaded and a
constructed setting are rejected with the same message; every default seed
is DEFAULT_SEED.
"""

import pytest
import yaml

from aquapos.config import (DEFAULT_SEED, NoiseModel, RunConfig, TrajectorySpec,
                            load_run_config)
from aquapos.depth_calibration import PsoConfig
from aquapos.errors import ConfigError
from aquapos.estimators import EstimationPipeline


def _load(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text + "\n", encoding="utf-8")
    return load_run_config(path)


@pytest.mark.parametrize("name, text", [
    ("staleness_bound", "-1.0"), ("staleness_bound", "0"), ("staleness_bound", ".nan"),
    ("staleness_bound", "-.inf"),
    ("marker_offset", "[1.0, 2.0]"), ("marker_offset", "5"), ("marker_offset", "[.nan, 0, 0]"),
    ("marker_offset", "[0, 0, .inf]"), ("marker_offset", "[1, 2, 3, 4]"),
])
def test_loaded_and_constructed_settings_are_rejected_alike(tmp_path, name, text):
    value = yaml.safe_load(text)
    with pytest.raises(ValueError) as built:
        RunConfig(**{name: value})
    messages = {str(built.value)}
    cfg = RunConfig()
    with pytest.raises(ValueError) as piped:
        EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, **{name: value})
    messages.add(str(piped.value))
    with pytest.raises(ConfigError) as loaded:
        _load(tmp_path, f"{name}: {text}")
    messages.add(str(loaded.value))
    assert len(messages) == 1
    assert messages.pop().startswith(f"{name} must be ")


@pytest.mark.parametrize("text, message", [
    ("staleness_bound: true", "staleness_bound: expected a number, got True"),
    ("staleness_bound: '0.3'", "staleness_bound: expected a number, got '0.3'"),
    ("marker_offset: [0, false, 0]", "marker_offset[1]: expected a number, got False"),
    ("marker_offset: [0, 0, '1']", "marker_offset[2]: expected a number, got '1'"),
])
def test_a_bool_or_string_is_not_a_yaml_number(tmp_path, text, message):
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, text)
    assert str(info.value) == message


def test_null_marker_offset_means_no_offset(tmp_path):
    assert _load(tmp_path, "marker_offset: null").marker_offset is None


def test_every_default_seed_is_default_seed():
    assert DEFAULT_SEED == 1
    assert TrajectorySpec().seed == DEFAULT_SEED
    assert NoiseModel().seed == DEFAULT_SEED
    assert NoiseModel.zero().seed == DEFAULT_SEED
    assert PsoConfig().seed == DEFAULT_SEED
    assert RunConfig().trajectory.seed == DEFAULT_SEED
    assert RunConfig().noise.seed == DEFAULT_SEED
