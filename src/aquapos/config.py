"""YAML run configuration shared by all CLI commands.

One file describes the whole bench: camera intrinsics, rig extrinsics,
tag size, depth calibration, tilt filter noise, simulation settings and
the PSO search. Every section is optional; omitted values fall back to
the bench defaults, so `load_run_config(None)` is a complete, runnable
setup. Angles in the file are degrees where the key says so; everything
in the loaded objects is radians and metres.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .attitude import TiltConfig
from .camera import DEFAULT_INTRINSICS, Intrinsics, TagGeometry
from .depth_calibration import IDENTITY_CALIBRATION, CalibrationParams, PsoConfig
from .errors import ConfigError
from .estimators import DEFAULT_STALENESS_BOUND, RigExtrinsics, default_rig
from .geometry import RigidTransform, euler_zyx_to_rotation
from .simulator import (
    FollowerConfig,
    NoiseModel,
    SampleRates,
    SceneConfig,
    TrajectorySpec,
)

log = logging.getLogger(__name__)

DEFAULT_SEED = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, already validated."""

    intrinsics: Intrinsics = field(default_factory=lambda: DEFAULT_INTRINSICS)
    rig: RigExtrinsics = field(default_factory=default_rig)
    tag: TagGeometry = field(default_factory=TagGeometry)
    calibration: CalibrationParams = IDENTITY_CALIBRATION
    tilt: TiltConfig = field(default_factory=TiltConfig)
    staleness_bound: float = DEFAULT_STALENESS_BOUND
    marker_offset: tuple | None = None
    trajectory: TrajectorySpec = field(
        default_factory=lambda: TrajectorySpec(seed=DEFAULT_SEED)
    )
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(seed=DEFAULT_SEED))
    rates: SampleRates = field(default_factory=SampleRates)
    follower: FollowerConfig = field(default_factory=FollowerConfig)
    yaw_amplitude: float = SceneConfig.yaw_amplitude
    yaw_period: float = SceneConfig.yaw_period
    pso: PsoConfig = field(default_factory=PsoConfig)

    def scene(self) -> SceneConfig:
        return SceneConfig(
            intrinsics=self.intrinsics,
            rig=self.rig,
            tag=self.tag,
            depth_params=self.calibration,
            follower=self.follower,
            rates=self.rates,
            yaw_amplitude=self.yaw_amplitude,
            yaw_period=self.yaw_period,
        )


def _section(raw, name) -> dict:
    value = raw.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _replace(instance, mapping, where):
    """dataclasses.replace with key checking and error translation."""
    _check_keys(mapping, [f.name for f in dataclasses.fields(instance)], where)
    try:
        return dataclasses.replace(instance, **mapping)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}")


def load_intrinsics(path) -> Intrinsics:
    """Read a camera intrinsics YAML (fx, fy, cx, cy, width, height).

    An optional `distortion` list is accepted for compatibility with
    calibration dumps but ignored with a warning when nonzero; the
    projection model here is a plain pinhole.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read intrinsics file {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"intrinsics file {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"intrinsics file {path} must be a mapping")
    _check_keys(raw, ("fx", "fy", "cx", "cy", "width", "height", "distortion"), path)
    distortion = raw.pop("distortion", None)
    try:
        nonzero = bool(distortion) and any(abs(float(d)) > 0 for d in distortion)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"intrinsics file {path}: distortion must be a list "
                          f"of numbers: {exc}")
    if nonzero:
        log.warning("ignoring nonzero distortion in %s (pinhole model only)", path)
    missing = {"fx", "fy", "cx", "cy", "width", "height"} - set(raw)
    if missing:
        raise ConfigError(f"intrinsics file {path} missing {sorted(missing)}")
    try:
        return Intrinsics.from_dict(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"intrinsics file {path}: {exc}")


def _load_rig(section) -> RigExtrinsics:
    _check_keys(
        section,
        ("camera_translation", "camera_euler_zyx_deg", "body_height"),
        "rig",
    )
    base = default_rig()
    translation = section.get(
        "camera_translation", list(base.camera_in_body.translation)
    )
    euler_deg = section.get("camera_euler_zyx_deg", [0.0, 0.0, 180.0])
    if not (isinstance(euler_deg, (list, tuple)) and len(euler_deg) == 3):
        raise ConfigError("rig.camera_euler_zyx_deg must be [yaw, pitch, roll]")
    try:
        yaw, pitch, roll = (math.radians(float(a)) for a in euler_deg)
        cam = RigidTransform(euler_zyx_to_rotation(yaw, pitch, roll), translation)
        return RigExtrinsics(
            cam, body_height=float(section.get("body_height", base.body_height))
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"rig: {exc}")


def _load_tilt(section) -> TiltConfig:
    _check_keys(section, ("gyro_var", "accel_var", "initial_var"), "tilt_filter")
    base = TiltConfig()
    try:
        return TiltConfig(
            q=np.diag([float(section.get("gyro_var", base.q[0, 0]))] * 2),
            r=np.diag([float(section.get("accel_var", base.r[0, 0]))] * 2),
            p0=np.diag([float(section.get("initial_var", base.p0[0, 0]))] * 2),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"tilt_filter: {exc}")


def _load_noise(section) -> NoiseModel:
    # degree-valued keys are converted here; everything else passes through
    section = dict(section)
    for key in ("slam_yaw_sigma_deg", "tilt_amplitude_deg"):
        if key in section:
            try:
                section[key.removesuffix("_deg")] = math.radians(float(section.pop(key)))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"simulation.noise.{key}: {exc}")
    return _replace(NoiseModel(seed=DEFAULT_SEED), section, "simulation.noise")


def _load_simulation(section, cfg: RunConfig) -> RunConfig:
    _check_keys(
        section,
        (
            "trajectory",
            "rates",
            "noise",
            "follower",
            "surface_yaw_amplitude",
            "surface_yaw_period",
        ),
        "simulation",
    )
    trajectory = _replace(
        cfg.trajectory, _section(section, "trajectory"), "simulation.trajectory"
    )
    rates = _replace(cfg.rates, _section(section, "rates"), "simulation.rates")
    follower = _replace(
        cfg.follower, _section(section, "follower"), "simulation.follower"
    )
    noise = _load_noise(_section(section, "noise"))
    try:
        yaw_amp = float(section.get("surface_yaw_amplitude", cfg.yaw_amplitude))
        yaw_period = float(section.get("surface_yaw_period", cfg.yaw_period))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"simulation: {exc}")
    cfg = dataclasses.replace(
        cfg,
        trajectory=trajectory,
        rates=rates,
        follower=follower,
        noise=noise,
        yaw_amplitude=yaw_amp,
        yaw_period=yaw_period,
    )
    try:
        cfg.scene()  # SceneConfig checks the surface yaw wave
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}")
    return cfg


_TOP_KEYS = (
    "intrinsics_file",
    "staleness_bound",
    "marker_offset",
    "rig",
    "tag",
    "depth_calibration",
    "tilt_filter",
    "simulation",
    "pso",
)


def load_run_config(path=None) -> RunConfig:
    """Build a RunConfig from a YAML file, or plain defaults for None.

    Raises ConfigError for unreadable files, unknown keys, or values
    the owning dataclasses reject. A relative intrinsics_file is
    resolved against the config file's directory.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}")
    if raw is None:
        return cfg
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")

    if "intrinsics_file" in raw:
        ipath = str(raw["intrinsics_file"])
        if not os.path.isabs(ipath):
            ipath = os.path.join(os.path.dirname(os.path.abspath(path)), ipath)
        cfg = dataclasses.replace(cfg, intrinsics=load_intrinsics(ipath))
    if "staleness_bound" in raw:
        try:
            bound = float(raw["staleness_bound"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"staleness_bound: {exc}")
        if not bound > 0:
            raise ConfigError("staleness_bound must be positive")
        cfg = dataclasses.replace(cfg, staleness_bound=bound)
    if raw.get("marker_offset") is not None:
        offset = raw["marker_offset"]
        if not (isinstance(offset, (list, tuple)) and len(offset) == 3):
            raise ConfigError("marker_offset must be [dx, dy, dz]")
        try:
            offset = tuple(float(v) for v in offset)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"marker_offset: {exc}")
        if not all(map(math.isfinite, offset)):
            raise ConfigError("marker_offset entries must be finite")
        cfg = dataclasses.replace(cfg, marker_offset=offset)

    rig_section = _section(raw, "rig")
    if rig_section:
        cfg = dataclasses.replace(cfg, rig=_load_rig(rig_section))
    tag_section = _section(raw, "tag")
    if tag_section:
        _check_keys(tag_section, ("side_length",), "tag")
        try:
            tag = TagGeometry(float(tag_section["side_length"]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"tag: {exc}")
        cfg = dataclasses.replace(cfg, tag=tag)
    calib_section = _section(raw, "depth_calibration")
    if calib_section:
        _check_keys(calib_section, ("scale", "offset"), "depth_calibration")
        try:
            calib = CalibrationParams.from_dict(
                {**IDENTITY_CALIBRATION.to_dict(), **calib_section}
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"depth_calibration: {exc}")
        cfg = dataclasses.replace(cfg, calibration=calib)
    tilt_section = _section(raw, "tilt_filter")
    if tilt_section:
        cfg = dataclasses.replace(cfg, tilt=_load_tilt(tilt_section))
    cfg = _load_simulation(_section(raw, "simulation"), cfg)
    cfg = dataclasses.replace(cfg, pso=_replace(cfg.pso, _section(raw, "pso"), "pso"))
    return cfg
