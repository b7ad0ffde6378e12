"""YAML run configuration shared by all CLI commands.

One file describes the whole bench: camera intrinsics, rig extrinsics,
tag size, depth calibration, tilt filter noise, simulation settings and
the PSO search. Every section is optional; omitted values fall back to
the bench defaults, so `load_run_config(None)` is a complete, runnable
setup. Angles in the file are degrees where the key says so; everything
in the loaded objects is radians and metres.

The simulation settings (TrajectorySpec, NoiseModel, SampleRates,
FollowerConfig, SceneConfig) and their run-size bounds are defined here,
not in the simulator: loading a config, as every command's set-up does,
then imports no simulator code, and `aquapos.simulator` takes them from
this module.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import re
from dataclasses import dataclass, field

import yaml

from .attitude import MAX_PREDICT_DT, TiltConfig
from .camera import DEFAULT_INTRINSICS, Intrinsics, TagGeometry
from .depth_calibration import (DEFAULT_SEED, IDENTITY_CALIBRATION, CalibrationParams,
                                PsoConfig, _check_seed)
from .errors import ConfigError
from .estimators import (DEFAULT_STALENESS_BOUND, RigExtrinsics, _marker_offset,
                         _staleness_bound, default_rig)
from .geometry import RigidTransform, _euler_zyx, _float, _floats, _Value

log = logging.getLogger(__name__)

# --- simulation settings, which aquapos.simulator runs from ----------------

# the marker paths simulator.gen_trajectory lays
_PATTERNS = ("square", "lawnmower", "random")

# Records one stream may hold in a run: 833 times the quick start's largest
# stream (12,000 IMU records), and about 1.6 GB of JSONL as IMU records.
MAX_STREAM_RECORDS = 10**7


def record_count(rate: float, duration: float) -> int:
    """Records a stream of rate Hz writes over duration s, floor(rate * duration).

    Raises ValueError for a count that is not finite or is above
    MAX_STREAM_RECORDS.
    """
    n = rate * duration + 1e-9
    if not math.isfinite(n):
        raise ValueError(f"{rate!r} Hz over {duration!r} s is not a finite record count")
    count = int(math.floor(n))
    if count > MAX_STREAM_RECORDS:
        raise ValueError(f"{rate!r} Hz over {duration!r} s is {count:.6g} records, "
                         f"above the bound of {MAX_STREAM_RECORDS:g} per stream")
    return count


# Metres of waypoint chain the random pattern may lay: 4,167 times the quick
# start's 24 m, or 10^5 s at 1 m/s. The default region takes about 53,000
# waypoints and a fifth of a second for it.
MAX_RANDOM_PATH = 10**5


def random_path_length(speed: float, duration: float) -> float:
    """Metres of waypoint chain the random pattern lays for a run, the
    speed * duration it travels plus 1 m.

    Raises ValueError for a length that is not finite or is above
    MAX_RANDOM_PATH.
    """
    length = speed * duration + 1.0
    if not length <= MAX_RANDOM_PATH:  # also rejects inf
        raise ValueError(f"{speed!r} m/s over {duration!r} s is a random path of "
                         f"{length:.6g} m, above the bound of {MAX_RANDOM_PATH:g} m")
    return length


@dataclass(frozen=True, eq=False, repr=False)
class TrajectorySpec(_Value):
    """Marker path description inside the tank region."""

    pattern: str = "square"
    region: tuple = (4.8, 3.6, 2.0)
    speed: float = 0.2
    duration: float = 120.0
    depth_mean: float = 1.2
    depth_amplitude: float = 0.5
    depth_period: float = 25.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        fields = self.__dict__
        message = "trajectory values must be finite"
        if len(self.region) != 3:
            raise ValueError("region must be three positive extents")
        fields["region"] = region = _floats(self.region, (3,), message)
        if any(r <= 0 for r in region):
            raise ValueError("region must be three positive extents")
        for name in ("speed", "duration", "depth_mean", "depth_amplitude", "depth_period"):
            fields[name] = _float(fields[name], message)
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.depth_amplitude <= 1.0:
            raise ValueError("depth amplitude must lie in [0, 1] m")
        if self.depth_period <= 0:
            raise ValueError("depth period must be positive")
        if self.depth_mean - self.depth_amplitude <= 0:
            raise ValueError("depth profile must stay below the surface")
        if self.depth_mean + self.depth_amplitude > self.region[2]:
            raise ValueError("depth profile exceeds the region depth")
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False, repr=False)
class NoiseModel(_Value):
    """Per-sensor noise sigmas, scripted tilt wave, and detection dropout."""

    pixel_sigma: float = 0.5
    gyro_sigma: float = 0.005
    accel_sigma: float = 0.05
    depth_sigma: float = 0.002
    slam_xy_sigma: float = 0.005
    slam_yaw_sigma: float = math.radians(0.2)
    tilt_amplitude: float = math.radians(8.0)
    tilt_frequency: float = 0.3
    dropout_base: float = 0.0
    dropout_per_metre: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        fields = self.__dict__
        sigmas = ("pixel_sigma", "gyro_sigma", "accel_sigma", "depth_sigma",
                  "slam_xy_sigma", "slam_yaw_sigma")
        for name in (*sigmas, "tilt_frequency", "dropout_base", "dropout_per_metre"):
            fields[name] = _float(fields[name], "noise values must be finite")
        if any(fields[name] < 0 for name in sigmas):
            raise ValueError("noise sigmas must be non-negative")
        message = "tilt amplitude must lie in [0, 10] degrees"
        fields["tilt_amplitude"] = amplitude = _float(self.tilt_amplitude, message)
        if not 0.0 <= amplitude <= math.radians(10.0) + 1e-12:
            raise ValueError(message)
        if self.tilt_frequency < 0:
            raise ValueError("tilt frequency must be non-negative")
        if self.dropout_base < 0 or self.dropout_per_metre < 0:
            raise ValueError("dropout coefficients must be non-negative")
        _check_seed(self.seed)

    @classmethod
    def zero(cls, seed: int = DEFAULT_SEED) -> "NoiseModel":
        """All sigmas, the tilt wave, and dropout switched off."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, seed)

    def p_drop(self, depth: float) -> float:
        return min(max(self.dropout_base + self.dropout_per_metre * depth, 0.0), 1.0)


@dataclass(frozen=True, eq=False, repr=False)
class SampleRates(_Value):
    """Per-stream sample rates, Hz."""

    camera: float = 30.0
    imu: float = 100.0
    depth: float = 15.0
    slam: float = 40.0
    truth: float = 100.0

    def __post_init__(self):
        fields = self.__dict__
        message = "sample rates must be positive and finite"
        for name in ("camera", "imu", "depth", "slam", "truth"):
            fields[name] = rate = _float(fields[name], message)
            if rate <= 0:
                raise ValueError(message)


@dataclass(frozen=True, eq=False, repr=False)
class FollowerConfig(_Value):
    """Center-pixel proportional servo parameters."""

    gain_x: float = 2.5
    gain_y: float = 2.5
    deadband_px: float = 5.0
    max_speed: float = 0.6
    hold_decay: float = 1.0

    def __post_init__(self):
        fields = self.__dict__
        for name, message in (("gain_x", "gains must be non-negative"),
                              ("gain_y", "gains must be non-negative"),
                              ("deadband_px", "deadband must be non-negative")):
            fields[name] = value = _float(fields[name], message)
            if value < 0:
                raise ValueError(message)
        for name, message in (("max_speed", "max speed must be positive"),
                              ("hold_decay", "hold decay time must be positive")):
            fields[name] = value = _float(fields[name], message)
            if value <= 0:
                raise ValueError(message)


@dataclass(frozen=True, eq=False, repr=False)
class SceneConfig(_Value):
    """Everything about the rig and world that is not the trajectory."""

    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    rig: RigExtrinsics = field(default_factory=default_rig)
    tag: TagGeometry = field(default_factory=TagGeometry)
    calibration: CalibrationParams = IDENTITY_CALIBRATION
    follower: FollowerConfig = field(default_factory=FollowerConfig)
    rates: SampleRates = field(default_factory=SampleRates)
    yaw_amplitude: float = 0.15
    yaw_period: float = 40.0

    def __post_init__(self):
        fields = self.__dict__
        message = "yaw amplitude must be non-negative and finite"
        fields["yaw_amplitude"] = amplitude = _float(self.yaw_amplitude, message)
        if amplitude < 0:
            raise ValueError(message)
        message = "yaw period must be positive and finite"
        fields["yaw_period"] = period = _float(self.yaw_period, message)
        if period <= 0:
            raise ValueError(message)


@dataclass(frozen=True, eq=False, repr=False)
class RunConfig(SceneConfig):
    """Everything a command needs, already validated: the bench the
    simulator takes as its scene, plus the estimator and fit settings."""

    tilt: TiltConfig = field(default_factory=TiltConfig)
    staleness_bound: float = DEFAULT_STALENESS_BOUND
    marker_offset: tuple | None = None
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    noise: NoiseModel = field(default_factory=NoiseModel)
    pso: PsoConfig = field(default_factory=PsoConfig)

    def __post_init__(self):
        super().__post_init__()
        fields = self.__dict__
        fields["staleness_bound"] = _staleness_bound(self.staleness_bound)
        fields["marker_offset"] = _marker_offset(self.marker_offset)


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


# YAML 1.1 reads a number with an exponent only with a dot and a signed
# exponent: 1e308 and 1.5e3 load as strings, 1.0e+308 and 1.5e+3 as floats
_YAML11_EXPONENT = re.compile(r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)")


def _number(value, where) -> float:
    """value as a float; ConfigError naming where unless it is a YAML number.

    float() would take a bool as 0 or 1 and a numeric string as its number,
    so both are rejected, a number string that YAML 1.1 did not read for its
    exponent's form with a hint at the form it reads; other values, such as
    an integer beyond float range, keep float()'s own message.
    """
    try:
        number = float(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if isinstance(value, (bool, str)):
        hint = ""
        m = isinstance(value, str) and _YAML11_EXPONENT.fullmatch(value)
        if m and not (m[2] and m[3]):
            hint = f"; write {m[1]}{m[2] or '.0'}e{m[3] or '+'}{m[4]} for YAML 1.1 to read it"
        raise ConfigError(f"{where}: expected a number, got {value!r}{hint}")
    return number


def _replace(instance, mapping, where=None):
    """dataclasses.replace with key checking and error translation.

    A field annotated float must hold a YAML number (see _number), and a list
    for one annotated tuple or tuple | None YAML numbers; it becomes a tuple.
    Other values reach the dataclass, which words their errors. Without where
    the keys are top-level. The annotations are strings: every config module
    imports annotations from __future__.
    """
    fields = dataclasses.fields(instance)
    _check_keys(mapping, [f.name for f in fields], where)
    prefix = "" if where is None else f"{where}."
    changes = dict(mapping)
    for f in fields:
        if f.name not in mapping:
            continue
        value = mapping[f.name]
        if f.type == "float":
            _number(value, prefix + f.name)
        elif f.type in ("tuple", "tuple | None") and isinstance(value, list):
            for i, v in enumerate(value):
                _number(v, f"{prefix}{f.name}[{i}]")
            changes[f.name] = tuple(value)
    try:
        return dataclasses.replace(instance, **changes)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc) if where is None else f"{where}: {exc}")


def _load_yaml(path, what: str):
    """The YAML document in the file at path; ConfigError, naming the file
    as what, when it cannot be read or is not valid YAML."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} {path} is not valid YAML: {exc}")


def load_intrinsics(path) -> Intrinsics:
    """Read a camera intrinsics YAML (fx, fy, cx, cy, width, height).

    An optional `distortion` list is accepted for compatibility with
    calibration dumps but ignored with a warning when nonzero; the
    projection model here is a plain pinhole.
    """
    raw = _load_yaml(path, "intrinsics file")
    if not isinstance(raw, dict):
        raise ConfigError(f"intrinsics file {path} must be a mapping")
    _check_keys(raw, ("fx", "fy", "cx", "cy", "width", "height", "distortion"), path)
    distortion = raw.pop("distortion", None)
    if distortion is None:
        distortion = []
    where = f"intrinsics file {path}: distortion must be a list of numbers"
    if not isinstance(distortion, list):
        raise ConfigError(f"{where}, got {distortion!r}")
    distortion = [_number(d, f"{where}; distortion[{i}]") for i, d in enumerate(distortion)]
    if any(abs(d) > 0 for d in distortion):
        log.warning("ignoring nonzero distortion in %s (pinhole model only)", path)
    missing = {"fx", "fy", "cx", "cy", "width", "height"} - set(raw)
    if missing:
        raise ConfigError(f"intrinsics file {path} missing {sorted(missing)}")
    try:
        return Intrinsics(**raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"intrinsics file {path}: {exc}")


def _load_rig(section) -> RigExtrinsics:
    _check_keys(
        section,
        ("camera_translation", "camera_euler_zyx_deg", "body_height"),
        "rig",
    )
    base = default_rig()
    translation = section.get("camera_translation", base.camera_in_body.t)
    if isinstance(translation, list):
        translation = [_number(v, f"rig.camera_translation[{i}]")
                       for i, v in enumerate(translation)]
    angles = None  # the default rig's rotation
    if "camera_euler_zyx_deg" in section:
        euler_deg = section["camera_euler_zyx_deg"]
        if not (isinstance(euler_deg, (list, tuple)) and len(euler_deg) == 3):
            raise ConfigError("rig.camera_euler_zyx_deg must be [yaw, pitch, roll]")
        angles = [math.radians(_number(a, f"rig.camera_euler_zyx_deg[{i}]"))
                  for i, a in enumerate(euler_deg)]
    body_height = _number(section.get("body_height", base.body_height), "rig.body_height")
    try:
        rotation = base.camera_in_body.R if angles is None else _euler_zyx(*angles)
        cam = RigidTransform(rotation, translation)
        return RigExtrinsics(cam, body_height=body_height)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"rig: {exc}")


def _load_tilt(section) -> TiltConfig:
    # each key is one matrix's diagonal, checked on its own so that an error names it
    matrices = {"gyro_var": "q", "accel_var": "r", "initial_var": "p0"}
    _check_keys(section, matrices, "tilt_filter")
    diagonals = {}
    for key, value in section.items():
        var = _number(value, f"tilt_filter.{key}")
        diagonals[matrices[key]] = diagonal = ((var, 0.0), (0.0, var))
        try:
            TiltConfig(**{matrices[key]: diagonal})
        except ValueError as exc:
            raise ConfigError(f"tilt_filter.{key}: {exc}")
    return TiltConfig(**diagonals)


def _load_noise(section, base: NoiseModel) -> NoiseModel:
    # degree-valued keys are converted here; everything else passes through
    section = dict(section)
    for key in ("slam_yaw_sigma_deg", "tilt_amplitude_deg"):
        if key in section:
            section[key.removesuffix("_deg")] = math.radians(
                _number(section.pop(key), f"simulation.noise.{key}"))
    return _replace(base, section, "simulation.noise")


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
    noise = _load_noise(_section(section, "noise"), cfg.noise)
    # the simulator writes record_count(rate, duration) records per stream,
    # lays a random path of random_path_length(speed, duration) and takes
    # sines of 2 pi * tilt_frequency * t for t up to duration
    duration = trajectory.duration
    for name, rate in vars(rates).items():
        try:
            record_count(rate, duration)
        except ValueError as exc:
            raise ConfigError(f"simulation.rates.{name}: {exc}") from None
    if 1.0 / rates.imu > MAX_PREDICT_DT:  # the filter would reject every later sample
        raise ConfigError(f"simulation.rates.imu: {rates.imu!r} Hz samples every "
                          f"{1.0 / rates.imu:.4g} s, above the tilt filter's bound of "
                          f"{MAX_PREDICT_DT:g} s")
    if trajectory.pattern == "random":
        try:
            random_path_length(trajectory.speed, duration)
        except ValueError as exc:
            raise ConfigError(f"simulation.trajectory.speed: {exc}") from None
    if not math.isfinite(2.0 * math.pi * noise.tilt_frequency * duration):
        raise ConfigError(f"simulation.noise.tilt_frequency: {noise.tilt_frequency!r} Hz "
                          f"over {duration!r} s is not a finite tilt phase")
    yaw_amp = _number(section.get("surface_yaw_amplitude", cfg.yaw_amplitude),
                      "simulation.surface_yaw_amplitude")
    yaw_period = _number(section.get("surface_yaw_period", cfg.yaw_period),
                         "simulation.surface_yaw_period")
    try:
        # SceneConfig.__post_init__ checks the surface yaw wave
        return dataclasses.replace(
            cfg,
            trajectory=trajectory,
            rates=rates,
            follower=follower,
            noise=noise,
            yaw_amplitude=yaw_amp,
            yaw_period=yaw_period,
        )
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}")


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
    raw = _load_yaml(path, "config")
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
    cfg = _replace(cfg, {k: raw[k] for k in ("staleness_bound", "marker_offset") if k in raw})

    cfg = dataclasses.replace(
        cfg,
        rig=_load_rig(_section(raw, "rig")),
        tag=_replace(cfg.tag, _section(raw, "tag"), "tag"),
        calibration=_replace(cfg.calibration, _section(raw, "depth_calibration"),
                             "depth_calibration"),
        tilt=_load_tilt(_section(raw, "tilt_filter")),
    )
    cfg = _load_simulation(_section(raw, "simulation"), cfg)
    cfg = dataclasses.replace(cfg, pso=_replace(cfg.pso, _section(raw, "pso"), "pso"))
    return cfg
