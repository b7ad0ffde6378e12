"""Collaborative surface-to-underwater positioning: a surface vehicle
tracks its own pose and localizes an underwater marker below it, either
through the full PnP transform chain ("cpnp") or by intersecting the
camera ray with the calibrated depth plane ("cd")."""

import importlib

from .attitude import ImuSample, TiltConfig, TiltState, TiltTracker
from .camera import DEFAULT_INTRINSICS, Intrinsics, TagGeometry, TagObservation
from .config import (NoiseModel, RunConfig, SampleRates, TrajectorySpec,
                     load_run_config)
from .depth_calibration import CalibrationParams, PsoConfig, calibrate
from .errors import AquaposError
from .estimators import (
    EstimationPipeline,
    PositionEstimate,
    RigExtrinsics,
    SurfacePoseState,
    default_rig,
    estimate_cd,
    estimate_cpnp,
)
from .geometry import PluckerLine, RigidTransform

__version__ = "0.1.0"

# Names from the modules that setting up the estimator does not load: each
# is imported on its first access (PEP 562) and then kept in this namespace.
_LAZY = {
    "Simulator": "simulator",
    "align": "evaluation",
    "build_error_report": "evaluation",
    "med": "evaluation",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AquaposError",
    "CalibrationParams",
    "DEFAULT_INTRINSICS",
    "EstimationPipeline",
    "ImuSample",
    "Intrinsics",
    "NoiseModel",
    "PluckerLine",
    "PositionEstimate",
    "PsoConfig",
    "RigExtrinsics",
    "RigidTransform",
    "RunConfig",
    "SampleRates",
    "Simulator",
    "SurfacePoseState",
    "TagGeometry",
    "TagObservation",
    "TiltConfig",
    "TiltState",
    "TiltTracker",
    "TrajectorySpec",
    "align",
    "build_error_report",
    "calibrate",
    "default_rig",
    "estimate_cd",
    "estimate_cpnp",
    "load_run_config",
    "med",
]
