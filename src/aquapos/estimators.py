"""Marker-position estimators and sensor-stream synchronization.

Two independent estimators recover the underwater marker's world
position from a single camera frame plus surface-vehicle state:

- ``cpnp`` (transform chain): a planar PnP solve yields the tag pose in
  the camera frame, which is mapped through the camera-in-body and
  body-in-world transforms.
- ``cd`` (ray/depth plane): the tag's center pixel is back-projected
  into a world-frame line and intersected with the horizontal plane at
  the calibrated marker depth. No PnP solve, so pixel noise enters only
  through the ray direction, and the z channel is the depth reading
  itself.

``SensorSynchronizer`` keeps the most recent sample per stream and
bundles them at a query time with per-source staleness; the
``EstimationPipeline`` drives everything from a time-ordered record
stream, with one bundle per tag frame for all its methods.

The per-record path runs on Python floats. The sample types check their
fields with ``math.isfinite``; the camera-to-world transform is composed
once per pose and shared by both methods; cd's center pixel, ray and
plane hit are scalar arithmetic. Only the 3x3 products (``compose`` and
``R @ v + t``) stay in numpy, because a scalar sum rounds differently
from them and the estimates must keep their bytes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import ImuSample, TiltConfig, TiltTracker
from .camera import (
    Intrinsics,
    TagGeometry,
    TagObservation,
    _center,
    back_project,
    solve_pnp_planar,
)
from .depth_calibration import IDENTITY_CALIBRATION, CalibrationParams, apply_calibration
from .errors import AquaposError, NonFiniteEstimate, StaleSensor
from .geometry import (
    RigidTransform,
    _as_vec3,
    _line_zplane_hit,
    compose,
    euler_zyx_to_rotation,
    transform_point,
)

log = logging.getLogger(__name__)

DEFAULT_STALENESS_BOUND = 0.2  # seconds

METHODS = ("cpnp", "cd")


@dataclass(frozen=True)
class RigExtrinsics:
    """Static surface-vehicle geometry: camera mount and hull height.

    ``body_height`` is the z of the body origin above the water datum;
    it enters the chain as the fixed z component of the body-in-world
    translation.
    """

    camera_in_body: RigidTransform
    body_height: float

    def __post_init__(self):
        if not np.isfinite(self.body_height):
            raise ValueError("body_height must be finite")


@dataclass(frozen=True)
class SurfacePoseState:
    """Planar pose from SLAM fused with the tilt filter's roll/pitch."""

    timestamp: float
    x: float
    y: float
    yaw: float
    roll: float = 0.0
    pitch: float = 0.0

    def __post_init__(self):
        vals = (self.timestamp, self.x, self.y, self.yaw, self.roll, self.pitch)
        if not all(map(math.isfinite, vals)):
            raise ValueError("pose fields must be finite")
        if abs(self.pitch) >= math.pi / 2:
            raise ValueError("pitch must satisfy |pitch| < pi/2")


@dataclass(frozen=True)
class DepthMeasurement:
    """Calibrated marker depth, metres, positive down."""

    timestamp: float
    depth: float

    def __post_init__(self):
        if not (math.isfinite(self.timestamp) and math.isfinite(self.depth)):
            raise ValueError("depth measurement must be finite")
        if self.depth < 0:
            raise ValueError("depth is positive-down and cannot be negative")


@dataclass(frozen=True)
class SensorFrameBundle:
    """Latest sample from each stream at a reference time."""

    timestamp: float
    pose: SurfacePoseState | None
    tag: TagObservation | None
    depth: DepthMeasurement | None
    staleness: dict

    def __post_init__(self):
        for name, value in self.staleness.items():
            if value < 0:
                raise ValueError(f"negative staleness for {name}")


@dataclass(frozen=True)
class PositionEstimate:
    """One world-frame marker position with method diagnostics."""

    timestamp: float
    position: np.ndarray
    method: str
    roll: float = 0.0
    pitch: float = 0.0
    reproj_rms: float | None = None
    ray_k: float | None = None
    staleness: dict | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not all(map(math.isfinite, p.tolist())):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", p)

    @classmethod
    def _unchecked(cls, timestamp, position, method, roll=0.0, pitch=0.0,
                   reproj_rms=None, ray_k=None, staleness=None):
        """Build from a finite float 3-vector and a known method; skips the checks.

        For the estimators, whose _check_finite has already checked the
        position; the public constructor keeps its checks.
        """
        est = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(est, "timestamp", timestamp)
        setattr_(est, "position", position)
        setattr_(est, "method", method)
        setattr_(est, "roll", roll)
        setattr_(est, "pitch", pitch)
        setattr_(est, "reproj_rms", reproj_rms)
        setattr_(est, "ray_k", ray_k)
        setattr_(est, "staleness", staleness)
        return est


def default_rig() -> RigExtrinsics:
    """Bench rig: camera 10 cm ahead of the body origin, 2 cm below it,
    rolled half a turn to look straight down; hull rides 5 cm above the
    water datum."""
    rotation = euler_zyx_to_rotation(0.0, 0.0, math.pi)
    camera_in_body = RigidTransform(rotation, np.array([0.10, 0.0, -0.02]))
    return RigExtrinsics(camera_in_body, body_height=0.05)


def build_body_to_world(pose: SurfacePoseState, rig: RigExtrinsics) -> RigidTransform:
    """Body-in-world transform from SLAM x/y/yaw, filter tilt, hull height."""
    rotation = euler_zyx_to_rotation(pose.yaw, pose.pitch, pose.roll)
    translation = np.array([pose.x, pose.y, rig.body_height], dtype=float)
    return RigidTransform._unchecked(rotation, translation)


def _camera_to_world(pose: SurfacePoseState, rig: RigExtrinsics) -> RigidTransform:
    """Camera-in-world transform for a pose, composed once per pose and rig.

    The pose keeps the last transform with the rig it was made for, so
    cpnp and cd on one frame, and frames that share a SLAM sample, share
    one ``compose``; a new pose, from a new SLAM record, starts afresh.
    """
    rig_held, H = pose.__dict__.get("_camera_to_world", (None, None))
    if rig_held is not rig:
        H = compose(build_body_to_world(pose, rig), rig.camera_in_body)
        pose.__dict__["_camera_to_world"] = (rig, H)
    return H


def _check_fresh(bundle: SensorFrameBundle, sources, bound: float):
    for name in sources:
        sample = getattr(bundle, name)
        if sample is None:
            raise StaleSensor(f"no {name} sample in bundle")
        staleness = bundle.staleness.get(name, 0.0)
        if staleness > bound:
            raise StaleSensor(
                f"{name} is {staleness:.3f}s old, bound is {bound:.3f}s"
            )


def _check_finite(method: str, *values):
    if not all(map(math.isfinite, values)):
        raise NonFiniteEstimate(f"{method} result is not finite")


def estimate_cpnp(
    bundle: SensorFrameBundle,
    rig: RigExtrinsics,
    intrinsics: Intrinsics,
    geom: TagGeometry,
    staleness_bound: float = DEFAULT_STALENESS_BOUND,
    marker_offset=None,
) -> PositionEstimate:
    """Full transform-chain estimate from the four tag corners.

    ``marker_offset`` is an optional lever arm in the marker frame,
    applied through the recovered tag orientation; by default the tag
    origin itself is reported.
    """
    _check_fresh(bundle, ("pose", "tag"), staleness_bound)
    tag_pose = solve_pnp_planar(intrinsics, geom, bundle.tag)
    camera_to_world = _camera_to_world(bundle.pose, rig)
    if marker_offset is None:
        position = transform_point(camera_to_world, tag_pose.transform.translation)
    else:
        position = transform_point(
            compose(camera_to_world, tag_pose.transform), marker_offset
        )
    _check_finite("cpnp", *position)
    return PositionEstimate._unchecked(
        bundle.timestamp,
        position,
        "cpnp",
        roll=bundle.pose.roll,
        pitch=bundle.pose.pitch,
        reproj_rms=tag_pose.reproj_rms,
        staleness=dict(bundle.staleness),
    )


def estimate_cd(
    bundle: SensorFrameBundle,
    rig: RigExtrinsics,
    intrinsics: Intrinsics,
    staleness_bound: float = DEFAULT_STALENESS_BOUND,
    marker_offset=None,
) -> PositionEstimate:
    """Ray/depth-plane estimate from the tag center pixel.

    The z channel is taken from the depth sensor, so the result's z is
    exactly ``-depth``. Without a PnP solve the marker orientation is
    unknown, hence only the vertical component of ``marker_offset`` can
    be compensated (it shifts the intersection plane).
    """
    _check_fresh(bundle, ("pose", "tag", "depth"), staleness_bound)
    H = _camera_to_world(bundle.pose, rig)
    ray = back_project(intrinsics, _center(bundle.tag.corners.tolist()))
    center_world = (H.rotation @ ray + H.translation).tolist()
    plane_z = -bundle.depth.depth
    if marker_offset is not None:
        plane_z = plane_z + float(marker_offset[2])
    # the line from the tag center's world point toward the camera origin
    x, y, k = _line_zplane_hit(H.translation.tolist(), center_world, plane_z)
    _check_finite("cd", x, y, plane_z, k)
    return PositionEstimate._unchecked(
        bundle.timestamp,
        np.array([x, y, plane_z]),
        "cd",
        roll=bundle.pose.roll,
        pitch=bundle.pose.pitch,
        ray_k=k,
        staleness=dict(bundle.staleness),
    )


class SensorSynchronizer:
    """Latest-sample-per-stream buffer with staleness bookkeeping.

    Streams must be pushed in non-decreasing time order, and queries must
    not precede already-pushed samples; both hold by construction when
    replaying a time-ordered dataset.
    """

    _STREAMS = ("pose", "tag", "depth")

    def __init__(self):
        self._latest = {name: None for name in self._STREAMS}

    def _push(self, stream: str, sample):
        prev = self._latest[stream]
        if prev is not None and sample.timestamp < prev.timestamp:
            raise ValueError(f"{stream} timestamps must be non-decreasing")
        self._latest[stream] = sample

    def push_pose(self, pose: SurfacePoseState):
        self._push("pose", pose)

    def push_tag(self, tag: TagObservation):
        self._push("tag", tag)

    def push_depth(self, depth: DepthMeasurement):
        self._push("depth", depth)

    def synchronize(self, t: float) -> SensorFrameBundle:
        """Bundle the latest sample of each stream as of time t.

        A stream with no sample yet is None in the bundle and has no
        staleness entry; each estimator's _check_fresh reports it.
        """
        found = {}
        staleness = {}
        for name in self._STREAMS:
            sample = self._latest[name]
            if sample is None:
                continue
            if sample.timestamp > t:
                raise ValueError("query time precedes a pushed sample")
            found[name] = sample
            staleness[name] = t - sample.timestamp
        return SensorFrameBundle(
            t, found.get("pose"), found.get("tag"), found.get("depth"), staleness
        )


class EstimationPipeline:
    """Turns a time-ordered record stream into position estimates.

    IMU records drive the tilt filter; SLAM records become poses stamped
    with the filter's current tilt (zero until the first IMU sample);
    depth records pass through the affine calibration; tag records
    trigger one estimate per configured method. Records that fail
    validation or estimators that fail on a frame are counted, not
    raised, so one bad frame cannot abort a replay.
    """

    def __init__(
        self,
        rig: RigExtrinsics,
        intrinsics: Intrinsics,
        tag_geometry: TagGeometry,
        calibration: CalibrationParams = IDENTITY_CALIBRATION,
        tilt_config: TiltConfig | None = None,
        methods=METHODS,
        staleness_bound: float = DEFAULT_STALENESS_BOUND,
        marker_offset=None,
    ):
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        self.rig = rig
        self.intrinsics = intrinsics
        self.tag_geometry = tag_geometry
        self.calibration = calibration
        self.methods = tuple(methods)
        self.staleness_bound = staleness_bound
        self.marker_offset = (
            None if marker_offset is None else tuple(_as_vec3(marker_offset).tolist())
        )
        self.tracker = TiltTracker(tilt_config)
        self.sync = SensorSynchronizer()
        self.counters = {
            "imu_rejected": 0,
            "depth_rejected": 0,
            "cpnp_skipped": 0,
            "cd_skipped": 0,
        }

    def _current_tilt(self):
        state = self.tracker.state
        if state is None:
            return 0.0, 0.0
        return state.roll, state.pitch

    def process(self, record: dict) -> list:
        """Consume one dataset record; returns estimates it produced."""
        t = float(record["t"])
        kind = record["kind"]
        if kind == "imu":
            try:
                self.tracker.feed(ImuSample(t, record["gyro"], record["accel"]))
            except (ValueError, AquaposError):
                self.counters["imu_rejected"] += 1
            return []
        if kind == "slam":
            roll, pitch = self._current_tilt()
            self.sync.push_pose(
                SurfacePoseState(
                    t, record["x"], record["y"], record["yaw"], roll, pitch
                )
            )
            return []
        if kind == "depth":
            depth = apply_calibration(self.calibration, record["raw"])
            try:
                self.sync.push_depth(DepthMeasurement(t, depth))
            except ValueError:
                self.counters["depth_rejected"] += 1
            return []
        if kind == "truth":
            return []
        if kind == "tag":
            self.sync.push_tag(TagObservation(t, record["corners"]))
            # one bundle for every method; each estimator checks its own streams
            bundle = self.sync.synchronize(t)
            estimates = []
            for method in self.methods:
                try:
                    if method == "cpnp":
                        estimates.append(
                            estimate_cpnp(
                                bundle,
                                self.rig,
                                self.intrinsics,
                                self.tag_geometry,
                                self.staleness_bound,
                                self.marker_offset,
                            )
                        )
                    else:
                        estimates.append(
                            estimate_cd(
                                bundle,
                                self.rig,
                                self.intrinsics,
                                self.staleness_bound,
                                self.marker_offset,
                            )
                        )
                except AquaposError as exc:
                    self.counters[f"{method}_skipped"] += 1
                    log.debug("t=%.3f: %s skipped (%s)", t, method, exc)
            return estimates
        raise ValueError(f"unknown record kind {kind!r}")
