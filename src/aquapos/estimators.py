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

A tag frame goes from its corner pixels to its estimate on Python floats
and builds no array: ``TagObservation``, the PnP ``TagPose`` and
``PositionEstimate`` hold floats and build ``corners``, ``transform`` and
``position`` when first read; their dataclass fields are those floats, so
they compare, hash and print by them. The constructors keep their checks; the
exact floats the estimators give them take the first line of the number
rule's check (geometry._floats3, camera._float_quad). The camera-to-world
rotation and translation are float tuples, composed by
``_camera_in_world``, as in the simulator, once per pose and shared by
both methods; every 3x3 product goes through geometry's float kernels
(see geometry._mat_mul).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

from ._numpy import np
from .attitude import ImuSample, TiltConfig, TiltTracker
from .camera import (
    Intrinsics,
    TagGeometry,
    TagObservation,
    _center,
    _pixel_ray,
    solve_pnp_planar,
)
from .depth_calibration import IDENTITY_CALIBRATION, CalibrationParams, apply_calibration
from .errors import AquaposError, NonFiniteEstimate, StaleSensor
from .geometry import (
    RigidTransform,
    _euler_zyx,
    _float,
    _floats3,
    _line_zplane_hit,
    _mat_mul,
    _mat_vec,
)

log = logging.getLogger(__name__)

DEFAULT_STALENESS_BOUND = 0.2  # seconds

METHODS = ("cpnp", "cd")

KINDS = ("imu", "slam", "depth", "truth", "tag")


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
        self.__dict__["body_height"] = _float(self.body_height, "body_height must be finite")


@dataclass(frozen=True, init=False)
class SurfacePoseState:
    """Planar pose from SLAM fused with the tilt filter's roll/pitch."""

    timestamp: float
    x: float
    y: float
    yaw: float
    roll: float
    pitch: float

    def __init__(self, timestamp, x, y, yaw, roll=0.0, pitch=0.0):
        message = "pose fields must be finite"
        timestamp, x, y = _float(timestamp, message), _float(x, message), _float(y, message)
        yaw, roll, pitch = _float(yaw, message), _float(roll, message), _float(pitch, message)
        if abs(pitch) >= math.pi / 2:
            raise ValueError("pitch must satisfy |pitch| < pi/2")
        self.__dict__.update(timestamp=timestamp, x=x, y=y, yaw=yaw, roll=roll, pitch=pitch)


@dataclass(frozen=True, init=False)
class DepthMeasurement:
    """Calibrated marker depth, metres, positive down."""

    timestamp: float
    depth: float

    def __init__(self, timestamp, depth):
        message = "depth measurement must be finite"
        timestamp, depth = _float(timestamp, message), _float(depth, message)
        if depth < 0:
            raise ValueError("depth is positive-down and cannot be negative")
        self.__dict__.update(timestamp=timestamp, depth=depth)


@dataclass(frozen=True, init=False)
class SensorFrameBundle:
    """Latest sample from each stream at a reference time."""

    timestamp: float
    pose: SurfacePoseState | None
    tag: TagObservation | None
    depth: DepthMeasurement | None
    staleness: dict

    def __init__(self, timestamp, pose, tag, depth, staleness):
        # the negated form also rejects nan, which no bound would catch
        for name, value in staleness.items():
            if not 0 <= value < math.inf:
                raise ValueError(f"staleness for {name} must be finite and "
                                 f"non-negative, got {value!r}")
        self.__dict__.update(timestamp=timestamp, pose=pose, tag=tag, depth=depth,
                             staleness=staleness)


@dataclass(frozen=True, init=False)
class PositionEstimate:
    """One world-frame marker position with method diagnostics.

    ``xyz`` holds the position as a float 3-tuple (see _floats3); the
    float64 ``position`` array is built from it the first time it is read.
    The timestamp, roll and pitch, and each diagnostic that is not None,
    are floats by geometry._float's rule, so every estimate makes a line
    that dataset.read_estimates reads back.
    """

    timestamp: float
    xyz: tuple
    method: str
    roll: float = 0.0
    pitch: float = 0.0
    reproj_rms: float | None = None
    ray_k: float | None = None
    staleness: dict | None = None

    def __init__(self, timestamp, position, method, roll=0.0, pitch=0.0,
                 reproj_rms=None, ray_k=None, staleness=None):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        xyz = _floats3(position)
        message = "estimate fields must be finite"
        if reproj_rms is not None:
            reproj_rms = _float(reproj_rms, message)
        if ray_k is not None:
            ray_k = _float(ray_k, message)
        # one dict update; a frozen dataclass's __init__ calls object.__setattr__ per field
        self.__dict__.update(timestamp=_float(timestamp, message), xyz=xyz, method=method,
                             roll=_float(roll, message), pitch=_float(pitch, message),
                             reproj_rms=reproj_rms, ray_k=ray_k, staleness=staleness)

    position = cached_property(lambda est: np.array(est.xyz))


def default_rig() -> RigExtrinsics:
    """Bench rig: camera 10 cm ahead of the body origin, 2 cm below it,
    rolled half a turn to look straight down; hull rides 5 cm above the
    water datum."""
    camera_in_body = RigidTransform(_euler_zyx(0.0, 0.0, math.pi), (0.10, 0.0, -0.02))
    return RigExtrinsics(camera_in_body, body_height=0.05)


def _camera_in_world(yaw: float, pitch: float, roll: float, x: float, y: float,
                     rig: RigExtrinsics) -> tuple:
    """Camera-in-world (R, t) of a body pose: a row-major 9-tuple and a 3-tuple.

    R is the body's Z-Y-X Euler rotation times the rig's camera-in-body
    rotation and t that rotation applied to the camera-in-body translation
    plus (x, y, body_height), by geometry's float kernels. The estimators
    and the simulator both see the camera through this one composition.
    """
    R, H = _euler_zyx(yaw, pitch, roll), rig.camera_in_body
    u, v, w = _mat_vec(R, H.t)
    return _mat_mul(R, H.R), (u + x, v + y, w + rig.body_height)


def _camera_to_world(pose: SurfacePoseState, rig: RigExtrinsics) -> tuple:
    """_camera_in_world for a pose, kept on the pose with the rig it was made
    for: cpnp and cd on one frame, and frames that share a SLAM sample, share
    one composition; a new pose, from a new SLAM record, starts afresh."""
    rig_held, chain = pose.__dict__.get("_camera_to_world", (None, None))
    if rig_held is not rig:
        chain = _camera_in_world(pose.yaw, pose.pitch, pose.roll, pose.x, pose.y, rig)
        pose.__dict__["_camera_to_world"] = (rig, chain)
    return chain


def _check_fresh(bundle: SensorFrameBundle, sources, bound: float):
    fields = vars(bundle)
    ages = fields["staleness"]
    for name in sources:
        if fields[name] is None:
            raise StaleSensor(f"no {name} sample in bundle")
        staleness = ages.get(name, 0.0)
        if staleness > bound:
            raise StaleSensor(
                f"{name} is {staleness:.3f}s old, bound is {bound:.3f}s"
            )


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
    origin itself is reported. With (R, t) the camera in the world and
    (R_tag, t_tag) the tag in the camera, the position is R t_tag + t,
    plus (R R_tag) m for an offset m.
    """
    _check_fresh(bundle, ("pose", "tag"), staleness_bound)
    tag_pose = solve_pnp_planar(intrinsics, geom, bundle.tag)
    R, (tx, ty, tz) = _camera_to_world(bundle.pose, rig)
    x, y, z = _mat_vec(R, tag_pose.t)
    x, y, z = x + tx, y + ty, z + tz
    if marker_offset is not None:
        dx, dy, dz = _mat_vec(_mat_mul(R, tag_pose.R), _floats3(marker_offset))
        x, y, z = x + dx, y + dy, z + dz
    try:
        # every field by position: a keyword call to the class builds a dict
        return PositionEstimate(bundle.timestamp, [x, y, z], "cpnp", bundle.pose.roll,
                                bundle.pose.pitch, tag_pose.reproj_rms, None,
                                dict(bundle.staleness))
    except ValueError:
        raise NonFiniteEstimate("cpnp result is not finite") from None


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
    R, t = _camera_to_world(bundle.pose, rig)
    # the tag center's ray, at unit camera depth, in the world
    x, y, z = _mat_vec(R, _pixel_ray(intrinsics, *_center(bundle.tag.px)))
    center_world = (x + t[0], y + t[1], z + t[2])
    plane_z = -bundle.depth.depth
    if marker_offset is not None:
        plane_z = plane_z + _floats3(marker_offset)[2]
    # the line from the tag center's world point toward the camera origin
    x, y, k = _line_zplane_hit(t, center_world, plane_z)
    # x = b_x + k d_x, so a finite x and y imply a finite k (inf * 0 is nan)
    try:
        return PositionEstimate(bundle.timestamp, [x, y, plane_z], "cd", bundle.pose.roll,
                                bundle.pose.pitch, None, k, dict(bundle.staleness))
    except ValueError:
        raise NonFiniteEstimate("cd result is not finite") from None


class SensorSynchronizer:
    """Latest-sample-per-stream buffer with staleness bookkeeping.

    A sample stamped before its stream's latest, or a query before a pushed
    sample, raises ValueError; EstimationPipeline.process counts it as a
    rejected record.
    """

    _STREAMS = ("pose", "tag", "depth")

    def __init__(self):
        self._latest = {name: None for name in self._STREAMS}

    def push(self, stream: str, sample):
        """Hold sample as the latest of stream, one of _STREAMS."""
        prev = self._latest[stream]
        if prev is not None and sample.timestamp < prev.timestamp:
            raise ValueError(f"{stream} timestamps must be non-decreasing")
        self._latest[stream] = sample

    def synchronize(self, t: float) -> SensorFrameBundle:
        """Bundle the latest sample of each stream as of time t.

        A stream with no sample yet is None in the bundle and has no
        staleness entry; each estimator's _check_fresh reports it. A sample
        after t gives a negative staleness, which the bundle rejects.
        """
        latest = self._latest
        staleness = {}
        # a loop: a comprehension runs as a function call of its own
        for name, sample in latest.items():
            if sample is not None:
                staleness[name] = t - sample.timestamp
        return SensorFrameBundle(t, latest["pose"], latest["tag"], latest["depth"],
                                 staleness)


class EstimationPipeline:
    """Turns a time-ordered record stream into position estimates.

    IMU records drive the tilt filter; SLAM records become poses stamped
    with the filter's current tilt (zero until the first IMU sample);
    depth records pass through the affine calibration; tag records
    trigger one estimate per configured method. A record the pipeline
    cannot use is counted as ``<kind>_rejected`` and an estimator that
    fails on a frame as ``<method>_skipped``; neither is raised, so one
    bad record cannot abort a replay.
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
        # the number rule's type test, but +inf is a bound: no sample is ever stale
        message = f"staleness_bound must be positive, got {staleness_bound!r}"
        if (isinstance(staleness_bound, bool) or not isinstance(staleness_bound, Real)
                or not staleness_bound > 0):  # also rejects nan, with which no sample is stale
            raise ValueError(message)
        self.rig = rig
        self.intrinsics = intrinsics
        self.tag_geometry = tag_geometry
        self.calibration = calibration
        self.methods = tuple(methods)
        self.staleness_bound = (math.inf if staleness_bound == math.inf
                                else _float(staleness_bound, message))
        self.marker_offset = None if marker_offset is None else _floats3(marker_offset)
        self.tracker = TiltTracker(tilt_config)
        self.sync = SensorSynchronizer()
        self.counters = dict.fromkeys([*(f"{kind}_rejected" for kind in KINDS),
                                       *(f"{m}_skipped" for m in METHODS)], 0)

    def _current_tilt(self):
        state = self.tracker.state
        if state is None:
            return 0.0, 0.0
        return state.roll, state.pitch

    def process(self, record: dict) -> list:
        """Consume one dataset record; returns estimates it produced.

        A record whose sample its constructor, the tilt filter or the
        synchronizer rejects, such as a non-finite field, a stream stamped
        backwards or a tag stamped before another stream's sample, is
        counted as ``<kind>_rejected``. An unknown kind raises ValueError.
        """
        kind = record["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        t = record["t"]
        try:
            # one check of t per kind: the sample's constructor, or for a truth
            # record, which makes no sample, the same rule here
            if kind == "imu":
                self.tracker.feed(ImuSample(t, record["gyro"], record["accel"]))
            elif kind == "slam":
                roll, pitch = self._current_tilt()
                self.sync.push("pose", SurfacePoseState(t, record["x"], record["y"],
                                                        record["yaw"], roll, pitch))
            elif kind == "depth":
                self.sync.push("depth", DepthMeasurement(
                    t, apply_calibration(self.calibration, record["raw"])))
            elif kind == "tag":
                obs = TagObservation(t, record["corners"])
                self.sync.push("tag", obs)
                # one bundle for every method; each estimator checks its own streams
                bundle = self.sync.synchronize(obs.timestamp)
            else:
                _float(t, "t must be a finite number")
        except (ValueError, AquaposError):
            self.counters[f"{kind}_rejected"] += 1
            return []
        if kind != "tag":
            return []
        estimates = []
        for method in self.methods:
            try:
                if method == "cpnp":
                    estimates.append(estimate_cpnp(
                        bundle, self.rig, self.intrinsics, self.tag_geometry,
                        self.staleness_bound, self.marker_offset))
                else:
                    estimates.append(estimate_cd(
                        bundle, self.rig, self.intrinsics,
                        self.staleness_bound, self.marker_offset))
            except AquaposError as exc:
                self.counters[f"{method}_skipped"] += 1
                log.debug("t=%.3f: %s skipped (%s)", bundle.timestamp, method, exc)
        return estimates
