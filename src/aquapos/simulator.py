"""Deterministic synthetic world for exercising the estimators.

The underwater marker follows a generated trajectory (square, lawnmower
or random waypoint chain) with an oscillating depth profile. A surface
vehicle carrying the camera follows it with a proportional visual servo
on the tag's center pixel. Sensor records (tag corners, IMU, depth,
SLAM pose, ground truth) are synthesized at configurable rates from the
analytic world state, with each noise source drawing from its own
seeded stream so that runs are bit-reproducible.

World frame: z up, water surface at z = 0, tank centered on the origin.
The marker holds its tag flat, normal up; the camera looks down.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import GRAVITY
from .camera import DEFAULT_INTRINSICS, Intrinsics, TagGeometry, back_project
from .depth_calibration import IDENTITY_CALIBRATION, CalibrationParams, _check_seed
from .errors import BehindCamera, ParallelToPlane, RegionTooSmall
from .estimators import RigExtrinsics, default_rig
from .geometry import RigidTransform, _zplane_hit, euler_zyx_to_rotation

MARGIN = 0.4  # trajectory inset from the region walls, metres

# fixed wave shape for the scripted surface tilt: pitch runs at a
# slightly different frequency and phase than roll so they decorrelate
_TILT_PITCH_RATE_RATIO = 0.8
_TILT_PITCH_PHASE = 0.7

_PATTERNS = ("square", "lawnmower", "random")

# merge priority for records sharing a timestamp: sensors before the
# camera so a frame never sees a stale sample that exists at its own time
_STREAM_PRIORITY = {"imu": 0, "slam": 1, "depth": 2, "truth": 3, "camera": 4}


@dataclass(frozen=True)
class TrajectorySpec:
    """Marker path description inside the tank region."""

    pattern: str = "square"
    region: tuple = (4.8, 3.6, 2.0)
    speed: float = 0.2
    duration: float = 120.0
    depth_mean: float = 1.2
    depth_amplitude: float = 0.5
    depth_period: float = 25.0
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if len(self.region) != 3 or any(r <= 0 for r in self.region):
            raise ValueError("region must be three positive extents")
        numbers = (*self.region, self.speed, self.duration, self.depth_mean,
                   self.depth_amplitude, self.depth_period)
        if not all(map(math.isfinite, numbers)):
            raise ValueError("trajectory values must be finite")
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


@dataclass(frozen=True)
class NoiseModel:
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
    seed: int = 0

    def __post_init__(self):
        sigmas = (self.pixel_sigma, self.gyro_sigma, self.accel_sigma,
                  self.depth_sigma, self.slam_xy_sigma, self.slam_yaw_sigma)
        if any(s < 0 for s in sigmas):
            raise ValueError("noise sigmas must be non-negative")
        numbers = (*sigmas, self.tilt_frequency, self.dropout_base, self.dropout_per_metre)
        if not all(map(math.isfinite, numbers)):
            raise ValueError("noise values must be finite")
        if not 0.0 <= self.tilt_amplitude <= math.radians(10.0) + 1e-12:
            raise ValueError("tilt amplitude must lie in [0, 10] degrees")
        if self.tilt_frequency < 0:
            raise ValueError("tilt frequency must be non-negative")
        if self.dropout_base < 0 or self.dropout_per_metre < 0:
            raise ValueError("dropout coefficients must be non-negative")
        _check_seed(self.seed)

    @classmethod
    def zero(cls, seed: int = 0) -> "NoiseModel":
        """All sigmas, the tilt wave, and dropout switched off."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, seed)

    def p_drop(self, depth: float) -> float:
        return min(max(self.dropout_base + self.dropout_per_metre * depth, 0.0), 1.0)


@dataclass(frozen=True)
class SampleRates:
    """Per-stream sample rates, Hz."""

    camera: float = 30.0
    imu: float = 100.0
    depth: float = 15.0
    slam: float = 40.0
    truth: float = 100.0

    def __post_init__(self):
        for r in (self.camera, self.imu, self.depth, self.slam, self.truth):
            if not 0 < r < math.inf:
                raise ValueError("sample rates must be positive and finite")


@dataclass(frozen=True)
class FollowerConfig:
    """Center-pixel proportional servo parameters."""

    gain_x: float = 2.5
    gain_y: float = 2.5
    deadband_px: float = 5.0
    max_speed: float = 0.6
    hold_decay: float = 1.0

    def __post_init__(self):
        # the negated forms also reject nan
        if not (self.gain_x >= 0 and self.gain_y >= 0):
            raise ValueError("gains must be non-negative")
        if not self.deadband_px >= 0:
            raise ValueError("deadband must be non-negative")
        if not self.max_speed > 0:
            raise ValueError("max speed must be positive")
        if not self.hold_decay > 0:
            raise ValueError("hold decay time must be positive")


@dataclass(frozen=True)
class SceneConfig:
    """Everything about the rig and world that is not the trajectory."""

    intrinsics: Intrinsics = field(default_factory=lambda: DEFAULT_INTRINSICS)
    rig: RigExtrinsics = field(default_factory=default_rig)
    tag: TagGeometry = field(default_factory=TagGeometry)
    depth_params: CalibrationParams = IDENTITY_CALIBRATION
    follower: FollowerConfig = field(default_factory=FollowerConfig)
    rates: SampleRates = field(default_factory=SampleRates)
    yaw_amplitude: float = 0.15
    yaw_period: float = 40.0

    def __post_init__(self):
        if self.yaw_amplitude < 0 or not np.isfinite(self.yaw_amplitude):
            raise ValueError("yaw amplitude must be non-negative and finite")
        if not 0 < self.yaw_period < math.inf:
            raise ValueError("yaw period must be positive and finite")


class MarkerTrajectory:
    """Constant-speed travel along a 2-d polyline plus a depth wave."""

    def __init__(self, waypoints, mode: str, speed: float,
                 depth_mean: float, depth_amplitude: float, depth_period: float):
        wp = np.asarray(waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[0] < 2 or wp.shape[1] != 2:
            raise ValueError("need at least two 2-d waypoints")
        if mode not in ("loop", "pingpong", "clamp"):
            raise ValueError(f"unknown mode {mode!r}")
        segs = np.diff(wp, axis=0)
        lengths = np.linalg.norm(segs, axis=1)
        if np.any(lengths <= 1e-12):
            raise ValueError("degenerate zero-length segment")
        # the per-sample lookups run on Python floats
        self._wp = wp.tolist()
        self._mode = mode
        self._speed = speed
        self._cum = np.concatenate([[0.0], np.cumsum(lengths)]).tolist()
        self._headings = np.arctan2(segs[:, 1], segs[:, 0]).tolist()
        self._depth_mean = depth_mean
        self._depth_amplitude = depth_amplitude
        self._depth_period = depth_period

    @property
    def waypoints(self) -> np.ndarray:
        return np.array(self._wp)

    @property
    def total_length(self) -> float:
        return self._cum[-1]

    def _arc(self, t: float) -> float:
        s = self._speed * t
        total = self._cum[-1]
        if self._mode == "loop":
            return s % total
        if self._mode == "pingpong":
            m = s % (2.0 * total)
            return m if m <= total else 2.0 * total - m
        return min(s, total)

    def _segment(self, s: float) -> int:
        i = bisect.bisect_right(self._cum, s) - 1
        return min(max(i, 0), len(self._headings) - 1)

    def depth(self, t: float) -> float:
        return self._depth_mean + self._depth_amplitude * math.sin(
            2.0 * math.pi * t / self._depth_period
        )

    def _xyz(self, t: float) -> tuple:
        """position(t) as a tuple of Python floats."""
        s = self._arc(t)
        i = self._segment(s)
        c0 = self._cum[i]
        frac = (s - c0) / (self._cum[i + 1] - c0)
        (x0, y0), (x1, y1) = self._wp[i], self._wp[i + 1]
        return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0), -self.depth(t)

    def position(self, t: float) -> np.ndarray:
        return np.array(self._xyz(t))

    def yaw(self, t: float) -> float:
        return self._headings[self._segment(self._arc(t))]


def gen_trajectory(spec: TrajectorySpec) -> MarkerTrajectory:
    """Build the marker path for a spec; raises RegionTooSmall if it cannot fit."""
    rx, ry, _ = spec.region
    if spec.pattern == "square":
        side = min(rx, ry) - 2.0 * MARGIN
        if side <= 0.2:
            raise RegionTooSmall("square pattern needs a region span > 1 m")
        h = side / 2.0
        wp = [(-h, -h), (h, -h), (h, h), (-h, h), (-h, -h)]
        mode = "loop"
    elif spec.pattern == "lawnmower":
        x0, x1 = -(rx / 2.0 - MARGIN), rx / 2.0 - MARGIN
        if x1 - x0 <= 0.2:
            raise RegionTooSmall("lawnmower legs would be too short")
        y_top = ry / 2.0 - MARGIN
        ys = []
        y = -y_top
        while y <= y_top + 1e-9:
            ys.append(y)
            y += 1.0
        if len(ys) < 2:
            raise RegionTooSmall("lawnmower pattern needs room for two legs")
        wp = []
        for i, yy in enumerate(ys):
            ends = (x0, x1) if i % 2 == 0 else (x1, x0)
            wp.append((ends[0], yy))
            wp.append((ends[1], yy))
        mode = "pingpong"
    else:  # random
        bx, by = rx / 2.0 - MARGIN, ry / 2.0 - MARGIN
        if math.hypot(2 * bx, 2 * by) < 0.5:
            raise RegionTooSmall("region cannot host 0.5 m waypoint legs")
        rng = np.random.default_rng(spec.seed)
        wp = [rng.uniform((-bx, -by), (bx, by))]
        total = 0.0
        needed = spec.speed * spec.duration + 1.0
        while total < needed:
            for _ in range(1000):
                cand = rng.uniform((-bx, -by), (bx, by))
                leg = float(np.linalg.norm(cand - wp[-1]))
                if leg >= 0.5:
                    break
            else:
                raise RegionTooSmall("could not place a 0.5 m leg")
            wp.append(cand)
            total += leg
        mode = "clamp"
    return MarkerTrajectory(wp, mode, spec.speed, spec.depth_mean,
                            spec.depth_amplitude, spec.depth_period)


class Follower:
    """Proportional servo that chases the tag's ground point.

    The observed center pixel is back-projected through the camera
    rotation and intersected with the marker's depth plane; the planar
    offset between that ground point and the camera's own ground
    position is the error the gains act on. When the tag is not seen the
    last command is held, fading linearly to zero over the hold time.
    """

    def __init__(self, intrinsics: Intrinsics, cfg: FollowerConfig):
        self.intrinsics = intrinsics
        self.cfg = cfg
        self._command = np.zeros(2)
        self._blind_time = 0.0

    def step(self, center_pixel, camera_to_world: RigidTransform,
             plane_z: float, dt: float) -> np.ndarray:
        """One control update; center_pixel is None when the tag was missed."""
        if center_pixel is None:
            self._blind_time += dt
            fade = max(0.0, 1.0 - self._blind_time / self.cfg.hold_decay)
            return self._command * fade
        self._blind_time = 0.0
        try:
            ray = back_project(self.intrinsics, center_pixel)
        except BehindCamera:
            # a center too far off axis, or not finite, has no ground point:
            # keep the last command, as for a grazing ray
            return self._command
        err = np.asarray(center_pixel, dtype=float) - np.array(
            [self.intrinsics.cx, self.intrinsics.cy]
        )
        if np.linalg.norm(err) <= self.cfg.deadband_px:
            self._command = np.zeros(2)
            return self._command
        ox, oy, oz = camera_to_world.translation.tolist()
        dx, dy, dz = (camera_to_world.rotation @ ray).tolist()
        try:
            gx, gy, _ = _zplane_hit(ox, oy, oz, dx, dy, dz, plane_z)
        except ParallelToPlane:
            # grazing ray, no usable ground point: keep the last command
            return self._command
        v = np.array([self.cfg.gain_x * (gx - ox), self.cfg.gain_y * (gy - oy)])
        speed = np.linalg.norm(v)
        if speed > self.cfg.max_speed:
            v *= self.cfg.max_speed / speed
        self._command = v
        return self._command


# Rows per numpy call. Keep it small: 64-row chunks raised the cd-dense-imu
# benchmark's peak RSS by about 2.7 MB, where 8-row chunks match the
# per-record draws.
_DRAW_CHUNK = 8


def _draws(draw, n: int, shape: tuple = ()):
    """n draws of the given shape as Python floats, _DRAW_CHUNK per call.

    A generator's stream runs in order, so the k-th item equals what the
    k-th of n draw(size=shape) calls would return.
    """
    for start in range(0, n, _DRAW_CHUNK):
        yield from draw(size=(min(_DRAW_CHUNK, n - start), *shape)).tolist()


class Simulator:
    """Steps the world and emits the merged, time-ordered record stream.

    All records but the camera's are computed on Python floats. Each noise
    stream is drawn in batches (see _draws), and the k-th record of a
    stream gets what it would have drawn alone, so the records match a
    record-by-record draw bit for bit.
    """

    def __init__(self, spec: TrajectorySpec, scene: SceneConfig | None = None,
                 noise: NoiseModel | None = None):
        self.spec = spec
        self.scene = scene if scene is not None else SceneConfig()
        self.noise = noise if noise is not None else NoiseModel()
        self.trajectory = gen_trajectory(spec)

        streams = np.random.SeedSequence(self.noise.seed).spawn(6)
        self._rng_pixel = np.random.default_rng(streams[0])
        self._rng_gyro = np.random.default_rng(streams[1])
        self._rng_accel = np.random.default_rng(streams[2])
        self._rng_depth = np.random.default_rng(streams[3])
        self._rng_slam = np.random.default_rng(streams[4])
        self._rng_drop = np.random.default_rng(streams[5])

        x, y, _ = self.trajectory._xyz(0.0)
        self._surface_xy = (x + 0.15, y - 0.10)
        self._command = (0.0, 0.0)
        self._t_last = 0.0
        self._follower = Follower(self.scene.intrinsics, self.scene.follower)
        self._tag_corners = list(self.scene.tag.corners())
        self.stats = {"camera_frames": 0, "in_frustum": 0, "tags_emitted": 0}

    # --- analytic world state ---------------------------------------

    def _tilt(self, t: float):
        a = self.noise.tilt_amplitude
        f = self.noise.tilt_frequency
        roll = a * math.sin(2.0 * math.pi * f * t)
        pitch = a * math.sin(
            2.0 * math.pi * _TILT_PITCH_RATE_RATIO * f * t + _TILT_PITCH_PHASE
        )
        return roll, pitch

    def _tilt_rates(self, t: float):
        a = self.noise.tilt_amplitude
        f = self.noise.tilt_frequency
        wr = 2.0 * math.pi * f
        wp = 2.0 * math.pi * _TILT_PITCH_RATE_RATIO * f
        return a * wr * math.cos(wr * t), a * wp * math.cos(wp * t + _TILT_PITCH_PHASE)

    def _yaw(self, t: float) -> float:
        return self.scene.yaw_amplitude * math.sin(
            2.0 * math.pi * t / self.scene.yaw_period
        )

    def _yaw_rate(self, t: float) -> float:
        w = 2.0 * math.pi / self.scene.yaw_period
        return self.scene.yaw_amplitude * w * math.cos(w * t)

    def _camera_to_world(self, t: float) -> RigidTransform:
        roll, pitch = self._tilt(t)
        R_wb = euler_zyx_to_rotation(self._yaw(t), pitch, roll)
        t_wb = np.array([*self._surface_xy, self.scene.rig.body_height])
        cam = self.scene.rig.camera_in_body
        return RigidTransform._unchecked(R_wb @ cam.rotation,
                                         R_wb @ cam.translation + t_wb)

    # --- per-stream record synthesis --------------------------------
    # gn, an, n, pixel_noise: this record's standard-normal draws; u: its uniform draw

    def _imu_record(self, t: float, gn, an) -> dict:
        roll, pitch = self._tilt(t)
        roll_rate, pitch_rate = self._tilt_rates(t)
        yaw_rate = self._yaw_rate(t)
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        gs, acs = self.noise.gyro_sigma, self.noise.accel_sigma
        # specific force R_wb^T (0, 0, -g) is the third row of R_wb times -g.
        # The matrix product this replaces sums onto +0.0, so an all-zero
        # component is +0.0 whatever its terms' signs: hence the + 0.0
        return {"t": t, "kind": "imu",
                "gyro": [roll_rate - yaw_rate * sp + gs * gn[0],
                         pitch_rate * cr + yaw_rate * cp * sr + gs * gn[1],
                         -pitch_rate * sr + yaw_rate * cp * cr + gs * gn[2]],
                "accel": [-sp * -GRAVITY + 0.0 + acs * an[0],
                          cp * sr * -GRAVITY + 0.0 + acs * an[1],
                          cp * cr * -GRAVITY + 0.0 + acs * an[2]]}

    def _slam_record(self, t: float, n) -> dict:
        x, y = self._surface_xy
        xy_sigma = self.noise.slam_xy_sigma
        return {"t": t, "kind": "slam",
                "x": x + xy_sigma * n[0],
                "y": y + xy_sigma * n[1],
                "yaw": self._yaw(t) + self.noise.slam_yaw_sigma * n[2]}

    def _depth_record(self, t: float, n: float) -> dict:
        d = self.trajectory.depth(t)
        raw = (d - self.scene.depth_params.offset) / self.scene.depth_params.scale
        return {"t": t, "kind": "depth", "raw": raw + self.noise.depth_sigma * n}

    def _truth_record(self, t: float) -> dict:
        return {"t": t, "kind": "truth", "p": list(self.trajectory._xyz(t))}

    def _camera_record(self, t: float, dt: float, pixel_noise, u: float):
        """The tag record, or None when the tag is out of view or dropped.

        The projection keeps numpy's 3x3 products: a scalar sum rounds
        differently from them, and the dataset bytes would move.
        """
        self.stats["camera_frames"] += 1
        cam = self._camera_to_world(t)
        marker = self.trajectory.position(t)
        yaw = self.trajectory.yaw(t)
        c, s = math.cos(yaw), math.sin(yaw)
        R_wm = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        R_cw = cam.rotation.T
        K = self.scene.intrinsics
        pixels = []
        for corner in self._tag_corners:
            x, y, z = (R_cw @ (R_wm @ corner + marker - cam.translation)).tolist()
            if z <= 1e-6:
                break
            px, py = K.fx * x / z + K.cx, K.fy * y / z + K.cy
            if not (0.0 <= px <= K.width and 0.0 <= py <= K.height):
                break
            pixels.append((px, py))

        record = None
        center = None
        if len(pixels) == 4:
            self.stats["in_frustum"] += 1
            if u >= self.noise.p_drop(self.trajectory.depth(t)):
                # on Python floats a huge sigma overflows to inf without a
                # numpy warning; write_records then names the record. The
                # sums are numpy's mean over the corners, term for term.
                s = self.noise.pixel_sigma
                corners = [[px + s * nx, py + s * ny]
                           for (px, py), (nx, ny) in zip(pixels, pixel_noise)]
                (u0, v0), (u1, v1), (u2, v2), (u3, v3) = corners
                center = ((u0 + u1 + u2 + u3) / 4, (v0 + v1 + v2 + v3) / 4)
                record = {"t": t, "kind": "tag", "corners": corners}
                self.stats["tags_emitted"] += 1
        self._command = tuple(
            self._follower.step(center, cam, marker[2], dt).tolist())
        return record

    # --- main loop ----------------------------------------------------

    def stream(self):
        """Yield the merged records in time order; self.stats counts the frames."""
        rates = self.scene.rates
        counts = {
            name: int(math.floor(getattr(rates, name) * self.spec.duration + 1e-9))
            for name in _STREAM_PRIORITY
        }
        gyro = _draws(self._rng_gyro.normal, counts["imu"], (3,))
        accel = _draws(self._rng_accel.normal, counts["imu"], (3,))
        slam = _draws(self._rng_slam.normal, counts["slam"], (3,))
        depth = _draws(self._rng_depth.normal, counts["depth"])
        # camera frames draw from both streams whether or not a tag is emitted
        pixel = _draws(self._rng_pixel.normal, counts["camera"], (4, 2))
        drop = _draws(self._rng_drop.uniform, counts["camera"])

        heap = [(0.0, prio, name, 0)
                for name, prio in _STREAM_PRIORITY.items() if counts[name] > 0]
        heapq.heapify(heap)
        while heap:
            t, prio, name, k = heapq.heappop(heap)
            dt = t - self._t_last
            if dt > 0:
                (x, y), (vx, vy) = self._surface_xy, self._command
                self._surface_xy = (x + vx * dt, y + vy * dt)
                self._t_last = t
            if name == "imu":
                yield self._imu_record(t, next(gyro), next(accel))
            elif name == "slam":
                yield self._slam_record(t, next(slam))
            elif name == "depth":
                yield self._depth_record(t, next(depth))
            elif name == "truth":
                yield self._truth_record(t)
            else:
                rec = self._camera_record(t, 1.0 / rates.camera, next(pixel), next(drop))
                if rec is not None:
                    yield rec
            if k + 1 < counts[name]:
                rate = getattr(rates, name)
                heapq.heappush(heap, ((k + 1) / rate, prio, name, k + 1))

    def run(self):
        """Produce the merged record stream; returns (records, stats)."""
        records = list(self.stream())
        return records, dict(self.stats)
