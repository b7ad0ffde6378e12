"""Deterministic synthetic world for exercising the estimators.

The underwater marker follows a generated trajectory (square, lawnmower
or random waypoint chain) with an oscillating depth profile. A surface
vehicle carrying the camera follows it with a proportional visual servo
on the tag's center pixel. Sensor records (tag corners, IMU, depth,
SLAM pose, ground truth) are synthesized at configurable rates from the
analytic world state, with each noise source drawing from its own
seeded stream so that runs are bit-reproducible. Every record is computed
on Python floats (see geometry._mat_mul) and every angle, the path's
headings too, by libm's math functions, so the bytes match on any CPU.

The settings it runs from (TrajectorySpec, NoiseModel, SampleRates,
FollowerConfig, SceneConfig) and the run-size bounds are defined in
aquapos.config, so that loading a config does not import this module; the
CLI imports it only for the simulate command.

World frame: z up, water surface at z = 0, tank centered on the origin.
The marker holds its tag flat, normal up; the camera looks down.
"""

from __future__ import annotations

import bisect
import heapq
import math
from itertools import chain

from ._numpy import np
from .attitude import GRAVITY
from .camera import Intrinsics, _center, _pixel_ray, _project
from .config import (FollowerConfig, NoiseModel, SceneConfig, TrajectorySpec,
                     random_path_length, record_count)
from .errors import BehindCamera, ParallelToPlane, RegionTooSmall
from .estimators import _camera_in_world
from .geometry import _mat_t_vec, _mat_vec, _zplane_hit

MARGIN = 0.4  # trajectory inset from the region walls, metres

# fixed wave shape for the scripted surface tilt: pitch runs at a
# slightly different frequency and phase than roll so they decorrelate
_TILT_PITCH_RATE_RATIO = 0.8
_TILT_PITCH_PHASE = 0.7

# merge priority for records sharing a timestamp: sensors before the
# camera so a frame never sees a stale sample that exists at its own time
_STREAM_PRIORITY = {"imu": 0, "slam": 1, "depth": 2, "truth": 3, "camera": 4}

# random-pattern leg candidates per numpy call; 1,000 per leg is 125 calls
_LEG_BATCH = 8


class MarkerTrajectory:
    """Constant-speed travel along a 2-d polyline plus a depth wave."""

    def __init__(self, waypoints, mode: str, speed: float,
                 depth_mean: float, depth_amplitude: float, depth_period: float):
        wp = np.asarray(waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[0] < 2 or wp.shape[1] != 2:
            raise ValueError("need at least two 2-d waypoints")
        if mode not in ("loop", "pingpong", "clamp"):
            raise ValueError(f"unknown mode {mode!r}")
        segs = np.diff(wp, axis=0).tolist()
        lengths = [math.sqrt(dx * dx + dy * dy) for dx, dy in segs]
        if min(lengths) <= 1e-12:
            raise ValueError("degenerate zero-length segment")
        # the per-sample lookups run on Python floats
        self._wp = wp.tolist()
        self._mode = mode
        self._speed = speed
        self._cum = np.concatenate([[0.0], np.cumsum(lengths)]).tolist()
        # libm's atan2: numpy's arctan2 loop is chosen by CPU, its last bit too
        self._headings = [math.atan2(dy, dx) for dx, dy in segs]
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

    def pose(self, t: float) -> tuple:
        """The marker's (x, y, z, heading) at time t, as Python floats, from
        one arc and segment lookup."""
        s = self._arc(t)
        i = self._segment(s)
        c0 = self._cum[i]
        frac = (s - c0) / (self._cum[i + 1] - c0)
        (x0, y0), (x1, y1) = self._wp[i], self._wp[i + 1]
        return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0), -self.depth(t),
                self._headings[i])

    def position(self, t: float) -> tuple:
        """The marker's (x, y, z) at time t, as Python floats."""
        x, y, z, _ = self.pose(t)
        return x, y, z


def _leg_candidates(rng, bx, by):
    """The random pattern's candidates for one leg: at most 1,000 uniform
    points of [-bx, bx) x [-by, by), drawn _LEG_BATCH at a time from rng. The
    rest of a batch is dropped once a leg is placed, so each candidate is
    still an independent uniform point."""
    for _ in range(1000 // _LEG_BATCH):
        for u, v in rng.random((_LEG_BATCH, 2)).tolist():
            yield (2.0 * u - 1.0) * bx, (2.0 * v - 1.0) * by


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
        x, y = next(_leg_candidates(rng, bx, by))  # the first waypoint may lie anywhere
        wp = [(x, y)]
        total = 0.0
        needed = random_path_length(spec.speed, spec.duration)
        while total < needed:
            for cx, cy in _leg_candidates(rng, bx, by):
                dx, dy = cx - x, cy - y
                leg = math.sqrt(dx * dx + dy * dy)
                if leg >= 0.5:
                    break
            else:
                raise RegionTooSmall("could not place a 0.5 m leg")
            x, y = cx, cy
            wp.append((x, y))
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
        self._command = (0.0, 0.0)
        self._blind_time = 0.0

    def step(self, center_pixel, camera_to_world: tuple,
             plane_z: float, dt: float) -> tuple:
        """One control update to the command (vx, vy), from the camera-in-world
        (R, t) of estimators._camera_in_world; center_pixel is None when the
        tag was missed."""
        if center_pixel is None:
            self._blind_time += dt
            fade = max(0.0, 1.0 - self._blind_time / self.cfg.hold_decay)
            vx, vy = self._command
            return vx * fade, vy * fade
        self._blind_time = 0.0
        u, v = center_pixel
        try:
            ray = _pixel_ray(self.intrinsics, u, v)
        except BehindCamera:
            # a center too far off axis, or not finite, has no ground point:
            # keep the last command, as for a grazing ray
            return self._command
        ex, ey = u - self.intrinsics.cx, v - self.intrinsics.cy
        if math.sqrt(ex * ex + ey * ey) <= self.cfg.deadband_px:
            self._command = (0.0, 0.0)
            return self._command
        R, (ox, oy, oz) = camera_to_world
        try:
            gx, gy, _ = _zplane_hit(ox, oy, oz, *_mat_vec(R, ray), plane_z)
        except ParallelToPlane:
            # grazing ray, no usable ground point: keep the last command
            return self._command
        vx, vy = self.cfg.gain_x * (gx - ox), self.cfg.gain_y * (gy - oy)
        speed = math.sqrt(vx * vx + vy * vy)
        if speed > self.cfg.max_speed:
            scale = self.cfg.max_speed / speed
            vx, vy = vx * scale, vy * scale
        self._command = (vx, vy)
        return self._command


# Rows per numpy call. A chunk is read through a memoryview, which makes each
# float only as its row is taken, so a chunk holds just its float64 buffer
# (16 KB at most). The cd-dense-imu benchmark's peak RSS read 51.03 MB at 256
# rows (median of 10 runs), within 0.2 MB of 8-row chunks of nested lists, and
# 32 to 512 rows read within 0.3 MB of each other. Nested lists cost about
# 2.7 MB at 64 rows.
_DRAW_CHUNK = 256

# the frame counts a stream keeps, as Simulator.stats
_FRAME_COUNTS = ("camera_frames", "in_frustum", "tags_emitted")


def _draws(draw, n: int, width: int = 1):
    """n draws of width values each, _DRAW_CHUNK draws per numpy call: a
    Python float per draw for width 1, else a tuple of width floats.

    A generator's stream runs in order, so the k-th item equals what the
    k-th of n draw(size=width) calls would return.
    """
    def rows(start):
        flat = memoryview(draw(size=min(_DRAW_CHUNK, n - start) * width))
        if width == 1:
            return flat
        values = iter(flat)
        return zip(*[values] * width)

    return chain.from_iterable(map(rows, range(0, n, _DRAW_CHUNK)))


class Simulator:
    """Steps the world and emits the merged, time-ordered record stream.

    Every record is computed on Python floats. Each noise stream is drawn
    in batches (see _draws), and the k-th record of a stream gets what it
    would have drawn alone, so the records match a record-by-record draw
    bit for bit. Each stream() starts the noise streams and the world over,
    so every run of one simulator is the seeded run.
    """

    def __init__(self, spec: TrajectorySpec, scene: SceneConfig | None = None,
                 noise: NoiseModel | None = None):
        self.spec = spec
        self.scene = scene if scene is not None else SceneConfig()
        self.noise = noise if noise is not None else NoiseModel()
        rates = self.scene.rates
        self._rates = {name: getattr(rates, name) for name in _STREAM_PRIORITY}
        self._counts = {name: record_count(rate, spec.duration)
                        for name, rate in self._rates.items()}
        self._frame_dt = 1.0 / self._rates["camera"]
        self.trajectory = gen_trajectory(spec)
        # pixel, gyro, accel, depth, slam and dropout noise, in that order
        self._seeds = np.random.SeedSequence(self.noise.seed).spawn(6)
        self.stats = dict.fromkeys(_FRAME_COUNTS, 0)

        # the tilt wave's amplitude and rates, the wave rates' amplitude
        # products in the order the per-sample formulas multiply them, so each
        # sample's bits stay put, and the IMU sigmas: one tuple, read once a
        # sample
        a, f = self.noise.tilt_amplitude, self.noise.tilt_frequency
        w_roll = 2.0 * math.pi * f
        w_pitch = 2.0 * math.pi * _TILT_PITCH_RATE_RATIO * f
        w_yaw = 2.0 * math.pi / self.scene.yaw_period
        self._imu_constants = (a, w_roll, w_pitch, w_yaw, a * w_roll, a * w_pitch,
                               self.scene.yaw_amplitude * w_yaw,
                               self.noise.gyro_sigma, self.noise.accel_sigma)

    # --- analytic world state ---------------------------------------

    def _yaw(self, t: float) -> float:
        return self.scene.yaw_amplitude * math.sin(
            2.0 * math.pi * t / self.scene.yaw_period
        )

    def _camera_to_world(self, t: float, sx: float, sy: float) -> tuple:
        """The camera's (R, origin) in the world at time t, with the surface
        vehicle at (sx, sy)."""
        a, w_roll, w_pitch = self._imu_constants[:3]
        roll = a * math.sin(w_roll * t)
        pitch = a * math.sin(w_pitch * t + _TILT_PITCH_PHASE)
        return _camera_in_world(self._yaw(t), pitch, roll, sx, sy, self.scene.rig)

    # --- per-stream record synthesis --------------------------------
    # gn, an, n, pixel_noise: this record's standard-normal draws; u: its
    # uniform draw; (sx, sy): the surface vehicle's position at t

    def _imu_record(self, t: float, gn, an) -> dict:
        (a, w_roll, w_pitch, w_yaw, roll_rate_amplitude, pitch_rate_amplitude,
         yaw_rate_amplitude, gs, acs) = self._imu_constants
        # each wave's phase once, for its angle and its rate
        roll_phase = w_roll * t
        pitch_phase = w_pitch * t + _TILT_PITCH_PHASE
        roll, pitch = a * math.sin(roll_phase), a * math.sin(pitch_phase)
        roll_rate = roll_rate_amplitude * math.cos(roll_phase)
        pitch_rate = pitch_rate_amplitude * math.cos(pitch_phase)
        yaw_rate = yaw_rate_amplitude * math.cos(w_yaw * t)
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        gn0, gn1, gn2 = gn
        an0, an1, an2 = an
        # specific force R_wb^T (0, 0, -g), by hand: the third row of R_wb times
        # -g. The numpy product this replaced sums onto +0.0, so an all-zero
        # component is +0.0 whatever its terms' signs: hence the + 0.0
        return {"t": t, "kind": "imu",
                "gyro": [roll_rate - yaw_rate * sp + gs * gn0,
                         pitch_rate * cr + yaw_rate * cp * sr + gs * gn1,
                         -pitch_rate * sr + yaw_rate * cp * cr + gs * gn2],
                "accel": [-sp * -GRAVITY + 0.0 + acs * an0,
                          cp * sr * -GRAVITY + 0.0 + acs * an1,
                          cp * cr * -GRAVITY + 0.0 + acs * an2]}

    def _slam_record(self, t: float, sx: float, sy: float, n) -> dict:
        n0, n1, n2 = n
        xy_sigma = self.noise.slam_xy_sigma
        return {"t": t, "kind": "slam",
                "x": sx + xy_sigma * n0,
                "y": sy + xy_sigma * n1,
                "yaw": self._yaw(t) + self.noise.slam_yaw_sigma * n2}

    def _depth_record(self, t: float, n: float) -> dict:
        d = self.trajectory.depth(t)
        raw = (d - self.scene.calibration.offset) / self.scene.calibration.scale
        return {"t": t, "kind": "depth", "raw": raw + self.noise.depth_sigma * n}

    def _truth_record(self, t: float) -> dict:
        x, y, z, _ = self.trajectory.pose(t)
        return {"t": t, "kind": "truth", "p": [x, y, z]}

    def _camera_record(self, t: float, sx: float, sy: float, pixel_noise, u: float,
                       follower: Follower, stats: dict) -> tuple:
        """One camera frame: the tag record, or None when the tag is out of
        view or dropped, and the follower's command after the frame; stats
        counts the frame.

        Corner c sits at R^T (R_wm c + m - t) in the camera frame; the terms
        in c's z, 0 in the tag's plane, drop out."""
        stats["camera_frames"] += 1
        cam = self._camera_to_world(t, sx, sy)
        R, (tx, ty, tz) = cam
        mx, my, mz, yaw = self.trajectory.pose(t)
        c, s = math.cos(yaw), math.sin(yaw)
        K = self.scene.intrinsics
        pixels = []
        for qx, qy in self.scene.tag.corners_xy:
            wx, wy, wz = c * qx - s * qy + mx - tx, s * qx + c * qy + my - ty, mz - tz
            pixel = _project(K, *_mat_t_vec(R, (wx, wy, wz)))
            if pixel is None:
                break
            px, py = pixel
            if not (0.0 <= px <= K.width and 0.0 <= py <= K.height):
                break
            pixels.append(pixel)

        record = center = None
        if len(pixels) == 4:
            stats["in_frustum"] += 1
            # -mz is the depth, exactly: the position negates it
            if u >= self.noise.p_drop(-mz):
                # on Python floats a huge sigma overflows to inf without a
                # numpy warning; write_records then names the record
                s = self.noise.pixel_sigma
                noise = iter(pixel_noise)  # x, y of each corner in turn
                corners = [[px + s * nx, py + s * ny]
                           for (px, py), nx, ny in zip(pixels, noise, noise)]
                center = _center(corners)
                record = {"t": t, "kind": "tag", "corners": corners}
                stats["tags_emitted"] += 1
        return record, follower.step(center, cam, mz, self._frame_dt)

    # --- main loop ----------------------------------------------------

    def stream(self):
        """Yield the merged records in time order.

        Each call starts from the seeds and the world's start, so it yields
        the seeded run again. The run's state (the surface vehicle, its
        follower and command, the clock and the frame counts) lives in the
        stream itself, so streams of one simulator are independent and may
        be read in any interleaving. When a stream starts, self.stats becomes
        its frame counts; they are final once it ends."""
        stats = self.stats = dict.fromkeys(_FRAME_COUNTS, 0)
        rates, counts = self._rates, self._counts
        x, y, _ = self.trajectory.position(0.0)
        sx, sy = x + 0.15, y - 0.10
        vx = vy = t_last = 0.0
        follower = Follower(self.scene.intrinsics, self.scene.follower)
        rng_pixel, rng_gyro, rng_accel, rng_depth, rng_slam, rng_drop = (
            np.random.default_rng(seed) for seed in self._seeds)
        gyro = _draws(rng_gyro.normal, counts["imu"], 3)
        accel = _draws(rng_accel.normal, counts["imu"], 3)
        slam = _draws(rng_slam.normal, counts["slam"], 3)
        depth = _draws(rng_depth.normal, counts["depth"])
        # camera frames draw from both streams whether or not a tag is emitted
        pixel = _draws(rng_pixel.normal, counts["camera"], 8)
        drop = _draws(rng_drop.uniform, counts["camera"])
        imu_record, slam_record, depth_record, truth_record, camera_record = (
            self._imu_record, self._slam_record, self._depth_record,
            self._truth_record, self._camera_record)
        heappop, heappush = heapq.heappop, heapq.heappush

        heap = [(0.0, prio, name, 0)
                for name, prio in _STREAM_PRIORITY.items() if counts[name] > 0]
        heapq.heapify(heap)
        while heap:
            t, prio, name, k = heappop(heap)
            dt = t - t_last
            if dt > 0:
                sx, sy = sx + vx * dt, sy + vy * dt
                t_last = t
            if name == "imu":
                yield imu_record(t, next(gyro), next(accel))
            elif name == "slam":
                yield slam_record(t, sx, sy, next(slam))
            elif name == "depth":
                yield depth_record(t, next(depth))
            elif name == "truth":
                yield truth_record(t)
            else:
                record, (vx, vy) = camera_record(t, sx, sy, next(pixel), next(drop),
                                                 follower, stats)
                if record is not None:
                    yield record
            if k + 1 < counts[name]:
                heappush(heap, ((k + 1) / rates[name], prio, name, k + 1))

    def run(self):
        """Produce the merged record stream; returns (records, stats)."""
        records = list(self.stream())
        return records, dict(self.stats)
