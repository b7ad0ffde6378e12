"""The benchmark's workloads: one run configuration and CLI flow each.

Every workload runs the real CLI chain, ``simulate -> [calibrate-depth]
-> estimate -> evaluate``, then replays the same dataset through
``EstimationPipeline.process`` one record at a time for the online
per-frame latency. Simulated durations are shorter than the CLI's 120 s
default so that one run repeats the chain several times: the medians
then average over the machine's speed drift, and the repeats double as
the byte-identical determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = ("cpnp", "cd")

# The simulated depth sensor of the cd flow: raw = (depth - offset) / scale.
DEPTH_SENSOR = {"scale": 1.05, "offset": -0.03}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # run configuration YAML, as a mapping
    check: str  # the accuracy check: "noise-ordering", "fit" or "exact"
    methods: tuple = ALL_METHODS
    calibrate: bool = False  # fit the depth sensor and estimate with the fit

    @property
    def duration(self) -> float:
        return self.config["simulation"]["trajectory"]["duration"]

    @property
    def method_arg(self) -> str:
        return "both" if self.methods == ALL_METHODS else self.methods[0]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "square-noisy",
            "README quick start with CLI defaults and both methods; PnP is most "
            "of estimate, so the camera layer dominates",
            {"simulation": {"trajectory": {"duration": 40.0}}},
            check="noise-ordering",
        ),
        Workload(
            "cd-dense-imu",
            "cd deployment flow: biased depth sensor, 400 Hz IMU, PSO fit, cd "
            "only; PnP never runs, the tilt EKF and JSONL parsing dominate",
            {
                "depth_calibration": dict(DEPTH_SENSOR),
                "simulation": {
                    "trajectory": {"duration": 34.0},
                    "rates": {"imu": 400},
                },
            },
            check="fit",
            methods=("cd",),
            calibrate=True,
        ),
        Workload(
            "noiseless-exact",
            "criterion 1's noiseless config on a lawnmower path: exact corners "
            "converge fast and all streams share timestamps, so staleness is 0",
            {
                "simulation": {
                    "trajectory": {"pattern": "lawnmower", "duration": 34.0},
                    "rates": {"camera": 30, "imu": 30, "depth": 30,
                              "slam": 30, "truth": 30},
                    "noise": {
                        "pixel_sigma": 0.0,
                        "gyro_sigma": 0.0,
                        "accel_sigma": 0.0,
                        "depth_sigma": 0.0,
                        "slam_xy_sigma": 0.0,
                        "slam_yaw_sigma_deg": 0.0,
                        "tilt_amplitude_deg": 0.0,
                    },
                },
            },
            check="exact",
        ),
    )
}
