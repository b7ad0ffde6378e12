"""The benchmark's workload configurations, and their simulated runs made
once per test session for every test that replays them."""

import dataclasses

import pytest

from aquapos.config import load_run_config
from aquapos.simulator import Simulator

# the benchmark's three workload configurations
WORKLOAD_CONFIGS = {
    "square-noisy": "simulation: {trajectory: {duration: 40.0}}\n",
    "cd-dense-imu": ("depth_calibration: {scale: 1.05, offset: -0.03}\n"
                     "simulation: {trajectory: {duration: 34.0}, rates: {imu: 400}}\n"),
    "noiseless-exact": (
        "simulation:\n"
        "  trajectory: {pattern: lawnmower, duration: 34.0}\n"
        "  rates: {camera: 30, imu: 30, depth: 30, slam: 30, truth: 30}\n"
        "  noise: {pixel_sigma: 0.0, gyro_sigma: 0.0, accel_sigma: 0.0, depth_sigma: 0.0,\n"
        "          slam_xy_sigma: 0.0, slam_yaw_sigma_deg: 0.0, tilt_amplitude_deg: 0.0}\n"),
}


@pytest.fixture(scope="session")
def workload_run(tmp_path_factory):
    """run(workload, seed) -> (config path, RunConfig, records): the workload's
    config file and its simulated records for that seed, made on first use
    and shared for the session. Callers must not change the records."""
    root = tmp_path_factory.mktemp("workloads")
    runs = {}

    def run(workload, seed):
        if (workload, seed) not in runs:
            path = root / f"{workload}.yaml"
            path.write_text(WORKLOAD_CONFIGS[workload], encoding="utf-8")
            cfg = load_run_config(path)
            records, _ = Simulator(dataclasses.replace(cfg.trajectory, seed=seed), cfg,
                                   dataclasses.replace(cfg.noise, seed=seed)).run()
            runs[workload, seed] = path, cfg, records
        return runs[workload, seed]

    return run
