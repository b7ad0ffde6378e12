"""Show that the estimators are exact when the world is.

With every noise source at zero and all streams sampled on the same
30 Hz grid, the ray/depth-plane method reproduces the marker position
to better than a nanometre and the transform-chain method to better
than a micrometre. This is the strongest self-check the pipeline has:
any modeling mismatch between simulator and estimator would show up
here as a bias.
"""

import numpy as np

from aquapos import EstimationPipeline, NoiseModel, Simulator, TrajectorySpec
from aquapos.config import SampleRates, SceneConfig


def main():
    rates = SampleRates(camera=30, imu=30, depth=30, slam=30, truth=30)
    scene = SceneConfig(rates=rates)
    for pattern in ("square", "lawnmower", "random"):
        spec = TrajectorySpec(pattern=pattern, duration=60.0, seed=1)
        sim = Simulator(spec, scene, NoiseModel.zero())
        records, _ = sim.run()

        pipeline = EstimationPipeline(scene.rig, scene.intrinsics, scene.tag)
        truth = {}
        worst = {"cpnp": 0.0, "cd": 0.0}
        for rec in records:
            if rec["kind"] == "truth":
                truth[rec["t"]] = np.asarray(rec["p"])
            for est in pipeline.process(rec):
                err = float(np.linalg.norm(est.position - truth[est.timestamp]))
                worst[est.method] = max(worst[est.method], err)

        print(f"{pattern:10s} worst cd {worst['cd']:.3e} m   "
              f"worst cpnp {worst['cpnp']:.3e} m")
        assert worst["cd"] < 1e-9 and worst["cpnp"] < 1e-6


if __name__ == "__main__":
    main()
