"""Metric names, units and directions, and the per-layer metrics from spans.

``END_TO_END`` and ``PER_LAYER`` are mirrored in ``BENCHMARK.json``; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

import numpy as np

import checks
from spans import RECORD_KINDS

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "estimate_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "chain_s": ("s", "lower"),
    "frame_latency_ms_p50": ("ms", "lower"),
    "frame_latency_ms_p99": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cd_med_mm": ("mm", "lower"),
    "max_med_mm": ("mm", "lower"),
    "success_ratio": ("ratio", "higher"),
}

_PROCESS = "estimators.process"

# name -> (unit, better, the hook it is read from); None: from two runs
PER_LAYER = {
    "camera.pnp.calls": ("count", "lower", "camera.pnp"),
    "camera.pnp.us_p50": ("us", "lower", "camera.pnp"),
    "camera.pnp.us_p99": ("us", "lower", "camera.pnp"),
    "camera.pnp.self_s": ("s", "lower", "camera.pnp"),
    "camera.pnp.fail_ratio": ("ratio", "lower", "camera.pnp"),
    "attitude.feed.calls": ("count", "lower", "attitude.feed"),
    "attitude.feed.us_p50": ("us", "lower", "attitude.feed"),
    "attitude.feed.self_s": ("s", "lower", "attitude.feed"),
    "dataset.read.records": ("count", "lower", "dataset.read"),
    "dataset.read.us_per_record": ("us", "lower", "dataset.read"),
    "dataset.read.self_s": ("s", "lower", "dataset.read"),
    "dataset.write.us_per_record": ("us", "lower", "dataset.write"),
    "dataset.read_estimates.us_per_record": ("us", "lower", "dataset.read_estimates"),
    "dataset.serialize.us_per_estimate": ("us", "lower", "dataset.serialize"),
    **{f"{_PROCESS}.us_per_record.{kind}": ("us", "lower", _PROCESS)
       for kind in RECORD_KINDS},
    "estimators.cpnp.self_us_p50": ("us", "lower", "estimators.cpnp"),
    "estimators.cd.us_p50": ("us", "lower", "estimators.cd"),
    "estimators.sync.us_p50": ("us", "lower", "estimators.sync"),
    **{f"estimators.staleness_ms.{stream}.{p}": ("ms", "lower", _PROCESS)
       for stream in ("pose", "depth") for p in ("p50", "p95")},
    **{f"estimators.{key}": ("count", "lower", _PROCESS)
       for key in ("cpnp_skipped", "cd_skipped", "imu_rejected", "depth_rejected")},
    "geometry.compose.calls": ("count", "lower", "geometry.compose"),
    "geometry.compose.us_p50": ("us", "lower", "geometry.compose"),
    "geometry.transform.constructions": ("count", "lower", "geometry.transform"),
    "simulator.run.self_s": ("s", "lower", "simulator.run"),
    "simulator.records": ("count", "lower", "simulator.run"),
    "simulator.tag_emit_ratio": ("ratio", "higher", "simulator.run"),
    "evaluation.align.us_per_pair": ("us", "lower", "evaluation.align"),
    "evaluation.align.dropped": ("count", "lower", "evaluation.align"),
    "evaluation.report.ms": ("ms", "lower", "evaluation.report"),
    "depth_calibration.fit.self_s": ("s", "lower", "depth_calibration.fit"),
    "depth_calibration.cost.calls": ("count", "lower", "depth_calibration.cost"),
    "depth_calibration.cost.us_per_call": ("us", "lower", "depth_calibration.cost"),
    "config.load.ms": ("ms", "lower", "config.load"),
    "trace.overhead_ratio": ("ratio", "lower", None),
}

_EMPTY = {"dur": np.empty(0), "self": np.empty(0), "ok": np.empty(0, dtype=bool)}


def layer_metrics(summary: dict, counters: dict, hooks, n: int) -> dict:
    """Every PER_LAYER metric but the overhead ratio, from n traced iterations.

    ``summary`` is ``Tracer.summary`` over the traced iterations. Counts
    and self times are per iteration; a latency over zero calls reads 0,
    with its ``calls`` metric 0 beside it. A metric whose hook target has
    gone reads None, which the output shows as missing.
    """
    obs = hooks.observations

    def group(name):
        return summary.get(name, _EMPTY)

    def calls(name):
        return group(name)["dur"].size / n

    def pct_us(name, p, key="dur"):
        values = group(name)[key]
        return float(np.percentile(values, p)) * 1e6 if values.size else 0.0

    def mean_us(name, key="dur"):
        values = group(name)[key]
        return float(values.mean()) * 1e6 if values.size else 0.0

    def per_iteration(name, key="dur"):
        return float(group(name)[key].sum()) / n

    def per_item_us(name, items):
        return float(group(name)["dur"].sum()) / items * 1e6 if items else 0.0

    def pct_ms(values, p):
        return float(np.percentile(values, p)) * 1e3 if values else 0.0

    ok = group("camera.pnp")["ok"]
    read = counters.get("dataset.read.records", 0)
    pipeline = hooks.pipelines[-1].counters if hooks.pipelines else {}
    frames = sum(obs["simulator.frames"])
    m = {
        "camera.pnp.calls": calls("camera.pnp"),
        "camera.pnp.us_p50": pct_us("camera.pnp", 50),
        "camera.pnp.us_p99": pct_us("camera.pnp", 99),
        "camera.pnp.self_s": per_iteration("camera.pnp", "self"),
        "camera.pnp.fail_ratio": float((~ok).sum()) / ok.size if ok.size else 0.0,
        "attitude.feed.calls": calls("attitude.feed"),
        "attitude.feed.us_p50": pct_us("attitude.feed", 50),
        "attitude.feed.self_s": per_iteration("attitude.feed", "self"),
        "dataset.read.records": read / n,
        "dataset.read.us_per_record": per_item_us("dataset.read", read),
        "dataset.read.self_s": per_iteration("dataset.read", "self"),
        "dataset.write.us_per_record": per_item_us(
            "dataset.write", sum(obs["write.records"])),
        "dataset.read_estimates.us_per_record": per_item_us(
            "dataset.read_estimates", sum(obs["read_estimates.records"])),
        "dataset.serialize.us_per_estimate": mean_us("dataset.serialize"),
        **{f"{_PROCESS}.us_per_record.{kind}": mean_us(f"{_PROCESS}.{kind}", "self")
           for kind in RECORD_KINDS},
        "estimators.cpnp.self_us_p50": pct_us("estimators.cpnp", 50, "self"),
        "estimators.cd.us_p50": pct_us("estimators.cd", 50),
        "estimators.sync.us_p50": pct_us("estimators.sync", 50),
        **{f"estimators.staleness_ms.{stream}.p{p}": pct_ms(obs[f"staleness.{stream}"], p)
           for stream in ("pose", "depth") for p in (50, 95)},
        **{f"estimators.{key}": float(pipeline.get(key, 0))
           for key in ("cpnp_skipped", "cd_skipped", "imu_rejected", "depth_rejected")},
        "geometry.compose.calls": calls("geometry.compose"),
        "geometry.compose.us_p50": pct_us("geometry.compose", 50),
        "geometry.transform.constructions": counters.get("geometry.transform", 0) / n,
        "simulator.run.self_s": per_iteration("simulator.run", "self"),
        "simulator.records": sum(obs["simulator.records"]) / n,
        "simulator.tag_emit_ratio": sum(obs["simulator.tags"]) / frames if frames else 0.0,
        "evaluation.align.us_per_pair": per_item_us(
            "evaluation.align", sum(obs["align.pairs"]) + sum(obs["align.dropped"])),
        "evaluation.align.dropped": sum(obs["align.dropped"]) / n,
        "evaluation.report.ms": per_iteration("evaluation.report") * 1e3,
        "depth_calibration.fit.self_s": per_iteration("depth_calibration.fit", "self"),
        "depth_calibration.cost.calls": calls("depth_calibration.cost"),
        "depth_calibration.cost.us_per_call": mean_us("depth_calibration.cost"),
        "config.load.ms": mean_us("config.load") / 1e3,
    }
    missing = set(hooks.missing)
    for name in m:
        if PER_LAYER[name][2] in missing:
            m[name] = None
    return m


def cross_check(m: dict, scan, cpnp_written: int):
    """The wrapper counts must agree with the program's own counts.

    IMU records reach ``TiltTracker.feed`` unless the pipeline rejected
    them first; PnP runs once per cpnp attempt that got past the
    staleness checks. ``evaluate`` re-reads the dataset after
    ``estimate``, so each iteration parses it twice.
    """
    imu = scan.counts.get("imu", 0)
    feed, rejected = m["attitude.feed.calls"], m["estimators.imu_rejected"] or 0
    if feed is not None and not imu - rejected <= feed <= imu:
        raise checks.CheckFailed(f"attitude.feed.calls {feed} vs {imu} IMU records")
    pnp, skipped = m["camera.pnp.calls"], m["estimators.cpnp_skipped"] or 0
    if pnp is not None and not cpnp_written <= pnp <= cpnp_written + skipped:
        raise checks.CheckFailed(f"camera.pnp.calls {pnp} vs {cpnp_written} cpnp "
                                 f"estimates and {skipped} skips")
    for name, expected in (("simulator.records", scan.records),
                           ("dataset.read.records", 2 * scan.records)):
        if m[name] is not None and m[name] != expected:
            raise checks.CheckFailed(f"{name} {m[name]} != {expected}")
