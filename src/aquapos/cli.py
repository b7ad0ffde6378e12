"""Command line front end: simulate, estimate, evaluate, calibrate-depth.

Exit codes: 0 success, 1 runtime failure (bad data, estimator errors,
I/O), 2 usage or configuration errors. All commands are deterministic
for fixed seeds, so reruns produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys

from . import dataset
from .config import load_run_config
from .depth_calibration import calibrate_with_trace
from .errors import (AquaposError, ConfigError, DatasetFormatError, NoOverlap,
                     RegionTooSmall)
from .estimators import EstimationPipeline, METHODS
from .evaluation import align, build_error_report
from .simulator import Simulator

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquapos",
        description="Collaborative surface/underwater positioning toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic sensor dataset")
    sim.add_argument("--config", help="run configuration YAML")
    sim.add_argument("--seed", type=int, default=None,
                     help="override trajectory and noise seeds")
    sim.add_argument("--out", required=True, help="output dataset (JSONL)")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="run estimators over a dataset")
    est.add_argument("dataset", help="input dataset (JSONL)")
    est.add_argument("--config", help="run configuration YAML")
    est.add_argument("--method", choices=("cpnp", "cd", "both"), default="both")
    est.add_argument("--out", required=True, help="output estimates (JSONL)")
    est.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", help="score estimates against dataset truth")
    ev.add_argument("estimates", help="estimate file (JSONL)")
    ev.add_argument("dataset", help="dataset with truth records (JSONL)")
    ev.add_argument("--out", help="output prefix for <prefix>.json and <prefix>.csv")
    ev.set_defaults(func=cmd_evaluate)

    cal = sub.add_parser("calibrate-depth",
                         help="fit the depth sensor affine model from pairs")
    cal.add_argument("pairs", help="two-column CSV of raw,truth depths")
    cal.add_argument("--config", help="run configuration YAML")
    cal.add_argument("--seed", type=int, default=None, help="override the PSO seed")
    cal.add_argument("--out", help="write fitted parameters as JSON")
    cal.set_defaults(func=cmd_calibrate_depth)
    return parser


def _reseed(config, seed):
    """config with --seed in place of its seed; the constructor checks it."""
    if seed is None:
        return config
    try:
        return dataclasses.replace(config, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    spec = _reseed(cfg.trajectory, args.seed)
    noise = _reseed(cfg.noise, args.seed)
    sim = Simulator(spec, cfg.scene(), noise)
    records, stats = sim.run()
    try:
        n = dataset.write_records(args.out, records)
    except ValueError as exc:
        # a simulated value overflowed: the record does not fit the format
        raise DatasetFormatError(f"{args.out}: {exc}") from None
    print(
        f"wrote {n} records to {args.out} "
        f"(tag in frame {stats['in_frustum']}/{stats['camera_frames']})"
    )
    return 0


def cmd_estimate(args) -> int:
    cfg = load_run_config(args.config)
    methods = METHODS if args.method == "both" else (args.method,)
    pipeline = EstimationPipeline(
        cfg.rig,
        cfg.intrinsics,
        cfg.tag,
        calibration=cfg.calibration,
        tilt_config=cfg.tilt,
        methods=methods,
        staleness_bound=cfg.staleness_bound,
        marker_offset=cfg.marker_offset,
    )
    written = 0
    tags_seen = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for record in dataset.read_records(args.dataset):
            if record["kind"] == "tag":
                tags_seen += 1
            for est in pipeline.process(record):
                out.write(json.dumps(dataset.estimate_to_dict(est),
                                     separators=(",", ":")))
                out.write("\n")
                written += 1
    if tags_seen == 0:
        log.warning("dataset %s contains no tag records; output is empty",
                    args.dataset)
    skips = ", ".join(f"{k} {v}" for k, v in sorted(pipeline.counters.items()) if v)
    print(f"wrote {written} estimates to {args.out}"
          + (f" ({skips})" if skips else ""))
    return 0


def cmd_evaluate(args) -> int:
    estimates = dataset.read_estimates(args.estimates)
    truth_t, truth_p = [], []
    for record in dataset.read_records(args.dataset):
        if record["kind"] == "truth":
            truth_t.append(record["t"])
            truth_p.append(record["p"])
    if not truth_t:
        raise NoOverlap(f"dataset {args.dataset} has no truth records")

    reports = {}
    series = []
    for method in METHODS:
        subset = [e for e in estimates if e["method"] == method]
        if not subset:
            continue
        pairs, dropped = align(
            [e["t"] for e in subset],
            [e["p"] for e in subset],
            truth_t,
            truth_p,
        )
        if not pairs:
            continue
        report = build_error_report(pairs, dropped)
        reports[method] = report.to_dict()
        series.extend(
            (method, pair.timestamp, *err, eucl)
            for pair, err, eucl in zip(pairs, report.axis_errors.tolist(),
                                       report.euclidean.tolist()))
        print(f"{method} MED {report.med:.9f} m over {report.n} pairs")
    if not reports:
        raise NoOverlap("no estimate aligns with a truth sample within tolerance")

    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("method", "t", "err_x", "err_y", "err_z", "euclidean"))
            for row in series:
                writer.writerow((row[0],) + tuple(repr(v) for v in row[1:]))
    return 0


def cmd_calibrate_depth(args) -> int:
    pairs = dataset.load_pairs_csv(args.pairs)
    cfg = load_run_config(args.config)
    params, trace = calibrate_with_trace(pairs, _reseed(cfg.pso, args.seed))
    result = {**params.to_dict(), "cost": trace[-1]}
    print(f"scale {params.scale:.9f} offset {params.offset:.9f} "
          f"cost {trace[-1]:.6e} ({len(pairs)} pairs)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, RegionTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AquaposError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
