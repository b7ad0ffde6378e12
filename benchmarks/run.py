#!/usr/bin/env python3
"""aquapos benchmark: end-to-end and per-layer metrics for one workload.

    python3 benchmarks/run.py --workload square-noisy --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One run repeats the workload's CLI chain (simulate -> [calibrate-depth]
-> estimate -> evaluate, in-process through ``aquapos.cli.main``) and a
record-by-record replay of its dataset until ``--seconds`` have passed,
and takes at least two iterations. With ``--trace 0`` the last line of
stdout is a JSON object holding every end-to-end metric; with
``--trace 1`` the run alternates untraced and traced iterations and the
JSON holds every per-layer metric. Outputs are checked before anything
is reported: a failed check prints ``"correct": false`` with no metrics
and exits 1. ``--workload all`` runs every workload in its own process
and prints one table.

The package is imported from ``src/`` next to this directory; the run
writes only under ``benchmarks/_runs/``. BLAS and OpenMP are held to one
thread.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from metrics import END_TO_END, PER_LAYER, cross_check, layer_metrics  # noqa: E402
from spans import Hooks, Tracer, highest_percentile  # noqa: E402
from workloads import DEPTH_SENSOR, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"

MIN_ITERATIONS = 2
REFERENCE_EVERY = 100  # tag records between reference samples in a replay
MIN_SETUP_SAMPLES = 5
CRITERION_1_BOUND_S = 10.0  # per 120 s of simulated data
CRITERION_1_DURATION_S = 120.0

# Fresh-process set-up: import the CLI, load the config, build a pipeline.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import aquapos.cli
from aquapos.config import load_run_config
from aquapos.estimators import EstimationPipeline
cfg = load_run_config(sys.argv[2])
EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, calibration=cfg.calibration,
                   tilt_config=cfg.tilt, staleness_bound=cfg.staleness_bound,
                   marker_offset=cfg.marker_offset)
print(repr(time.perf_counter() - t0))
"""


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def machine_record() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# Back-to-back runs of each stage in an untraced iteration. Short stages
# run more often so their medians rest on as many samples as estimate's;
# every repeat must reproduce the first one's output bytes.
STAGE_REPEATS = {"simulate": 2, "calibrate": 3, "estimate": 1, "evaluate": 3}


@dataclass
class Iteration:
    """Timings, exit codes, printed output and digests of one CLI chain."""

    times: dict = field(default_factory=dict)  # stage -> [seconds per run]
    codes: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    at: dict = field(default_factory=dict)  # stage -> [mid time of each run]
    fit: tuple | None = None


class Runner:
    """Runs one workload's CLI chain and replay in a work directory."""

    def __init__(self, workload, seed: int, work: Path):
        from aquapos import cli

        self.cli = cli
        self.wl = workload
        self.seed = seed
        work.mkdir(parents=True, exist_ok=True)
        self.sim_cfg = work / "run.yaml"
        self.sim_cfg.write_text(yaml.safe_dump(workload.config), encoding="utf-8")
        self.data = work / "data.jsonl"
        self.pairs = work / "pairs.csv"
        self.theta = work / "theta.json"
        self.est_cfg = work / "estimate.yaml" if workload.calibrate else self.sim_cfg
        self.est = work / "est.jsonl"
        self.report = work / "report"
        self.scan = None
        self.clock = reference.HostClock()

    def _stage(self, it: Iteration, name: str, argv, outputs, repeats=1,
               tracer=None, label=""):
        for _ in range(repeats):
            if tracer is None:
                self.clock.sample()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    t0 = perf_counter()
                    rc = self.cli.main(argv)
                    t1 = perf_counter()
                else:
                    tracer.begin_run(f"{name}#{label}")
                    t0 = perf_counter()
                    rc = tracer.call(f"cli.{name}", self.cli.main, argv)
                    t1 = perf_counter()
            it.times.setdefault(name, []).append(t1 - t0)
            it.at.setdefault(name, []).append(0.5 * (t0 + t1))
            it.codes[name] = rc
            it.stdout[name] = buf.getvalue()
            checks.check_exit_codes(it.codes)
            digests = {f"{name}.stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
            digests.update((path.name, sha256(path)) for path in outputs)
            for key, value in digests.items():
                if it.digests.setdefault(key, value) != value:
                    raise checks.CheckFailed(f"{key} differs between runs of {name}")

    def chain(self, tracer=None, label="", repeat=True) -> Iteration:
        """One pass of the CLI chain, repeating stages per STAGE_REPEATS
        unless traced or told not to."""
        it = Iteration()

        def stage(name, argv, outputs):
            repeats = STAGE_REPEATS[name] if repeat and tracer is None else 1
            self._stage(it, name, argv, outputs, repeats, tracer, label)

        stage("simulate", ["simulate", "--config", str(self.sim_cfg),
                           "--seed", str(self.seed), "--out", str(self.data)],
              [self.data])
        if self.scan is None:
            self.scan = checks.scan_dataset(self.data)
            if self.wl.calibrate:
                self.pairs.write_text(
                    "".join(f"{r!r},{t!r}\n" for r, t in self.scan.pairs.tolist()),
                    encoding="utf-8",
                )
        if self.wl.calibrate:
            stage("calibrate", ["calibrate-depth", str(self.pairs), "--out",
                                str(self.theta)], [self.pairs, self.theta])
            theta = json.loads(self.theta.read_text(encoding="utf-8"))
            it.fit = (theta["scale"], theta["offset"])
            est_config = dict(self.wl.config)
            est_config["depth_calibration"] = {"scale": theta["scale"],
                                               "offset": theta["offset"]}
            self.est_cfg.write_text(yaml.safe_dump(est_config), encoding="utf-8")
        stage("estimate", ["estimate", str(self.data), "--config", str(self.est_cfg),
                           "--method", self.wl.method_arg, "--out", str(self.est)],
              [self.est_cfg, self.est])
        stage("evaluate", ["evaluate", str(self.est), str(self.data),
                           "--out", str(self.report)],
              [self.report.with_suffix(".json"), self.report.with_suffix(".csv")])
        return it

    def check(self, it: Iteration) -> dict:
        """All correctness checks on one iteration; returns the MEDs (m)."""
        wl, scan = self.wl, self.scan
        estimates = checks.read_estimates(self.est)
        counters = checks.stage_counters(it.stdout["estimate"])
        checks.check_estimate_count(estimates, scan.counts.get("tag", 0),
                                    wl.methods, counters)
        report = json.loads(self.report.with_suffix(".json").read_text(encoding="utf-8"))
        meds = checks.check_report(report, estimates, scan)
        if wl.check == "noise-ordering":
            checks.check_criterion_2(meds)
        elif wl.check == "exact":
            checks.check_exactness(meds)
        elif wl.check == "fit":
            checks.check_fit(*it.fit, scan.pairs,
                             DEPTH_SENSOR["scale"], DEPTH_SENSOR["offset"])
        return meds

    def failures(self, it: Iteration) -> int:
        """Skipped estimates plus estimates that found no truth sample."""
        counters = checks.stage_counters(it.stdout["estimate"])
        skipped = sum(counters.get(f"{m}_skipped", 0) for m in self.wl.methods)
        report = json.loads(self.report.with_suffix(".json").read_text(encoding="utf-8"))
        return skipped + sum(r["dropped"] for r in report.values())

    def attempts(self) -> int:
        return self.scan.counts.get("tag", 0) * len(self.wl.methods)

    def pipeline(self):
        from aquapos.config import load_run_config
        from aquapos.estimators import EstimationPipeline

        cfg = load_run_config(str(self.est_cfg))
        return EstimationPipeline(
            cfg.rig, cfg.intrinsics, cfg.tag, calibration=cfg.calibration,
            tilt_config=cfg.tilt, methods=self.wl.methods,
            staleness_bound=cfg.staleness_bound, marker_offset=cfg.marker_offset,
        )

    def replay(self, records, expected_digest: str) -> list:
        """Closed-loop replay; returns (time, seconds) for every tag record.

        A host-speed reference sample is taken before every
        REFERENCE_EVERY tag records, outside the timed calls, so that the
        scaling follows the host through the replay.

        The records are parsed before the loop, so parsing is not timed,
        and frozen out of the garbage collector's reach: an online process
        does not hold the whole dataset, so it pays no collections over it.
        The estimates must serialize to the bytes ``estimate`` wrote.
        """
        from aquapos.dataset import estimate_to_dict

        pipeline = self.pipeline()
        latencies, estimates = [], []
        gc.collect()
        gc.freeze()
        try:
            for record in records:
                tag = record["kind"] == "tag"
                if tag and len(latencies) % REFERENCE_EVERY == 0:
                    self.clock.sample()
                t0 = perf_counter()
                out = pipeline.process(record)
                t1 = perf_counter()
                if tag:
                    latencies.append((0.5 * (t0 + t1), t1 - t0))
                    estimates.extend(out)
        finally:
            gc.unfreeze()
        text = "".join(json.dumps(estimate_to_dict(e), separators=(",", ":")) + "\n"
                       for e in estimates)
        if hashlib.sha256(text.encode()).hexdigest() != expected_digest:
            raise checks.CheckFailed("replayed estimates differ from estimate's output")
        return latencies

    def setup_sample(self) -> tuple:
        """(mid time, seconds) of one fresh-process set-up."""
        self.clock.sample()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.sim_cfg)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise checks.CheckFailed(f"set-up process failed: {proc.stderr.strip()}")
        return 0.5 * (t0 + perf_counter()), float(proc.stdout.strip())


def same_digests(first: Iteration, other: Iteration):
    if other.digests != first.digests:
        changed = sorted(k for k in first.digests
                         if other.digests.get(k) != first.digests[k])
        raise checks.CheckFailed(f"outputs differ between repeats of one seed: {changed}")


def floored_med_mm(meds: dict, method: str) -> float:
    """MED in mm at criterion 1's resolution: roundoff below the exactness
    bound reads as the bound, so it cannot look like a regression."""
    return max(meds[method], checks.EXACT_BOUND[method]) * 1e3


def keep_going(start: float, last: float, seconds: float) -> bool:
    """Start another iteration if half of one more still fits in the window."""
    now = perf_counter()
    return now - start + 0.5 * (now - last) < seconds


class Tally:
    """Estimates attempted and failed over every iteration of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, runner: Runner, it: Iteration):
        self.attempted += runner.attempts()
        self.failed += runner.failures(it)


def run_untraced(runner: Runner, seconds: float, tally: Tally, record: dict) -> dict:
    from aquapos.dataset import read_records

    iterations, replays, setup = [], [], []
    records = meds = rss_mb = None
    start = last = perf_counter()
    while len(iterations) < MIN_ITERATIONS or keep_going(start, last, seconds):
        last = perf_counter()
        setup.append(runner.setup_sample())
        it = runner.chain()
        if not iterations:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            meds = runner.check(it)
            records = list(read_records(runner.data))
        else:
            same_digests(iterations[0], it)
        tally.add(runner, it)
        iterations.append(it)
        replays.append(runner.replay(records, it.digests["est.jsonl"]))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.setup_sample())

    # repeated replays repeat the same hard frames, so the rule counts
    # distinct frames, not pooled samples
    frames = runner.scan.counts.get("tag", 0)
    rule = highest_percentile(frames)
    if rule is None or rule < 99.0:
        raise checks.CheckFailed(f"{frames} tag frames leave fewer than 10 beyond p99")
    clock = runner.clock

    def scaled(samples):
        """(mid time, seconds) pairs -> seconds at the nominal host speed."""
        return [seconds * clock.scale(t) for t, seconds in samples]

    stage = {name: [s for it in iterations for s in zip(it.at[name], it.times[name])]
             for name in iterations[0].times}

    per_replay = {True: [1e3 * np.array(scaled(lat)) for lat in replays],
                  False: [1e3 * np.array([s for _, s in lat]) for lat in replays]}

    def latency_ms(p, scale=True):
        """Median over replays of each replay's p-th percentile latency."""
        return median([np.percentile(lat, p) for lat in per_replay[scale]])

    stage_s = {name: median(scaled(samples)) for name, samples in stage.items()}
    metrics = {
        "setup_s": median(scaled(setup)),
        "simulate_s": stage_s["simulate"],
        "estimate_s": stage_s["estimate"],
        "evaluate_s": stage_s["evaluate"],
        "chain_s": sum(stage_s.values()),
        "frame_latency_ms_p50": latency_ms(50),
        "frame_latency_ms_p99": latency_ms(99),
        "peak_rss_mb": rss_mb,
        "cd_med_mm": floored_med_mm(meds, "cd"),
        "max_med_mm": max(floored_med_mm(meds, m) for m in meds),
        "success_ratio": 1.0 - tally.failed / tally.attempted,
    }
    raw = {name: median([seconds for _, seconds in samples])
           for name, samples in stage.items()}
    record.update(
        iterations=len(iterations),
        reference={"nominal_s": reference.NOMINAL_S, "samples": clock.samples},
        stage_samples=stage,
        setup_samples=setup,
        unscaled={
            "setup_s": median([seconds for _, seconds in setup]),
            **{f"{name}_s": value for name, value in raw.items()},
            "chain_s": sum(raw.values()),
            "frame_latency_ms_p50": latency_ms(50, scale=False),
            "frame_latency_ms_p99": latency_ms(99, scale=False),
        },
        frame_latency={
            "frames": frames,
            "highest_percentile": rule,
            "per_replay_ms": {f"p{p}": [float(np.percentile(lat, p))
                                        for lat in per_replay[True]] for p in (50, 99)},
        },
        med_m=meds,
        digests=iterations[0].digests,
        evaluate_stdout=iterations[0].stdout["evaluate"].splitlines(),
    )
    if runner.wl.check == "exact":
        budget = CRITERION_1_BOUND_S * runner.wl.duration / CRITERION_1_DURATION_S
        record["criterion_1"] = {
            "sum_s": record["unscaled"]["chain_s"],
            "bound_s_scaled": budget,
            "share": record["unscaled"]["chain_s"] / budget,
        }
    return metrics


def run_traced(runner: Runner, seconds: float, tally: Tally, record: dict,
               spans_path: Path) -> dict:
    """Alternate untraced and traced chains; per-layer metrics from the traced."""
    tracer = Tracer()
    hooks = Hooks(tracer)
    untraced, traced, labels = [], [], []
    start = last = perf_counter()
    while len(traced) < MIN_ITERATIONS or keep_going(start, last, seconds):
        last = perf_counter()
        it = runner.chain(repeat=False)
        if not untraced:
            runner.check(it)
        else:
            same_digests(untraced[0], it)
        tally.add(runner, it)
        untraced.append(it)

        labels.append(f"T{len(traced)}")
        hooks.install()
        try:
            it = runner.chain(tracer, labels[-1])
        finally:
            hooks.remove()
        same_digests(untraced[0], it)
        tally.add(runner, it)
        traced.append(it)

    tracer.write(spans_path)
    run_ids = [i for i, run in enumerate(tracer.runs) if run.split("#")[1] in labels]
    metrics = layer_metrics(tracer.summary(run_ids), tracer.counters, hooks, len(traced))
    metrics["trace.overhead_ratio"] = (
        median([it.times["estimate"][0] for it in traced])
        / median([it.times["estimate"][0] for it in untraced])
    )
    cpnp = checks.read_estimates(runner.est).get("cpnp")
    cross_check(metrics, runner.scan, 0 if cpnp is None else cpnp[0].size)
    record.update(
        iterations={"untraced": len(untraced), "traced": len(traced)},
        spans=len(tracer.start),
        missing_hooks=hooks.missing,
        digests=untraced[0].digests,
    )
    return metrics


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    out = RUNS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(wl, args.seed, out / "work")
    tally = Tally()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "duration_s": wl.duration,
              "machine": machine_record()}
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds, tally, record,
                                 out / "spans.csv.gz")
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            metrics = run_untraced(runner, args.seconds, tally, record)
            units = {k: v[0] for k, v in END_TO_END.items()}
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(out / "work", ignore_errors=True)

    record["metrics"] = metrics
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                     encoding="utf-8")
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    for line in record.get("evaluate_stdout", []):
        print(f"evaluate: {line}")
    if "reference" in record:
        ref = [seconds for _, seconds in record["reference"]["samples"]]
        print(f"host speed: reference median {median(ref):.6f} s over {len(ref)} "
              f"samples; times are scaled to the nominal {reference.NOMINAL_S} s")
    if "criterion_1" in record:
        c1 = record["criterion_1"]
        print(f"criterion 1: {c1['sum_s']:.3f} s of {c1['bound_s_scaled']:.3f} s "
              f"scaled bound ({100 * c1['share']:.1f}%)")
    for name, value in metrics.items():
        shown = "missing" if value is None else repr(value)
        print(f"{wl.name} {name} {shown} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table once all have passed."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            print(f"{name}: checks failed", file=sys.stderr)
            return 1
        rows.extend((name, k, v["value"], v["unit"]) for k, v in result["metrics"].items())
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:42s} {value!r:>24} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "aquapos" / "__init__.py").is_file():
        print(f"error: no aquapos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aquapos

    if Path(aquapos.__file__).resolve().parent != SRC / "aquapos":
        print(f"error: imported aquapos from {aquapos.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
