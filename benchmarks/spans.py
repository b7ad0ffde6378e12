"""In-memory span recording and the hooks that time aquapos from outside.

A span is one call into a layer: its name, start, end, the span that was
open when it began (its parent), the run id of the stage that caused it,
and whether it returned normally. Spans live in flat arrays while the
benchmark runs and are written out once at the end, so recording costs
two clock reads and a few appends per call.

Hooks replace public functions and methods of ``aquapos`` with timing
wrappers at every module attribute bound to the original object, so a
caller that imported the name directly (``from .camera import
solve_pnp_planar``) is traced as well as one that looks it up on the
defining module. Nothing under ``src/`` is edited; ``remove`` puts every
original back.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Candidate percentiles, highest first, for the reporting rule below.
PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND):
    """Highest of PERCENTILES with at least ``min_beyond`` of n samples above it.

    Returns None when even the median lacks that many samples beyond it.
    """
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        intervals = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
        covered = 0.0
        cur_s = cur_e = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.ok = array("b")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._run_id = -1

    def name(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def begin_run(self, label: str):
        """Start a new run id; spans opened from now on carry it."""
        self.runs.append(label)
        self._run_id = len(self.runs) - 1

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_id)
        self.ok.append(1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, ok: bool = True):
        self.end[idx] = perf_counter()
        if not ok:
            self.ok[idx] = 0
        self._stack.pop()

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn inside a span named label; returns its result."""
        idx = self.open(self.name(label))
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.close(idx, ok)

    def write(self, path):
        """Write every span as gzip-compressed CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run,ok\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},"
                    f"{self.runs[self.run[i]]},{self.ok[i]}\n"
                )

    def summary(self, run_ids) -> dict:
        """Per span name, over the spans of run_ids: numpy arrays ``dur``
        and ``self`` (seconds) and ``ok`` (bool), one entry per span."""
        selfs = self_times(self.start, self.end, self.parent)
        wanted = set(run_ids)
        groups = defaultdict(lambda: ([], [], []))
        for i in range(len(self.start)):
            if self.run[i] in wanted:
                dur, slf, ok = groups[self.names[self.name_id[i]]]
                dur.append(self.end[i] - self.start[i])
                slf.append(selfs[i])
                ok.append(bool(self.ok[i]))
        return {
            name: {"dur": np.array(d), "self": np.array(s),
                   "ok": np.array(o, dtype=bool)}
            for name, (d, s, o) in groups.items()
        }


# What the traced run hooks: (span name, module, attribute path, kind).
# "call" times every call; "generator" times each next() of a generator;
# "count" only counts calls; "process" names the span after the record
# kind. Observers (see Hooks) read return values where a metric needs them.
HOOKS = (
    ("camera.pnp", "aquapos.camera", "solve_pnp_planar", "call"),
    ("attitude.feed", "aquapos.attitude", "TiltTracker.feed", "call"),
    ("dataset.read", "aquapos.dataset", "read_records", "generator"),
    ("dataset.write", "aquapos.dataset", "write_records", "call"),
    ("dataset.read_estimates", "aquapos.dataset", "read_estimates", "call"),
    ("dataset.serialize", "aquapos.dataset", "estimate_to_dict", "call"),
    ("estimators.process", "aquapos.estimators",
     "EstimationPipeline.process", "process"),
    ("estimators.cpnp", "aquapos.estimators", "estimate_cpnp", "call"),
    ("estimators.cd", "aquapos.estimators", "estimate_cd", "call"),
    ("estimators.sync", "aquapos.estimators",
     "SensorSynchronizer.synchronize", "call"),
    ("geometry.compose", "aquapos.geometry", "compose", "call"),
    ("geometry.transform", "aquapos.geometry",
     "RigidTransform.__post_init__", "count"),
    ("simulator.run", "aquapos.simulator", "Simulator.run", "call"),
    ("evaluation.align", "aquapos.evaluation", "align", "call"),
    ("evaluation.report", "aquapos.evaluation", "build_error_report", "call"),
    ("depth_calibration.fit", "aquapos.depth_calibration",
     "calibrate_with_trace", "call"),
    ("depth_calibration.cost", "aquapos.depth_calibration",
     "calibration_cost", "call"),
    ("config.load", "aquapos.config", "load_run_config", "call"),
)

RECORD_KINDS = ("imu", "slam", "depth", "truth", "tag")


class Hooks:
    """Installs the HOOKS wrappers on a Tracer and removes them again.

    ``observations`` collects values the metrics need from return values:
    records and tag emission from ``Simulator.run``, pairs and drops from
    ``align``, record and estimate counts from the dataset functions,
    staleness from the estimates ``process`` returns, and the pipelines
    that ``process`` ran on (for their counters).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self.observations = defaultdict(list)
        self.pipelines: list = []
        self._restore: list = []

    # --- wrappers ------------------------------------------------------

    def _observe(self, name, result):
        obs = self.observations
        if name == "simulator.run":
            records, stats = result
            obs["simulator.records"].append(len(records))
            obs["simulator.tags"].append(stats["tags_emitted"])
            obs["simulator.frames"].append(stats["camera_frames"])
        elif name == "evaluation.align":
            pairs, dropped = result
            obs["align.pairs"].append(len(pairs))
            obs["align.dropped"].append(dropped)
        elif name == "dataset.write":
            obs["write.records"].append(result)
        elif name == "dataset.read_estimates":
            obs["read_estimates.records"].append(len(result))

    def _wrap_call(self, name, orig):
        tracer, nid, observe = self.tracer, self.tracer.name(name), self._observe

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            ok = False
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                tracer.close(idx, ok)
            observe(name, result)
            return result

        return traced

    def _wrap_generator(self, name, orig):
        tracer, nid = self.tracer, self.tracer.name(name)
        counter = name + ".records"

        def traced(*args, **kwargs):
            inner = orig(*args, **kwargs)
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx, ok=False)
                    raise
                tracer.close(idx)
                tracer.counters[counter] += 1
                yield item

        return traced

    def _wrap_count(self, name, orig):
        counters = self.tracer.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return orig(*args, **kwargs)

        return counted

    def _wrap_process(self, name, orig):
        tracer = self.tracer
        ids = {kind: tracer.name(f"{name}.{kind}") for kind in RECORD_KINDS}
        other = tracer.name(f"{name}.other")
        obs = self.observations
        pipelines = self.pipelines

        def traced(pipeline, record, *args, **kwargs):
            idx = tracer.open(ids.get(record.get("kind"), other))
            ok = False
            try:
                result = orig(pipeline, record, *args, **kwargs)
                ok = True
            finally:
                tracer.close(idx, ok)
            if not pipelines or pipelines[-1] is not pipeline:
                pipelines.append(pipeline)
            for est in result:
                for stream, age in (est.staleness or {}).items():
                    obs[f"staleness.{stream}"].append(age)
            return result

        return traced

    # --- install / remove ----------------------------------------------

    def install(self, hooks=HOOKS) -> list:
        """Wrap every hook target; returns the names whose target is gone."""
        self.missing = []
        factories = {
            "call": self._wrap_call,
            "generator": self._wrap_generator,
            "count": self._wrap_count,
            "process": self._wrap_process,
        }
        for name, module_name, path, kind in hooks:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = factories[kind](name, orig)
            if outer:
                # a method: every caller finds it through the class
                self._set(owner, attr, wrapper, orig)
            else:
                for mod in _aquapos_modules():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapper, orig)
        return self.missing

    def _set(self, owner, attr, wrapper, orig):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def _aquapos_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "aquapos" or name.startswith("aquapos."))
    ]
