"""Every README config key, set to each of 16 hostile values, ends cleanly.

A config is a boundary: whatever value a key holds, a command exits 0, 1 or
2 with at most one ``error:`` line and no traceback. ``simulation.*`` keys
run ``simulate``, ``pso.*`` keys ``calibrate-depth``, and every other key
``simulate`` and then ``estimate``, in-process through ``cli.main`` with
warnings as errors. The keys that size the work, record counts and PSO
steps, run in one child process with a timeout and an address-space limit,
so that a lost bound fails the test instead of hanging it.
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import aquapos
from aquapos import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# 10**400 is a YAML integer beyond float range
HOSTILE = (True, "x", None, [], {}, -1, 0, 1.0e308, -1.0e308, math.nan, math.inf,
           1e-300, [1, 2], 10**30, -0.0, 10**400)

# a short run and a small swarm, so that the 900-odd cases take seconds
BASE = {"simulation": {"trajectory": {"duration": 0.2}},
        "pso": {"swarm_size": 4, "iterations": 10}}

SIZE_KEYS = {"simulation.trajectory.duration", "pso.swarm_size", "pso.iterations",
             *(f"simulation.rates.{name}" for name in ("camera", "imu", "depth", "slam",
                                                       "truth"))}


def _readme_keys() -> list:
    """The dotted path of every key in README's YAML schema, sections included."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```yaml\n", text.index("## Configuration")) + 8
    schema = yaml.safe_load(text[start:text.index("```", start)])
    keys = []

    def walk(mapping, prefix):
        for key, value in mapping.items():
            keys.append(prefix + key)
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")

    walk(schema, "")
    return keys


KEYS = _readme_keys()


def _inputs(work: Path) -> tuple:
    """A clean dataset and calibration pairs for the commands to read."""
    data, pairs = work / "clean.jsonl", work / "pairs.csv"
    if not data.exists():
        config = work / "base.yaml"
        config.write_text(yaml.safe_dump(BASE), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        pairs.write_text("".join(f"{r!r},{1.1 * r - 0.05!r}\n"
                                 for r in (0.5, 0.8, 1.1, 1.4, 1.7)), encoding="utf-8")
    return data, pairs


def run_case(key: str, value, work: Path) -> list:
    """Run the commands for one key and value; returns what broke the rule."""
    data, pairs = _inputs(work)
    config = copy.deepcopy(BASE)
    *parents, leaf = key.split(".")
    section = config
    for name in parents:
        section = section.setdefault(name, {})
    section[leaf] = value
    path = work / "run.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = work / "out"
    if key.startswith("simulation"):
        commands = [["simulate", "--out", str(out)]]
    elif key.startswith("pso"):
        commands = [["calibrate-depth", str(pairs), "--out", str(out)]]
    else:
        commands = [["simulate", "--out", str(out)], ["estimate", str(data), "--out", str(out)]]
    broken = []
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main([*argv, "--config", str(path)])
        except Exception as exc:  # anything main lets out is a traceback
            broken.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
            continue
        err = stderr.getvalue()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if rc not in (0, 1, 2) or len(errors) > 1 or "Traceback" in err:
            broken.append(f"{argv[0]} exit {rc}: {err.strip()}")
    return broken


@pytest.mark.parametrize("key", [k for k in KEYS if k not in SIZE_KEYS])
def test_hostile_value_ends_cleanly(tmp_path, key):
    failures = {repr(value): broken for value in HOSTILE
                if (broken := run_case(key, value, tmp_path))}
    assert failures == {}


_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_config_fuzz as fuzz
work = Path(sys.argv[2])
for key, index in json.loads(sys.argv[3]):
    print(json.dumps(["start", key, index]), flush=True)
    print(json.dumps(["done", key, index, fuzz.run_case(key, fuzz.HOSTILE[index], work)]),
          flush=True)
"""


def _limit_child():
    import resource

    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (2 * gib, 2 * gib))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def test_run_size_keys_end_cleanly_in_a_bounded_child(tmp_path):
    cases = [(key, i) for key in sorted(SIZE_KEYS) for i in range(len(HOSTILE))]
    src = os.path.dirname(os.path.dirname(aquapos.__file__))
    env = dict(os.environ, PYTHONWARNINGS="error", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(Path(__file__).parent), str(tmp_path),
             json.dumps(cases)],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired as exc:
        last = (exc.stdout or b"").decode().strip().splitlines()[-1:]
        pytest.fail(f"the child did not end within 60 s; last line: {last}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    done = {(key, index): broken for tag, key, index, *broken in lines if tag == "done"}
    assert proc.returncode == 0 and len(done) == len(cases), (
        f"child exit {proc.returncode} after {lines[-1:]}: {proc.stderr[-2000:]}")
    failures = {f"{key}={HOSTILE[index]!r}": broken[0]
                for (key, index), broken in done.items() if broken[0]}
    assert failures == {}
