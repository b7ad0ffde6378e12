"""A fresh process sets up the estimator loading only the modules it needs.

Set-up and the per-record estimate path run on Python floats, and numpy is
loaded on first use (``aquapos._numpy``), so a process that loads a config,
builds an ``EstimationPipeline`` and estimates never imports it. Set-up
imports neither the simulator, the evaluator nor the dataset codec, nor
``argparse`` or ``json``: each command imports what only it uses when it
runs, and the package resolves ``Simulator``, ``align``,
``build_error_report`` and ``med`` on first access.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import aquapos
from aquapos import _numpy, cli
from aquapos.camera import DEFAULT_INTRINSICS
from aquapos.evaluation import align, build_error_report, med
from aquapos.simulator import Simulator

README = Path(__file__).resolve().parent.parent / "README.md"

# the set-up the benchmark times; set_up is what it adds to sys.modules, so
# what the interpreter loaded before it, such as site's imports, does not count
_SET_UP = """
import sys
before = set(sys.modules)
import aquapos.cli
from aquapos.config import load_run_config
from aquapos.estimators import EstimationPipeline
cfg = load_run_config(sys.argv[1])
EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, calibration=cfg.calibration,
                   tilt_config=cfg.tilt, staleness_bound=cfg.staleness_bound,
                   marker_offset=cfg.marker_offset)
set_up = sorted(set(sys.modules) - before)
"""

# the set-up, then the estimate command, in one process
_CHILD = _SET_UP + """
config, data, out = sys.argv[1:]
assert aquapos.cli.main(["estimate", data, "--config", config, "--out", out]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.")))
"""

# one command after importing the CLI: its exit code, and the package's
# modules it imported
_COMMAND = """
import sys
from aquapos import cli
before = set(sys.modules)
code = cli.main(sys.argv[1:])
print(sorted(name for name in set(sys.modules) - before if name.startswith("aquapos.")))
sys.exit(code)
"""


def _child(code, *args, cwd=None) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter on this package, warnings as errors."""
    src = os.path.dirname(os.path.dirname(aquapos.__file__))
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _readme_config(tmp_path) -> Path:
    """README's documented config, its intrinsics file beside it, for a 10 s run."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```yaml\n", text.index("## Configuration")) + 8
    raw = yaml.safe_load(text[start:text.index("```", start)])
    raw["simulation"]["trajectory"]["duration"] = 10.0
    K = DEFAULT_INTRINSICS
    (tmp_path / raw["intrinsics_file"]).write_text(yaml.safe_dump(
        {"fx": K.fx, "fy": K.fy, "cx": K.cx, "cy": K.cy, "width": K.width,
         "height": K.height}), encoding="utf-8")
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return config


def _estimate_in_child(config, data, out) -> tuple:
    """Set-up and estimate in a fresh process: its estimate line and the
    numpy modules it loaded."""
    proc = _child(_CHILD, config, data, out)
    assert proc.returncode == 0, proc.stderr
    written, modules = proc.stdout.splitlines()
    return written, modules


def test_set_up_and_estimate_load_no_numpy(tmp_path, capsys):
    config = _readme_config(tmp_path)
    data, out = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    written, modules = _estimate_in_child(config, data, out)
    assert written == "wrote 600 estimates to " + str(out)
    assert modules == "[]"


def _rounded(value):
    """value with every number rounded to a JSON integer."""
    return [_rounded(v) for v in value] if isinstance(value, list) else round(value)


def test_integer_dataset_loads_no_numpy(tmp_path, capsys):
    # JSON integers are numbers of the format, and the constructors take them
    # by the reader's rule, without numpy
    config = _readme_config(tmp_path)
    data, out = tmp_path / "run.jsonl", tmp_path / "est.jsonl"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    records = [json.loads(line) for line in data.read_text(encoding="utf-8").splitlines()]
    kinds = {"imu", "slam", "tag", "depth"}
    integers = [{k: _rounded(v) if k not in ("t", "kind") and r["kind"] in kinds else v
                 for k, v in r.items()} for r in records]
    data.write_text("".join(json.dumps(r) + "\n" for r in integers), encoding="utf-8")
    assert all(type(r["raw"]) is int for r in integers if r["kind"] == "depth")
    written, modules = _estimate_in_child(config, data, out)
    assert written.startswith("wrote ") and not written.startswith("wrote 0 ")
    assert modules == "[]"


def test_lazy_module_is_the_module_already_imported():
    assert _numpy.np is np is sys.modules["numpy"]
    assert _numpy._lazy("numpy") is np
    assert _numpy._lazy("yaml") is yaml


def test_set_up_loads_only_the_estimator(tmp_path):
    config = _readme_config(tmp_path)
    proc = _child(_SET_UP + "print(set_up)\n", config)
    assert proc.returncode == 0, proc.stderr
    set_up = ast.literal_eval(proc.stdout)
    assert "aquapos.estimators" in set_up
    for name in ("aquapos.simulator", "aquapos.evaluation", "aquapos.dataset",
                 "argparse", "csv", "json"):
        assert name not in set_up


def test_each_command_loads_its_own_modules(tmp_path):
    # the modules of the package each command imports beyond the CLI's own
    config = tmp_path / "run.yaml"
    config.write_text("simulation: {trajectory: {duration: 4.0}}\n", encoding="utf-8")
    (tmp_path / "pairs.csv").write_text(
        "raw,truth\n" + "".join(f"{0.1 * i!r},{1.05 * 0.1 * i - 0.03!r}\n"
                                for i in range(1, 21)), encoding="utf-8")
    commands = [
        (["simulate", "--config", config, "--out", "run.jsonl"],
         ["aquapos.dataset", "aquapos.simulator"]),
        (["estimate", "run.jsonl", "--config", config, "--out", "est.jsonl"],
         ["aquapos.dataset"]),
        (["evaluate", "est.jsonl", "run.jsonl", "--out", "report"],
         ["aquapos.dataset", "aquapos.evaluation"]),
        (["calibrate-depth", "pairs.csv", "--out", "theta.json"], ["aquapos.dataset"]),
    ]
    for argv, loaded in commands:
        proc = _child(_COMMAND, *argv, cwd=tmp_path)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        *_, modules = proc.stdout.splitlines()
        assert ast.literal_eval(modules) == loaded, argv[0]


def test_every_public_name_resolves():
    namespace = {}
    exec("from aquapos import *", namespace)
    for name in aquapos.__all__:
        assert namespace[name] is getattr(aquapos, name)
    # the names resolved on first access are the defining modules' own
    for name, value in (("Simulator", Simulator), ("align", align),
                        ("build_error_report", build_error_report), ("med", med)):
        assert aquapos.__getattr__(name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        aquapos.no_such_name
