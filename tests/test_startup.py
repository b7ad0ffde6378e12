"""A fresh process sets up the estimator and runs ``estimate`` without numpy.

Set-up and the per-record estimate path run on Python floats, and numpy is
loaded on first use (``aquapos._numpy``), so a process that loads a config,
builds an ``EstimationPipeline`` and estimates never imports it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import aquapos
from aquapos import _numpy, cli
from aquapos.camera import DEFAULT_INTRINSICS

README = Path(__file__).resolve().parent.parent / "README.md"

# the set-up the benchmark times, then the estimate command, in one process
_CHILD = """
import sys
import aquapos.cli
from aquapos.config import load_run_config
from aquapos.estimators import EstimationPipeline
config, data, out = sys.argv[1:]
cfg = load_run_config(config)
EstimationPipeline(cfg.rig, cfg.intrinsics, cfg.tag, calibration=cfg.calibration,
                   tilt_config=cfg.tilt, staleness_bound=cfg.staleness_bound,
                   marker_offset=cfg.marker_offset)
assert aquapos.cli.main(["estimate", data, "--config", config, "--out", out]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.")))
"""


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
    src = os.path.dirname(os.path.dirname(aquapos.__file__))
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(config), str(data), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
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
