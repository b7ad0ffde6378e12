#!/usr/bin/env python3
"""Record what the README's CLI quick start prints where it runs.

    python3 benchmarks/readme_record.py

Runs ``simulate``, ``estimate`` and ``evaluate`` exactly as the README's
quick start does (CLI defaults: 120 s square sweep, seed 1, both
methods) and writes ``benchmarks/records/readme-quickstart.json`` with
the machine record, each command's stdout as printed and the SHA-256 of
every output file. The README's quoted ``evaluate`` lines are checked
against this record, not against the shortened benchmark workloads.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import run

COMMANDS = (
    ["simulate", "--out", "run.jsonl"],
    ["estimate", "run.jsonl", "--out", "est.jsonl"],
    ["evaluate", "est.jsonl", "run.jsonl", "--out", "report"],
)
OUTPUTS = ("run.jsonl", "est.jsonl", "report.json", "report.csv")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from aquapos import cli

    work = run.RUNS_DIR / "readme-quickstart"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stdout = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                print(f"error: aquapos {' '.join(argv)} exited {rc}", file=sys.stderr)
                return 1
            stdout[" ".join(["aquapos", *argv])] = buf.getvalue().splitlines()
        digests = {name: run.sha256(name) for name in OUTPUTS}
    finally:
        os.chdir(cwd)
    shutil.rmtree(work)
    record = {"machine": run.machine_record(), "stdout": stdout, "sha256": digests}
    out = run.BENCH_DIR / "records" / "readme-quickstart.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for lines in stdout.values():
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
