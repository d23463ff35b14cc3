#!/usr/bin/env python3
"""Write references.json and environment.json for the benchmark.

Runs every workload once on every input set and stores what the correctness
gate compares against: the error table of each study, and a sketch of the
final coefficients of the evolve and CLI workloads.  environment.json gets
the machine and library versions, the commit, and each workload's CPU over
wall time.  Run from the repository root, on the commit whose outputs
define "correct":

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    workloads = run.import_package()
    refs, cpu_over_wall = {}, {}
    for name, cls in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in range(workloads.INPUT_SETS):
            with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
                w = cls(seed, Path(tmp))
                c0, t0 = time.process_time(), time.perf_counter()
                out = w.run()
                cpu_over_wall[name] = (time.process_time() - c0) / (time.perf_counter() - t0)
                refs[name][str(seed)] = w.reference_record(w.finish(out))
            print(f"{name} input set {seed}: done", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # CPU over wall time of the last reference run of each workload: about 2
    # on evolve-n16384, where OpenBLAS threads spin after each numpy.dot
    env = {**run.environment(), "git_commit": commit,
           "cpu_over_wall": {k: round(v, 2) for k, v in cpu_over_wall.items()}}
    with open(run.HERE / "environment.json", "w") as fh:
        json.dump(env, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
