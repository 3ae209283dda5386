"""Append one full benchmark run to the committed trajectory.

Usage (from the root of a checkout)::

    python3 perfbench/record.py --label "what this commit changed"

Runs every workload of ``BENCHMARK.json`` in its own fresh process,
untraced and traced, at seed :data:`SEED` and the run length set in
``BENCHMARK.json``, then appends the
end-to-end and per-layer metrics with the machine they were measured on
to ``perfbench/trajectory.json``.  Wall-clock numbers compare only
between entries from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
#: Every entry is recorded at this seed, so that entries compare.
SEED = 1


def run_one(workload: str, seconds: int, trace: int) -> dict:
    """One workload in a fresh process; returns its result line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    """Run every workload untraced and traced; append the entry."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run_one(workload, seconds, 0)
        traced = run_one(workload, seconds, 1)
        entry["workloads"][workload] = {
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: done", flush=True)

    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print(f"appended entry {len(history)} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
