"""Self-tests of the benchmark: determinism, regime, interface.

Run from the root of a checkout with ``python3 -m pytest perfbench``
(the repository's own suite does not collect this directory).  Every
run is a fresh process with ``--seconds 0``, which still runs one full
cycle of each workload's passes (two cycles, one traced, with
``--trace 1``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Detail fields that must repeat exactly at one seed.
DETERMINISTIC = (
    "counters",
    "seek_per_page",
    "sim_ms_per_object",
    "sim_p50_ms",
    "sim_p99_ms",
    "served_frac",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """Run one workload; returns (exit code, detail, result line)."""
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        return done.returncode, None, lines[-1] if lines else None
    return 0, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_repeat_exactly_with_and_without_tracing(workload):
    """Two untraced runs and a traced run agree on every deterministic value.

    The traced run's own check also compares each traced pass with the
    untraced pass of the same input, and reports ``correct`` false on
    any difference.
    """
    runs = [bench(workload, 1, 0), bench(workload, 1, 0), bench(workload, 1, 1)]
    for code, _detail, result in runs:
        assert code == 0 and result["correct"], result
    first = runs[0][1]
    for _code, detail, _result in runs[1:]:
        for key in DETERMINISTIC:
            assert detail[key] == first[key], key
    assert runs[0][2]["attempted"] == runs[1][2]["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_stays_in_regime(workload):
    """Another seed gives other inputs but the same kind of run."""
    _code, one, first = bench(workload, 1, 0)
    code, two, second = bench(workload, 2, 0)
    assert code == 0 and second["correct"]
    assert one["counters"] != two["counters"]
    active = {key for key, value in one["counters"].items() if value}
    assert active == {key for key, value in two["counters"].items() if value}
    for name in (m["name"] for m in SPEC["end_to_end"]):
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a > 0 and b > 0, name
        assert 0.5 <= b / a <= 2.0, (name, a, b)


def test_fails_without_program_source(tmp_path):
    """With only the benchmark's own files present, the run fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    code, _detail, last = bench("query-scan", 1, 0, cwd=tmp_path)
    assert code != 0
    assert last is None or '"correct"' not in last
