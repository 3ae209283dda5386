"""The bench modules run as ``python -m`` scripts without runpy warnings.

``runpy`` warns when the package ``__init__`` has already imported the
module it is about to execute as ``__main__``.  ``repro.bench`` imports
its public names lazily so that this cannot happen; these runs turn the
warning into an error to keep it that way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
BASELINE = SRC.parent / "results" / "ci_baseline.json"


def run_module(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_perf_module_runs_without_runpy_warning():
    done = run_module("repro.bench.perf", "--help")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_regression_module_runs_without_runpy_warning():
    done = run_module(
        "repro.bench.regression", str(BASELINE), str(BASELINE)
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "no regressions" in done.stdout


def test_every_public_name_resolves():
    import repro.bench as bench

    for name in bench.__all__:
        assert getattr(bench, name) is not None, name
