"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query-scan --seed 1 --seconds 10 --trace 0

One invocation is one fresh, single-threaded process running one
workload.  It repeats passes over the workload's inputs for
``--seconds`` of wall time, checking every pass's output against the
generated definitions.  It sets the workload up from cold :data:`SETUPS`
times, once before the passes and the rest spread between them.  The
wall-clock metrics come from the quiet timeline (:class:`QuietTimes`)
of the set-ups (``setup_s``) and of the untraced passes of
:data:`TIMED_INPUT` (the rest).  An untraced run passes each input
once, then repeats only :data:`TIMED_INPUT`.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles of passes and prints the per-layer metrics:
counters from the program's stats objects, self seconds per layer from
spans recorded around each layer's public entry points, and
``trace.overhead_frac``, the traced cycles' time over the untraced
cycles' time, minus one.  The spans of the first traced cycle are
written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's deterministic counters (``{"detail": ...}``).  The
exit status is 0 when every output was correct, 1 when one was wrong
and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

#: Cold set-ups per run; ``setup_s`` is their quiet time.
SETUPS = 5

#: The pass input an untraced run repeats after its first cycle, and
#: the only one its wall-clock metrics are taken from.  A stretch's
#: quickest instance comes nearer the unslowed time the more instances
#: there are: in ``fabric-open`` at 5 requests/s, one 1,000-request
#: input passed 7 times in a run read 16-44% slower per request than
#: one 500-request input passed 16 times.  The simulated metrics and counters still
#: cover every input of the first cycle.
TIMED_INPUT = 0

#: (module, class, method) called once per object or page by every
#: set-up: generation mints each object, layout claims its slot and
#: writes its page.  A set-up takes a mark at each call.
SETUP_MARKS = (
    ("repro.objects.builder", "GraphBuilder", "new_object"),
    ("repro.storage.store", "PagePlanner", "claim"),
    ("repro.storage.store", "ObjectStore", "store_page"),
)

#: String hashing is pinned for every run: with per-process random
#: hashing, one seed's throughput moved by up to 25% between processes,
#: more than any bound could absorb.
HASH_SEED = "0"

#: The benchmark's spec: workloads and the name and unit of every metric.
SPEC = ROOT / "BENCHMARK.json"

#: Counters combined over a cycle's passes by ``max`` instead of ``sum``.
PEAK_COUNTERS = {"assembly.peak_pinned", "pipeline.max_in_flight"}


@dataclass
class Pass:
    """One executed pass: which input, traced or not, and its outcome."""

    cycle: int
    k: int
    traced: bool
    wall_s: float
    result: object
    self_s: Optional[Dict[str, float]] = None
    calls: Optional[Dict[str, int]] = None


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of :data:`SPEC`."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention of the program's reports)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def combine(results) -> Dict[str, float]:
    """Counters of several passes: summed, except peaks (max)."""
    total: Dict[str, float] = {}
    for result in results:
        for key, value in result.counters.items():
            if key in PEAK_COUNTERS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


class QuietTimes:
    """Per pass input, the quickest time seen for each stretch of work.

    A pass (or a set-up) takes wall-clock marks at points its work
    repeats exactly (:class:`workloads.Marks`), so every pass of one
    input does the same work between the same two marks.  The host
    slows a process down in bursts; the quickest instance of a short
    stretch is the time its work takes outside them.  Summing those
    minima rebuilds a pass's timeline without the bursts.
    """

    def __init__(self) -> None:
        self._stretches: Dict[int, List[float]] = {}

    def add(self, k: int, marks: List[float]) -> bool:
        """Fold in one pass of input ``k``; ``False`` if its marks differ in number."""
        new = [end - start for start, end in zip(marks, marks[1:])]
        old = self._stretches.setdefault(k, new)
        if len(old) != len(new):
            return False
        self._stretches[k] = list(map(min, old, new))
        return True

    def timeline(self, k: int) -> List[float]:
        """Quiet seconds from the start of a pass of input ``k`` to each mark."""
        return list(accumulate(self._stretches[k], initial=0.0))


@contextmanager
def marking(marks, points) -> Iterator[None]:
    """Take a mark at each call of the methods ``points`` while inside.

    A method the program no longer has is skipped: its stretches merge
    into their neighbours.
    """
    saved = []
    try:
        for module_name, owner_name, attr in points:
            owner = getattr(importlib.import_module(module_name), owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is not None:
                saved.append((owner, attr, original))
                setattr(owner, attr, marks.ticking(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload ``name``; returns the result line plus its detail."""
    from tracing import Tracer
    from workloads import WORKLOADS, Marks

    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    errors: List[str] = []
    setup_s: List[float] = []
    setup_self: List[Dict[str, float]] = []
    quiet_setup = QuietTimes()

    def setup() -> None:
        gc.collect()
        mark = tracer.mark() if tracer else 0
        if tracer:
            tracer.install()
        marks = Marks()
        try:
            with marking(marks, SETUP_MARKS):
                marks.mark()
                workload.setup()
                marks.mark()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(marks.times[-1] - marks.times[0])
        if not quiet_setup.add(0, marks.times):
            errors.append(f"set-up {len(setup_s)} took other marks than the first")
        if tracer:
            setup_self.append(tracer.summarize(mark)[0])
            tracer.drop(mark)

    setup()
    workload.after_setup()

    # The other set-ups run between passes, spread over the run, so
    # that ``setup_s`` sees the same host as the passes.  Untraced runs
    # may stop after any pass once the first cycle and the set-ups are
    # done; traced runs stop only after a traced cycle, so that every
    # traced cycle is complete and the cycles alternate evenly.
    passes: List[Pass] = []
    quiet = QuietTimes()
    started = perf_counter()
    while True:
        while passes and len(setup_s) < SETUPS and (
            perf_counter() - started >= seconds * len(setup_s) / SETUPS
        ):
            setup()
        if trace or len(passes) < workload.passes:
            cycle, k = divmod(len(passes), workload.passes)
        else:
            cycle, k = len(passes) - workload.passes + 1, TIMED_INPUT
        traced = trace and cycle % 2 == 1
        state = workload.prepare(k)
        gc.collect()  # every pass starts from the same collector state
        mark = tracer.mark() if tracer else 0
        workload.tracer = tracer if traced else None
        if traced:
            tracer.begin_pass(len(passes))
            tracer.install()
        marks = Marks()
        marks.mark()
        try:
            workload.execute(state, marks)
        finally:
            marks.mark()
            if traced:
                tracer.uninstall()
        run = Pass(cycle, k, traced, marks.times[-1] - marks.times[0], workload.finish(state))
        if traced:
            run.self_s, run.calls = tracer.summarize(mark)
            if cycle > 1:
                tracer.drop(mark)  # keep the first traced cycle's spans only
        elif not quiet.add(k, marks.times):
            errors.append(f"pass {len(passes)} took other marks than input {k} did before")
        passes.append(run)
        if (
            perf_counter() - started >= seconds
            and len(setup_s) == SETUPS
            and ((traced and k == workload.passes - 1) if trace else len(passes) >= workload.passes)
        ):
            break

    errors[:0] = [f"pass {i}: {p.result.error}" for i, p in enumerate(passes) if p.result.error]
    first = {p.k: p.result for p in passes if p.cycle == 0}
    for index, run in enumerate(passes):
        reference = first[run.k]
        if (
            run.result.counters != reference.counters
            or run.result.sim_ms != reference.sim_ms
            or run.result.sim_request_ms != reference.sim_request_ms
            or run.result.requests != reference.requests
        ):
            errors.append(
                f"pass {index} ({'traced' if run.traced else 'untraced'}) "
                f"differs from the first pass of input {run.k}"
            )

    cycle0 = [first[k] for k in sorted(first)]
    counters = combine(cycle0)
    objects = sum(r.objects for r in cycle0)
    sim_requests = [ms for r in cycle0 for ms in r.sim_request_ms]
    deterministic = {
        "seek_per_page": ratio(counters["disk.seek_total"], counters["disk.pages_read"]),
        "sim_ms_per_object": ratio(sum(r.sim_ms for r in cycle0), objects),
        "sim_p50_ms": percentile(sim_requests, 0.50),
        "sim_p99_ms": percentile(sim_requests, 0.99),
    }

    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    quiet_pass_s: List[float] = []
    if trace:
        units = metric_units("per_layer")
        metrics = per_layer_metrics(units, passes, counters, setup_self)
    else:
        # Wall-clock figures come from the quiet timeline of the timed
        # input.  A workload whose driver returns only at the end of a
        # pass has one request: the pass.
        timed = first[TIMED_INPUT]
        timeline = quiet.timeline(TIMED_INPUT)
        quiet_pass_s = [round(timeline[-1], 4)]
        latencies = [
            (timeline[end] - timeline[begin]) * 1000.0
            for begin, end in timed.requests or [(0, len(timeline) - 1)]
        ]
        metrics = {
            "objects_per_s": timed.objects / timeline[-1],
            "request_p50_ms": percentile(latencies, 0.50),
            "request_p90_ms": percentile(latencies, 0.90),
            "setup_s": quiet_setup.timeline(0)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "served_frac": 1.0 - ratio(failed, attempted),
            **deterministic,
        }
        units = metric_units("end_to_end")

    if tracer:
        tracer.write(TRACE_DIR / f"{name}-seed{seed}.csv.gz")
    return {
        "detail": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "passes": len(passes),
            "pass_wall_s": [round(p.wall_s, 4) for p in passes if not p.traced],
            "setup_wall_s": [round(t, 4) for t in setup_s],
            "quiet_pass_s": quiet_pass_s,
            "errors": errors[:10],
            "counters": counters,
            **deterministic,
            "served_frac": 1.0 - ratio(failed, attempted),
        },
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": units[key]} for key in units
            },
        },
    }


def per_layer_metrics(
    names: Iterable[str],
    passes: List[Pass],
    counters: Dict[str, float],
    setup_self: List[Dict[str, float]],
) -> Dict[str, float]:
    """Flatten counters, self times and tracing overhead into the metrics ``names``."""
    metrics = {name: float(counters.get(name, 0)) for name in names}
    metrics["buffer.hit_ratio"] = ratio(counters["buffer.hits"], counters["buffer.fixes"])
    metrics["disk.pages_per_object"] = ratio(counters["disk.pages_read"], counters["objects"])
    metrics["events.device_util"] = ratio(
        counters.get("events.busy_ms", 0), counters.get("events.device_ms", 0)
    )
    reads_seen = counters.get("faults.reads_seen", 0)
    metrics["faults.success_ratio"] = (
        1.0 - ratio(counters["faults.transient_errors"], reads_seen) if reads_seen else 0.0
    )
    metrics["cache.hit_ratio"] = ratio(
        counters.get("cache.hits", 0), counters.get("cache.lookups", 0)
    )

    traced = [p for p in passes if p.traced]
    first_cycle = traced[0].cycle
    calls: Dict[str, int] = {}
    for run in traced:
        if run.cycle == first_cycle:
            for key, count in run.calls.items():
                calls[key] = calls.get(key, 0) + count
    metrics["sched.ops"] = sum(n for key, n in calls.items() if key.startswith("sched:"))
    metrics["store.fetches"] = sum(
        n for key, n in calls.items() if key.startswith("store:") and ".fetch" in key
    )

    by_cycle: Dict[int, Dict[str, float]] = {}
    for run in traced:
        totals = by_cycle.setdefault(run.cycle, {})
        for layer, seconds in run.self_s.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    for name in names:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(
                totals.get(name[: -len(".self_s")], 0.0) for totals in by_cycle.values()
            )
    metrics["objects.gen_s"] = statistics.median(s.get("objects.gen", 0.0) for s in setup_self)
    metrics["cluster.layout_s"] = statistics.median(
        s.get("cluster.layout", 0.0) for s in setup_self
    )

    def median_wall(is_traced: bool, k: int) -> float:
        return statistics.median(
            p.wall_s for p in passes if p.traced is is_traced and p.k == k
        )

    inputs = sorted({p.k for p in passes})
    metrics["trace.overhead_frac"] = (
        sum(median_wall(True, k) for k in inputs)
        / sum(median_wall(False, k) for k in inputs)
        - 1.0
    )
    return metrics


def pin_hash_seed() -> None:
    """Re-execute this process with :data:`HASH_SEED` unless it has it.

    ``execv`` replaces the process image, so no child process is left
    to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the arguments, run one workload, print the result line."""
    load_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = outcome["detail"]
    for error in detail["errors"]:
        print(f"WRONG OUTPUT: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{detail['passes']} passes"
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
