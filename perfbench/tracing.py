"""Span tracing of the program's layers, from outside the program.

The traced run does not instrument ``src/``: it wraps the public entry
points of each layer (a class method or a module function) for the
duration of a traced pass and restores the originals afterwards.  Each
wrapped call records one span in memory: layer, method, wall start,
wall end, parent span and the id of the request it serves
(:meth:`Tracer.serve`).  A layer's
*self* time is its spans' duration minus the part covered by their
direct child spans, so time spent in a deeper wrapped layer is charged
to that layer and not to its caller.

Spans are kept in memory and written out once the run ends
(:meth:`Tracer.write`).
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module path, owner name or None for a module function, attribute).
#: The layer names are the prefixes of the per-layer metrics.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("objects.gen", "repro.workloads.acob", None, "generate_acob"),
    ("cluster.layout", "repro.cluster.layout", None, "layout_database"),
    # The fabric builder imported the function by name; wrap that
    # binding too so shard layouts are attributed to the same layer.
    ("cluster.layout", "repro.fabric.builder", None, "layout_database"),
    ("buffer", "repro.storage.buffer", "BufferManager", "fix"),
    ("buffer", "repro.storage.buffer", "BufferManager", "fix_many"),
    ("buffer", "repro.storage.buffer", "BufferManager", "unfix"),
    ("store", "repro.storage.store", "ObjectStore", "fetch"),
    ("store", "repro.storage.store", "ObjectStore", "fetch_pinned"),
    ("store", "repro.storage.store", "ObjectStore", "migrate"),
    ("disk", "repro.storage.disk", "SimulatedDisk", "read"),
    ("disk", "repro.storage.disk", "SimulatedDisk", "read_run"),
    ("disk", "repro.storage.multidisk", "MultiDeviceDisk", "read"),
    ("disk", "repro.storage.multidisk", "MultiDeviceDisk", "read_run"),
    ("sched", "repro.core.schedulers", "SweepPool", "add"),
    ("sched", "repro.core.schedulers", "SweepPool", "pop_next"),
    ("sched", "repro.core.schedulers", "SweepPool", "pop_batch_next"),
    ("sched", "repro.core.schedulers", "SweepPool", "remove_owner"),
    ("iter", "repro.core.component_iterator", "ComponentIterator", "expand"),
    ("iter", "repro.core.component_iterator", "ComponentIterator", "materialize"),
    ("assembly", "repro.core.assembly", "Assembly", "next"),
    ("assembly", "repro.core.assembly", "Assembly", "resolve_external"),
    ("assembly", "repro.core.assembly", "Assembly", "resolve_external_batch"),
    ("events", "repro.storage.events", "AsyncIOEngine", "issue"),
    ("events", "repro.storage.events", "AsyncIOEngine", "wait_next"),
    ("pipeline", "repro.core.multidevice", "PipelinedAssembly", "run"),
    ("devserver", "repro.service.device_server", "DeviceServer", "step"),
    ("service", "repro.service.server", "AssemblyService", "submit"),
    ("service", "repro.service.server", "AssemblyService", "step"),
    ("service", "repro.service.server", "AssemblyService", "run"),
    ("reorg", "repro.cluster.reorg", "Reorganizer", "run_round"),
    ("fabric", "repro.fabric.fabric", "ShardReplica", "step"),
    ("fabric", "repro.fabric.fabric", "ServiceFabric", "run"),
    ("volcano", "repro.volcano.assembly", "AssemblyOperator", "next"),
)

#: Request id recorded on spans outside any pass (the set-ups).
NO_REQUEST = ""


class Tracer:
    """In-memory span recorder over the wrapped entry points.

    ``spans[i]`` is ``(name_index, start, end, parent, request)`` with
    ``parent == -1`` for a top-level span; ``names[name_index]`` is
    ``"layer:method"``.  ``request`` is the id of the request being
    served: ``"<pass>.<n>"`` for request ``n`` of a pass, or ``"<pass>"``
    where the pass itself is what a caller waits on, or where one call
    serves several requests at once.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, str]]] = []
        self.request = NO_REQUEST
        self._pass = NO_REQUEST
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name_index: int, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self.request)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            name = f"{layer}:{owner_name or module_name}.{attr}"
            if name in self.names:
                name_index = self.names.index(name)
            else:
                name_index = len(self.names)
                self.names.append(name)
                self.layer_of.append(layer)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(name_index, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def begin_pass(self, index: int) -> None:
        """Tag the spans that follow with pass ``index``."""
        self._pass = self.request = str(index)

    def serve(self, request: Optional[int]) -> None:
        """Tag the spans that follow with request ``request`` of the pass.

        ``None`` goes back to the pass itself.
        """
        self.request = self._pass if request is None else f"{self._pass}.{request}"

    # -- analysis -------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span log; pass it to :meth:`summarize`."""
        return len(self.spans)

    def summarize(self, since: int = 0) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds per layer and call counts per ``layer:method``.

        Only spans recorded at or after position ``since`` count; a
        span's children always follow it in the log, so a suffix of the
        log is closed under the parent relation.
        """
        spans = self.spans[since:]
        duration = [end - start for _n, start, end, _p, _r in spans]
        child = [0.0] * len(spans)
        for (_n, _s, _e, parent, _r), length in zip(spans, duration):
            if parent >= since:
                child[parent - since] += length
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name_index, *_rest), length, inner in zip(spans, duration, child):
            self_s[self.layer_of[name_index]] += length - inner
            calls[self.names[name_index]] += 1
        return dict(self_s), dict(calls)

    def drop(self, since: int) -> None:
        """Forget spans from position ``since`` on (bounds memory)."""
        del self.spans[since:]

    def write(self, path: Path) -> Path:
        """Write the span log as gzipped CSV, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,request\n")
            for index, (name_index, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(
                    f"{index},{self.names[name_index]},{start:.9f},"
                    f"{end:.9f},{parent},{request}\n"
                )
        return path
