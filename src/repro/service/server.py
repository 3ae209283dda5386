"""The assembly service façade: ``submit`` / ``poll`` / ``result``.

:class:`AssemblyService` is the synchronous front of the §7 device
server.  A client submits an assembly request — a set of root OIDs, a
template, a window size — and gets a request id; the service multiplexes
every admitted request's references into the device server's global
elevator sweep, serves repeat roots from the result cache without
touching the disk at all, and enforces the admission controller's
buffer budget by shrinking, queueing, or rejecting requests.

The execution model is cooperative and deterministic: :meth:`step`
advances the whole service by one reference resolution, :meth:`run`
drives it until idle, and :meth:`result` blocks (by stepping) until one
request finishes.  The service clock is the device server's resolution
counter, so identical request sequences produce identical metrics on
the simulated disk.

A step touches only the *live* requests (queued or running), never the
finished ones kept for :meth:`poll` / :meth:`result`, so its cost does
not grow with the number of requests the service has ever served.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.core.assembled import AssembledComplexObject
from repro.core.template import Template
from repro.core.trace import AssemblyTracer
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.obs.spans import Span, SpanRecorder
from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.cache import AssembledObjectCache
from repro.service.device_server import ClientQuery, DeviceServer
from repro.service.metrics import RequestMetrics, ServiceMetrics
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


class RequestStatus(Enum):
    """Lifecycle of one submitted request."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


class _Request:
    """Service-side state of one submitted request."""

    def __init__(
        self,
        request_id: int,
        template: Template,
        fingerprint: str,
        metrics: RequestMetrics,
    ) -> None:
        self.request_id = request_id
        self.template = template
        self.fingerprint = fingerprint
        self.metrics = metrics
        self.status = RequestStatus.QUEUED
        self.results: List[AssembledComplexObject] = []
        self.pending_roots: List[Oid] = []
        self.ticket: Optional[AdmissionTicket] = None
        self.query: Optional[ClientQuery] = None
        self.tracer: Optional[AssemblyTracer] = None
        self.assembly_kwargs: Dict[str, object] = {}
        self.cache_results: bool = True
        self.span: Optional[Span] = None
        self.wait_span: Optional[Span] = None


class AssemblyService:
    """Serves concurrent assembly requests against one object store.

    Parameters
    ----------
    store:
        The shared (already laid out) object store.
    budget_pages:
        Admission budget in pinnable pages.  Defaults to the store
        buffer's capacity when that is bounded, else unlimited.
    cache_capacity:
        Result-cache size in complex objects; ``0`` disables caching.
    starvation_bound:
        Device-server fairness bound (see :class:`DeviceServer`).
    max_waiting / min_window:
        Admission wait-queue capacity and smallest shrunk window.
    span_recorder:
        Optional :class:`~repro.obs.spans.SpanRecorder` tracing every
        request's life (``request`` → ``queue-wait`` → ``assembly`` →
        per-slot/fetch spans) on the service clock.  The recorder is
        bound to the device server's resolution counter and shared with
        every query's operator; recording is strictly observational —
        results and :class:`ServiceMetrics` are bit-identical with or
        without it.  Export the trace with :meth:`export_trace`.
    batch_pages:
        Distinct pages per device-server scheduler batch (see
        :class:`DeviceServer`); 1 keeps the paper's unbatched sweep.
    reorg_policy:
        Optional :class:`~repro.cluster.reorg.ReorgPolicy` enabling
        online reorganization.  The device server feeds the affinity
        sketch from its resolution stream; whenever :meth:`run` drains
        the service (the pool-idle window) a migration round may
        execute, with its activity folded into ``metrics``
        (``reorg_rounds``, ``reorg_migrations``, ``reorg_io_ms``,
        ``reorg_cache_invalidations``).  ``None`` (default) leaves the
        service bit-identical to one built before this feature.
    """

    def __init__(
        self,
        store: ObjectStore,
        budget_pages: Optional[int] = None,
        cache_capacity: int = 256,
        starvation_bound: Optional[int] = 64,
        max_waiting: int = 16,
        min_window: int = 1,
        span_recorder: Optional[SpanRecorder] = None,
        batch_pages: int = 1,
        reorg_policy=None,
    ) -> None:
        self.store = store
        if budget_pages is None:
            budget_pages = store.buffer.capacity
        self.spans = span_recorder
        self.server = DeviceServer(
            store,
            starvation_bound=starvation_bound,
            batch_pages=batch_pages,
            spans=span_recorder,
            reorg_policy=reorg_policy,
        )
        if span_recorder is not None:
            span_recorder.bind_clock(lambda: float(self.server.resolutions))
        self.admission = AdmissionController(
            budget_pages=budget_pages,
            max_waiting=max_waiting,
            min_window=min_window,
            buffer=store.buffer,
        )
        self.cache: Optional[AssembledObjectCache] = None
        if cache_capacity > 0:
            self.cache = AssembledObjectCache(cache_capacity)
            self.cache.wire(store)
        self.metrics = ServiceMetrics()
        self._requests: Dict[int, _Request] = {}
        # Queued and running requests, in request-id (= insertion) order.
        self._live: Dict[int, _Request] = {}
        self._next_request_id = 0

    # -- submission ----------------------------------------------------------

    @property
    def clock(self) -> int:
        """The service clock: global references resolved so far."""
        return self.server.resolutions

    def submit(
        self,
        roots: Iterable[Oid],
        template: Template,
        window_size: int = 8,
        priority: bool = False,
        use_cache: bool = True,
        **assembly_kwargs,
    ) -> int:
        """Accept one assembly request; returns its request id.

        Roots already in the result cache are answered immediately (no
        admission, no disk); the rest go through admission control and,
        once granted, into the device server.  Raises
        :class:`~repro.errors.ServiceOverloadError` when the budget is
        exhausted and the wait queue is full.
        """
        template = template.finalize()
        fingerprint = template.fingerprint()
        request_id = self._next_request_id
        self._next_request_id += 1
        metrics = self.metrics.open_request(request_id, self.clock)
        request = _Request(request_id, template, fingerprint, metrics)
        request.assembly_kwargs = dict(assembly_kwargs)
        request.cache_results = use_cache and self.cache is not None
        self._requests[request_id] = request
        self._live[request_id] = request
        if self.spans is not None:
            request.span = self.spans.begin(
                "request", kind="request", request_id=request_id
            )

        for root in roots:
            cached = None
            if use_cache and self.cache is not None:
                cached = self.cache.get(root, fingerprint)
                if cached is not None:
                    self.metrics.cache_hits += 1
                    metrics.cache_hits += 1
                else:
                    self.metrics.cache_misses += 1
            if cached is not None:
                request.results.append(cached)
            else:
                request.pending_roots.append(root)

        if not request.pending_roots:
            self._finish(request)
            return request_id

        # Admission may raise ServiceOverloadError: the request is then
        # dropped entirely (load shedding), not left half-registered.
        try:
            ticket = self.admission.submit(
                request_id, window_size, template, priority=priority
            )
        except ServiceOverloadError:
            del self._requests[request_id]
            del self._live[request_id]
            del self.metrics.per_request[request_id]
            self.metrics.requests_submitted -= 1
            self.metrics.requests_rejected += 1
            if self.spans is not None and request.span is not None:
                self.spans.end(request.span, outcome="rejected")
                request.span = None
            raise
        request.ticket = ticket
        if ticket.waiting:
            self.metrics.requests_queued += 1
            if self.spans is not None:
                request.wait_span = self.spans.begin(
                    "queue-wait", parent=request.span, kind="queue-wait"
                )
            return request_id
        self._start(request)
        return request_id

    def _start(self, request: _Request) -> None:
        assert request.ticket is not None and not request.ticket.waiting
        request.tracer = AssemblyTracer()
        if self.spans is not None:
            if request.wait_span is not None:
                self.spans.end(request.wait_span)
                request.wait_span = None
            request.assembly_kwargs.setdefault("parent_span", request.span)
        request.query = self.server.register(
            request.pending_roots,
            request.template,
            window_size=request.ticket.window_size,
            tracer=request.tracer,
            **request.assembly_kwargs,
        )
        request.status = RequestStatus.RUNNING
        request.metrics.started_at = self.clock
        request.metrics.window_size = request.ticket.window_size
        request.metrics.shrunk = request.ticket.shrunk
        if request.ticket.shrunk:
            self.metrics.requests_shrunk += 1
        self._collect(request)

    # -- progress ------------------------------------------------------------

    def step(self) -> bool:
        """Advance the service by one global resolution.

        Returns ``False`` when nothing is left to do: no pending
        references, no running queries, no admissible waiters.
        """
        advanced = self.server.step()
        finished_any = False
        # Iterate a snapshot: _finish drops requests from the index and
        # may start queued ones in the middle of the loop.
        for request in list(self._live.values()):
            if request.status is RequestStatus.RUNNING:
                self._collect(request)
                if request.query is not None and request.query.finished:
                    self._finish(request)
                    finished_any = True
        return advanced or finished_any

    def run(self) -> None:
        """Step until every submitted request is done.

        With a ``reorg_policy`` attached, the drained service is the
        detected idle window: one reorganization round may run here,
        after the last request completed and before control returns to
        the client.  Without a policy this is exactly the old loop.
        """
        while self.step():
            pass
        stuck = list(self._live)
        if stuck:
            raise ServiceStateError(
                f"service idle with unfinished requests {stuck}"
            )
        reorg = self.server.reorg
        if reorg is not None and reorg.policy.auto:
            self._run_reorg_round()

    def reorganize(self, force: bool = True):
        """Run one reorganization round now; returns its report.

        Raises :class:`ServiceStateError` when the service was built
        without a ``reorg_policy``.  ``force`` (default) runs the round
        even below the policy's observation threshold — the operator
        asked for it explicitly.
        """
        if self.server.reorg is None:
            raise ServiceStateError(
                "reorganize() needs a service built with reorg_policy="
            )
        return self._run_reorg_round(force=force)

    def _run_reorg_round(self, force: bool = False):
        """Execute one round and fold its activity into the metrics.

        Cache invalidations are measured as the invalidation-counter
        delta across the round: migrations notify the store's write
        hooks, which is the same per-OID invalidation path ordinary
        writes take, so the delta is exactly the assemblies dropped
        because a member moved.
        """
        reorg = self.server.reorg
        assert reorg is not None
        invalidations_before = (
            self.cache.stats.invalidations if self.cache is not None else 0
        )
        report = reorg.run_round(force=force)
        self.metrics.reorg_rounds = reorg.rounds
        self.metrics.reorg_migrations += report.migrations
        self.metrics.reorg_pages_written += report.pages_touched
        self.metrics.reorg_io_ms += report.priced_ms
        if self.cache is not None:
            self.metrics.reorg_cache_invalidations += (
                self.cache.stats.invalidations - invalidations_before
            )
        return report

    def _collect(self, request: _Request) -> None:
        if request.query is None:
            return
        for assembled in request.query.take_results():
            request.results.append(assembled)
            # Degraded objects are never cached: a later fault-free run
            # must be able to produce the complete structure.
            if (
                request.cache_results
                and self.cache is not None
                and not assembled.degraded
            ):
                self.cache.put(request.fingerprint, assembled)

    def _finish(self, request: _Request) -> None:
        if request.query is not None:
            self._collect(request)
            stats = request.query.stats
            self.metrics.objects_emitted += stats.emitted
            self.metrics.objects_aborted += stats.aborted
            self.metrics.objects_degraded += stats.degraded_emitted
            self.metrics.fault_retries += stats.fault_retries
            self.metrics.fault_aborts += stats.fault_skipped
            request.metrics.fault_retries = stats.fault_retries
            request.metrics.degraded = stats.degraded_emitted
            self.server.deregister(request.query.query_id)
        if request.tracer is not None:
            request.metrics.absorb_trace(request.tracer)
        request.status = RequestStatus.DONE
        del self._live[request.request_id]
        request.metrics.completed_at = self.clock
        self.metrics.requests_completed += 1
        self.metrics.close_request(request.metrics)
        if self.spans is not None and request.span is not None:
            self.spans.end(
                request.span,
                outcome="done",
                emitted=request.metrics.emitted,
                cache_hits=request.metrics.cache_hits,
            )
            request.span = None
        if request.ticket is not None:
            for started in self.admission.release(request.ticket):
                self._start(self._requests[started.request_id])
            request.ticket = None

    # -- client API ----------------------------------------------------------

    def cancel(self, request_id: int) -> bool:
        """Abandon an unfinished request; ``True`` if it was live.

        A queued request leaves the admission wait lane; a running one
        is deregistered from the device server (its pending references
        retracted) and its granted budget released, which may start
        waiting requests.  Partial results are discarded — the caller
        asked for none.  Cancelling a finished (or already cancelled)
        request returns ``False`` and changes nothing; this is what
        makes hedged requests race-free: whichever copy finishes first
        wins, and cancelling the loser is always safe.
        """
        request = self._request(request_id)
        if request.status in (RequestStatus.DONE, RequestStatus.CANCELLED):
            return False
        if request.status is RequestStatus.RUNNING:
            assert request.query is not None
            self.server.deregister(request.query.query_id)
            request.query = None
        if request.ticket is not None:
            if request.ticket.waiting:
                self.admission.cancel_waiting(request.ticket)
            else:
                for started in self.admission.release(request.ticket):
                    self._start(self._requests[started.request_id])
            request.ticket = None
        request.status = RequestStatus.CANCELLED
        del self._live[request_id]
        self.metrics.requests_cancelled += 1
        if self.spans is not None:
            if request.wait_span is not None:
                self.spans.end(request.wait_span, outcome="cancelled")
                request.wait_span = None
            if request.span is not None:
                self.spans.end(request.span, outcome="cancelled")
                request.span = None
        return True

    def poll(self, request_id: int) -> RequestStatus:
        """Current lifecycle state of one request."""
        return self._request(request_id).status

    def result(self, request_id: int) -> List[AssembledComplexObject]:
        """Drive the service until ``request_id`` finishes; its objects.

        Cache-served objects come first, then assembled ones in
        completion order.  Aborted (predicate-rejected) objects are
        simply absent, as with the bare assembly operator.
        """
        request = self._request(request_id)
        if request.status is RequestStatus.CANCELLED:
            raise ServiceStateError(
                f"request {request_id} was cancelled; it has no result"
            )
        while request.status is not RequestStatus.DONE:
            if not self.step():
                raise ServiceStateError(
                    f"request {request_id} cannot finish: service is idle"
                )
        return list(request.results)

    def request_metrics(self, request_id: int) -> RequestMetrics:
        """Per-request metrics (final once the request is done)."""
        return self._request(request_id).metrics

    def export_trace(self, path: str, fmt: str = "chrome") -> str:
        """Write the recorded span trace to ``path``; returns the path.

        ``fmt`` is ``"chrome"`` (a Chrome ``trace_event`` JSON document
        for ``chrome://tracing`` / Perfetto) or ``"jsonl"`` (the flat
        span log ``python -m repro.obs`` renders, summarizes and
        diffs).  Raises :class:`~repro.errors.ServiceStateError` when
        the service was built without a ``span_recorder``.
        """
        if self.spans is None:
            raise ServiceStateError(
                "export_trace() needs a service built with span_recorder="
            )
        from repro.obs.export import write_chrome_trace, write_jsonl

        if fmt == "chrome":
            return str(write_chrome_trace(self.spans.spans, path))
        if fmt == "jsonl":
            return str(write_jsonl(self.spans.spans, path))
        raise ServiceStateError(
            f"unknown trace format {fmt!r} (want 'chrome' or 'jsonl')"
        )

    def _request(self, request_id: int) -> _Request:
        try:
            return self._requests[request_id]
        except KeyError:
            raise ServiceStateError(
                f"unknown request id {request_id}"
            ) from None
