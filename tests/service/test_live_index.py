"""The service's live-request index against the old full-scan loop.

:meth:`AssemblyService.step` walks only the live requests (queued or
running) and :meth:`AssemblyService.run` reads the same index for its
stuck check.  ``_FullScanService`` below restores the original loops,
which scanned every request the service had ever seen.  Random
sequences of submit / cancel / step / run / result must produce the
same results, in the same order, and the same metrics on both, and the
index must always hold exactly the queued and running requests.  A
second test pins the contract directly: one step after K completed
requests does the same work for every K and touches none of them.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_layout
from repro.errors import ReproError, ServiceStateError
from repro.service.server import AssemblyService, RequestStatus, _Request
from repro.workloads.acob import make_template

N_OBJECTS = 30
#: pin_bound(8, 7-node template) = 49 and pin_bound(1, ...) = 7: two
#: window-8 requests fit, a third is shrunk to window 1, later ones
#: queue (up to MAX_WAITING) and the rest are rejected.
BUDGET = 105
MAX_WAITING = 2
CACHE_CAPACITY = 4
#: Requests draw their roots from a few objects, so concurrent requests
#: share references and often finish on the same step.
ROOT_POOL = 8

LIVE = (RequestStatus.QUEUED, RequestStatus.RUNNING)


class _FullScanService(AssemblyService):
    """The service with the original history-wide step and run loops."""

    def step(self) -> bool:
        advanced = self.server.step()
        finished_any = False
        for request in list(self._requests.values()):
            if request.status is RequestStatus.RUNNING:
                self._collect(request)
                if request.query is not None and request.query.finished:
                    self._finish(request)
                    finished_any = True
        return advanced or finished_any

    def run(self) -> None:
        while self.step():
            pass
        stuck = [
            r.request_id
            for r in self._requests.values()
            if r.status not in (RequestStatus.DONE, RequestStatus.CANCELLED)
        ]
        if stuck:
            raise ServiceStateError(
                f"service idle with unfinished requests {stuck}"
            )


def _build(cls):
    config = ExperimentConfig(
        n_complex_objects=N_OBJECTS,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
        buffer_capacity=BUDGET,
    )
    db, layout = build_layout(config)
    service = cls(
        layout.store,
        cache_capacity=CACHE_CAPACITY,
        max_waiting=MAX_WAITING,
    )
    return service, layout, make_template(db)


def _signature(objects) -> List[tuple]:
    return [
        (
            c.serial,
            c.root_oid,
            c.fetches,
            c.shared_links,
            c.degraded,
            c.missing_components,
            tuple(o.oid for o in c.scan()),
        )
        for c in objects
    ]


def _outcome(call):
    try:
        return ("ok", call())
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


def _check_live_index(service: AssemblyService) -> None:
    live = [
        request_id
        for request_id, request in service._requests.items()
        if request.status in LIVE
    ]
    assert list(service._live) == live


_submit = st.tuples(
    st.just("submit"),
    st.lists(st.integers(0, ROOT_POOL - 1), max_size=4),
    st.sampled_from([1, 2, 8]),
    st.booleans(),
    st.booleans(),
)
_ops = st.lists(
    st.one_of(
        _submit,
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("step"), st.integers(1, 40)),
        st.tuples(st.just("result"), st.integers(0, 15)),
        st.tuples(st.just("run")),
    ),
    max_size=24,
)


def _apply(service: AssemblyService, layout, template, op, submitted):
    kind = op[0]
    if kind == "submit":
        _, picks, window, priority, use_cache = op
        roots = [layout.root_order[i] for i in picks]
        outcome = _outcome(
            lambda: service.submit(
                roots,
                template,
                window_size=window,
                priority=priority,
                use_cache=use_cache,
            )
        )
        submitted.append(outcome[1] if outcome[0] == "ok" else -1)
        return outcome
    if kind == "step":
        return [service.step() for _ in range(op[1])]
    if kind == "run":
        return _outcome(service.run)
    if not submitted:
        return None
    request_id = submitted[op[1] % len(submitted)]
    if kind == "cancel":
        return _outcome(lambda: service.cancel(request_id))
    return _outcome(lambda: _signature(service.result(request_id)))


class TestLiveIndexMatchesFullScan:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    def test_same_results_and_metrics(self, ops):
        fast, fast_layout, fast_template = _build(AssemblyService)
        slow, slow_layout, slow_template = _build(_FullScanService)
        fast_ids: List[int] = []
        slow_ids: List[int] = []
        for op in ops + [("run",)]:
            got = _apply(fast, fast_layout, fast_template, op, fast_ids)
            want = _apply(slow, slow_layout, slow_template, op, slow_ids)
            assert got == want, op
            _check_live_index(fast)

        assert fast_ids == slow_ids
        assert list(fast._live) == []
        assert fast.admission.granted_pages == 0
        assert fast_layout.store.buffer.pinned_pages == 0
        assert fast.metrics.snapshot() == slow.metrics.snapshot()
        assert fast.metrics.per_request == slow.metrics.per_request
        assert fast.cache.stats == slow.cache.stats
        assert fast_layout.store.disk.stats == slow_layout.store.disk.stats
        assert fast._requests.keys() == slow._requests.keys()
        for request_id in fast._requests:
            assert fast.poll(request_id) is slow.poll(request_id)
            assert fast.request_metrics(request_id) == slow.request_metrics(
                request_id
            )
            assert _signature(fast._requests[request_id].results) == (
                _signature(slow._requests[request_id].results)
            )

    def test_admission_outcomes_are_all_reachable(self):
        """The budget above really yields every submit outcome."""
        service, layout, template = _build(AssemblyService)
        roots = layout.root_order
        admitted = [service.submit(roots[i : i + 2], template) for i in (0, 2)]
        shrunk = service.submit(roots[4:6], template)
        queued = [service.submit(roots[i : i + 1], template) for i in (6, 7)]
        rejected = _outcome(lambda: service.submit(roots[8:9], template))
        assert all(service.poll(r) is RequestStatus.RUNNING for r in admitted)
        assert service.request_metrics(shrunk).shrunk
        assert all(service.poll(r) is RequestStatus.QUEUED for r in queued)
        assert rejected[:2] == ("error", "ServiceOverloadError")
        service.run()
        service.result(service.submit(roots[9:11], template))
        hit = service.submit(roots[9:11], template)
        assert service.poll(hit) is RequestStatus.DONE
        assert service.request_metrics(hit).cache_hits == 2


class _Watched(_Request):
    """A finished request that counts every attribute read on it."""

    reads = 0

    def __getattribute__(self, name):
        _Watched.reads += 1
        return super().__getattribute__(name)


class TestStepIsIndependentOfHistory:
    def _one_step_after(self, completed: int, monkeypatch):
        service, layout, template = _build(AssemblyService)
        roots = layout.root_order
        for k in range(completed):
            request_id = service.submit(
                [roots[k % len(roots)]], template, use_cache=False
            )
            service.result(request_id)
        assert list(service._live) == []
        for request in service._requests.values():
            request.__class__ = _Watched
        _Watched.reads = 0

        calls = []
        collect = AssemblyService._collect

        def counting(self, request):
            calls.append(request.request_id)
            return collect(self, request)

        monkeypatch.setattr(AssemblyService, "_collect", counting)
        service.submit([roots[0]], template, use_cache=False)
        service.step()
        monkeypatch.undo()
        return len(calls), _Watched.reads

    def test_step_work_does_not_grow_with_completed_requests(
        self, monkeypatch
    ):
        seen = {
            k: self._one_step_after(k, monkeypatch) for k in (1, 50, 500)
        }
        collects = {k: calls for k, (calls, _reads) in seen.items()}
        assert len(set(collects.values())) == 1, collects
        # No finished request is so much as looked at.
        assert all(reads == 0 for _calls, reads in seen.values()), seen
