"""The simulated disk: the paper's performance model.

Section 6 of the paper measures "average seek distance, in pages of
size 1K bytes … total seek distance divided by the total number of
reads", assuming "entire control over the queue of requests for the
disk".  :class:`SimulatedDisk` is exactly that model: a linear array of
pages with a head position; every read or write moves the head by
``|target − position|`` pages and that distance is accounted.

The disk also provides contiguous **extent** allocation, which the
clustering layouts (Figures 8–10, 12) use to place clusters at chosen
physical locations, including the sparse, shuffled cluster extents that
make breadth-first scheduling pathological in Figure 11A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DiskError, ExtentError
from repro.storage.page import PAGE_SIZE, Page

#: Observer of physical reads: called with ``(seek_distance, n_pages)``
#: once per physical read operation (a multi-page run is one call).
IoListener = Callable[[int, int], None]

#: Additive observer of physical reads: called with ``(start_page,
#: seek_distance, n_pages)`` once per physical read operation.  Unlike
#: the exclusive :data:`IoListener` slot, any number can be attached.
IoObserver = Callable[[int, int, int], None]


@dataclass
class DiskStats:
    """Head-movement accounting, the paper's metric.

    ``avg_seek_per_read`` is the figure plotted throughout Section 6.
    Writes are tracked separately so database loading never pollutes
    the read statistics (and callers reset stats after loading anyway).

    ``reads`` counts *physical* read operations: a multi-page
    :meth:`SimulatedDisk.read_run` is one seek and one read, however
    many pages it transfers.  ``pages_read`` counts the transferred
    pages, so it equals ``reads`` exactly until runs are batched.
    """

    reads: int = 0
    writes: int = 0
    read_seek_total: int = 0
    write_seek_total: int = 0
    #: Pages transferred by reads (== reads unless runs are batched).
    pages_read: int = 0
    #: Multi-page contiguous runs among ``reads``.
    run_reads: int = 0
    #: Milliseconds this device spent serving reads under an
    #: event-driven engine (:mod:`repro.storage.events`); stays 0.0 on
    #: the synchronous path, where time is not modelled per device.
    busy_ms: float = 0.0
    #: Per-read seek distances, kept for distribution-level assertions.
    read_seeks: List[int] = field(default_factory=list, repr=False)

    @property
    def avg_seek_per_read(self) -> float:
        """Average pages moved per page read — the paper's y-axis.

        The paper computes "total seek distance divided by the total
        number of reads" with every read transferring one page, so the
        denominator here is ``pages_read``: identical to the paper's
        definition for unbatched runs (``pages_read == reads``), and the
        fair per-page amortization once multi-page runs make a single
        physical read transfer several pages.  Dividing by physical
        ``reads`` instead would *rise* under batching even as total seek
        falls, because coalescing removes cheap adjacent seeks from the
        numerator and denominator alike.
        """
        if self.pages_read == 0:
            return 0.0
        return self.read_seek_total / self.pages_read

    def snapshot(self) -> "DiskStats":
        """An independent copy (histories included)."""
        return DiskStats(
            reads=self.reads,
            writes=self.writes,
            read_seek_total=self.read_seek_total,
            write_seek_total=self.write_seek_total,
            pages_read=self.pages_read,
            run_reads=self.run_reads,
            busy_ms=self.busy_ms,
            read_seeks=list(self.read_seeks),
        )


def coalesce_runs(page_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Group page ids into ``(start, length)`` physical runs.

    Ids are taken in the given order (a scheduler's sweep order);
    neighbours that step by +1 or −1 join one run, and a descending
    run is reported from its lowest page so it can be transferred
    ascending in one pass.  Repeated neighbours collapse; any other
    discontinuity starts a new run.
    """
    runs: List[Tuple[int, int]] = []
    run_start: Optional[int] = None
    run_end = 0  # one past the highest page of the current run
    direction = 0  # 0 until the run's second page fixes it
    previous: Optional[int] = None
    for page_id in page_ids:
        if previous is not None and page_id == previous:
            continue
        if run_start is None:
            run_start, run_end, direction = page_id, page_id + 1, 0
        else:
            step = page_id - previous
            if step in (1, -1) and direction in (0, step):
                direction = step
                run_start = min(run_start, page_id)
                run_end = max(run_end, page_id + 1)
            else:
                runs.append((run_start, run_end - run_start))
                run_start, run_end, direction = page_id, page_id + 1, 0
        previous = page_id
    if run_start is not None:
        runs.append((run_start, run_end - run_start))
    return runs


@dataclass(frozen=True)
class Extent:
    """A contiguous run of pages: ``[start, start + length)``."""

    start: int
    length: int

    @property
    def end(self) -> int:
        """One past the last page id of the extent."""
        return self.start + self.length

    def __contains__(self, page_id: int) -> bool:
        return self.start <= page_id < self.end

    def page_at(self, index: int) -> int:
        """Absolute page id of the ``index``-th page of the extent."""
        if not 0 <= index < self.length:
            raise ExtentError(
                f"index {index} outside extent of {self.length} pages"
            )
        return self.start + index


class SimulatedDisk:
    """A dedicated single-head disk with per-access seek accounting.

    Pages materialize lazily: reading a never-written page returns a
    fresh empty page.  The head starts at page 0.  The experiments own
    the device exclusively, as the paper assumes, so there is no
    request interleaving to model — the *caller* (the assembly
    operator's scheduler) decides the access order, and the disk simply
    charges the distance.
    """

    def __init__(self, n_pages: Optional[int] = None) -> None:
        """``n_pages`` bounds the address space; ``None`` means unbounded."""
        if n_pages is not None and n_pages <= 0:
            raise DiskError("disk must have at least one page")
        self._limit = n_pages
        self._pages: Dict[int, bytes] = {}
        self._next_free = 0
        self._head = 0
        self.stats = DiskStats()
        self._io_listener: Optional[IoListener] = None
        self._io_observers: List[IoObserver] = []
        #: optional :class:`repro.storage.faults.FaultInjector`; its
        #: ``before_read`` gate runs ahead of any head movement or
        #: accounting, so a failed attempt leaves the disk untouched.
        self.fault_injector = None

    # -- geometry -----------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per page (always :data:`PAGE_SIZE`)."""
        return PAGE_SIZE

    @property
    def head_position(self) -> int:
        """Current head position in pages — elevator scheduling input."""
        return self._head

    @property
    def allocated_pages(self) -> int:
        """Pages handed out through :meth:`allocate` so far."""
        return self._next_free

    def _check(self, page_id: int) -> None:
        if page_id < 0:
            raise DiskError(f"negative page id {page_id}")
        if self._limit is not None and page_id >= self._limit:
            raise DiskError(
                f"page {page_id} beyond disk of {self._limit} pages"
            )

    # -- allocation -----------------------------------------------------------

    def allocate(self, n_pages: int) -> Extent:
        """Reserve the next ``n_pages`` contiguous pages."""
        if n_pages <= 0:
            raise ExtentError("extent must contain at least one page")
        start = self._next_free
        end = start + n_pages
        if self._limit is not None and end > self._limit:
            raise ExtentError(
                f"extent of {n_pages} pages exceeds disk of "
                f"{self._limit} pages"
            )
        self._next_free = end
        return Extent(start=start, length=n_pages)

    # -- snapshot / restore ---------------------------------------------------

    def dump_state(self) -> Tuple[Dict[int, bytes], Tuple[int, ...]]:
        """Copy of ``(page images, allocation cursors)``.

        Page images are immutable ``bytes``, so the copy is shallow and
        cheap; together with :meth:`load_state` this lets a harness
        snapshot a freshly laid-out database and restore it onto a new
        disk of the same geometry instead of re-running the whole load
        phase.  The cursors are what :meth:`allocate` continues from:
        ``(next_free,)`` for a single device.
        """
        return dict(self._pages), (self._next_free,)

    def load_state(
        self, pages: Dict[int, bytes], cursors: Tuple[int, ...]
    ) -> None:
        """Install page images and allocation cursors from :meth:`dump_state`.

        Head position and statistics are untouched — callers restore
        onto a fresh disk, which matches the post-layout state
        (:func:`repro.cluster.layout.layout_database` resets both).
        """
        if len(cursors) != 1:
            raise DiskError(
                f"a single-device disk has 1 allocation cursor, "
                f"not {len(cursors)}"
            )
        self._pages = dict(pages)
        (self._next_free,) = cursors

    # -- I/O ------------------------------------------------------------------

    def _seek_to(self, page_id: int) -> int:
        distance = abs(page_id - self._head)
        self._head = page_id
        return distance

    def _settle_at(self, page_id: int) -> None:
        """Move the head without charging a seek.

        Used by :meth:`read_run` after the transfer: the pages of a
        contiguous run pass under the head for free, which is the whole
        point of run batching.
        """
        self._head = page_id

    def _page_image(self, page_id: int) -> Page:
        image = self._pages.get(page_id)
        if image is None:
            return Page(page_id)
        return Page.from_bytes(page_id, image)

    def set_io_listener(
        self, listener: Optional[IoListener]
    ) -> Optional[IoListener]:
        """Install an observer of physical reads; returns the previous one.

        The listener is called ``(seek_distance, n_pages)`` once per
        physical read operation — a multi-page run is a single call.
        The event-driven engine (:mod:`repro.storage.events`) uses this
        to price exactly the reads one asynchronous request performed.
        """
        previous = self._io_listener
        self._io_listener = listener
        return previous

    def add_io_observer(self, observer: IoObserver) -> IoObserver:
        """Attach an additive read observer; returns it for removal.

        Observers are called ``(start_page, seek_distance, n_pages)``
        after the exclusive listener, once per physical read.  They are
        the observability layer's tap (:mod:`repro.obs.devices`): any
        number can attach, and attaching one changes no accounting,
        head movement, or listener behaviour anywhere — observers only
        *watch* reads the caller already decided to perform.
        """
        self._io_observers.append(observer)
        return observer

    def remove_io_observer(self, observer: IoObserver) -> None:
        """Detach one observer added by :meth:`add_io_observer`."""
        if observer in self._io_observers:
            self._io_observers.remove(observer)

    def _notify_read(self, start: int, distance: int, n_pages: int) -> None:
        """Fan a physical read out to the listener and all observers."""
        if self._io_listener is not None:
            self._io_listener(distance, n_pages)
        for observer in self._io_observers:
            observer(start, distance, n_pages)

    def read(self, page_id: int) -> Page:
        """Read a page, moving the head and charging the seek.

        With a fault injector attached the read may raise a
        :class:`~repro.errors.FaultError` *before* the head moves or
        anything is accounted — a retried read then performs the exact
        seek the fault-free run would have.
        """
        self._check(page_id)
        if self.fault_injector is not None:
            self.fault_injector.before_read(page_id, 1)
        distance = self._seek_to(page_id)
        stats = self.stats
        stats.reads += 1
        stats.pages_read += 1
        stats.read_seek_total += distance
        stats.read_seeks.append(distance)
        if self._io_listener is not None or self._io_observers:
            self._notify_read(page_id, distance, 1)
        return self._page_image(page_id)

    def read_run(self, start: int, n_pages: int) -> List[Page]:
        """Read ``n_pages`` contiguous pages as one physical operation.

        One seek positions the head on ``start``; the run then
        transfers sequentially and the head settles on its last page.
        Accounting: one read, one seek of ``|start − head|`` pages,
        ``n_pages`` pages transferred.  This is the §4 "single disk
        access" promise extended to contiguous runs — the cost model in
        :class:`~repro.storage.costmodel.CostedDisk` adds per-page
        transfer time on top.
        """
        if n_pages <= 0:
            raise DiskError("read_run needs at least one page")
        self._check(start)
        self._check(start + n_pages - 1)
        if self.fault_injector is not None:
            self.fault_injector.before_read(start, n_pages)
        distance = self._seek_to(start)
        stats = self.stats
        if n_pages > 1:
            self._settle_at(start + n_pages - 1)
            stats.run_reads += 1
        stats.reads += 1
        stats.pages_read += n_pages
        stats.read_seek_total += distance
        stats.read_seeks.append(distance)
        if self._io_listener is not None or self._io_observers:
            self._notify_read(start, distance, n_pages)
        return [self._page_image(start + i) for i in range(n_pages)]

    def read_batch(self, page_ids: Sequence[int]) -> List[Page]:
        """Read several pages, coalescing contiguous ids into runs.

        ``page_ids`` is interpreted in the given order (the scheduler's
        sweep order); :func:`coalesce_runs` merges ascending or
        descending neighbours into single :meth:`read_run` calls, and
        anything non-contiguous falls back to a one-page run.  Returns
        the pages in request order (duplicates allowed — each id is
        read once).
        """
        pages: Dict[int, Page] = {}
        for run_start, run_length in coalesce_runs(page_ids):
            for page in self.read_run(run_start, run_length):
                pages[page.page_id] = page
        return [pages[page_id] for page_id in page_ids]

    def write(self, page: Page) -> None:
        """Write a page image back, moving the head."""
        self._check(page.page_id)
        distance = self._seek_to(page.page_id)
        self.stats.writes += 1
        self.stats.write_seek_total += distance
        self._pages[page.page_id] = page.to_bytes()

    # -- statistics -------------------------------------------------------------

    def reset_stats(self, head_to_zero: bool = True) -> None:
        """Forget all accounting; optionally park the head at page 0.

        Benchmarks call this between database loading and measurement,
        mirroring the paper's separation of load and query phases.
        """
        self.stats = DiskStats()
        if head_to_zero:
            self._head = 0

    def __repr__(self) -> str:
        limit = "unbounded" if self._limit is None else str(self._limit)
        return (
            f"SimulatedDisk(pages={limit}, allocated={self._next_free}, "
            f"head={self._head})"
        )
