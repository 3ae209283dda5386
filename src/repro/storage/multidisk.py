"""Multiple physical devices (paper Section 7).

"The situation becomes more complex when the database is stored on
more than one physical device.  At present, the assembly operator can
only handle one device.  A possible solution could involve a
server-per-device architecture.  Each server would maintain a queue of
requests and would fetch objects on behalf of one or more assembly
operators."

:class:`MultiDeviceDisk` models an array of devices behind one page
address space: device ``d`` owns pages ``[d*S, (d+1)*S)`` where ``S``
is ``pages_per_device``.  Each device has its **own head**; a read
charges seek distance only against its device's head, so two devices
never interfere — the physical property that makes striping pay.

``allocate`` hands each extent wholly to one device, cycling devices
round-robin, so inter-object type clusters stripe naturally.  The
matching per-device request queues live in
:class:`repro.core.multidevice.MultiDeviceScheduler`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import DiskError, ExtentError
from repro.storage.disk import DiskStats, Extent, SimulatedDisk


class MultiDeviceDisk(SimulatedDisk):
    """An array of independent devices with one page address space."""

    def __init__(self, n_devices: int, pages_per_device: int) -> None:
        if n_devices <= 0:
            raise DiskError("need at least one device")
        if pages_per_device <= 0:
            raise DiskError("each device needs at least one page")
        super().__init__(n_pages=n_devices * pages_per_device)
        self.n_devices = n_devices
        self.pages_per_device = pages_per_device
        # Per-device head, parked at the device's first page.
        self._heads: List[int] = [
            d * pages_per_device for d in range(n_devices)
        ]
        # Per-device allocation cursor and round-robin pointer.
        self._device_free: List[int] = list(self._heads)
        self._next_device = 0
        #: per-device stats (aggregate stats stay on ``self.stats``).
        self.device_stats: List[DiskStats] = [
            DiskStats() for _ in range(n_devices)
        ]

    # -- geometry ------------------------------------------------------------

    def device_of(self, page_id: int) -> int:
        """Which device owns ``page_id``."""
        self._check(page_id)
        return page_id // self.pages_per_device

    def head_of(self, device: int) -> int:
        """Current head position of one device."""
        return self._heads[device]

    @property
    def head_position(self) -> int:
        """Head of device 0 (single-device callers); prefer head_of."""
        return self._heads[0]

    # -- seek model ---------------------------------------------------------------

    def _seek_to(self, page_id: int) -> int:
        device = page_id // self.pages_per_device
        distance = abs(page_id - self._heads[device])
        self._heads[device] = page_id
        return distance

    def _settle_at(self, page_id: int) -> None:
        self._heads[page_id // self.pages_per_device] = page_id

    def _record_device_read(self, device: int, n_pages: int) -> None:
        stats = self.device_stats[device]
        stats.reads += 1
        stats.pages_read += n_pages
        if n_pages > 1:
            stats.run_reads += 1
        seek = self.stats.read_seeks[-1]
        stats.read_seek_total += seek
        stats.read_seeks.append(seek)

    def write(self, page) -> None:
        """Write a page, mirroring the charge into its device's ledger.

        The seek is charged against the owning device's head via the
        overridden ``_seek_to``; recording it here too keeps the
        invariant that the per-device stats always sum to the
        aggregate — for writes exactly as for reads, and consistently
        across ``reset_stats``.
        """
        before = self.stats.write_seek_total
        super().write(page)
        stats = self.device_stats[self.device_of(page.page_id)]
        stats.writes += 1
        stats.write_seek_total += self.stats.write_seek_total - before

    def read(self, page_id: int):
        page = super().read(page_id)
        self._record_device_read(page_id // self.pages_per_device, 1)
        return page

    def read_run(self, start: int, n_pages: int) -> List:
        """Read a run, splitting it at device boundaries.

        A run that crosses devices becomes one physical read per
        device: each chunk charges a seek against its own device's
        head, exactly as if the chunks had been requested separately.
        I/O observers (:meth:`~repro.storage.disk.SimulatedDisk.
        add_io_observer`) fire once per chunk with that chunk's start
        page, so a multi-device observer can attribute every sample to
        its owning device via :meth:`device_of`.
        """
        if n_pages <= 0:
            raise DiskError("read_run needs at least one page")
        pages: List = []
        cursor, remaining = start, n_pages
        while remaining > 0:
            device = self.device_of(cursor)
            device_end = (device + 1) * self.pages_per_device
            chunk = min(remaining, device_end - cursor)
            pages.extend(super().read_run(cursor, chunk))
            self._record_device_read(device, chunk)
            cursor += chunk
            remaining -= chunk
        return pages

    # -- allocation -------------------------------------------------------------------

    def allocate(self, n_pages: int) -> Extent:
        """Allocate one extent wholly on the next device (round-robin).

        Devices that cannot fit the extent are skipped; when no device
        can, :class:`ExtentError` is raised.
        """
        if n_pages <= 0:
            raise ExtentError("extent must contain at least one page")
        for _attempt in range(self.n_devices):
            device = self._next_device
            self._next_device = (self._next_device + 1) % self.n_devices
            extent = self._try_allocate_on(device, n_pages)
            if extent is not None:
                return extent
        raise ExtentError(
            f"no device has {n_pages} contiguous free pages"
        )

    def allocate_on(self, device: int, n_pages: int) -> Extent:
        """Allocate an extent on a specific device."""
        if not 0 <= device < self.n_devices:
            raise ExtentError(f"no device {device}")
        extent = self._try_allocate_on(device, n_pages)
        if extent is None:
            raise ExtentError(
                f"device {device} cannot fit {n_pages} more pages"
            )
        return extent

    def _try_allocate_on(self, device: int, n_pages: int):
        start = self._device_free[device]
        end = start + n_pages
        device_end = (device + 1) * self.pages_per_device
        if end > device_end:
            return None
        self._device_free[device] = end
        return Extent(start=start, length=n_pages)

    # -- snapshot / restore ------------------------------------------------------------

    def dump_state(self) -> Tuple[Dict[int, bytes], Tuple[int, ...]]:
        """Copy of ``(page images, allocation cursors)``.

        The cursors are each device's next free page followed by the
        round-robin device pointer, so allocation after
        :meth:`load_state` continues exactly where this disk left off.
        """
        return dict(self._pages), (*self._device_free, self._next_device)

    def load_state(
        self, pages: Dict[int, bytes], cursors: Tuple[int, ...]
    ) -> None:
        """Install page images and allocation cursors from :meth:`dump_state`."""
        if len(cursors) != self.n_devices + 1:
            raise DiskError(
                f"a {self.n_devices}-device disk has {self.n_devices + 1} "
                f"allocation cursors, not {len(cursors)}"
            )
        self._pages = dict(pages)
        self._device_free = list(cursors[:-1])
        self._next_device = cursors[-1]

    # -- statistics -------------------------------------------------------------------------

    def reset_stats(self, head_to_zero: bool = True) -> None:
        super().reset_stats(head_to_zero=False)
        self.device_stats = [DiskStats() for _ in range(self.n_devices)]
        if head_to_zero:
            self._heads = [
                d * self.pages_per_device for d in range(self.n_devices)
            ]

    def __repr__(self) -> str:
        return (
            f"MultiDeviceDisk(devices={self.n_devices}, "
            f"pages_per_device={self.pages_per_device})"
        )
