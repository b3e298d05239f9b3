"""Block-level I/O request."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import DiskError

__all__ = ["IORequest"]

_request_ids = itertools.count()


class IORequest:
    """One block-granular request against a disk or array.

    A plain ``__slots__`` class rather than a dataclass: one is built
    per lone disk request (and per fragment read from a striped
    range's value), so its constructor is a single frame.  Requests
    compare by identity.

    Attributes
    ----------
    lba:
        First logical block address.
    nblocks:
        Number of consecutive blocks (must be >= 1).
    is_write:
        Direction; reads and writes cost the same at the device (the
        asymmetry the paper observes comes from the cache layer above).
    request_id:
        Unique per process; drawn from a module-wide counter when not
        given.
    submitted_at / started_at / completed_at:
        Simulated timestamps filled in by the disk as the request moves
        through the queue; ``None`` until reached.
    seq:
        The engine sequence number the disk took when the request was
        queued (``None`` until then).  The request's completion ranks
        among same-instant heap entries by it.
    """

    # The disk's bookkeeping (see repro.storage.disk): what settles the
    # request while it is queued or in flight (None once settled): a
    # request is on one disk at a time.
    __slots__ = ("lba", "nblocks", "is_write", "request_id",
                 "submitted_at", "started_at", "completed_at", "seq",
                 "_owner")

    def __init__(
        self,
        lba: int,
        nblocks: int,
        is_write: bool = False,
        request_id: Optional[int] = None,
        submitted_at: Optional[float] = None,
        started_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> None:
        # The id is drawn before validation, so a rejected request
        # still consumes one (as the dataclass default factory did).
        self.request_id = next(_request_ids) if request_id is None else request_id
        if lba < 0:
            raise DiskError(f"negative LBA: {lba}")
        if nblocks < 1:
            raise DiskError(f"request must cover >= 1 block, got {nblocks}")
        self.lba = lba
        self.nblocks = nblocks
        self.is_write = is_write
        self.submitted_at = submitted_at
        self.started_at = started_at
        self.completed_at = completed_at
        self.seq = None
        self._owner = None

    @property
    def end_lba(self) -> int:
        """One past the last block touched."""
        return self.lba + self.nblocks

    @property
    def service_time(self) -> float:
        """Time from start of service to completion (after both set)."""
        if self.started_at is None or self.completed_at is None:
            raise DiskError("request not yet serviced")
        return self.completed_at - self.started_at

    @property
    def response_time(self) -> float:
        """Time from submission to completion, including queueing."""
        if self.submitted_at is None or self.completed_at is None:
            raise DiskError("request not yet completed")
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"IORequest(lba={self.lba!r}, nblocks={self.nblocks!r}, "
            f"is_write={self.is_write!r}, request_id={self.request_id!r}, "
            f"submitted_at={self.submitted_at!r}, "
            f"started_at={self.started_at!r}, "
            f"completed_at={self.completed_at!r})"
        )
