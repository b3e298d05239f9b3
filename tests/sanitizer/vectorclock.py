"""Vector clocks for the test-side full-clock oracle.

A clock is a plain ``{context: count}`` dict, and the operations are
free functions over dicts.  The race detector itself keeps no clocks
(see :mod:`repro.sanitizer.race`); the oracle in
:mod:`tests.sanitizer.oracle` does, and the differential tests check
that both give the same verdicts.

Semantics (standard Mattern/Fidge, message = event trigger):

* ``fork``: child = copy of parent, plus a fresh component for the
  child; the parent ticks so post-fork parent work is unordered with
  the child.
* send (event ``succeed``/``fail``): attach a copy of the sender's
  clock to the event, then tick the sender — post-send work must not
  appear ordered before the receiver's resumption.
* receive (waiter resumes): join the event's clock into the waiter's,
  then tick.

``happened_before(tid, epoch, clock)`` answers the detector's only
question: is the access stamped ``(tid, epoch)`` ordered before the
context owning ``clock``?
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

__all__ = ["fork_clock", "join_into", "joined", "happened_before"]

Clock = Dict[Hashable, int]


def fork_clock(parent: Optional[Clock], child_tid: Hashable) -> Clock:
    """Child clock at spawn: inherits everything the parent has seen."""
    clock: Clock = dict(parent) if parent else {}
    clock[child_tid] = clock.get(child_tid, 0) + 1
    return clock


def join_into(clock: Clock, other: Optional[Clock]) -> None:
    """Merge ``other`` into ``clock`` in place (componentwise max)."""
    if not other:
        return
    get = clock.get
    for tid, count in other.items():
        if get(tid, 0) < count:
            clock[tid] = count


def joined(a: Optional[Clock], b: Optional[Clock]) -> Clock:
    """A fresh clock equal to the componentwise max of ``a`` and ``b``."""
    clock: Clock = dict(a) if a else {}
    join_into(clock, b)
    return clock


def happened_before(tid: Hashable, epoch: int, clock: Clock) -> bool:
    """True iff an access stamped ``(tid, epoch)`` is ordered before
    the context whose current clock is ``clock``."""
    return clock.get(tid, 0) >= epoch
