"""Vector clocks for the happens-before race detector.

A clock is a plain ``{tid: count}`` dict.  The operations are free
functions over dicts rather than a wrapper class: the detector calls
them on the simulator's event-trigger path, where a method dispatch
per event is measurable.

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

**Instant scoping.**  The detector only ever asks that question about
two accesses made at the same simulated instant, so it keeps clocks
*instant-scoped* (see :mod:`repro.sanitizer.race`): a context's clock
drops every entry but its own component when first used at a new
instant, and a sent clock travels as an ``(instant, clock)`` pair
that a receiver joins only at the instant it was taken at.  Unscoped
clocks only ever grow — every fork copies, every join keeps the max —
until each holds an entry for nearly every context the run has
spawned; scoped, almost every clock knows about only a handful of
contexts.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["fork_clock", "join_into", "joined", "happened_before"]

Clock = Dict[int, int]


def fork_clock(parent: Optional[Clock], child_tid: int) -> Clock:
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


def happened_before(tid: int, epoch: int, clock: Clock) -> bool:
    """True iff an access stamped ``(tid, epoch)`` is ordered before
    the context whose current clock is ``clock``."""
    return clock.get(tid, 0) >= epoch
