"""The full-clock oracle for the race detector.

:class:`FullClockDetector` answers every happens-before question with
vector clocks that only ever grow: a context's clock is never pruned,
and a sent clock is joined whatever instant it was stamped at.  It is
the detector as it was before the edge log and before instant scoping,
and it takes the same hooks, so a run under each must give the same
races and the same counters.
"""

from repro.sanitizer.race import Access, RaceDetector, _context_label

from tests.sanitizer.vectorclock import (
    fork_clock,
    happened_before,
    join_into,
    joined,
)


class ClockContext:
    """A context with a vector clock, keyed by the contexts themselves."""

    __slots__ = ("det", "path", "clock")

    def __init__(self, det, name, parent):
        self.det = det
        self.path = (parent.path if parent is not None else ()) + (name,)
        self.clock = fork_clock(
            parent.clock if parent is not None else None, self)
        if parent is not None:
            parent.clock[parent] += 1


class FullClockDetector(RaceDetector):
    """Clocks that only ever grow; every sent clock is joined."""

    def __init__(self):
        super().__init__()
        self.root = self._current = ClockContext(self, "main", None)

    def context_of(self, owner, name=None, now=None):
        ctx = getattr(owner, "_san_ctx", None)
        if ctx is None or ctx.det is not self:
            ctx = ClockContext(self, name or _context_label(owner),
                               self._current)
            owner._san_ctx = ctx
        return ctx

    def resume(self, owner, event):
        prev = self._current
        if event is not None:
            self.on_wakeup(owner, event)
        self._current = self.context_of(owner)
        return prev

    def on_trigger(self, event):
        cur = self._current
        vc = dict(cur.clock)
        prior = getattr(event, "_vc", None)
        if prior:
            join_into(vc, prior)
        event._vc = vc
        cur.clock[cur] += 1
        self.events_tracked += 1

    def on_wakeup(self, owner, event):
        ctx = self.context_of(owner)
        vc = getattr(event, "_vc", None)
        if vc:
            join_into(ctx.clock, vc)
        ctx.clock[ctx] += 1

    def on_sleep(self, owner, wake):
        # A Timeout's trigger tick and wake-up tick; the wake-up would
        # join the sleeper's own earlier clock, a no-op.
        ctx = self.context_of(owner)
        ctx.clock[ctx] += 2
        self.events_tracked += 1

    def on_condition(self, condition, child):
        vc = getattr(child, "_vc", None)
        if vc:
            condition._vc = joined(getattr(condition, "_vc", None), vc)

    def on_store_put(self, store):
        if getattr(store, "_san_vcs", None) is None:
            store._san_vcs = []
        cur = self._current
        store._san_vcs.append(dict(cur.clock))
        cur.clock[cur] += 1

    def on_store_get(self, store):
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            join_into(cur.clock, clocks.pop(0))
            cur.clock[cur] += 1

    def on_store_drain(self, store):
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            while clocks:
                join_into(cur.clock, clocks.pop(0))
            cur.clock[cur] += 1

    def record(self, var, engine, write, relaxed, op, code, line):
        now = engine._now
        cur = self._current
        self.accesses += 1
        acc = Access(now, cur, cur.clock[cur], write, relaxed, op, code,
                     line)
        if var._det is not self or var._time != now:
            var._det = self
            var._time = now
            var._accesses = [acc]
            return
        for prev in var._accesses:
            if prev.ctx is cur:
                continue
            if not (write or prev.write):
                continue
            if relaxed or prev.relaxed:
                continue
            if happened_before(prev.ctx, prev.epoch, cur.clock):
                continue
            self._report(var, prev, acc)
        var._accesses.append(acc)
