"""Cooperative task multiplexing inside a single simulation process.

A :class:`Process` is the kernel's unit of concurrency, but it is also
the simulator's memory proxy: the webserver bench counts live
processes the way a real benchmark would count thread stacks.  An
event-driven server that held one process per connection would be
indistinguishable from thread-per-connection on that axis.

:class:`TaskLoop` is the missing primitive: it multiplexes any number
of coroutine *tasks* inside **one** process.  Each task is an ordinary
simulation generator (it yields :class:`~repro.sim.event.Event`
instances and sleep delays exactly as a process would); the loop steps
every ready task until it blocks on an event, parks itself when no
task is runnable, and is woken by the events its tasks are waiting
on.  Ten thousand tasks cost ten thousand generators — and a single
process.

Determinism: tasks become ready in the order their awaited events are
processed by the engine (the engine's ``(time, seq)`` order), and the
ready queue is FIFO, so a ``TaskLoop`` run is bit-for-bit reproducible
like everything else on the engine.

Usage::

    loop = TaskLoop(engine, name="server.loop")
    loop.start()                      # one daemon process, forever
    task = loop.spawn(handle(conn))   # from any callback or process
    task.add_done_callback(lambda t: ...)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.event import Event, Timeout

__all__ = ["Task", "TaskLoop"]


class Task:
    """One coroutine scheduled on a :class:`TaskLoop`.

    Not an :class:`Event` (tasks are cheaper than events on purpose);
    processes that need to wait for one can yield
    :meth:`completion_event`.
    """

    __slots__ = ("generator", "label", "done", "ok", "result", "error",
                 "_done_callbacks", "_san_ctx")

    def __init__(self, generator: Generator[Event, Any, Any],
                 label: Optional[str] = None) -> None:
        self.generator = generator
        self.label = label or getattr(generator, "__name__", "task")
        self.done = False
        self.ok = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done_callbacks: List[Callable[["Task"], None]] = []

    def add_done_callback(self, callback: Callable[["Task"], None]) -> None:
        """Run ``callback(task)`` when the task finishes (immediately if
        it already has)."""
        if self.done:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "live"
        if self.done and not self.ok:
            state = f"failed: {self.error!r}"
        return f"<Task {self.label} {state}>"


class TaskLoop:
    """A readiness/completion event loop running many tasks in one process.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    name:
        Process name for the driver (shows up in ``sim`` spans).
    error_handler:
        Called with the :class:`Task` whenever a task dies on an
        uncaught exception.  The loop itself never crashes on a task
        error — one bad connection must not take down the server —
        but unhandled errors are not silent either: with no handler
        and no done callbacks, the error is raised out of
        ``engine.run()`` at the failing step's timestamp.
    """

    def __init__(self, engine, name: str = "taskloop",
                 error_handler: Optional[Callable[[Task], None]] = None) -> None:
        self.engine = engine
        self.name = name
        self.error_handler = error_handler
        #: (task, send_value, throw_exc) triples runnable right now.
        self._ready: Deque[Tuple[Task, Any, Optional[BaseException]]] = deque()
        self._wake: Optional[Event] = None
        self._process = None
        self._live = 0
        self.peak_live = 0
        self.tasks_spawned = 0
        self.tasks_failed = 0

    # -- introspection -----------------------------------------------------

    @property
    def live(self) -> int:
        """Tasks spawned and not yet finished."""
        return self._live

    @property
    def started(self) -> bool:
        return self._process is not None

    # -- lifecycle ----------------------------------------------------------

    def start(self, daemon: bool = True):
        """Start the single driver process (daemon by default: an idle
        loop parks forever and must not trip deadlock detection)."""
        if self._process is not None:
            raise SimulationError(f"{self.name}: loop already started")
        self._process = self.engine.process(
            self._run(), name=self.name, daemon=daemon)
        return self._process

    def spawn(self, generator: Generator[Event, Any, Any],
              label: Optional[str] = None) -> Task:
        """Schedule a new task; it first runs when the loop next drains
        its ready queue (same timestamp, FIFO order)."""
        task = Task(generator, label)
        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(task, task.label)
        self._live += 1
        self.tasks_spawned += 1
        if self._live > self.peak_live:
            self.peak_live = self._live
        self._ready.append((task, None, None))
        self._wake_up()
        return task

    def completion_event(self, task: Task) -> Event:
        """An engine event that mirrors ``task``'s outcome — the bridge
        for ordinary processes to wait on a task."""
        ev = Event(self.engine)

        def _mirror(t: Task) -> None:
            if t.ok:
                ev.succeed(t.result)
            else:
                ev.fail(t.error)

        task.add_done_callback(_mirror)
        return ev

    # -- driving -----------------------------------------------------------

    def _wake_up(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _run(self):
        while True:
            while self._ready:
                task, value, exc = self._ready.popleft()
                self._step(task, value, exc)
            self._wake = self.engine.event()
            yield self._wake
            self._wake = None

    def _step(self, task: Task, value: Any,
              exc: Optional[BaseException]) -> None:
        """Advance one task until it blocks on an event or finishes."""
        det = _sanitizer.active
        prev = det.enter(task) if det is not None else None
        try:
            try:
                if exc is None:
                    target = task.generator.send(value)
                else:
                    target = task.generator.throw(exc)
                # A delay always takes a Timeout: the other ready tasks
                # wait in this loop's deque, not in the engine's queue,
                # so an in-frame clock jump could pass them by.
                while target.__class__ is float and target < 0:
                    target = task.generator.throw(SimulationError(
                        f"negative timeout delay: {target!r}"))
                if target.__class__ is float:
                    target = Timeout(self.engine, target)
            except StopIteration as stop:
                self._finish(task, stop.value, None)
                return
            except BaseException as error:
                self._finish(task, None, error)
                return
            if not isinstance(target, Event):
                self._finish(task, None, SimulationError(
                    f"task {task.label!r} yielded {target!r}; "
                    "tasks must yield Event instances"))
                return
            if target.engine is not self.engine:
                self._finish(task, None, SimulationError(
                    f"task {task.label!r} yielded an event from a different engine"))
                return
            target.add_callback(lambda ev, t=task: self._resume(t, ev))
        finally:
            if det is not None:
                det.leave(prev)

    def _resume(self, task: Task, event: Event) -> None:
        if _sanitizer.active is not None:
            _sanitizer.active.on_wakeup(task, event)
        if event.ok:
            self._ready.append((task, event.value, None))
        else:
            self._ready.append((task, None, event.value))
        self._wake_up()

    def _finish(self, task: Task, result: Any,
                error: Optional[BaseException]) -> None:
        self._live -= 1
        task.done = True
        task.ok = error is None
        task.result = result
        task.error = error
        if error is not None:
            self.tasks_failed += 1
            if self.error_handler is not None:
                self.error_handler(task)
            elif not task._done_callbacks:
                # Surface the error out of ``engine.run()``: a failed
                # non-Process event nobody waits on is raised by the
                # drain loop (raising here would only fail the loop's
                # own daemon process, which nothing observes).
                Event(self.engine).fail(error)
        for callback in task._done_callbacks:
            callback(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TaskLoop {self.name} live={self._live} "
                f"ready={len(self._ready)} peak={self.peak_live}>")
