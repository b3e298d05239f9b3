"""Managed threads.

The paper's web server creates "a separate thread to handle each
client connection", starting it with ``Start()``.  A
:class:`ManagedThread` wraps a simulation process running a managed
method (or a raw coroutine) with a start-up overhead, mirroring CLR
thread creation cost.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.cli.metadata import MethodDef
from repro.errors import CliError
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cli.runtime import CliRuntime

__all__ = ["ManagedThread"]

_thread_ids = itertools.count(1)


class ManagedThread:
    """A thread executing one managed entry point.

    Usage (inside a simulation process)::

        t = runtime.create_thread(handler_method, [arg])
        t.start()
        ...
        result = yield from t.join()
    """

    def __init__(
        self,
        runtime: "CliRuntime",
        entry: "MethodDef | Any",
        args: Sequence[Any] = (),
        name: Optional[str] = None,
    ) -> None:
        self.thread_id = next(_thread_ids)
        self.runtime = runtime
        self.entry = entry
        self.args = list(args)
        self.name = name or f"thread-{self.thread_id}"
        self._process: Optional[Process] = None

    def start(self) -> "ManagedThread":
        """Begin execution (the paper's ``Start()``); idempotence is an
        error, as in the CLR."""
        if self._process is not None:
            raise CliError(f"{self.name}: thread already started")
        self._process = self.runtime.engine.process(self._run(), name=self.name)
        self.runtime.threads_started.add()
        return self

    def _run(self):
        # Thread creation cost lands on the new thread, not the spawner.
        yield self.runtime.params.thread_start_overhead
        if isinstance(self.entry, MethodDef):
            result = yield from self.runtime.interpreter.invoke(self.entry, self.args)
        else:
            # A raw simulation coroutine (for class-library-side helpers).
            result = yield from self.entry
        return result

    @property
    def started(self) -> bool:
        return self._process is not None

    @property
    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive

    def join(self):
        """Generator: wait for completion; returns the entry's result
        (re-raising its exception)."""
        if self._process is None:
            raise CliError(f"{self.name}: join before start")
        result = yield self._process
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unstarted" if not self.started else ("alive" if self.is_alive else "done")
        return f"<ManagedThread {self.name} {state}>"
