"""Layer attribution from outside the program.

:class:`LayerTracer` wraps each layer's public entry points (the
:data:`ENTRY_POINTS` table) with timers.  A call is one timed interval;
an entry point that returns a generator has every resumption of that
generator timed as one more interval, and so does every process
generator handed to ``Engine.process``, charged to the layer whose
module defined it.  Time inside a wrapper minus the time of wrappers
nested in it is that layer's self time, so the self times of all layers
plus the time outside every wrapper (``bench``) add up to the traced
total.  Nothing in ``repro`` is edited; the wrappers are class
attributes installed and removed by the tracer.

:class:`Census` records the engines, interpreters, caches and other
components each rep creates, so that work counts can be read from
their public counters after the rep.
"""

from __future__ import annotations

import functools
import importlib
import time
from types import GeneratorType
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "ENTRY_POINTS", "LayerTracer", "Census", "rep_counts"]

LAYERS = ("sim", "storage", "io", "cli", "traces", "model", "webserver",
          "cluster", "faults", "sanitizer")

#: (layer, "module:Class", methods) — the entry points timed per layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine:Engine", ("run", "process")),
    ("storage", "repro.storage.disk:Disk", ("submit", "submit_range")),
    ("storage", "repro.storage.raid:StripedArray", ("split", "submit_range")),
    ("storage", "repro.storage.raid:MirroredArray", ("submit_range",)),
    ("io", "repro.io.filesystem:FileSystem",
     ("create", "delete", "open", "close", "read", "write", "seek", "sync")),
    ("io", "repro.io.filestream:FileStream",
     ("open", "close", "read", "write", "seek", "read_to_end")),
    ("io", "repro.io.buffercache:BufferCache",
     ("access", "prefetch", "write_pages", "flush_file", "sync_file")),
    ("cli", "repro.cli.runtime:CliRuntime", ("invoke",)),
    ("cli", "repro.cli.interpreter:Interpreter", ("invoke",)),
    ("traces", "repro.traces.replay:TraceReplayer", ("replay",)),
    ("model", "repro.model.executor:ApplicationExecutor", ("run",)),
    ("webserver", "repro.webserver.workload:WorkloadGenerator", ("run",)),
    ("webserver", "repro.webserver.architecture:ServerHost", ("start",)),
    ("webserver", "repro.webserver.handlers:RequestHandlers",
     ("receive_request", "do_get", "do_post", "send_error")),
    ("webserver", "repro.webserver.client:HttpClient",
     ("request", "get", "post")),
    ("cluster", "repro.cluster.client:ClusterClient", ("get", "put")),
    ("cluster", "repro.cluster.workload:ClusterWorkload", ("run",)),
    ("cluster", "repro.cluster.cluster:FileCluster", ("_on_readmit",)),
    ("faults", "repro.faults.injector:FaultInjector",
     ("register_disk", "register_node", "disk_fault", "net_fault")),
    ("faults", "repro.faults.retry:Retrier", ("call",)),
    ("sanitizer", "repro.sanitizer.race:RaceDetector",
     ("context_of", "on_spawn", "enter", "leave", "on_trigger", "on_wakeup",
      "on_condition", "on_store_put", "on_store_get", "on_store_drain",
      "record", "summary")),
    ("sanitizer", "repro.sanitizer.race:SharedVar", ("read", "write")),
)


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


class LayerTracer:
    """Per-layer calls and self seconds over the wrapped entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._originals: List[Tuple[type, str, object]] = []
        self._layer_by_file: Dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.processes = 0
        self._stack: List[List[float]] = []

    # -- accounting ----------------------------------------------------------

    def enter(self) -> List[float]:
        """Open an interval; returns its frame ``[start, child seconds]``."""
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, layer: str, frame: List[float]) -> None:
        """Close ``frame``: its time minus its children's is ``layer``'s."""
        elapsed = self.clock() - frame[0]
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as ``layer``; a returned generator is timed too."""
        enter, leave, timed_gen = self.enter, self.leave, self.timed_gen

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, frame)
            if type(result) is GeneratorType:
                return timed_gen(layer, result)
            return result

        return timed

    def timed_gen(self, layer: str, gen):
        """Drive ``gen``, timing each resumption as ``layer``."""
        enter, leave = self.enter, self.leave
        value = error = None
        while True:
            frame = enter()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                leave(layer, frame)
                return stop.value
            except BaseException:
                leave(layer, frame)
                raise
            leave(layer, frame)
            try:
                value, error = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in: forward it
                value, error = None, exc

    def _layer_of(self, filename: str):
        """The layer whose package defines ``filename`` (or ``None``)."""
        layer = self._layer_by_file.get(filename, False)
        if layer is False:
            parts = filename.replace("\\", "/").split("/")
            layer = None
            for i in range(len(parts) - 2, -1, -1):
                if parts[i] == "repro" and parts[i + 1] in LAYERS:
                    layer = parts[i + 1]
                    break
            self._layer_by_file[filename] = layer
        return layer

    def _wrap_process(self, fn: Callable) -> Callable:
        """``Engine.process``: also time the process's generator, charged
        to the layer that defined it."""
        timed_code = self.timed_gen.__code__
        timed_gen, layer_of = self.timed_gen, self._layer_of
        timed_call = self.wrap("sim", fn)

        @functools.wraps(fn)
        def process(engine, generator, *args, **kwargs):
            self.processes += 1
            if (type(generator) is GeneratorType
                    and generator.gi_code is not timed_code):
                layer = layer_of(generator.gi_code.co_filename)
                if layer is not None:
                    inner = generator
                    generator = timed_gen(layer, inner)
                    # A process is named after its generator.
                    generator.__name__ = inner.__name__
                    generator.__qualname__ = inner.__qualname__
            return timed_call(engine, generator, *args, **kwargs)

        return process

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point in :data:`ENTRY_POINTS` by its timer."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer, path, methods in ENTRY_POINTS:
            cls = _resolve(path)
            for name in methods:
                original = cls.__dict__[name]
                if isinstance(original, classmethod):
                    timed = classmethod(self.wrap(layer, original.__func__))
                elif cls.__name__ == "Engine" and name == "process":
                    timed = self._wrap_process(original)
                else:
                    timed = self.wrap(layer, original)
                self._originals.append((cls, name, original))
                setattr(cls, name, timed)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)


#: Components whose public counters give the per-rep work counts.
CENSUS_CLASSES = (
    "repro.sim.engine:Engine",
    "repro.cli.interpreter:Interpreter",
    "repro.storage.disk:Disk",
    "repro.io.buffercache:BufferCache",
    "repro.webserver.server:ThreadPerConnectionServer",
    "repro.cluster.cluster:FileCluster",
    "repro.faults.injector:FaultInjector",
    "repro.sanitizer.race:RaceDetector",
)


class Census:
    """Records every instance of :data:`CENSUS_CLASSES` created while
    installed (from construction until :meth:`close`)."""

    def __init__(self) -> None:
        self.born: Dict[str, list] = {}
        self._originals: List[Tuple[type, Callable]] = []
        for path in CENSUS_CLASSES:
            cls = _resolve(path)
            self.born[cls.__name__] = []
            self._originals.append((cls, cls.__dict__["__init__"]))
            cls.__init__ = self._recording(cls.__init__, self.born[cls.__name__])

    def close(self) -> None:
        """Put every original ``__init__`` back."""
        while self._originals:
            cls, init = self._originals.pop()
            cls.__init__ = init

    @staticmethod
    def _recording(init: Callable, instances: list) -> Callable:
        @functools.wraps(init)
        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return recording_init

    def take(self) -> Dict[str, list]:
        """The instances created since the last call (and forget them)."""
        out = {name: list(objs) for name, objs in self.born.items()}
        for objs in self.born.values():
            objs.clear()
        return out


def rep_counts(born: Dict[str, list]) -> Dict[str, float]:
    """Work counts of one rep, read from the components it created."""
    caches = [c.stats for c in born["BufferCache"]]
    clusters = born["FileCluster"]
    return {
        "sim.events": sum(e._seq for e in born["Engine"]),
        "cli.instructions": sum(i.instructions_executed.value
                                for i in born["Interpreter"]),
        "storage.requests": sum(d.requests_completed.value
                                for d in born["Disk"]),
        "io.cache_hits": sum(s.hits for s in caches),
        "io.cache_misses": sum(s.misses for s in caches),
        "io.accesses": sum(s.accesses for s in caches),
        "webserver.threads_spawned": sum(
            s.threads_spawned.value
            for s in born["ThreadPerConnectionServer"]),
        "cluster.failovers": sum(c.failovers.value for c in clusters),
        "cluster.retries": sum(c.retrier.retries.value for c in clusters),
        "cluster.rebuilt_keys": sum(c.rebuilt_keys.value for c in clusters),
        "faults.injected": sum(f.injected.value
                               for f in born["FaultInjector"]),
        "sanitizer.races": sum(d.summary()["races"]
                               for d in born["RaceDetector"]),
    }
