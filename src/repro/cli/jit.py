"""JIT compilation cost model.

"When a program is running, its bytecode is compiled on the fly into
the native code recognized by the machine architecture" (paper §1).
The observable consequence the paper measures (§4.2, Table 6 reason 2)
is that *the first* invocation of each method pays a compile delay:
"functions are compiled only when they are required".

The model: first call to a method charges
``base_cost + per_instruction_cost × body size`` of simulated time;
subsequent calls are free.  Concurrent first-calls from several
managed threads serialize on a per-method compile event, as in the
real runtime.

Once the simulated compile delay has been paid, the method body is
template-compiled into a Python generator function by
:mod:`repro.cli.jitcompile`, and every call runs that compiled code.
The verifier is the only gate: every verified body compiles.  The
compiled function is the one executor; the simulated times it charges
are set by the cost parameters, not by how the host runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Set, Tuple

from repro.cli.metadata import MethodDef
from repro.errors import JitError
from repro.sim import Counter, Engine, Tally
from repro.sim.event import Event

__all__ = ["JitParams", "JitCompiler"]


@dataclass(frozen=True)
class JitParams:
    """Compile-time cost coefficients (seconds).

    Defaults land first-call penalties in the hundreds of
    microseconds to low milliseconds for kernel-sized methods,
    matching the magnitude of the warm-up the paper reports.
    """

    base_cost: float = 150e-6
    per_instruction_cost: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.base_cost < 0 or self.per_instruction_cost < 0:
            raise JitError("JIT costs must be >= 0")


class JitCompiler:
    """Tracks which methods are compiled and charges compile time."""

    def __init__(self, engine: Engine, params: JitParams | None = None) -> None:
        self.engine = engine
        self.params = params or JitParams()
        self._compiled: Set[int] = set()
        self._in_progress: Dict[int, Event] = {}
        #: (method token, InterpreterParams) → compiled closure.
        self._native: Dict[Tuple[int, Any], Callable] = {}
        self.methods_compiled = Counter("jit.methods")
        self.compile_times = Tally("jit.time")
        engine.metrics.register(self.methods_compiled.name, self.methods_compiled)
        engine.metrics.register(self.compile_times.name, self.compile_times)

    def is_compiled(self, method: MethodDef) -> bool:
        return method.token in self._compiled

    def compile_cost(self, method: MethodDef) -> float:
        """Pure cost for compiling ``method`` (no state change)."""
        return self.params.base_cost + self.params.per_instruction_cost * method.size

    def ensure_compiled(self, method: MethodDef):
        """Generator: charge compile time on the first call; wait if
        another thread is already compiling; free afterwards.

        Returns True if *this* call performed the compilation.
        """
        token = method.token
        if token in self._compiled:
            return False
        pending = self._in_progress.get(token)
        if pending is not None:
            # Another thread is compiling: wait for it.
            yield pending
            return False
        done = self.engine.event()
        self._in_progress[token] = done
        cost = self.compile_cost(method)
        started = self.engine.now
        yield cost
        self._compiled.add(token)
        del self._in_progress[token]
        self.methods_compiled.add()
        self.compile_times.record(cost)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete("jit.compile", "jit", started,
                            method=method.name, size=method.size)
        done.succeed()
        return True

    def native_for(self, method: MethodDef, interp_params) -> Callable:
        """The template-compiled closure for ``method`` under
        ``interp_params``.

        Compilation is cached per (method, cost parameters); the cache
        is a wall-clock artifact and deliberately survives
        :meth:`reset` — a simulated cold start re-charges compile
        *time* but need not redo the host-side codegen.
        """
        key = (method.token, interp_params)
        try:
            return self._native[key]
        except KeyError:
            from repro.cli.jitcompile import compile_native

            fn = compile_native(method, interp_params)
            self._native[key] = fn
            return fn

    def reset(self) -> None:
        """Forget all compilations (simulate a cold VM start)."""
        if self._in_progress:
            raise JitError("cannot reset while compilations are in progress")
        self._compiled.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JitCompiler compiled={len(self._compiled)}>"
