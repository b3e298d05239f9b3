"""The virtual execution system's state and call dispatcher.

"The virtual execution system enforces the common type system by
loading and running programs written for the CLI" (paper §1, item 3).
Our VES runs verified method bodies as simulation coroutines:

* first call to a method goes through the :class:`JitCompiler` and
  pays the compile delay (the paper's warm-up effect);
* every call then runs the method's template-compiled body
  (:mod:`repro.cli.jitcompile`), which reads the VM state held here
  (statics, heap, intrinsics, counters);
* execution charges ``instruction_cost`` per instruction,
  batched into one sleep every ``dispatch_quantum`` instructions so
  the clock is not touched per instruction;
* ``call`` recurses into managed methods; ``callintrinsic`` enters the
  class library (managed I/O, sockets, timers) whose implementations
  are simulation coroutines registered with the runtime;
* allocations (``ldstr``, ``newarr``) go through the managed heap and
  can trigger GC pauses;
* managed exceptions (``throw``, divide-by-zero, null dereference, or
  a :class:`ManagedException` raised by an intrinsic) unwind through
  protected regions: the innermost matching handler gets control with
  the stack cleared and the exception pushed; unhandled exceptions
  propagate to the caller's frame, exactly as in ECMA-335 II.19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.cli.gc import ManagedHeap
from repro.cli.jit import JitCompiler
from repro.cli.metadata import MethodDef
from repro.errors import ExecutionFault
from repro.sim import Counter, Engine

__all__ = [
    "InterpreterParams",
    "Interpreter",
    "ManagedArray",
    "ManagedException",
]


@dataclass(frozen=True)
class InterpreterParams:
    """Execution cost coefficients.

    ``instruction_cost`` of 60 ns reflects the SSCLI's unoptimizing
    JIT/interpretive performance on paper-era hardware;
    ``exception_overhead`` is the cost of building and dispatching one
    managed exception (they are expensive on the CLR).
    """

    instruction_cost: float = 60e-9
    dispatch_quantum: int = 64
    call_overhead: float = 120e-9
    exception_overhead: float = 2e-6
    max_call_depth: int = 512

    def __post_init__(self) -> None:
        if self.instruction_cost < 0 or self.call_overhead < 0:
            raise ExecutionFault("costs must be >= 0")
        if self.exception_overhead < 0:
            raise ExecutionFault("exception_overhead must be >= 0")
        if self.dispatch_quantum < 1:
            raise ExecutionFault("dispatch_quantum must be >= 1")
        if self.max_call_depth < 1:
            raise ExecutionFault("max_call_depth must be >= 1")


class ManagedArray:
    """A length-only managed array (the simulation carries sizes, not
    element values)."""

    __slots__ = ("length", "element_size")

    def __init__(self, length: int, element_size: int = 8) -> None:
        if length < 0:
            raise ExecutionFault(f"negative array length: {length}")
        self.length = length
        self.element_size = element_size

    @property
    def byte_size(self) -> int:
        return self.length * self.element_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ManagedArray[{self.length}]>"


class ManagedException(ExecutionFault):
    """A catchable managed exception flowing through protected regions.

    Carries a CLR-style type name (``System.DivideByZeroException``,
    ``System.Net.ProtocolViolationException``, ...) and an optional
    payload object for intrinsic ↔ managed-code communication.
    Deriving from :class:`ExecutionFault` keeps *uncaught* managed
    exceptions visible to hosts as ordinary execution faults.
    """

    def __init__(self, type_name: str, message: str = "", payload: Any = None) -> None:
        super().__init__(f"{type_name}: {message}" if message else type_name)
        self.type_name = type_name
        self.message_text = message
        self.payload = payload


def _truncdiv(a, b):
    """C#-style division: truncation toward zero for integers."""
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    return a / b


def _truncrem(a, b):
    """C#-style remainder: sign of the dividend."""
    if isinstance(a, int) and isinstance(b, int):
        r = abs(a) % abs(b)
        return -r if a < 0 else r
    import math

    return math.fmod(a, b)


def _wrap_signed(value: int, mask: int, sign_bit: int) -> int:
    value &= mask
    return value - (mask + 1) if value & sign_bit else value


class Interpreter:
    """The VM state compiled method bodies read, plus the call
    dispatcher that runs them on the simulation engine."""

    def __init__(
        self,
        engine: Engine,
        jit: JitCompiler,
        heap: ManagedHeap,
        intrinsics: Dict[str, Callable[..., Any]],
        resolver: Optional[Callable[[str], MethodDef]] = None,
        params: Optional[InterpreterParams] = None,
    ) -> None:
        self.engine = engine
        self.jit = jit
        self.heap = heap
        self.intrinsics = intrinsics
        self.resolver = resolver
        self.params = params or InterpreterParams()
        self.statics: Dict[str, Any] = {}
        self.instructions_executed = Counter("interp.instructions")
        self.calls = Counter("interp.calls")
        self.exceptions_thrown = Counter("interp.exceptions")
        self.exceptions_caught = Counter("interp.caught")

    # -- public entry ----------------------------------------------------------

    def invoke(self, method: MethodDef, args: Sequence[Any] = (), _depth: int = 0):
        """Run ``method`` with ``args``: returns the simulation
        generator to drive (``yield from`` it, or hand it to
        ``engine.run_process``); its result is the method's return
        value (None for void methods).  Uncaught managed exceptions
        propagate as :class:`ManagedException`.

        This is a plain dispatcher, not a generator function, so each
        warm call costs one generator frame (the compiled body's) —
        nested ``yield from`` chains stay within Python's recursion
        limit at ``max_call_depth``.
        """
        if _depth > self.params.max_call_depth:
            raise ExecutionFault(
                f"call depth exceeded ({self.params.max_call_depth}) "
                f"invoking {method.full_name}"
            )
        if len(args) != method.param_count:
            raise ExecutionFault(
                f"{method.full_name} expects {method.param_count} args, "
                f"got {len(args)}"
            )
        if method.max_stack is None:
            raise ExecutionFault(
                f"{method.full_name} was not verified before execution"
            )
        jit = self.jit
        if method.token not in jit._compiled:
            return self._first_call(method, args, _depth)
        self.calls.add()
        return jit.native_for(method, self.params)(self, args, _depth)

    def _first_call(self, method: MethodDef, args: Sequence[Any], _depth: int):
        """Cold path: charge the simulated compile delay, then run."""
        yield from self.jit.ensure_compiled(method)
        self.calls.add()
        native = self.jit.native_for(method, self.params)
        return (yield from native(self, args, _depth))

    def _resolve_call(self, operand, method: MethodDef, pc: int) -> MethodDef:
        if isinstance(operand, MethodDef):
            return operand
        name = operand[0]
        if self.resolver is None:
            raise ExecutionFault(
                f"{method.full_name}@{pc}: no resolver for call to {name!r}"
            )
        callee = self.resolver(name)
        expected_argc, expected_returns = operand[1], operand[2]
        if callee.param_count != expected_argc or callee.returns != expected_returns:
            raise ExecutionFault(
                f"{method.full_name}@{pc}: signature mismatch calling {name!r}"
            )
        return callee
