"""The reference CIL executor: a plain opcode-dispatch loop.

The VM runs every call through the method's template-compiled body
(:mod:`repro.cli.jitcompile`).  This loop is the differential oracle
that body is checked against: it decodes one instruction at a time and
charges simulated time the way the compiled code must — ``since_yield``
accrued per instruction, whole quanta flushed as they fill, partial
flushes before every call, allocation, return and exception unwind.

Inside ``with oracle_tier():`` every managed call, nested ones
included, runs on this loop instead, because it replaces
:meth:`Interpreter.invoke`.  At every pc it executes, the loop also
checks the runtime evaluation stack against the entry types the static
analysis computed (:func:`repro.analysis.typeflow.analyze_types`) — a
self-check that the abstract and concrete semantics agree.
"""

import operator
from contextlib import contextmanager

import pytest

from repro.analysis.typeflow import analyze_types
from repro.cli.cil import Op
from repro.cli.interpreter import (
    Interpreter,
    ManagedArray,
    ManagedException,
    _truncdiv,
    _truncrem,
    _wrap_signed,
)
from repro.cli.jitcompile import _I32_MASK, _I64_MASK
from repro.errors import ExecutionFault, TypeMismatch

_BINARY = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul,
    Op.DIV: _truncdiv, Op.REM: _truncrem, Op.AND: operator.and_,
    Op.OR: operator.or_, Op.XOR: operator.xor, Op.SHL: operator.lshift,
    Op.SHR: operator.rshift,
}
_COMPARE = {Op.CEQ: operator.eq, Op.CGT: operator.gt, Op.CLT: operator.lt}


@contextmanager
def oracle_tier():
    """Run every managed call inside the block on the reference loop."""
    kinds = {}  # method token -> per-pc entry stack kinds

    def invoke(self, method, args=(), _depth=0):
        # The same guards as Interpreter.invoke.
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
        if method.token not in kinds:
            kinds[method.token] = analyze_types(method).stack_kinds()
        return _call(self, method, args, _depth, kinds[method.token])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Interpreter, "invoke", invoke)
        yield


def _call(interp, method, args, depth, kinds):
    yield from interp.jit.ensure_compiled(method)  # free once warm
    interp.calls.add()
    return (yield from interpret(interp, method, args, depth, kinds))


def check_entry_types(method, kinds, pc, stack):
    """The runtime stack at ``pc`` must match the analyzed entry
    kinds (⊤ and object entries match anything)."""
    expected = kinds[pc]
    if expected is None:
        raise AssertionError(
            f"{method.full_name}@{pc}: executing a pc the static "
            "analysis proved unreachable"
        )
    assert len(stack) == len(expected), (
        f"{method.full_name}@{pc}: runtime stack depth {len(stack)} "
        f"!= analyzed depth {len(expected)}"
    )
    for i, (value, kind) in enumerate(zip(stack, expected)):
        name = kind.name
        if name in ("INT32", "INT64"):
            ok = isinstance(value, int)
        elif name == "FLOAT64":
            ok = isinstance(value, float)
        elif name == "STRING":
            ok = isinstance(value, str)
        else:  # TOP / OBJECT / BOTTOM: no runtime commitment
            ok = True
        assert ok, (
            f"{method.full_name}@{pc}: stack[{i}] is "
            f"{type(value).__name__}, analysis says {name.lower()}"
        )


def interpret(interp, method, args, _depth, kinds):
    """Execute verified ``method`` one opcode at a time (a generator,
    like the compiled body)."""
    p = interp.params
    body = method.body
    arguments = list(args)
    locals_ = [0] * method.local_count
    stack = []
    pc = 0
    since_yield = 0
    executed = 0

    while True:
        ins = body[pc]
        op = ins.op
        check_entry_types(method, kinds, pc, stack)
        executed += 1
        since_yield += 1
        if since_yield >= p.dispatch_quantum:
            yield p.instruction_cost * since_yield
            since_yield = 0
        next_pc = pc + 1

        try:
            if op is Op.NOP:
                pass
            elif op is Op.LDC:
                stack.append(ins.operand)
            elif op is Op.LDSTR:
                s = ins.operand
                # Flush accrued time, then charge the allocation.
                if since_yield:
                    yield p.instruction_cost * since_yield
                    since_yield = 0
                yield from interp.heap.allocate(2 * len(s))  # UTF-16
                stack.append(s)
            elif op is Op.LDLOC:
                stack.append(locals_[ins.operand])
            elif op is Op.STLOC:
                locals_[ins.operand] = stack.pop()
            elif op is Op.LDARG:
                stack.append(arguments[ins.operand])
            elif op is Op.STARG:
                arguments[ins.operand] = stack.pop()
            elif op is Op.LDSFLD:
                stack.append(interp.statics.get(ins.operand, 0))
            elif op is Op.STSFLD:
                interp.statics[ins.operand] = stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.POP:
                stack.pop()
            elif op in _BINARY:
                b = stack.pop()
                a = stack.pop()
                if op in (Op.DIV, Op.REM) and b == 0 and isinstance(b, int):
                    raise ManagedException(
                        "System.DivideByZeroException",
                        f"{method.full_name}@{pc}",
                    )
                try:
                    stack.append(_BINARY[op](a, b))
                except TypeError:
                    raise TypeMismatch(
                        f"{method.full_name}@{pc}: {op.value} on "
                        f"{type(a).__name__}, {type(b).__name__}"
                    ) from None
            elif op is Op.NEG:
                stack.append(-stack.pop())
            elif op is Op.NOT:
                v = stack.pop()
                if not isinstance(v, int):
                    raise TypeMismatch(
                        f"{method.full_name}@{pc}: not on {type(v).__name__}"
                    )
                stack.append(~v)
            elif op in _COMPARE:
                b = stack.pop()
                a = stack.pop()
                stack.append(1 if _COMPARE[op](a, b) else 0)
            elif op is Op.BR:
                next_pc = ins.operand
            elif op is Op.BRTRUE:
                if stack.pop():
                    next_pc = ins.operand
            elif op is Op.BRFALSE:
                if not stack.pop():
                    next_pc = ins.operand
            elif op is Op.RET:
                if since_yield:
                    yield p.instruction_cost * since_yield
                interp.instructions_executed.add(executed)
                return stack.pop() if method.returns else None
            elif op is Op.THROW:
                value = stack.pop()
                interp.exceptions_thrown.add()
                if since_yield:
                    yield p.instruction_cost * since_yield
                    since_yield = 0
                yield p.exception_overhead
                if isinstance(value, ManagedException):
                    raise value
                raise ManagedException("System.Exception", str(value), payload=value)
            elif op is Op.CALL:
                callee = interp._resolve_call(ins.operand, method, pc)
                call_args = [stack.pop() for _ in range(callee.param_count)][::-1]
                if since_yield:
                    yield p.instruction_cost * since_yield
                    since_yield = 0
                yield p.call_overhead
                result = yield from interp.invoke(callee, call_args, _depth + 1)
                if callee.returns:
                    stack.append(result)
            elif op is Op.CALLINTRINSIC:
                name, argc, returns = ins.operand
                fn = interp.intrinsics.get(name)
                if fn is None:
                    raise ExecutionFault(
                        f"{method.full_name}@{pc}: unknown intrinsic {name!r}"
                    )
                call_args = [stack.pop() for _ in range(argc)][::-1]
                if since_yield:
                    yield p.instruction_cost * since_yield
                    since_yield = 0
                yield p.call_overhead
                result = fn(*call_args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    result = yield from result
                if returns:
                    stack.append(result)
            elif op is Op.NEWARR:
                length = stack.pop()
                if not isinstance(length, int):
                    raise TypeMismatch(
                        f"{method.full_name}@{pc}: newarr length is "
                        f"{type(length).__name__}"
                    )
                elem = ins.operand if isinstance(ins.operand, int) else 8
                arr = ManagedArray(length, elem)
                if since_yield:
                    yield p.instruction_cost * since_yield
                    since_yield = 0
                yield from interp.heap.allocate(arr.byte_size)
                stack.append(arr)
            elif op is Op.LDLEN:
                arr = stack.pop()
                if arr is None:
                    raise ManagedException(
                        "System.NullReferenceException",
                        f"{method.full_name}@{pc}: ldlen on null",
                    )
                if not isinstance(arr, ManagedArray):
                    raise TypeMismatch(
                        f"{method.full_name}@{pc}: ldlen on {type(arr).__name__}"
                    )
                stack.append(arr.length)
            elif op is Op.CONV:  # the verifier admits only these kinds
                v = stack.pop()
                kind = ins.operand
                if kind in ("i4", "int32"):
                    stack.append(_wrap_signed(int(v), _I32_MASK, 0x80000000))
                elif kind in ("i8", "int64"):
                    stack.append(_wrap_signed(int(v), _I64_MASK, 1 << 63))
                else:
                    stack.append(float(v))
            else:  # pragma: no cover - exhaustive over the opcode set
                raise AssertionError(f"unimplemented opcode {op!r}")
        except ManagedException as exc:
            handler = method.handler_for(pc, exc.type_name)
            if handler is None:
                # Unwind to the caller; account for work done here.
                if since_yield:
                    yield p.instruction_cost * since_yield
                interp.instructions_executed.add(executed)
                raise
            # Transfer: clear the evaluation stack, push the exception,
            # continue at the handler.
            interp.exceptions_caught.add()
            if since_yield:
                yield p.instruction_cost * since_yield
                since_yield = 0
            yield p.exception_overhead
            stack.clear()
            stack.append(exc)
            next_pc = handler.handler_start

        pc = next_pc
