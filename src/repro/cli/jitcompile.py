"""Template compilation of CIL bodies to native Python closures.

"When a program is running, its bytecode is compiled on the fly into
the native code recognized by the machine architecture" (paper §1).
The cost side of that statement lives in :mod:`repro.cli.jit`; this
module supplies the *code* side: after the simulated compile delay is
charged, a verified method body is template-compiled into one Python
generator function — the wall-clock analogue of the real JIT's
native-code emission.  This is the VM's only executor: every call
runs compiled code, and nothing re-decodes one opcode at a time.

Compilation strategy (classic template JIT, one tier):

* the verified body is split into **basic blocks**; the generated
  function is a block-dispatch loop (``while 1: if _b == 0: ...``)
  whose per-block code is straight-line Python;
* evaluation-stack values live in **fixed slot variables**
  (``s0..s{max_stack-1}``) — slot indices are static because the
  verifier proves the stack depth at every pc is path-independent;
* straight-line **arithmetic is fused** into single Python
  expressions at compile time (``ldloc i; ldloc i; mul`` becomes
  ``(l0 * l0)``), so a fused run of CIL instructions costs one
  Python statement instead of one dispatch round-trip each;
* locals and arguments are plain Python locals (``l0..``, ``a0..``).

Simulated-time semantics are **bit-identical** to a plain
opcode-dispatch loop, which the tests keep as a reference
(``tests/cli/oracle.py``).  The generated code carries the same
``since_yield`` accrual that loop maintains per instruction, flushed
as the same sequence of sleeps (bare float yields): quantum flushes of
exactly ``instruction_cost × dispatch_quantum``, partial flushes before
every call / allocation / return / managed-exception unwind.  Because pure
arithmetic neither reads the clock nor schedules events, deferring the
accrual bookkeeping to fusion boundaries produces the *same* event
sequence at the *same* simulated times — differential tests in
``tests/cli/test_jitcompile.py`` assert equality of results, simulated
durations, instruction counts and event interleavings on every
``ext_cil`` kernel.

Protected regions (``try/catch``) and ``throw`` are compiled too: the
block-dispatch loop runs inside a host ``try``, a ``_pc`` shadow
variable records the pc of every statement that can raise a managed
exception, and the ``except`` arm replays the reference loop's unwind
protocol (``handler_for`` lookup, caught-counter, partial flush,
``exception_overhead`` charge, stack reset to the exception object).
There is no fallback engine: :func:`repro.cli.verifier.verify_method`
rejects at load whatever this module cannot emit (malformed call
operands, unknown ``conv`` kinds, non-string ``ldstr`` operands).
"""

from __future__ import annotations

import linecache
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cli.cil import Op, STACK_EFFECTS
from repro.cli.metadata import MethodDef
from repro.cli.verifier import _call_effect

__all__ = ["compile_native", "native_source"]

_I32_MASK = 0xFFFFFFFF
_I64_MASK = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Dataflow: entry stack depth per pc (the verifier proved consistency).
# ---------------------------------------------------------------------------

def _entry_depths(method: MethodDef) -> List[Optional[int]]:
    body = method.body
    depths: List[Optional[int]] = [None] * len(body)
    depths[0] = 0
    worklist: List[Tuple[int, int]] = [(0, 0)]
    # Handlers are entered with the stack cleared and the exception
    # pushed — depth 1, exactly as the verifier seeds them.
    for h in method.handlers:
        if depths[h.handler_start] is None:
            depths[h.handler_start] = 1
            worklist.append((h.handler_start, 1))
    while worklist:
        pc, depth = worklist.pop()
        ins = body[pc]
        op = ins.op
        if op is Op.RET or op is Op.THROW:
            continue
        if op in (Op.CALL, Op.CALLINTRINSIC):
            pops, pushes = _call_effect(ins)
        else:
            pops, pushes = STACK_EFFECTS[op]
        depth = depth - pops + pushes
        targets = []
        if op is Op.BR:
            targets = [ins.operand]
        elif op in (Op.BRTRUE, Op.BRFALSE):
            targets = [ins.operand, pc + 1]
        else:
            targets = [pc + 1]
        for t in targets:
            if depths[t] is None:
                depths[t] = depth
                worklist.append((t, depth))
    return depths


def _block_leaders(method: MethodDef, depths: List[Optional[int]]) -> List[int]:
    body = method.body
    leaders = {0}
    for h in method.handlers:
        leaders.add(h.handler_start)
    for pc, ins in enumerate(body):
        if depths[pc] is None:
            continue  # unreachable
        op = ins.op
        if op is Op.BR:
            leaders.add(ins.operand)
        elif op in (Op.BRTRUE, Op.BRFALSE):
            leaders.add(ins.operand)
            if pc + 1 < len(body):
                leaders.add(pc + 1)
    return sorted(pc for pc in leaders if depths[pc] is not None)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)


class _Ctx:
    """Per-method compile context: const pool + temp counter."""

    def __init__(self, method: MethodDef) -> None:
        self.method = method
        self.consts: List[Any] = []
        self._const_index: Dict[int, int] = {}
        self.ntemp = 0

    def const(self, value: Any) -> str:
        """Name of a closure constant holding ``value``."""
        key = id(value)
        idx = self._const_index.get(key)
        if idx is None:
            idx = len(self.consts)
            self.consts.append(value)
            self._const_index[key] = idx
        return f"_k{idx}"

    def temp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"


def _lit(value: Any, ctx: _Ctx) -> str:
    """Literal source for an LDC operand (const pool for exotica)."""
    if value is None or value is True or value is False:
        return repr(value)
    if isinstance(value, (int, float, str)):
        return repr(value)
    return ctx.const(value)


_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _mentions(expr: str, name: str) -> bool:
    return name in _WORD.findall(expr)


class _Stack:
    """Compile-time model of the evaluation stack.

    Entries are ``('expr', code)`` — a pure Python expression over
    slots/locals/args/consts — or ``('cmp', cond)`` — an un-materialized
    comparison usable directly in a branch condition.
    """

    def __init__(self, depth: int) -> None:
        self.entries: List[Tuple[str, str]] = [
            ("expr", f"s{i}") for i in range(depth)
        ]

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, kind: str, code: str) -> None:
        self.entries.append((kind, code))

    def pop(self) -> Tuple[str, str]:
        return self.entries.pop()

    def materialize(self, entry: Tuple[str, str]) -> str:
        kind, code = entry
        if kind == "cmp":
            return f"(1 if {code} else 0)"
        return code

    def spill_all(self, out: _Writer) -> None:
        """Park every entry in its canonical slot (tuple assignment)."""
        targets, values = [], []
        for i, entry in enumerate(self.entries):
            code = self.materialize(entry)
            if code != f"s{i}":
                targets.append(f"s{i}")
                values.append(code)
                self.entries[i] = ("expr", f"s{i}")
        if targets:
            out.w(f"{', '.join(targets)} = {', '.join(values)}")

    def spill_mentioning(self, name: str, out: _Writer) -> None:
        """Park entries whose expression reads ``name`` (about to be
        reassigned)."""
        targets, values = [], []
        for i, entry in enumerate(self.entries):
            code = self.materialize(entry)
            if code != f"s{i}" and _mentions(code, name):
                targets.append(f"s{i}")
                values.append(code)
                self.entries[i] = ("expr", f"s{i}")
        if targets:
            out.w(f"{', '.join(targets)} = {', '.join(values)}")


def _nonzero_literal(entry: Tuple[str, str]) -> Any:
    """The entry's value when it is a literal numeric constant != 0
    (lets the compiler drop the divide-by-zero guard), else ``None``."""
    kind, code = entry
    if kind != "expr":
        return None
    try:
        value = eval(code, {"__builtins__": {}})  # literals only
    except Exception:
        return None
    if isinstance(value, (int, float)) and value != 0:
        return value
    return None


_BINOPS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.AND: "&", Op.OR: "|",
    Op.XOR: "^", Op.SHL: "<<", Op.SHR: ">>",
}
_CMPOPS = {Op.CEQ: "==", Op.CGT: ">", Op.CLT: "<"}


def _generate(method: MethodDef, params) -> Tuple[str, _Ctx]:
    """Python source for ``method`` under interpreter ``params``."""
    ctx = _Ctx(method)
    body = method.body
    depths = _entry_depths(method)
    leaders = _block_leaders(method, depths)
    block_of = {pc: i for i, pc in enumerate(leaders)}
    name = method.full_name

    out = _Writer()
    out.w("def _compiled(interp, args, _depth):")
    out.indent += 1
    out.w("_statics = interp.statics")
    out.w("_heap_allocate = interp.heap.allocate")
    out.w("_intrinsics = interp.intrinsics")
    for i in range(method.param_count):
        out.w(f"a{i} = args[{i}]")
    if method.local_count:
        out.w(" = ".join(f"l{i}" for i in range(method.local_count)) + " = 0")
    if method.max_stack:
        out.w(" = ".join(f"s{i}" for i in range(method.max_stack)) + " = None")
    out.w("_sy = 0")
    out.w("_ex = 0")
    out.w("_b = 0")
    out.w("_incall = False")
    has_handlers = bool(method.handlers)
    if has_handlers:
        out.w("_pc = 0")
    out.w("try:")
    out.indent += 1
    out.w("while True:")
    out.indent += 1
    if has_handlers:
        # Handler dispatch needs the faulting pc: the block bodies keep
        # a ``_pc`` shadow current at every potentially-throwing
        # statement, and the except arm below replays the catch
        # protocol.
        out.w("try:")
        out.indent += 1

    def track_pc(pc: int) -> None:
        if has_handlers:
            out.w(f"_pc = {pc}")

    def emit_sync(pending: int) -> None:
        """Accrue ``pending`` instructions; flush whole quanta exactly
        as a per-instruction check would."""
        if not pending:
            return
        out.w(f"_sy += {pending}; _ex += {pending}")
        out.w("while _sy >= _Q:")
        out.indent += 1
        out.w("yield _ICQ")
        out.w("_sy -= _Q")
        out.indent -= 1

    def emit_partial_flush() -> None:
        """The ``if since_yield: yield cost`` partial flush."""
        out.w("if _sy:")
        out.indent += 1
        out.w("yield _IC * _sy")
        out.w("_sy = 0")
        out.indent -= 1

    for bi, leader in enumerate(leaders):
        out.w(f"{'if' if bi == 0 else 'elif'} _b == {bi}:")
        out.indent += 1
        stack = _Stack(depths[leader])
        pending = 0
        pc = leader
        end = leaders[bi + 1] if bi + 1 < len(leaders) else len(body)
        closed = False  # block emitted its terminator
        while pc < end:
            ins = body[pc]
            op = ins.op
            pending += 1

            if op is Op.NOP:
                pass
            elif op is Op.LDC:
                stack.push("expr", _lit(ins.operand, ctx))
            elif op is Op.LDLOC:
                stack.push("expr", f"l{ins.operand}")
            elif op is Op.STLOC:
                entry = stack.pop()
                stack.spill_mentioning(f"l{ins.operand}", out)
                out.w(f"l{ins.operand} = {stack.materialize(entry)}")
            elif op is Op.LDARG:
                stack.push("expr", f"a{ins.operand}")
            elif op is Op.STARG:
                entry = stack.pop()
                stack.spill_mentioning(f"a{ins.operand}", out)
                out.w(f"a{ins.operand} = {stack.materialize(entry)}")
            elif op is Op.LDSFLD:
                # Statics are shared mutable state: read eagerly into
                # the slot rather than fusing a stale read.
                d = len(stack)
                out.w(f"s{d} = _statics.get({ins.operand!r}, 0)")
                stack.push("expr", f"s{d}")
            elif op is Op.STSFLD:
                entry = stack.pop()
                out.w(f"_statics[{ins.operand!r}] = {stack.materialize(entry)}")
            elif op is Op.DUP:
                entry = stack.pop()
                d = len(stack)
                code = stack.materialize(entry)
                if code != f"s{d}":
                    out.w(f"s{d} = {code}")
                stack.push("expr", f"s{d}")
                stack.push("expr", f"s{d}")
            elif op is Op.POP:
                entry = stack.pop()
                code = stack.materialize(entry)
                # Force evaluation of fused expressions so a type
                # fault inside them still surfaces (atoms are dropped).
                if not _WORD.fullmatch(code):
                    out.w(f"_ = {code}")
            elif op in _BINOPS:
                b = stack.materialize(stack.pop())
                a = stack.materialize(stack.pop())
                stack.push("expr", f"({a} {_BINOPS[op]} {b})")
            elif op in (Op.DIV, Op.REM):
                fn = "_truncdiv" if op is Op.DIV else "_truncrem"
                bent = stack.pop()
                aent = stack.pop()
                divisor = _nonzero_literal(bent)
                if divisor is not None:
                    a = stack.materialize(aent)
                    b = stack.materialize(bent)
                    if divisor.__class__ is int and divisor > 0:
                        # Truncation and floor agree for a non-negative
                        # int over a positive one; bools, floats and
                        # negatives take the helper.  ``a`` is
                        # evaluated once, into a fresh temp.
                        t = ctx.temp()
                        pyop = "//" if op is Op.DIV else "%"
                        stack.push("expr", (
                            f"({t} {pyop} {b} if ({t} := {a}).__class__ "
                            f"is int and {t} >= 0 else {fn}({t}, {b}))"
                        ))
                    else:
                        stack.push("expr", f"{fn}({a}, {b})")
                else:
                    # The zero check (and the unwind accounting)
                    # happens with the div counted.
                    emit_sync(pending)
                    pending = 0
                    track_pc(pc)
                    ta, tb = ctx.temp(), ctx.temp()
                    out.w(f"{ta} = {stack.materialize(aent)}")
                    out.w(f"{tb} = {stack.materialize(bent)}")
                    out.w(f"if {tb} == 0 and isinstance({tb}, int):")
                    out.indent += 1
                    out.w(
                        "raise ManagedException("
                        f"'System.DivideByZeroException', '{name}@{pc}')"
                    )
                    out.indent -= 1
                    d = len(stack)
                    out.w(f"s{d} = {fn}({ta}, {tb})")
                    stack.push("expr", f"s{d}")
            elif op is Op.NEG:
                a = stack.materialize(stack.pop())
                stack.push("expr", f"(- {a})")
            elif op is Op.NOT:
                entry = stack.pop()
                t = ctx.temp()
                out.w(f"{t} = {stack.materialize(entry)}")
                out.w(f"if not isinstance({t}, int):")
                out.indent += 1
                out.w(
                    "raise TypeMismatch("
                    f"'{name}@{pc}: not on ' + type({t}).__name__)"
                )
                out.indent -= 1
                d = len(stack)
                out.w(f"s{d} = ~{t}")
                stack.push("expr", f"s{d}")
            elif op in _CMPOPS:
                b = stack.materialize(stack.pop())
                a = stack.materialize(stack.pop())
                stack.push("cmp", f"{a} {_CMPOPS[op]} {b}")
            elif op is Op.CONV:
                a = stack.materialize(stack.pop())
                kind = ins.operand
                if kind in ("i4", "int32"):
                    stack.push(
                        "expr",
                        f"_wrap_signed(int({a}), {_I32_MASK}, {0x80000000})",
                    )
                elif kind in ("i8", "int64"):
                    stack.push(
                        "expr",
                        f"_wrap_signed(int({a}), {_I64_MASK}, {1 << 63})",
                    )
                else:  # r8 / float64 (the verifier rejects the rest)
                    stack.push("expr", f"float({a})")
            elif op is Op.LDLEN:
                emit_sync(pending)
                pending = 0
                track_pc(pc)
                entry = stack.pop()
                t = ctx.temp()
                out.w(f"{t} = {stack.materialize(entry)}")
                out.w(f"if {t} is None:")
                out.indent += 1
                out.w(
                    "raise ManagedException('System.NullReferenceException', "
                    f"'{name}@{pc}: ldlen on null')"
                )
                out.indent -= 1
                out.w(f"if not isinstance({t}, ManagedArray):")
                out.indent += 1
                out.w(
                    "raise TypeMismatch("
                    f"'{name}@{pc}: ldlen on ' + type({t}).__name__)"
                )
                out.indent -= 1
                d = len(stack)
                out.w(f"s{d} = {t}.length")
                stack.push("expr", f"s{d}")
            elif op is Op.LDSTR:
                s = ins.operand
                emit_sync(pending)
                pending = 0
                emit_partial_flush()
                out.w(f"yield from _heap_allocate({2 * len(s)})")
                stack.push("expr", _lit(s, ctx))
            elif op is Op.NEWARR:
                entry = stack.pop()
                t = ctx.temp()
                out.w(f"{t} = {stack.materialize(entry)}")
                out.w(f"if not isinstance({t}, int):")
                out.indent += 1
                out.w(
                    "raise TypeMismatch("
                    f"'{name}@{pc}: newarr length is ' + type({t}).__name__)"
                )
                out.indent -= 1
                elem = ins.operand if isinstance(ins.operand, int) else 8
                arr = ctx.temp()
                out.w(f"{arr} = ManagedArray({t}, {elem})")
                emit_sync(pending)
                pending = 0
                emit_partial_flush()
                out.w(f"yield from _heap_allocate({arr}.byte_size)")
                d = len(stack)
                out.w(f"s{d} = {arr}")
                stack.push("expr", f"s{d}")
            elif op is Op.CALL:
                operand = ins.operand
                if isinstance(operand, MethodDef):
                    argc = operand.param_count
                    returns = operand.returns
                    callee = ctx.const(operand)
                else:
                    _cname, argc, returns = operand
                    callee = ctx.temp()
                arg_entries = [stack.pop() for _ in range(argc)][::-1]
                call_args = ", ".join(
                    stack.materialize(e) for e in arg_entries
                )
                if not isinstance(operand, MethodDef):
                    out.w(
                        f"{callee} = interp._resolve_call("
                        f"{ctx.const(operand)}, _method, {pc})"
                    )
                emit_sync(pending)
                pending = 0
                track_pc(pc)
                emit_partial_flush()
                out.w("yield _CO")
                out.w("_incall = True")
                out.w(
                    f"_r = yield from interp.invoke("
                    f"{callee}, ({call_args}{',' if argc else ''}), _depth + 1)"
                )
                out.w("_incall = False")
                if returns:
                    d = len(stack)
                    out.w(f"s{d} = _r")
                    stack.push("expr", f"s{d}")
            elif op is Op.CALLINTRINSIC:
                iname, argc, returns = ins.operand
                arg_entries = [stack.pop() for _ in range(argc)][::-1]
                call_args = ", ".join(
                    stack.materialize(e) for e in arg_entries
                )
                fn = ctx.temp()
                out.w(f"{fn} = _intrinsics.get({iname!r})")
                out.w(f"if {fn} is None:")
                out.indent += 1
                out.w(
                    "raise ExecutionFault("
                    f"{(name + '@' + str(pc) + ': unknown intrinsic ' + repr(iname))!r})"
                )
                out.indent -= 1
                emit_sync(pending)
                pending = 0
                track_pc(pc)
                emit_partial_flush()
                out.w("yield _CO")
                out.w("_incall = True")
                out.w(f"_r = {fn}({call_args})")
                out.w("if hasattr(_r, 'send') and hasattr(_r, 'throw'):")
                out.indent += 1
                out.w("_r = yield from _r")
                out.indent -= 1
                out.w("_incall = False")
                if returns:
                    d = len(stack)
                    out.w(f"s{d} = _r")
                    stack.push("expr", f"s{d}")
            elif op is Op.RET:
                emit_sync(pending)
                pending = 0
                emit_partial_flush()
                out.w("interp.instructions_executed.add(_ex)")
                if method.returns:
                    out.w(f"return {stack.materialize(stack.pop())}")
                else:
                    out.w("return None")
                closed = True
                break
            elif op is Op.THROW:
                entry = stack.pop()
                emit_sync(pending)
                pending = 0
                track_pc(pc)
                t = ctx.temp()
                out.w(f"{t} = {stack.materialize(entry)}")
                out.w("interp.exceptions_thrown.add()")
                emit_partial_flush()
                out.w("yield _EO")
                out.w(f"if isinstance({t}, ManagedException):")
                out.indent += 1
                out.w(f"raise {t}")
                out.indent -= 1
                out.w(
                    "raise ManagedException('System.Exception', "
                    f"str({t}), payload={t})"
                )
                closed = True
                break
            elif op is Op.BR:
                emit_sync(pending)
                pending = 0
                stack.spill_all(out)
                out.w(f"_b = {block_of[ins.operand]}")
                out.w("continue")
                closed = True
                break
            elif op in (Op.BRTRUE, Op.BRFALSE):
                entry = stack.pop()
                kind, code = entry
                cond = code if kind == "cmp" else stack.materialize(entry)
                if op is Op.BRFALSE:
                    cond = f"not ({cond})"
                emit_sync(pending)
                pending = 0
                stack.spill_all(out)
                out.w(f"if {cond}:")
                out.indent += 1
                out.w(f"_b = {block_of[ins.operand]}")
                out.w("continue")
                out.indent -= 1
                out.w(f"_b = {block_of[pc + 1]}")
                out.w("continue")
                closed = True
                break
            else:  # pragma: no cover - exhaustive over the opcode set
                raise AssertionError(f"unsupported opcode {op!r}")
            pc += 1

        if not closed:
            # Fall through into the next leader.
            emit_sync(pending)
            stack.spill_all(out)
            out.w(f"_b = {bi + 1}")
            out.w("continue")
        out.indent -= 1

    if has_handlers:
        out.indent -= 1  # inner try
        out.w("except ManagedException as _exc:")
        out.indent += 1
        # The catch protocol: innermost matching handler,
        # caught-counter, partial flush, exception_overhead, stack
        # cleared to just the exception, transfer to the handler block.
        out.w("_h = _method.handler_for(_pc, _exc.type_name)")
        out.w("if _h is None:")
        out.indent += 1
        out.w("raise")
        out.indent -= 1
        out.w("interp.exceptions_caught.add()")
        out.w("_incall = False")
        out.w("if _sy:")
        out.indent += 1
        out.w("yield _IC * _sy")
        out.w("_sy = 0")
        out.indent -= 1
        out.w("yield _EO")
        out.w("s0 = _exc")
        hb = {
            h.handler_start: block_of[h.handler_start]
            for h in method.handlers
        }
        out.w(f"_b = {ctx.const(hb)}[_h.handler_start]")
        out.w("continue")
        out.indent -= 1

    out.indent -= 1  # while
    out.indent -= 1  # try
    out.w("except ManagedException:")
    out.indent += 1
    out.w("if _sy:")
    out.indent += 1
    out.w("yield _IC * _sy")
    out.indent -= 1
    out.w("interp.instructions_executed.add(_ex)")
    out.w("raise")
    out.indent -= 1
    out.w("except TypeError:")
    out.indent += 1
    out.w("if _incall:")
    out.indent += 1
    out.w("raise")
    out.indent -= 1
    out.w(
        "raise TypeMismatch("
        f"'{name}: operand type mismatch in compiled code') from None"
    )
    out.indent -= 1
    return "\n".join(out.lines) + "\n", ctx


def native_source(method: MethodDef, params) -> str:
    """The generated Python source for verified ``method`` — for tests
    and the disassembler."""
    source, _ctx = _generate(method, params)
    return source


def compile_native(method: MethodDef, params) -> Callable:
    """Compile verified ``method`` into a Python generator function.

    Returns ``fn(interp, args, depth)``.  ``params`` is the interpreter's
    :class:`~repro.cli.interpreter.InterpreterParams`; its cost
    constants are baked into the generated code.
    """
    from repro.cli.interpreter import (  # local import: avoids a cycle
        ManagedArray,
        ManagedException,
        _truncdiv,
        _truncrem,
        _wrap_signed,
    )
    from repro.errors import ExecutionFault, TypeMismatch

    source, ctx = _generate(method, params)
    filename = f"<cil-native:{method.full_name}#{method.token:#x}>"
    # Register with linecache so tracebacks through compiled frames
    # show the generated source.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    namespace: Dict[str, Any] = {
        "_Q": params.dispatch_quantum,
        # Floats, so every flush is a sleep (see repro.sim.process).
        "_IC": float(params.instruction_cost),
        "_ICQ": float(params.instruction_cost * params.dispatch_quantum),
        "_CO": float(params.call_overhead),
        "_EO": float(params.exception_overhead),
        "_method": method,
        "ManagedException": ManagedException,
        "ManagedArray": ManagedArray,
        "ExecutionFault": ExecutionFault,
        "TypeMismatch": TypeMismatch,
        "_truncdiv": _truncdiv,
        "_truncrem": _truncrem,
        "_wrap_signed": _wrap_signed,
        "isinstance": isinstance,
        "hasattr": hasattr,
        "int": int,
        "float": float,
        "str": str,
        "type": type,
    }
    for i, value in enumerate(ctx.consts):
        namespace[f"_k{i}"] = value
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace["_compiled"]
    fn.__name__ = f"cil_native_{method.name}"
    fn.__qualname__ = fn.__name__
    fn.__cil_source__ = source
    return fn
