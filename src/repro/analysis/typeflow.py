"""Worklist abstract interpreter: typed facts at every pc.

This replaces the verifier's depth-only dataflow with **typed** facts:
for every reachable instruction the analyzer knows the abstract type
(and, where provable, the constant value) of each evaluation-stack
slot, plus the init state and type of every local and argument.

The flow mirrors the verifier and the template JIT exactly — same
successor relation, same unconditional handler seeding (stack cleared,
exception object pushed) — so "reachable" here means *compiled* by
:mod:`repro.cli.jitcompile`.  Unknown ``conv`` kinds and malformed
call operands on reachable pcs are also rejected by the verifier at
load; the analysis reports them for bodies that were never verified.

The analysis runs in two phases so every fact reflects the fixpoint,
not a transient state of the iteration:

1. **fixpoint** — propagate abstract states until stable (recording
   only join confusions, which are monotone);
2. **fact sweep** — one linear pass over the final entry states
   collects constant branches/comparisons, certain type errors,
   conv/call problems and may-uninitialized local reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.lattice import BOTTOM, TOP, Init, Kind, TypeVal, type_of_constant
from repro.cli.cil import Instruction, Op
from repro.cli.metadata import MethodDef
from repro.cli.verifier import _well_formed_call_tuple

__all__ = ["State", "TypeFacts", "analyze_types"]


_CONV_KINDS = {
    "i4": Kind.INT32, "int32": Kind.INT32,
    "i8": Kind.INT64, "int64": Kind.INT64,
    "r8": Kind.FLOAT64, "float64": Kind.FLOAT64,
}

_ARITH = (Op.ADD, Op.SUB, Op.MUL)
_BITOPS = (Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR)
_CMPS = (Op.CEQ, Op.CGT, Op.CLT)


def _truncdiv(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    return a / b


def _truncrem(a, b):
    if isinstance(a, int) and isinstance(b, int):
        r = abs(a) % abs(b)
        return -r if a < 0 else r
    import math

    return math.fmod(a, b)


@dataclass(frozen=True)
class State:
    """Abstract machine state at one pc."""

    stack: Tuple[TypeVal, ...]
    locals_type: Tuple[TypeVal, ...]
    locals_init: Tuple[Init, ...]
    args_type: Tuple[TypeVal, ...]

    def join(self, other: "State") -> "State":
        assert len(self.stack) == len(other.stack)
        return State(
            stack=tuple(a.join(b) for a, b in zip(self.stack, other.stack)),
            locals_type=tuple(
                a.join(b) for a, b in zip(self.locals_type, other.locals_type)
            ),
            locals_init=tuple(
                a.join(b) for a, b in zip(self.locals_init, other.locals_init)
            ),
            args_type=tuple(
                a.join(b) for a, b in zip(self.args_type, other.args_type)
            ),
        )


@dataclass
class _Sink:
    """Fact collector handed to the transfer function (fact sweep
    phase); the fixpoint phase runs with ``None`` instead."""

    errors: List[Tuple[int, str]] = field(default_factory=list)
    warnings: List[Tuple[int, str]] = field(default_factory=list)
    const_branches: List[Tuple[int, bool]] = field(default_factory=list)
    const_cmps: List[Tuple[int, str, int]] = field(default_factory=list)
    uninit_reads: List[Tuple[int, int, Init]] = field(default_factory=list)


@dataclass
class TypeFacts:
    """Everything the abstract interpreter learned about one method."""

    method: MethodDef
    entry_states: List[Optional[State]]
    #: (pc, slot description, kind names) — joins that went to ⊤.
    join_confusions: List[Tuple[int, str, Tuple[str, str]]] = field(default_factory=list)
    #: (pc, always_taken) for brtrue/brfalse with a proven-constant condition.
    const_branches: List[Tuple[int, bool]] = field(default_factory=list)
    #: (pc, opcode, folded value) for comparisons proven constant.
    const_cmps: List[Tuple[int, str, int]] = field(default_factory=list)
    #: (pc, message) — would certainly fault at runtime (error severity).
    type_errors: List[Tuple[int, str]] = field(default_factory=list)
    #: (pc, message) — suspicious but not certainly fatal.
    type_warnings: List[Tuple[int, str]] = field(default_factory=list)
    #: (pc, local index, init state) for ldloc before any definite store.
    uninit_reads: List[Tuple[int, int, Init]] = field(default_factory=list)

    def reachable_pcs(self) -> List[int]:
        return [pc for pc, s in enumerate(self.entry_states) if s is not None]

    def stack_kinds(self) -> List[Optional[Tuple[Kind, ...]]]:
        """Per-pc entry stack types (None per pc = unreachable); the
        reference loop in the tests checks the runtime stack against
        them."""
        return [
            None if s is None else tuple(v.kind for v in s.stack)
            for s in self.entry_states
        ]


def _call_pops_pushes(ins: Instruction) -> Optional[Tuple[int, int]]:
    """(pops, pushes) for call-like instructions; None when malformed."""
    operand = ins.operand
    if ins.op is Op.CALL and isinstance(operand, MethodDef):
        return operand.param_count, 1 if operand.returns else 0
    if _well_formed_call_tuple(operand):
        _name, argc, returns = operand
        return argc, 1 if returns else 0
    return None


def _promote(a: TypeVal, b: TypeVal) -> Kind:
    if Kind.FLOAT64 in (a.kind, b.kind):
        return Kind.FLOAT64
    if Kind.INT64 in (a.kind, b.kind):
        return Kind.INT64
    return Kind.INT32


def _transfer(
    method: MethodDef,
    pc: int,
    state: State,
    sink: Optional[_Sink],
) -> Tuple[List[Tuple[int, State]], bool]:
    """Abstractly execute ``body[pc]`` from ``state``.

    Returns ``(successors, falls_through)`` where successors are
    explicit (branch) targets only; exception-edge propagation is the
    caller's job.  When ``sink`` is given, diagnostic facts about this
    pc are appended to it.
    """
    body = method.body
    n = len(body)
    ins = body[pc]
    op = ins.op
    stack = list(state.stack)
    locals_type = list(state.locals_type)
    locals_init = list(state.locals_init)
    args_type = list(state.args_type)

    def pop() -> TypeVal:
        if not stack:
            return BOTTOM  # underflow; the verifier reports it
        return stack.pop()

    def err(message: str) -> None:
        if sink is not None:
            sink.errors.append((pc, message))

    def warn(message: str) -> None:
        if sink is not None:
            sink.warnings.append((pc, message))

    successors: List[Tuple[int, State]] = []
    falls_through = True

    def out_state() -> State:
        return State(tuple(stack), tuple(locals_type),
                     tuple(locals_init), tuple(args_type))

    if op is Op.NOP:
        pass
    elif op is Op.LDC:
        stack.append(type_of_constant(ins.operand))
    elif op is Op.LDSTR:
        if isinstance(ins.operand, str):
            stack.append(type_of_constant(ins.operand))
        else:
            err(f"ldstr operand is {type(ins.operand).__name__}, not str")
            stack.append(TypeVal(Kind.STRING))
    elif op is Op.LDLOC:
        i = ins.operand
        if isinstance(i, int) and 0 <= i < method.local_count:
            if locals_init[i] is not Init.INIT and sink is not None:
                sink.uninit_reads.append((pc, i, locals_init[i]))
            stack.append(locals_type[i])
        else:
            stack.append(TOP)
    elif op is Op.STLOC:
        v = pop()
        i = ins.operand
        if isinstance(i, int) and 0 <= i < method.local_count:
            locals_type[i] = v
            locals_init[i] = Init.INIT
    elif op is Op.LDARG:
        i = ins.operand
        if isinstance(i, int) and 0 <= i < method.param_count:
            stack.append(args_type[i])
        else:
            stack.append(TOP)
    elif op is Op.STARG:
        v = pop()
        i = ins.operand
        if isinstance(i, int) and 0 <= i < method.param_count:
            args_type[i] = v
    elif op is Op.LDSFLD:
        # Statics are cross-thread mutable: statically unknown.
        stack.append(TOP)
    elif op is Op.STSFLD:
        pop()
    elif op is Op.DUP:
        v = pop()
        stack.append(v)
        stack.append(v)
    elif op is Op.POP:
        pop()
    elif op in _ARITH:
        b = pop()
        a = pop()
        if a.is_numeric and b.is_numeric:
            if a.known and b.known:
                val = {
                    Op.ADD: lambda: a.const + b.const,
                    Op.SUB: lambda: a.const - b.const,
                    Op.MUL: lambda: a.const * b.const,
                }[op]()
                stack.append(type_of_constant(val))
            else:
                stack.append(TypeVal(_promote(a, b)))
        elif op is Op.ADD and a.kind is Kind.STRING and b.kind is Kind.STRING:
            if a.known and b.known:
                stack.append(type_of_constant(a.const + b.const))
            else:
                stack.append(TypeVal(Kind.STRING))
        elif a.confused or b.confused or Kind.BOTTOM in (a.kind, b.kind):
            stack.append(TOP)
        else:
            err(f"{op.value} on {a.kind}, {b.kind}")
            stack.append(TOP)
    elif op in (Op.DIV, Op.REM):
        b = pop()
        a = pop()
        fold = _truncdiv if op is Op.DIV else _truncrem
        if b.known and b.const == 0 and b.is_int:
            warn(f"{op.value} by constant int 0 always raises "
                 "System.DivideByZeroException")
            stack.append(TypeVal(_promote(a, b))
                         if a.is_numeric and b.is_numeric else TOP)
        elif a.is_numeric and b.is_numeric:
            if a.known and b.known and b.const != 0:
                stack.append(type_of_constant(fold(a.const, b.const)))
            else:
                stack.append(TypeVal(_promote(a, b)))
        elif a.confused or b.confused or Kind.BOTTOM in (a.kind, b.kind):
            stack.append(TOP)
        else:
            err(f"{op.value} on {a.kind}, {b.kind}")
            stack.append(TOP)
    elif op in _BITOPS:
        b = pop()
        a = pop()
        if a.is_int and b.is_int:
            if a.known and b.known and not (
                op in (Op.SHL, Op.SHR) and b.const < 0
            ):
                val = {
                    Op.AND: lambda: a.const & b.const,
                    Op.OR: lambda: a.const | b.const,
                    Op.XOR: lambda: a.const ^ b.const,
                    Op.SHL: lambda: a.const << b.const,
                    Op.SHR: lambda: a.const >> b.const,
                }[op]()
                stack.append(type_of_constant(val))
            else:
                stack.append(TypeVal(_promote(a, b)))
        elif a.confused or b.confused or Kind.BOTTOM in (a.kind, b.kind):
            stack.append(TOP)
        else:
            err(f"{op.value} requires integers, got {a.kind}, {b.kind}")
            stack.append(TOP)
    elif op is Op.NEG:
        a = pop()
        if a.is_numeric:
            if a.known:
                stack.append(type_of_constant(-a.const))
            else:
                stack.append(TypeVal(a.kind))
        elif a.confused or a.kind is Kind.BOTTOM:
            stack.append(TOP)
        else:
            err(f"neg on {a.kind}")
            stack.append(TOP)
    elif op is Op.NOT:
        a = pop()
        if a.is_int:
            stack.append(type_of_constant(~a.const) if a.known
                         else TypeVal(a.kind))
        elif a.confused or a.kind is Kind.BOTTOM:
            stack.append(TypeVal(Kind.INT32) if a.confused else TOP)
        else:
            err(f"not on {a.kind} always raises TypeMismatch")
            stack.append(TypeVal(Kind.INT32))
    elif op in _CMPS:
        b = pop()
        a = pop()
        ordered = op in (Op.CGT, Op.CLT)
        comparable = (
            (a.is_numeric and b.is_numeric)
            or (a.kind is b.kind and a.kind is not Kind.TOP)
            or not ordered
        )
        if ordered and not comparable and not (
            a.confused or b.confused or Kind.BOTTOM in (a.kind, b.kind)
            or Kind.OBJECT in (a.kind, b.kind)
        ):
            err(f"{op.value} on {a.kind}, {b.kind}")
        folded = False
        if a.known and b.known and comparable:
            try:
                val = {
                    Op.CEQ: lambda: 1 if a.const == b.const else 0,
                    Op.CGT: lambda: 1 if a.const > b.const else 0,
                    Op.CLT: lambda: 1 if a.const < b.const else 0,
                }[op]()
            except TypeError:  # e.g. None comparisons
                pass
            else:
                if sink is not None:
                    sink.const_cmps.append((pc, op.value, val))
                stack.append(type_of_constant(val))
                folded = True
        if not folded:
            stack.append(TypeVal(Kind.INT32))
    elif op is Op.CONV:
        a = pop()
        kind = _CONV_KINDS.get(ins.operand)
        if kind is None:
            err(f"unknown conv kind {ins.operand!r} fails verification")
            stack.append(TOP)
        else:
            if not (a.is_numeric or a.confused or a.kind is Kind.BOTTOM):
                warn(f"conv {ins.operand} on {a.kind} value")
            stack.append(TypeVal(kind))
    elif op is Op.NEWARR:
        a = pop()
        if not (a.is_int or a.confused or a.kind is Kind.BOTTOM):
            err(f"newarr length is {a.kind}")
        stack.append(TypeVal(Kind.OBJECT))
    elif op is Op.LDLEN:
        a = pop()
        if a.kind is Kind.OBJECT and a.known and a.const is None:
            warn("ldlen on null always raises System.NullReferenceException")
        elif not (a.kind is Kind.OBJECT or a.confused
                  or a.kind is Kind.BOTTOM):
            err(f"ldlen on {a.kind}")
        stack.append(TypeVal(Kind.INT32))
    elif op is Op.BR:
        if isinstance(ins.operand, int):
            successors.append((ins.operand, out_state()))
        falls_through = False
    elif op in (Op.BRTRUE, Op.BRFALSE):
        cond = pop()
        if cond.known and sink is not None:
            truthy = bool(cond.const)
            sink.const_branches.append(
                (pc, truthy if op is Op.BRTRUE else not truthy)
            )
        out = out_state()
        # Both edges flow even for constant conditions: reachability
        # stays aligned with the verifier and the template JIT, and
        # the constant-branch pass reports the dead edge instead.
        if isinstance(ins.operand, int):
            successors.append((ins.operand, out))
        if pc + 1 < n:
            successors.append((pc + 1, out))
        falls_through = False
    elif op is Op.RET:
        falls_through = False
    elif op is Op.THROW:
        pop()
        falls_through = False
    elif op is Op.CALL or op is Op.CALLINTRINSIC:
        effect = _call_pops_pushes(ins)
        if effect is None:
            err(f"malformed {op.value} operand {ins.operand!r}")
            falls_through = False  # depth unknowable past this point
        else:
            pops, pushes = effect
            for _ in range(pops):
                pop()
            for _ in range(pushes):
                stack.append(TOP)
    else:  # pragma: no cover - exhaustive over opcode set
        raise AssertionError(f"unhandled opcode {op!r}")

    if falls_through and pc + 1 >= n:
        falls_through = False  # running off the end; verifier reports it
    if falls_through:
        successors.append((pc + 1, out_state()))
    return successors, falls_through


def analyze_types(method: MethodDef) -> TypeFacts:
    """Run the abstract interpreter to fixpoint over ``method``."""
    body = method.body
    n = len(body)
    facts = TypeFacts(method, entry_states=[None] * n)
    if n == 0:
        return facts
    entry = facts.entry_states

    init_state = State(
        stack=(),
        locals_type=tuple(type_of_constant(0)
                          for _ in range(method.local_count)),
        locals_init=tuple(Init.UNINIT for _ in range(method.local_count)),
        args_type=tuple(TOP for _ in range(method.param_count)),
    )

    confusions: Dict[Tuple[int, str], Tuple[str, str]] = {}
    worklist: List[int] = []

    def flow_to(target: int, state: State) -> None:
        if not (0 <= target < n):
            return  # verifier reports range errors
        known = entry[target]
        if known is None:
            entry[target] = state
            worklist.append(target)
            return
        if len(known.stack) != len(state.stack):
            return  # depth inconsistency is the verifier's error
        joined = known.join(state)
        if joined != known:
            for i, (a, b) in enumerate(zip(known.stack, state.stack)):
                j = a.join(b)
                if j.confused and not a.confused and not b.confused:
                    confusions[(target, f"stack[{i}]")] = (
                        str(a.kind), str(b.kind))
            for i, (a, b) in enumerate(
                zip(known.locals_type, state.locals_type)
            ):
                j = a.join(b)
                if j.confused and not a.confused and not b.confused:
                    confusions[(target, f"local[{i}]")] = (
                        str(a.kind), str(b.kind))
            entry[target] = joined
            worklist.append(target)

    flow_to(0, init_state)
    # Handlers are entered with the stack cleared and the exception
    # pushed — seeded unconditionally, exactly as the verifier and the
    # template JIT do.
    for h in method.handlers:
        flow_to(h.handler_start, State(
            stack=(TypeVal(Kind.OBJECT),),
            locals_type=init_state.locals_type,
            locals_init=init_state.locals_init,
            args_type=init_state.args_type,
        ))

    # Phase 1: fixpoint.
    while worklist:
        pc = worklist.pop()
        state = entry[pc]
        assert state is not None
        # Any pc inside a protected region may unwind to its handler
        # with the locals as they are *before* the instruction.
        for h in method.handlers:
            if h.covers(pc):
                flow_to(h.handler_start, State(
                    stack=(TypeVal(Kind.OBJECT),),
                    locals_type=state.locals_type,
                    locals_init=state.locals_init,
                    args_type=state.args_type,
                ))
        successors, _ = _transfer(method, pc, state, sink=None)
        for target, out in successors:
            flow_to(target, out)

    # Phase 2: fact sweep over the final states (deterministic order).
    sink = _Sink()
    for pc in range(n):
        state = entry[pc]
        if state is not None:
            _transfer(method, pc, state, sink=sink)

    facts.join_confusions = sorted(
        (pc, slot, kinds) for (pc, slot), kinds in confusions.items()
    )
    facts.const_branches = sink.const_branches
    facts.const_cmps = sink.const_cmps
    facts.type_errors = sink.errors
    facts.type_warnings = sink.warnings
    facts.uninit_reads = sink.uninit_reads
    return facts
