"""Bytecode verifier.

Part of the virtual execution system (paper §1, item 3): before a
method may be JIT-compiled, the VES proves its CIL body is safe.  The
simulation's verifier checks the properties the template compiler
(:mod:`repro.cli.jitcompile`) relies on:

* every branch target is a valid instruction index;
* the evaluation-stack depth is consistent along all control paths and
  never goes negative;
* ``ret`` leaves exactly the depth the signature promises (1 value for
  value-returning methods, 0 otherwise);
* local and argument indices are in range;
* execution cannot fall off the end of the body;
* protected regions are well-formed and every handler entry point is
  reachable with exactly the exception object on the stack;
* every reachable call carries a well-formed operand, every reachable
  ``conv`` a known kind and every reachable ``ldstr`` a string.

The verifier is the only gate: whatever it accepts, the compiler can
emit.  Junk on unreachable pcs is allowed, because the compiler emits
only reachable blocks.

On success the method's ``max_stack`` is recorded (as a real JIT
would); on failure :class:`~repro.errors.VerificationError` is raised.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cli.cil import Instruction, Op, STACK_EFFECTS
from repro.cli.metadata import MethodDef
from repro.errors import VerificationError

__all__ = ["verify_method"]

_CONV_KINDS = frozenset({"i4", "int32", "i8", "int64", "r8", "float64"})


def _well_formed_call_tuple(operand: object) -> bool:
    """``(name, argc, returns)`` with a non-negative int argc — the
    shape the template compiler assumes."""
    return (
        isinstance(operand, tuple)
        and len(operand) == 3
        and isinstance(operand[0], str)
        and isinstance(operand[1], int)
        and not isinstance(operand[1], bool)
        and operand[1] >= 0
        and isinstance(operand[2], bool)
    )


def _call_effect(
    ins: Instruction,
    method: Optional[MethodDef] = None,
    pc: Optional[int] = None,
) -> Tuple[int, int]:
    """(pops, pushes) for a call-like instruction, from its operand.

    ``method`` and ``pc`` locate the failing instruction in the error
    message when given (the verifier always passes them; other callers
    only reach this for already-verified bodies).
    """
    where = (
        f"{method.full_name}@{pc}: {ins.op.value}: "
        if method is not None and pc is not None
        else ""
    )
    operand = ins.operand
    if ins.op is Op.CALL:
        if isinstance(operand, MethodDef):
            return operand.param_count, 1 if operand.returns else 0
        if _well_formed_call_tuple(operand):
            _name, argc, returns = operand
            return argc, 1 if returns else 0
        raise VerificationError(f"{where}malformed call operand: {operand!r}")
    if ins.op is Op.CALLINTRINSIC:
        if _well_formed_call_tuple(operand):
            _name, argc, returns = operand
            return argc, 1 if returns else 0
        raise VerificationError(
            f"{where}malformed intrinsic operand: {operand!r}"
        )
    raise AssertionError("not a call instruction")  # pragma: no cover


def verify_method(method: MethodDef) -> int:
    """Verify ``method``; returns (and records) its max stack depth.

    Every failure raises :class:`VerificationError` whose message names
    the method, the failing pc and the opcode at that pc.
    """
    body = method.body
    n = len(body)
    if n == 0:
        raise VerificationError(f"{method.full_name}: empty body")

    ret_depth = 1 if method.returns else 0

    # Per-instruction entry depth; None = not yet visited.
    entry_depth: List[Optional[int]] = [None] * n
    max_stack = 0
    worklist: List[Tuple[int, int]] = [(0, 0)]

    def flow_to(target: int, depth: int, src_pc: int, src_op: Op) -> None:
        nonlocal max_stack
        if not (0 <= target < n):
            raise VerificationError(
                f"{method.full_name}@{src_pc}: {src_op.value}: "
                f"branch target {target} out of range [0,{n})"
            )
        known = entry_depth[target]
        if known is None:
            entry_depth[target] = depth
            worklist.append((target, depth))
        elif known != depth:
            raise VerificationError(
                f"{method.full_name}@{src_pc}: {src_op.value}: "
                f"inconsistent stack depth at {target} "
                f"({known} vs {depth})"
            )

    entry_depth[0] = 0

    # Protected regions: validate bounds and seed each handler's entry
    # with depth 1 (the runtime clears the stack and pushes the
    # exception object before transferring control).
    for h in method.handlers:
        if not (0 <= h.try_start < h.try_end <= n):
            raise VerificationError(
                f"{method.full_name}: malformed protected region "
                f"[{h.try_start}, {h.try_end})"
            )
        if not (0 <= h.handler_start < n):
            raise VerificationError(
                f"{method.full_name}: handler start {h.handler_start} out of range"
            )
        if entry_depth[h.handler_start] is None:
            entry_depth[h.handler_start] = 1
            worklist.append((h.handler_start, 1))
        elif entry_depth[h.handler_start] != 1:
            raise VerificationError(
                f"{method.full_name}: handler at {h.handler_start} entered "
                f"with inconsistent stack depth"
            )
        if max_stack < 1:
            max_stack = 1

    while worklist:
        pc, depth = worklist.pop()
        ins = body[pc]
        op = ins.op

        # Operand validity.
        if op in (Op.LDLOC, Op.STLOC):
            if not isinstance(ins.operand, int) or not (
                0 <= ins.operand < method.local_count
            ):
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    f"local index {ins.operand!r} "
                    f"out of range [0,{method.local_count})"
                )
        elif op in (Op.LDARG, Op.STARG):
            if not isinstance(ins.operand, int) or not (
                0 <= ins.operand < method.param_count
            ):
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    f"argument index {ins.operand!r} "
                    f"out of range [0,{method.param_count})"
                )
        elif op in (Op.BR, Op.BRTRUE, Op.BRFALSE):
            if not isinstance(ins.operand, int):
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    f"unresolved branch label {ins.operand!r}"
                )
        elif op is Op.CONV:
            if not isinstance(ins.operand, str) or ins.operand not in _CONV_KINDS:
                raise VerificationError(
                    f"{method.full_name}@{pc}: conv: "
                    f"unknown conversion kind {ins.operand!r}"
                )
        elif op is Op.LDSTR:
            if not isinstance(ins.operand, str):
                raise VerificationError(
                    f"{method.full_name}@{pc}: ldstr: "
                    f"operand {ins.operand!r} is not a string"
                )

        # Stack effect.
        if op is Op.RET:
            if depth != ret_depth:
                raise VerificationError(
                    f"{method.full_name}@{pc}: ret with stack depth {depth}, "
                    f"signature requires {ret_depth}"
                )
            continue
        if op is Op.THROW:
            if depth < 1:
                raise VerificationError(
                    f"{method.full_name}@{pc}: throw with empty stack"
                )
            continue  # control never falls through a throw
        if op in (Op.CALL, Op.CALLINTRINSIC):
            pops, pushes = _call_effect(ins, method, pc)
        else:
            effect = STACK_EFFECTS[op]
            assert effect is not None
            pops, pushes = effect

        if depth < pops:
            raise VerificationError(
                f"{method.full_name}@{pc}: {op.value} pops {pops} "
                f"but stack depth is {depth}"
            )
        depth = depth - pops + pushes
        if depth > max_stack:
            max_stack = depth

        # Successors.
        if op is Op.BR:
            flow_to(ins.operand, depth, pc, op)
            continue
        if op in (Op.BRTRUE, Op.BRFALSE):
            flow_to(ins.operand, depth, pc, op)
        if pc + 1 >= n:
            raise VerificationError(
                f"{method.full_name}@{pc}: {op.value}: "
                "execution falls off the end of the body"
            )
        flow_to(pc + 1, depth, pc, op)

    method.max_stack = max_stack
    return max_stack
