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
only reachable blocks.  Control flows along
:func:`repro.cli.cil.successors`, plus each handler's entry.

On success the method's ``max_stack`` and per-pc ``entry_depths``
(``None`` = unreachable) are recorded for the compiler; on failure
:class:`~repro.errors.VerificationError` is raised.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cli.cil import BRANCHES, Instruction, Op, STACK_EFFECTS, successors
from repro.cli.metadata import MethodDef
from repro.errors import VerificationError

__all__ = ["verify_method"]

_CONV_KINDS = frozenset({"i4", "int32", "i8", "int64", "r8", "float64"})


def _call_effect(ins: Instruction) -> Optional[Tuple[int, int]]:
    """(pops, pushes) for a call-like instruction, from its operand;
    None unless the operand is a :class:`MethodDef` (``call`` only) or
    a ``(name, argc, returns)`` tuple with a non-negative int argc —
    the shapes the template compiler assumes."""
    operand = ins.operand
    if ins.op is Op.CALL and isinstance(operand, MethodDef):
        return operand.param_count, 1 if operand.returns else 0
    if (
        isinstance(operand, tuple)
        and len(operand) == 3
        and isinstance(operand[0], str)
        and isinstance(operand[1], int)
        and not isinstance(operand[1], bool)
        and operand[1] >= 0
        and isinstance(operand[2], bool)
    ):
        _name, argc, returns = operand
        return argc, 1 if returns else 0
    return None


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
        elif op in BRANCHES:
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
            continue
        if op is Op.CALL or op is Op.CALLINTRINSIC:
            effect = _call_effect(ins)
            if effect is None:
                kind = "call" if op is Op.CALL else "intrinsic"
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    f"malformed {kind} operand: {ins.operand!r}"
                )
        else:
            effect = STACK_EFFECTS[op]
        pops, pushes = effect

        if depth < pops:
            raise VerificationError(
                f"{method.full_name}@{pc}: {op.value} pops {pops} "
                f"but stack depth is {depth}"
            )
        depth = depth - pops + pushes
        if depth > max_stack:
            max_stack = depth

        if op in BRANCHES and not (0 <= ins.operand < n):
            raise VerificationError(
                f"{method.full_name}@{pc}: {op.value}: "
                f"branch target {ins.operand} out of range [0,{n})"
            )
        for target in successors(ins, pc):
            if target == n:
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    "execution falls off the end of the body"
                )
            known = entry_depth[target]
            if known is None:
                entry_depth[target] = depth
                worklist.append((target, depth))
            elif known != depth:
                raise VerificationError(
                    f"{method.full_name}@{pc}: {op.value}: "
                    f"inconsistent stack depth at {target} "
                    f"({known} vs {depth})"
                )

    method.max_stack = max_stack
    method.entry_depths = entry_depth
    return max_stack
