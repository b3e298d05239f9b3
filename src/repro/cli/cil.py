"""CIL-like instruction set.

A compact stack-machine ISA modelled on ECMA-335 CIL, restricted to
what the benchmark kernels need.  Each opcode declares its *stack
effect* ``(pops, pushes)`` so the verifier can type-check bodies
without executing them; variable-effect opcodes (calls) carry ``None``
and are resolved from the call target's signature.  :func:`successors`
is the one control-flow rule: the verifier, the template compiler and
the static analyzer all take a pc's normal successors from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple

__all__ = ["Op", "Instruction", "STACK_EFFECTS", "BRANCHES", "successors"]


class Op(enum.Enum):
    """Opcodes.  Names follow CIL conventions (lowercase mnemonics)."""

    NOP = "nop"
    # Constants and locals/args.
    LDC = "ldc"           # push operand constant
    LDSTR = "ldstr"       # push string literal (allocates on heap)
    LDLOC = "ldloc"       # push local[operand]
    STLOC = "stloc"       # pop into local[operand]
    LDARG = "ldarg"       # push argument[operand]
    STARG = "starg"       # pop into argument[operand]
    # Evaluation-stack shuffling.
    DUP = "dup"
    POP = "pop"
    # Arithmetic / logic (binary unless noted).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    NEG = "neg"           # unary
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"           # unary (bitwise on ints)
    SHL = "shl"
    SHR = "shr"
    # Comparisons (push 0/1).
    CEQ = "ceq"
    CGT = "cgt"
    CLT = "clt"
    # Control flow. Branch operands are instruction indices (resolved
    # from labels by the assembler).
    BR = "br"
    BRTRUE = "brtrue"
    BRFALSE = "brfalse"
    RET = "ret"
    # Calls.
    CALL = "call"         # operand: MethodDef or method name
    CALLINTRINSIC = "callintrinsic"  # operand: (intrinsic_name, argc, returns)
    # Allocation.
    NEWARR = "newarr"     # pop length, push array ref (heap allocation)
    LDLEN = "ldlen"       # pop array ref, push length
    CONV = "conv"         # numeric conversion; operand: target kind name
    # Exceptions (structured exception handling, ECMA-335 II.19).
    THROW = "throw"       # pop exception object, begin unwinding
    # Static fields. Operand: qualified field name string.
    LDSFLD = "ldsfld"     # push static field value (0 if never stored)
    STSFLD = "stsfld"     # pop into static field


# (pops, pushes); None means signature-dependent (CALL/CALLINTRINSIC).
STACK_EFFECTS: "dict[Op, Optional[Tuple[int, int]]]" = {
    Op.NOP: (0, 0),
    Op.LDC: (0, 1),
    Op.LDSTR: (0, 1),
    Op.LDLOC: (0, 1),
    Op.STLOC: (1, 0),
    Op.LDARG: (0, 1),
    Op.STARG: (1, 0),
    Op.DUP: (1, 2),
    Op.POP: (1, 0),
    Op.ADD: (2, 1),
    Op.SUB: (2, 1),
    Op.MUL: (2, 1),
    Op.DIV: (2, 1),
    Op.REM: (2, 1),
    Op.NEG: (1, 1),
    Op.AND: (2, 1),
    Op.OR: (2, 1),
    Op.XOR: (2, 1),
    Op.NOT: (1, 1),
    Op.SHL: (2, 1),
    Op.SHR: (2, 1),
    Op.CEQ: (2, 1),
    Op.CGT: (2, 1),
    Op.CLT: (2, 1),
    Op.BR: (0, 0),
    Op.BRTRUE: (1, 0),
    Op.BRFALSE: (1, 0),
    Op.RET: None,          # 0 or 1 depending on the method's return type
    Op.CALL: None,
    Op.CALLINTRINSIC: None,
    Op.NEWARR: (1, 1),
    Op.LDLEN: (1, 1),
    Op.CONV: (1, 1),
    Op.THROW: (1, 0),     # control never falls through
    Op.LDSFLD: (0, 1),
    Op.STSFLD: (1, 0),
}

assert set(STACK_EFFECTS) == set(Op), "every opcode needs a stack effect entry"

#: Opcodes whose operand is a branch target.
BRANCHES = frozenset({Op.BR, Op.BRTRUE, Op.BRFALSE})


def successors(ins: Instruction, pc: int) -> Tuple[Any, ...]:
    """The pcs control may pass to after ``ins`` at ``pc``, exception
    edges aside: a branch's target first, then the fall-through pc.

    Operands are returned unchecked (the verifier range-checks them);
    ``pc + 1`` may equal the body length.
    """
    op = ins.op
    if op is Op.BR:
        return (ins.operand,)
    if op is Op.BRTRUE or op is Op.BRFALSE:
        return (ins.operand, pc + 1)
    if op is Op.RET or op is Op.THROW:
        return ()
    return (pc + 1,)


@dataclass(frozen=True)
class Instruction:
    """One CIL instruction: opcode + optional operand."""

    op: Op
    operand: Any = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.operand is None:
            return self.op.value
        return f"{self.op.value} {self.operand!r}"
