"""Assembler: fluent builders for CIL method bodies.

The benchmark kernels are authored through :class:`MethodBuilder`::

    loop_sum = (
        MethodBuilder("sum_to_n", returns=True)
        .arg("n").local("i").local("acc")
        .ldc(0).stloc("acc")
        .ldc(0).stloc("i")
        .label("top")
        .ldloc("i").ldarg("n").clt().brfalse("done")
        .ldloc("acc").ldloc("i").add().stloc("acc")
        .ldloc("i").ldc(1).add().stloc("i")
        .br("top")
        .label("done")
        .ldloc("acc").ret()
        .build()
    )

``build()`` resolves labels to instruction indices, applies the
common-language-specification style usage checks (valid identifiers,
unique parameter names — paper §1, item 2), and runs the verifier.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cli.cil import BRANCHES, Instruction, Op
from repro.cli.metadata import AssemblyDef, ExceptionHandler, MethodDef, TypeDef
from repro.cli.verifier import verify_method
from repro.errors import CliError

__all__ = ["MethodBuilder", "AssemblyBuilder"]

#: A call target: a built MethodDef, or a forward signature
#: ``(qualified_name, argc, returns)`` resolved at execution time.
CallTarget = Union[MethodDef, Tuple[str, int, bool]]


def _check_identifier(name: str, what: str) -> None:
    if not name or not (name[0].isalpha() or name[0] == "_") or not all(
        c.isalnum() or c == "_" for c in name
    ):
        raise CliError(f"invalid {what} name {name!r} (CLS naming rules)")


class MethodBuilder:
    """Builds one verified :class:`MethodDef`."""

    def __init__(self, name: str, returns: bool = False) -> None:
        _check_identifier(name, "method")
        self.name = name
        self.returns = returns
        self._params: List[str] = []
        self._locals: List[str] = []
        self._code: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        # (try_start, try_end, handler_label, catches); open regions
        # carry try_end = None until end_try().
        self._handlers: List[list] = []
        self._open_trys: List[int] = []  # indices into _handlers
        self._built = False

    # -- declarations ---------------------------------------------------------

    def arg(self, name: str) -> "MethodBuilder":
        """Declare the next parameter."""
        _check_identifier(name, "parameter")
        if name in self._params:
            raise CliError(f"duplicate parameter {name!r}")
        self._params.append(name)
        return self

    def local(self, name: str) -> "MethodBuilder":
        """Declare the next local variable."""
        _check_identifier(name, "local")
        if name in self._locals:
            raise CliError(f"duplicate local {name!r}")
        self._locals.append(name)
        return self

    def label(self, name: str) -> "MethodBuilder":
        """Mark the next emitted instruction as branch target ``name``."""
        if name in self._labels:
            raise CliError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self

    # -- emission --------------------------------------------------------------

    def emit(self, op: Op, operand: Any = None) -> "MethodBuilder":
        """Append a raw instruction."""
        self._code.append(Instruction(op, operand))
        return self

    def _local_index(self, name_or_index: Union[str, int]) -> int:
        if isinstance(name_or_index, int):
            return name_or_index
        try:
            return self._locals.index(name_or_index)
        except ValueError:
            raise CliError(f"undeclared local {name_or_index!r}") from None

    def _arg_index(self, name_or_index: Union[str, int]) -> int:
        if isinstance(name_or_index, int):
            return name_or_index
        try:
            return self._params.index(name_or_index)
        except ValueError:
            raise CliError(f"undeclared parameter {name_or_index!r}") from None

    # One helper per opcode keeps kernels readable.
    def nop(self):            return self.emit(Op.NOP)
    def ldc(self, value):     return self.emit(Op.LDC, value)
    def ldstr(self, s: str):  return self.emit(Op.LDSTR, s)
    def ldloc(self, v):       return self.emit(Op.LDLOC, self._local_index(v))
    def stloc(self, v):       return self.emit(Op.STLOC, self._local_index(v))
    def ldarg(self, v):       return self.emit(Op.LDARG, self._arg_index(v))
    def starg(self, v):       return self.emit(Op.STARG, self._arg_index(v))
    def dup(self):            return self.emit(Op.DUP)
    def pop(self):            return self.emit(Op.POP)
    def add(self):            return self.emit(Op.ADD)
    def sub(self):            return self.emit(Op.SUB)
    def mul(self):            return self.emit(Op.MUL)
    def div(self):            return self.emit(Op.DIV)
    def rem(self):            return self.emit(Op.REM)
    def neg(self):            return self.emit(Op.NEG)
    def and_(self):           return self.emit(Op.AND)
    def or_(self):            return self.emit(Op.OR)
    def xor(self):            return self.emit(Op.XOR)
    def not_(self):           return self.emit(Op.NOT)
    def shl(self):            return self.emit(Op.SHL)
    def shr(self):            return self.emit(Op.SHR)
    def ceq(self):            return self.emit(Op.CEQ)
    def cgt(self):            return self.emit(Op.CGT)
    def clt(self):            return self.emit(Op.CLT)
    def br(self, label):      return self.emit(Op.BR, label)
    def brtrue(self, label):  return self.emit(Op.BRTRUE, label)
    def brfalse(self, label): return self.emit(Op.BRFALSE, label)
    def ret(self):            return self.emit(Op.RET)
    def newarr(self):         return self.emit(Op.NEWARR)
    def ldlen(self):          return self.emit(Op.LDLEN)
    def conv(self, kind):     return self.emit(Op.CONV, kind)

    def call(self, target: CallTarget) -> "MethodBuilder":
        """Call a managed method (a :class:`MethodDef` or a forward
        ``(name, argc, returns)`` signature)."""
        if not isinstance(target, MethodDef):
            if not (
                isinstance(target, tuple)
                and len(target) == 3
                and isinstance(target[0], str)
                and isinstance(target[1], int)
                and isinstance(target[2], bool)
            ):
                raise CliError(
                    "call target must be a MethodDef or (name, argc, returns)"
                )
        return self.emit(Op.CALL, target)

    def call_intrinsic(self, name: str, argc: int, returns: bool) -> "MethodBuilder":
        """Call a runtime intrinsic (managed class-library entry point:
        FileStream.Read, Socket.Send, ...)."""
        if argc < 0:
            raise CliError(f"negative intrinsic argc: {argc}")
        return self.emit(Op.CALLINTRINSIC, (name, argc, returns))

    def throw(self) -> "MethodBuilder":
        """Throw the exception object on top of the stack."""
        return self.emit(Op.THROW)

    def ldsfld(self, name: str) -> "MethodBuilder":
        """Push the value of static field ``name`` (0 if never stored)."""
        return self.emit(Op.LDSFLD, name)

    def stsfld(self, name: str) -> "MethodBuilder":
        """Pop into static field ``name``."""
        return self.emit(Op.STSFLD, name)

    # -- protected regions -------------------------------------------------------

    def begin_try(self) -> "MethodBuilder":
        """Open a protected region at the next instruction."""
        self._handlers.append([len(self._code), None, None, "System."])
        self._open_trys.append(len(self._handlers) - 1)
        return self

    def end_try(self, handler_label: str, catches: str = "System.") -> "MethodBuilder":
        """Close the innermost open region; exceptions inside it whose
        type name starts with ``catches`` transfer to
        ``handler_label`` (emit that label on a block that expects the
        exception object as the only stack entry)."""
        if not self._open_trys:
            raise CliError("end_try without a matching begin_try")
        idx = self._open_trys.pop()
        entry = self._handlers[idx]
        entry[1] = len(self._code)
        entry[2] = handler_label
        entry[3] = catches
        if entry[0] == entry[1]:
            raise CliError("empty protected region")
        return self

    # -- finalization -------------------------------------------------------------

    def build(self, verify: bool = True) -> MethodDef:
        """Resolve labels, construct the :class:`MethodDef`, verify it."""
        if self._built:
            raise CliError(f"method {self.name!r} already built")
        if self._open_trys:
            raise CliError(f"{len(self._open_trys)} unclosed protected region(s)")
        resolved: List[Instruction] = []
        for ins in self._code:
            if ins.op in BRANCHES and isinstance(ins.operand, str):
                if ins.operand not in self._labels:
                    raise CliError(f"undefined label {ins.operand!r} in {self.name}")
                resolved.append(Instruction(ins.op, self._labels[ins.operand]))
            else:
                resolved.append(ins)
        handlers = []
        for try_start, try_end, handler_label, catches in self._handlers:
            if handler_label not in self._labels:
                raise CliError(f"undefined handler label {handler_label!r}")
            handlers.append(
                ExceptionHandler(
                    try_start=try_start,
                    try_end=try_end,
                    handler_start=self._labels[handler_label],
                    catches=catches,
                )
            )
        method = MethodDef(
            self.name,
            resolved,
            param_names=self._params,
            local_count=len(self._locals),
            returns=self.returns,
            handlers=handlers,
        )
        if verify:
            verify_method(method)
        self._built = True
        return method


class AssemblyBuilder:
    """Builds an :class:`AssemblyDef` out of types and methods."""

    def __init__(self, name: str, version: str = "1.0.0.0") -> None:
        _check_identifier(name.replace(".", "_"), "assembly")
        self.assembly = AssemblyDef(name, version)

    def add_type(self, name: str) -> TypeDef:
        _check_identifier(name, "type")
        return self.assembly.add_type(TypeDef(name))

    def add_method(self, type_name: str, method: MethodDef) -> MethodDef:
        tdef = self.assembly.types.get(type_name)
        if tdef is None:
            tdef = self.add_type(type_name)
        return tdef.add_method(method)

    def build(self) -> AssemblyDef:
        return self.assembly
