"""Assembly metadata.

Metadata "is used to describe and reference types defined by the
common type system" (paper §1, item 4).  The simulation's metadata is
the structural description the loader, verifier and JIT consume:
assemblies contain types, types contain fields and methods, methods
carry signatures and CIL bodies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cli.cil import Instruction
from repro.cli.typesystem import CliType, TypeRegistry, VOID
from repro.errors import CliError

__all__ = ["FieldDef", "MethodDef", "TypeDef", "AssemblyDef", "ExceptionHandler"]

_tokens = itertools.count(0x06000001)  # MethodDef token space, ECMA-335 style


@dataclass
class FieldDef:
    """A named, typed field of a class."""

    name: str
    field_type: CliType


@dataclass(frozen=True)
class ExceptionHandler:
    """One protected region: instructions in ``[try_start, try_end)``
    are guarded; a managed exception raised there transfers control to
    ``handler_start`` with the evaluation stack cleared and the
    exception object pushed.

    ``catches`` is the exception type-name prefix this handler accepts;
    the default ``"System."`` catches every built-in managed exception
    (a catch-all in this simulation's type universe).
    """

    try_start: int
    try_end: int
    handler_start: int
    catches: str = "System."

    def covers(self, pc: int) -> bool:
        return self.try_start <= pc < self.try_end

    def matches(self, type_name: str) -> bool:
        return type_name.startswith(self.catches)


class MethodDef:
    """A method: signature + CIL body.

    ``param_names`` gives the argument order; ``local_count`` sizes the
    local-variable frame.  ``body`` is a flat instruction list with
    branch operands already resolved to indices (the
    :class:`~repro.cli.assembly.MethodBuilder` does this).
    """

    def __init__(
        self,
        name: str,
        body: Sequence[Instruction],
        param_names: Sequence[str] = (),
        local_count: int = 0,
        returns: bool = False,
        return_type: Optional[CliType] = None,
        declaring_type: Optional["TypeDef"] = None,
        handlers: Sequence["ExceptionHandler"] = (),
    ) -> None:
        if local_count < 0:
            raise CliError(f"negative local count: {local_count}")
        self.token = next(_tokens)
        self.name = name
        self.body: List[Instruction] = list(body)
        self.param_names: List[str] = list(param_names)
        self.local_count = local_count
        self.returns = returns
        self.return_type = return_type if return_type is not None else VOID
        self.declaring_type = declaring_type
        self.handlers: List[ExceptionHandler] = list(handlers)
        self.max_stack: Optional[int] = None  # filled in by the verifier

    def handler_for(self, pc: int, type_name: str) -> Optional["ExceptionHandler"]:
        """Innermost matching handler guarding ``pc`` (ties broken by
        declaration order, matching lexical-nesting emission order)."""
        best: Optional[ExceptionHandler] = None
        for h in self.handlers:
            if h.covers(pc) and h.matches(type_name):
                if best is None or (
                    h.try_end - h.try_start < best.try_end - best.try_start
                ):
                    best = h
        return best

    @property
    def param_count(self) -> int:
        return len(self.param_names)

    @property
    def full_name(self) -> str:
        if self.declaring_type is not None:
            return f"{self.declaring_type.name}::{self.name}"
        return self.name

    @property
    def size(self) -> int:
        """Body length in instructions (drives the JIT cost model)."""
        return len(self.body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MethodDef {self.full_name} {self.size} instrs>"


class TypeDef:
    """A class: named container of fields and methods."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.fields: Dict[str, FieldDef] = {}
        self.methods: Dict[str, MethodDef] = {}

    def add_field(self, name: str, field_type: CliType) -> FieldDef:
        if name in self.fields:
            raise CliError(f"duplicate field {self.name}.{name}")
        f = FieldDef(name, field_type)
        self.fields[name] = f
        return f

    def add_method(self, method: MethodDef) -> MethodDef:
        if method.name in self.methods:
            raise CliError(f"duplicate method {self.name}::{method.name}")
        method.declaring_type = self
        self.methods[method.name] = method
        return method

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TypeDef {self.name} methods={len(self.methods)}>"


class AssemblyDef:
    """A loadable unit: named collection of types plus a type registry."""

    def __init__(self, name: str, version: str = "1.0.0.0") -> None:
        self.name = name
        self.version = version
        self.types: Dict[str, TypeDef] = {}
        self.registry = TypeRegistry()

    def add_type(self, type_def: TypeDef) -> TypeDef:
        if type_def.name in self.types:
            raise CliError(f"duplicate type {type_def.name} in {self.name}")
        self.types[type_def.name] = type_def
        self.registry.register_class(type_def.name)
        return type_def

    def find_method(self, qualified: str) -> MethodDef:
        """Resolve ``"Type::Method"`` (or bare ``"Method"`` searched
        across all types)."""
        if "::" in qualified:
            type_name, method_name = qualified.split("::", 1)
            tdef = self.types.get(type_name)
            if tdef is None or method_name not in tdef.methods:
                raise CliError(f"method {qualified!r} not found in {self.name}")
            return tdef.methods[method_name]
        matches = [
            t.methods[qualified] for t in self.types.values() if qualified in t.methods
        ]
        if not matches:
            raise CliError(f"method {qualified!r} not found in {self.name}")
        if len(matches) > 1:
            raise CliError(f"method {qualified!r} is ambiguous in {self.name}")
        return matches[0]

    @property
    def method_count(self) -> int:
        return sum(len(t.methods) for t in self.types.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AssemblyDef {self.name} v{self.version} types={len(self.types)}>"
