"""Simulated Common Language Infrastructure (CLI) virtual machine.

The paper's §1 lists the CLI's four main areas; each maps to a module
here:

1. **Common type system** → :mod:`repro.cli.typesystem`
2. **Common language specification** (usage conventions enforced when
   building components) → the checks in :mod:`repro.cli.assembly`
3. **Virtual execution system** (loads, verifies, JIT-compiles and
   runs programs) → :mod:`repro.cli.verifier`,
   :mod:`repro.cli.jit`, :mod:`repro.cli.jitcompile`,
   :mod:`repro.cli.interpreter`
4. **Metadata** → :mod:`repro.cli.metadata`

The benchmarks in :mod:`repro.traces` and :mod:`repro.webserver` write
their kernels as CIL method bodies and execute them through this VM,
so compile-on-first-call JIT latency, managed-thread scheduling and
managed I/O calls follow the same structural path as on the SSCLI.

Quick tour::

    from repro.cli import CliRuntime, MethodBuilder, Op

    rt = CliRuntime(engine)
    m = (MethodBuilder("add2")
         .arg("x").ldarg("x").ldc(2).add().ret())
    result = yield from rt.invoke(m.build(), [40])   # → 42
"""

from repro.cli.typesystem import CliType, PrimitiveKind, TypeRegistry
from repro.cli.metadata import (
    AssemblyDef,
    ExceptionHandler,
    FieldDef,
    MethodDef,
    TypeDef,
)
from repro.cli.cil import Instruction, Op
from repro.cli.assembly import AssemblyBuilder, MethodBuilder
from repro.cli.verifier import verify_method
from repro.cli.jit import JitCompiler, JitParams
from repro.cli.gc import GcParams, ManagedHeap
from repro.cli.interpreter import (
    Interpreter,
    InterpreterParams,
    ManagedArray,
    ManagedException,
)
from repro.cli.threads import ManagedThread
from repro.cli.perfcounter import PerformanceCounter, Stopwatch
from repro.cli.runtime import CliRuntime, RuntimeParams

__all__ = [
    "CliType",
    "PrimitiveKind",
    "TypeRegistry",
    "AssemblyDef",
    "TypeDef",
    "MethodDef",
    "FieldDef",
    "Op",
    "Instruction",
    "AssemblyBuilder",
    "MethodBuilder",
    "verify_method",
    "JitCompiler",
    "JitParams",
    "ManagedHeap",
    "GcParams",
    "Interpreter",
    "InterpreterParams",
    "ManagedArray",
    "ManagedException",
    "ExceptionHandler",
    "ManagedThread",
    "PerformanceCounter",
    "Stopwatch",
    "CliRuntime",
    "RuntimeParams",
]
