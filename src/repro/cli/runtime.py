"""The CLI runtime facade.

Glues together the pieces a hosted benchmark needs: assembly loading,
the JIT, the managed heap, the interpreter, intrinsic registration
(the class-library boundary where managed code reaches the simulated
OS), managed threads, and the performance counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.cli.gc import GcParams, ManagedHeap
from repro.cli.interpreter import Interpreter, InterpreterParams
from repro.cli.jit import JitCompiler, JitParams
from repro.cli.metadata import AssemblyDef, MethodDef
from repro.cli.perfcounter import PerformanceCounter, Stopwatch
from repro.cli.threads import ManagedThread
from repro.errors import CliError
from repro.sim import Counter, Engine

__all__ = ["RuntimeParams", "CliRuntime"]


@dataclass(frozen=True)
class RuntimeParams:
    """Whole-runtime cost knobs."""

    thread_start_overhead: float = 60e-6
    assembly_load_base: float = 500e-6
    assembly_load_per_method: float = 10e-6

    def __post_init__(self) -> None:
        if min(
            self.thread_start_overhead,
            self.assembly_load_base,
            self.assembly_load_per_method,
        ) < 0:
            raise CliError("runtime costs must be >= 0")


class CliRuntime:
    """One virtual machine instance.

    Parameters allow every cost model to be swapped; defaults model
    the SSCLI's unoptimized execution engine.
    """

    def __init__(
        self,
        engine: Engine,
        params: Optional[RuntimeParams] = None,
        jit_params: Optional[JitParams] = None,
        gc_params: Optional[GcParams] = None,
        interp_params: Optional[InterpreterParams] = None,
    ) -> None:
        self.engine = engine
        self.params = params or RuntimeParams()
        self.jit = JitCompiler(engine, jit_params)
        self.heap = ManagedHeap(engine, gc_params)
        self.intrinsics: Dict[str, Callable[..., Any]] = {}
        self.assemblies: List[AssemblyDef] = []
        self.interpreter = Interpreter(
            engine,
            self.jit,
            self.heap,
            self.intrinsics,
            resolver=self.find_method,
            params=interp_params,
        )
        self.perf = PerformanceCounter(engine)
        self.threads_started = Counter("runtime.threads")

    # -- class library boundary ------------------------------------------------

    def register_intrinsic(self, name: str, fn: Callable[..., Any]) -> None:
        """Expose a class-library entry point to managed code.

        ``fn`` may be a plain function or a simulation coroutine
        factory; its return value is pushed when the intrinsic's
        declared signature says it returns.
        """
        if name in self.intrinsics:
            raise CliError(f"intrinsic {name!r} already registered")
        self.intrinsics[name] = fn

    def register_intrinsics(self, table: Dict[str, Callable[..., Any]]) -> None:
        for name, fn in table.items():
            self.register_intrinsic(name, fn)

    # -- assemblies ------------------------------------------------------------

    def load_assembly(self, assembly: AssemblyDef):
        """Generator: load an assembly (metadata parsing cost scales
        with method count)."""
        if any(a.name == assembly.name for a in self.assemblies):
            raise CliError(f"assembly {assembly.name!r} already loaded")
        cost = (
            self.params.assembly_load_base
            + self.params.assembly_load_per_method * assembly.method_count
        )
        yield cost
        self.assemblies.append(assembly)
        return assembly

    def find_method(self, qualified: str) -> MethodDef:
        """Resolve ``Type::Method`` (or a unique bare name) across
        loaded assemblies."""
        errors = []
        for assembly in self.assemblies:
            try:
                return assembly.find_method(qualified)
            except CliError as exc:
                errors.append(str(exc))
        raise CliError(
            f"method {qualified!r} not found in any loaded assembly"
        )

    # -- execution ----------------------------------------------------------------

    def invoke(self, method: Union[MethodDef, str], args: Sequence[Any] = ()):
        """Generator: execute a managed method by def or qualified name."""
        if isinstance(method, str):
            method = self.find_method(method)
        result = yield from self.interpreter.invoke(method, args)
        return result

    def create_thread(
        self, entry: Union[MethodDef, Any], args: Sequence[Any] = (), name: Optional[str] = None
    ) -> ManagedThread:
        """Create (not start) a managed thread."""
        return ManagedThread(self, entry, args, name)

    def stopwatch(self) -> Stopwatch:
        """A fresh ``QueryPerformanceCounter``-backed stopwatch."""
        return Stopwatch(self.perf)

    def cold_restart(self) -> None:
        """Forget JIT state (new process, cold start)."""
        self.jit.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CliRuntime assemblies={len(self.assemblies)} "
            f"intrinsics={len(self.intrinsics)}>"
        )
