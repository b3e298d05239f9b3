"""Differential tests: the compiled tier against the reference loop.

Every call in the VM runs template-compiled code.  It must be
observationally identical to the opcode-dispatch oracle in
``tests/cli/oracle.py`` on everything the simulation can see: return
values, instruction counts, exception counters, and — critically — the
exact sequence of simulated events at the exact simulated times.  The
oracle also checks every runtime stack against the static analysis.
"""

import pytest

from repro.cli import CliRuntime, InterpreterParams, ManagedException, MethodBuilder
from repro.cli.cil import Instruction, Op
from repro.cli.jitcompile import compile_native, native_source
from repro.cli.metadata import MethodDef
from repro.cli.microbench import KERNELS, build_kernel, run_kernel
from repro.cli.profiles import VM_PROFILES
from repro.cli.verifier import verify_method
from repro.errors import JitError
from repro.sim import Engine
from tests.cli.oracle import oracle_tier


def _both(fn):
    """``(fn() on the oracle, fn() on the compiled tier)``."""
    with oracle_tier():
        reference = fn()
    return reference, fn()


def _run(method, args=(), rt=None):
    rt = rt or CliRuntime(Engine())
    return rt.engine.run_process(rt.invoke(method, args))


def _drive(method, args=()):
    """Drive one warm invocation by hand on a fresh runtime, recording
    every yielded event as ``(type_name, delay)`` — the full
    simulated-event fingerprint — and the outcome.  A sleep (a bare
    float yield) records as ``("float", delay)``."""
    rt = CliRuntime(Engine())
    try:
        _run(method, args, rt)  # warm: compile events are not compared
    except ManagedException:
        pass
    events = []
    gen = rt.interpreter.invoke(method, args)
    try:
        while True:
            ev = gen.send(None)
            delay = ev if ev.__class__ is float else getattr(ev, "delay", None)
            events.append((type(ev).__name__, delay))
    except StopIteration as stop:
        return events, stop.value
    except ManagedException as exc:
        return events, ("raised", exc.type_name)


# ---------------------------------------------------------------------------
# Kernel oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", sorted(VM_PROFILES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_differential(kernel, profile):
    """Identical results AND identical simulated times on every
    ext_cil kernel oracle, under every VM profile."""
    reference, compiled = _both(lambda: run_kernel(kernel, n=120, profile=profile))
    assert compiled == reference
    assert compiled.correct


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_event_sequence_identical(kernel):
    """Not just the totals: the exact event-by-event timeline."""
    method, _expected = build_kernel(kernel)
    reference, compiled = _both(lambda: _drive(method, [50]))
    assert compiled == reference


# ---------------------------------------------------------------------------
# Exception paths
# ---------------------------------------------------------------------------

def _catcher():
    return (
        MethodBuilder("catcher", returns=True)
        .arg("x")
        .begin_try()
        .ldc(100).ldarg("x").div()
        .ret()
        .end_try("handler")
        .label("handler")
        .pop()
        .ldc(111).ret()
        .build()
    )


def _thrower():
    return (
        MethodBuilder("thrower", returns=True)
        .begin_try()
        .ldstr("boom").throw()
        .end_try("h")
        .label("h").pop().ldc(7).ret()
        .build()
    )


@pytest.mark.parametrize("arg,expected", [(4, 25), (0, 111)])
def test_catch_differential(arg, expected):
    assert _both(lambda: _run(_catcher(), [arg])) == (expected, expected)
    reference, compiled = _both(lambda: _drive(_catcher(), [arg]))
    assert compiled == reference


def test_throw_and_catch_differential():
    reference, compiled = _both(lambda: _drive(_thrower()))
    assert reference[1] == compiled[1] == 7
    assert compiled == reference


def test_uncaught_throw_differential():
    m = MethodBuilder("t", returns=True).ldstr("boom").throw().build()
    reference, compiled = _both(lambda: _drive(m))
    assert compiled[1] == ("raised", "System.Exception")
    assert compiled == reference


def test_unhandled_divide_by_zero_differential():
    m = (
        MethodBuilder("boom", returns=True)
        .arg("x").ldc(1).ldarg("x").div().ret()
        .build()
    )
    reference, compiled = _both(lambda: _drive(m, [0]))
    assert compiled[1] == ("raised", "System.DivideByZeroException")
    assert compiled == reference


def test_exception_counters_match():
    def counters():
        rt = CliRuntime(Engine())
        assert _run(_catcher(), [0], rt) == 111
        rt2 = CliRuntime(Engine())
        assert _run(_thrower(), (), rt2) == 7
        return (
            rt.interpreter.exceptions_caught.value,
            rt2.interpreter.exceptions_thrown.value,
            rt2.interpreter.exceptions_caught.value,
        )

    assert _both(counters) == ((1, 1, 1), (1, 1, 1))


def test_webserver_handlers_all_compile():
    from repro.webserver.server import build_handler_methods

    for method in build_handler_methods():
        assert callable(compile_native(method, InterpreterParams())), method.full_name


# ---------------------------------------------------------------------------
# Statics and conversions
# ---------------------------------------------------------------------------

def test_statics_differential():
    m = (
        MethodBuilder("acc", returns=True)
        .arg("x")
        .ldsfld("Counter.total").ldarg("x").add().stsfld("Counter.total")
        .ldsfld("Counter.total").ret()
        .build()
    )

    def accumulate():
        rt = CliRuntime(Engine())
        return _run(m, [5], rt), _run(m, [3], rt), rt.interpreter.statics["Counter.total"]

    assert _both(accumulate) == ((5, 8, 8), (5, 8, 8))


def test_conv_differential():
    m = (
        MethodBuilder("wrap", returns=True)
        .arg("x").ldarg("x").conv("i4").ret()
        .build()
    )
    for value in (2**31, -(2**31) - 1, 12.9):
        reference, compiled = _both(lambda: _run(m, [value]))
        assert compiled == reference


@pytest.mark.parametrize("divisor", [7, -7, 2.5])
@pytest.mark.parametrize("op", ["div", "rem"])
def test_literal_divisor_differential(op, divisor):
    """A positive int literal divisor inlines ``//``/``%`` for a
    non-negative int dividend; negative, bool and float dividends (and
    other divisors) take the truncating helper.  Same value, same
    type, as the oracle."""
    builder = MethodBuilder("d", returns=True).arg("x").ldarg("x").ldc(divisor)
    m = getattr(builder, op)().ret().build()
    inline = "//" if op == "div" else "%"
    source = native_source(m, InterpreterParams())
    assert (f" {inline} {divisor} if " in source) == (divisor == 7)
    for value in (0, 6, 7, 23, -1, -7, -23, True, False, 23.5, -23.5, -0.0):
        reference, compiled = _both(lambda: _run(m, [value]))
        assert compiled == reference, value
        assert type(compiled) is type(reference), value


_SLOT_WRITERS = {
    "dup": lambda b: b.ldc(7).dup().add(),
    # x * x + 1: a divisor that is no literal, and never zero.
    "div": lambda b: b.ldc(8).ldarg("x").ldarg("x").mul().ldc(1).add().div(),
    "rem": lambda b: b.ldc(8).ldarg("x").ldarg("x").mul().ldc(1).add().rem(),
    "not": lambda b: b.ldc(6).not_(),
    "ldsfld": lambda b: b.ldsfld("f"),
    "newarr_ldlen": lambda b: b.ldc(3).newarr().ldlen(),
}


@pytest.mark.parametrize("writer", sorted(_SLOT_WRITERS))
def test_slot_write_keeps_a_fused_entry_below(writer):
    """A join leaves two values in ``s0``/``s1``; ``add`` fuses them
    into ``(s0 + s1)`` at depth 1, and the next instruction that writes
    its result into ``s1`` must not change what that entry reads."""
    builder = (MethodBuilder("join", returns=True).arg("x")
               .ldc(3).ldarg("x").brfalse("else").ldc(4).br("join")
               .label("else").ldc(5).label("join").add())
    m = _SLOT_WRITERS[writer](builder).add().ret().build()
    for x in (1, 0):
        reference, compiled = _both(lambda: _run(m, [x]))
        assert compiled == reference, x


# ---------------------------------------------------------------------------
# The generated artifact
# ---------------------------------------------------------------------------

def test_junk_on_unreachable_pcs_compiles():
    """The verifier checks operands only on reachable pcs, and the
    compiler emits only reachable blocks, so dead junk is harmless."""
    dead = MethodDef("DeadJunk", [
        Instruction(Op.LDC, 7),            # 0
        Instruction(Op.BR, 6),             # 1 -> ret
        Instruction(Op.CONV, "i2"),        # 2 unreachable
        Instruction(Op.CALL, "garbage"),   # 3 unreachable
        Instruction(Op.LDSTR, 123),        # 4 unreachable
        Instruction(Op.POP),               # 5 unreachable
        Instruction(Op.RET),               # 6
    ], returns=True)
    verify_method(dead)
    source = native_source(dead, InterpreterParams())
    assert source.count("_b == ") == 2  # blocks at pcs 0 and 6 only
    assert _both(lambda: _run(dead)) == (7, 7)


def test_unverified_method_is_refused():
    """The compiler reads the verifier's recorded entry depths and
    never recomputes them."""
    m = MethodDef("Unverified", [Instruction(Op.LDC, 1), Instruction(Op.RET)],
                  returns=True)
    with pytest.raises(JitError, match="Unverified: not verified"):
        native_source(m, InterpreterParams())
    with pytest.raises(JitError, match="not verified"):
        compile_native(m, InterpreterParams())
    verify_method(m)
    assert _both(lambda: _run(m)) == (1, 1)


def test_native_source_is_inspectable():
    m = MethodBuilder("m", returns=True).ldc(2).ldc(3).mul().ret().build()
    params = InterpreterParams()
    source = native_source(m, params)
    assert "def _compiled" in source
    fn = compile_native(m, params)
    assert fn.__cil_source__ == source
    assert "(2 * 3)" in source  # constants fused at compile time


def test_native_cache_reused_per_params():
    rt = CliRuntime(Engine())
    m = MethodBuilder("m", returns=True).ldc(1).ret().build()
    _run(m, (), rt)
    fn1 = rt.jit.native_for(m, rt.interpreter.params)
    fn2 = rt.jit.native_for(m, rt.interpreter.params)
    assert fn1 is fn2


def test_runtimes_share_one_code_object_per_source():
    """A fresh stack builds its methods anew, but each body is compiled
    once per process: two runtimes get distinct functions over one code
    object, each bound to its own method, with equal results."""
    def build():
        return MethodBuilder("m", returns=True).ldc(6).ldc(7).mul().ret().build()

    first, second = CliRuntime(Engine()), CliRuntime(Engine())
    m1, m2 = build(), build()
    assert _run(m1, (), first) == _run(m2, (), second) == 42
    fn1 = first.jit.native_for(m1, first.interpreter.params)
    fn2 = second.jit.native_for(m2, second.interpreter.params)
    assert fn1 is not fn2
    assert fn1.__code__ is fn2.__code__
    assert fn1.__globals__["_method"] is m1
    assert fn2.__globals__["_method"] is m2


def test_warm_calls_do_not_hash_the_interpreter_params(monkeypatch):
    """A warm call finds its compiled body by the method's token, not
    by a ``(token, params)`` key that hashes the frozen params."""
    rt = CliRuntime(Engine())
    m = MethodBuilder("m", returns=True).ldc(1).ret().build()
    _run(m, (), rt)  # cold: compiles and caches
    hashed = []
    params_type = type(rt.interpreter.params)
    unhooked = params_type.__hash__
    monkeypatch.setattr(params_type, "__hash__",
                        lambda self: hashed.append(self) or unhooked(self))
    assert [_run(m, (), rt) for _ in range(3)] == [1, 1, 1]
    assert hashed == []
