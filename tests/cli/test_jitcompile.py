"""Differential tests: template-compiled tier vs interpreter tier.

The compiled tier must be observationally identical to the
interpreter on everything the simulation can see: return values,
instruction counts, exception counters, and — critically — the exact
sequence of simulated events at the exact simulated times.
"""

import pytest

from repro.cli import CliRuntime, ManagedException, MethodBuilder
from repro.cli.cil import Instruction, Op
from repro.cli.jitcompile import compile_native, native_eligible, native_source
from repro.cli.metadata import MethodDef
from repro.cli.microbench import KERNELS, run_kernel
from repro.cli.profiles import VM_PROFILES
from repro.cli.verifier import verify_method
from repro.errors import ExecutionFault
from repro.sim import Engine


def _runtime(native: bool) -> CliRuntime:
    rt = CliRuntime(Engine())
    rt.jit.native_enabled = native
    return rt


def _run(rt: CliRuntime, method, args=()):
    return rt.engine.run_process(rt.invoke(method, args))


def _drive(rt: CliRuntime, method, args=()):
    """Drive one invocation by hand, recording every yielded event as
    ``(type_name, delay)`` — the full simulated-event fingerprint."""
    # Warm the JIT so the cold-path compile events don't differ by tier
    # bookkeeping order; both tiers charge them identically anyway.
    try:
        _run(rt, method, args)
    except ManagedException:
        pass
    events = []
    gen = rt.interpreter.invoke(method, args)
    try:
        while True:
            ev = gen.send(None)
            events.append((type(ev).__name__, getattr(ev, "delay", None)))
    except StopIteration as stop:
        return events, stop.value
    except ManagedException as exc:
        return events, ("raised", exc.type_name)


# ---------------------------------------------------------------------------
# Kernel oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", sorted(VM_PROFILES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_differential(kernel, profile, monkeypatch):
    """Identical results AND identical simulated times on every
    ext_cil kernel oracle, under every VM profile."""
    monkeypatch.setenv("REPRO_JIT_NATIVE", "0")
    interpreted = run_kernel(kernel, n=120, profile=profile)
    monkeypatch.setenv("REPRO_JIT_NATIVE", "1")
    compiled = run_kernel(kernel, n=120, profile=profile)
    assert compiled == interpreted
    assert compiled.correct


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_event_sequence_identical(kernel):
    """Not just the totals: the exact event-by-event timeline."""
    from repro.cli.microbench import build_kernel

    method, _expected = build_kernel(kernel)
    seq_interp, val_interp = _drive(_runtime(False), method, [50])
    seq_native, val_native = _drive(_runtime(True), method, [50])
    assert val_native == val_interp
    assert seq_native == seq_interp


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
    for native in (False, True):
        rt = _runtime(native)
        assert _run(rt, _catcher(), [arg]) == expected
    seq_i, val_i = _drive(_runtime(False), _catcher(), [arg])
    seq_n, val_n = _drive(_runtime(True), _catcher(), [arg])
    assert (seq_n, val_n) == (seq_i, val_i)


def test_throw_and_catch_differential():
    seq_i, val_i = _drive(_runtime(False), _thrower())
    seq_n, val_n = _drive(_runtime(True), _thrower())
    assert val_i == val_n == 7
    assert seq_n == seq_i


def test_uncaught_throw_differential():
    m = MethodBuilder("t", returns=True).ldstr("boom").throw().build()
    seq_i, val_i = _drive(_runtime(False), m)
    seq_n, val_n = _drive(_runtime(True), m)
    assert val_i == val_n == ("raised", "System.Exception")
    assert seq_n == seq_i


def test_unhandled_divide_by_zero_differential():
    m = (
        MethodBuilder("boom", returns=True)
        .arg("x").ldc(1).ldarg("x").div().ret()
        .build()
    )
    seq_i, val_i = _drive(_runtime(False), m, [0])
    seq_n, val_n = _drive(_runtime(True), m, [0])
    assert val_i == val_n == ("raised", "System.DivideByZeroException")
    assert seq_n == seq_i


def test_exception_counters_match():
    for native in (False, True):
        rt = _runtime(native)
        assert _run(rt, _catcher(), [0]) == 111
        assert rt.interpreter.exceptions_caught.value == 1
        rt2 = _runtime(native)
        assert _run(rt2, _thrower()) == 7
        assert rt2.interpreter.exceptions_thrown.value == 1
        assert rt2.interpreter.exceptions_caught.value == 1


def test_webserver_handlers_all_compile():
    from repro.webserver.server import build_handler_methods

    for method in build_handler_methods():
        assert native_eligible(method), method.full_name


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
    for native in (False, True):
        rt = _runtime(native)
        assert _run(rt, m, [5]) == 5
        assert _run(rt, m, [3]) == 8
        assert rt.interpreter.statics["Counter.total"] == 8


def test_conv_differential():
    m = (
        MethodBuilder("wrap", returns=True)
        .arg("x").ldarg("x").conv("i4").ret()
        .build()
    )
    for value in (2**31, -(2**31) - 1, 12.9):
        results = [_run(_runtime(nat), m, [value]) for nat in (False, True)]
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Eligibility and the generated artifact
# ---------------------------------------------------------------------------

def test_unknown_conv_is_ineligible_and_falls_back():
    body = [
        Instruction(Op.LDC, 1),
        Instruction(Op.CONV, "u2"),
        Instruction(Op.RET),
    ]
    m = MethodDef("weird", body, returns=True)
    verify_method(m)
    assert not native_eligible(m)
    assert native_source(m, None) is None
    assert compile_native(m, _runtime(True).interpreter.params) is None
    # The interpreter tier still executes it (and faults at runtime).
    with pytest.raises(ExecutionFault, match="unknown conversion"):
        _run(_runtime(True), m)


def test_unverified_method_is_ineligible():
    m = MethodBuilder("m", returns=True).ldc(1).ret().build()
    m.max_stack = None
    assert not native_eligible(m)


@pytest.mark.parametrize("operand", [
    None,                       # missing operand entirely
    "just-a-string",            # direct-call operands must be tuples
    ("OneElement",),            # wrong arity
    ("A::B", "not-an-int", True),   # argc not an int
    ("A::B", 1, True, "extra"),     # too long
])
def test_malformed_call_tuple_is_ineligible_not_an_error(operand):
    """Junk call operands must make the gate answer False, never raise:
    ineligible methods fall back to the interpreter tier."""
    m = MethodDef("junkcall", [
        Instruction(Op.CALL, operand),
        Instruction(Op.RET, None),
    ])
    m.max_stack = 1  # pretend-verified so only the operand shape gates
    assert not native_eligible(m)
    assert native_source(m, None) is None


@pytest.mark.parametrize("kind", ["u2", "i2", "r4", "", None, 42])
def test_unknown_conv_kinds_are_ineligible_not_errors(kind):
    m = MethodDef("conv", [
        Instruction(Op.LDC, 1),
        Instruction(Op.CONV, kind),
        Instruction(Op.RET, None),
    ], returns=True)
    m.max_stack = 1
    assert not native_eligible(m)


def test_non_string_ldstr_is_ineligible_not_an_error():
    m = MethodDef("badstr", [
        Instruction(Op.LDSTR, 123),
        Instruction(Op.POP, None),
        Instruction(Op.RET, None),
    ])
    m.max_stack = 1
    assert not native_eligible(m)


def test_ineligible_method_still_runs_on_interpreter_tier():
    """The gate declining is silent: execution proceeds interpreted."""
    m = MethodDef("fallback", [
        Instruction(Op.LDC, 40),
        Instruction(Op.CONV, "u2"),  # gate-ineligible conv kind
        Instruction(Op.RET, None),
    ], returns=True)
    verify_method(m)
    rt = _runtime(True)
    assert rt.jit.native_for(m, rt.interpreter.params) is None
    with pytest.raises(ExecutionFault, match="unknown conversion"):
        _run(rt, m)

    # Ineligible instructions that are dead code still decline the
    # gate; the interpreter never reaches them.
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
    rt = _runtime(True)
    assert rt.jit.native_for(dead, rt.interpreter.params) is None
    assert _run(rt, dead) == 7


def test_native_source_is_inspectable():
    m = MethodBuilder("m", returns=True).ldc(2).ldc(3).mul().ret().build()
    rt = _runtime(True)
    source = native_source(m, rt.interpreter.params)
    assert source is not None and "def _compiled" in source
    fn = compile_native(m, rt.interpreter.params)
    assert fn.__cil_source__ == source
    assert "(2 * 3)" in source  # constants fused at compile time


def test_native_cache_reused_per_params():
    rt = _runtime(True)
    m = MethodBuilder("m", returns=True).ldc(1).ret().build()
    _run(rt, m)
    fn1 = rt.jit.native_for(m, rt.interpreter.params)
    fn2 = rt.jit.native_for(m, rt.interpreter.params)
    assert fn1 is fn2


def test_native_disabled_env(monkeypatch):
    monkeypatch.setenv("REPRO_JIT_NATIVE", "0")
    rt = CliRuntime(Engine())
    assert not rt.jit.native_enabled
    m = MethodBuilder("m", returns=True).ldc(41).ldc(1).add().ret().build()
    assert _run(rt, m) == 42
    assert rt.jit.native_for(m, rt.interpreter.params) is None
