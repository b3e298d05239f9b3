"""The diagnostic pass suite over whole methods."""

import pytest

from repro.analysis.diagnostics import Diagnostic, Severity, render_json, render_text
from repro.analysis.passes import analyze_method
from repro.cli.assembly import MethodBuilder
from repro.cli.cil import Instruction, Op
from repro.cli.metadata import ExceptionHandler, MethodDef
from repro.cli.verifier import verify_method
from repro.errors import VerificationError


def codes(ma):
    return [d.code for d in ma.diagnostics]


def by_code(ma, code):
    return [d for d in ma.diagnostics if d.code == code]


def test_clean_method_has_no_diagnostics():
    m = (
        MethodBuilder("clean", returns=True)
        .arg("n").local("i").local("acc")
        .ldc(0).stloc("acc").ldc(0).stloc("i")
        .label("top")
        .ldloc("i").ldarg("n").clt().brfalse("done")
        .ldloc("acc").ldloc("i").add().stloc("acc")
        .ldloc("i").ldc(1).add().stloc("i")
        .br("top")
        .label("done")
        .ldloc("acc").ret()
        .build()
    )
    assert analyze_method(m).diagnostics == []


def test_unreachable_code_reported_as_run():
    m = MethodDef("dead", [
        Instruction(Op.LDC, 1),
        Instruction(Op.BR, 5),
        Instruction(Op.LDC, 9),
        Instruction(Op.POP),
        Instruction(Op.NOP),
        Instruction(Op.RET),
    ], returns=True)
    verify_method(m)
    found = by_code(analyze_method(m), "unreachable-code")
    assert len(found) == 1
    assert found[0].pc == 2
    assert "pc 2..4" in found[0].message
    assert found[0].severity is Severity.WARNING


def test_uninit_local_warning():
    m = MethodDef("uninit", [
        Instruction(Op.LDLOC, 0),
        Instruction(Op.RET),
    ], local_count=1, returns=True)
    verify_method(m)
    found = by_code(analyze_method(m), "uninit-local")
    assert len(found) == 1 and found[0].severity is Severity.WARNING


def test_dead_store_and_unused_local_notes():
    m = (
        MethodBuilder("ds", returns=True)
        .local("a").local("never")
        .ldc(5).stloc("a")       # dead: overwritten before any read
        .ldc(7).stloc("a")
        .ldloc("a").ret()
        .build()
    )
    ma = analyze_method(m)
    dead = by_code(ma, "dead-store")
    assert [d.pc for d in dead] == [1]
    unused = by_code(ma, "unused-local")
    assert len(unused) == 1 and "local 1" in unused[0].message


def test_store_live_across_exception_edge_is_not_dead():
    # The store inside the try is only read by the handler: the
    # exception edge must keep it alive.
    m = (
        MethodBuilder("keep", returns=True)
        .arg("d").local("x")
        .begin_try()
        .ldc(42).stloc("x")
        .ldc(1).ldarg("d").div().pop()
        .end_try("handler")
        .ldc(0).ret()
        .label("handler")
        .pop().ldloc("x").ret()
        .build()
    )
    assert by_code(analyze_method(m), "dead-store") == []


def test_unused_arg_note():
    m = (
        MethodBuilder("ua", returns=True)
        .arg("used").arg("ignored")
        .ldarg("used").ret()
        .build()
    )
    found = by_code(analyze_method(m), "unused-arg")
    assert len(found) == 1 and "'ignored'" in found[0].message


def test_const_branch_and_const_compare():
    m = (
        MethodBuilder("cb", returns=True)
        .ldc(2).ldc(1).cgt().brtrue("t")
        .ldc(0).ret()
        .label("t").ldc(1).ret()
        .build()
    )
    ma = analyze_method(m)
    branches = by_code(ma, "const-branch")
    assert len(branches) == 1 and "always taken" in branches[0].message
    compares = by_code(ma, "const-compare")
    assert len(compares) == 1 and compares[0].severity is Severity.NOTE


def test_type_error_is_error_severity():
    m = MethodDef("te", [
        Instruction(Op.LDC, 1),
        Instruction(Op.CONV, "bogus"),
        Instruction(Op.RET),
    ], returns=True)
    # The verifier rejects it at load; the analysis still reports it.
    with pytest.raises(VerificationError, match="unknown conversion kind"):
        verify_method(m)
    errs = by_code(analyze_method(m), "type-error")
    assert len(errs) == 1 and errs[0].severity is Severity.ERROR


def test_fallthrough_into_handler_flagged():
    # Handler block is also reached by normal flow (fallthrough at the
    # same depth the verifier seeds handlers with: 1).
    m = MethodDef("fall", [
        Instruction(Op.LDC, 1),      # 0: try start
        Instruction(Op.POP),         # 1
        Instruction(Op.LDC, 1),      # 2: falls into handler at depth 1
        Instruction(Op.POP),         # 3: handler start
        Instruction(Op.LDC, 0),      # 4
        Instruction(Op.RET),         # 5
    ], returns=True, handlers=[
        ExceptionHandler(try_start=0, try_end=2, handler_start=3),
    ])
    verify_method(m)
    found = by_code(analyze_method(m), "fallthrough-into-handler")
    assert found and all(d.severity is Severity.WARNING for d in found)


def test_diagnostics_sorted_and_renderers_deterministic():
    m = MethodDef("multi", [
        Instruction(Op.LDLOC, 0),    # uninit read
        Instruction(Op.POP),
        Instruction(Op.LDC, 1),
        Instruction(Op.BR, 6),
        Instruction(Op.LDC, 9),      # unreachable
        Instruction(Op.POP),
        Instruction(Op.RET),
    ], local_count=1, returns=True)
    verify_method(m)
    ma = analyze_method(m, assembly="T")
    keys = [d.sort_key() for d in ma.diagnostics]
    assert keys == sorted(keys)
    assert all(d.assembly == "T" for d in ma.diagnostics)
    assert render_text(ma.diagnostics) == render_text(list(ma.diagnostics))
    assert render_json(ma.diagnostics) == render_json(list(ma.diagnostics))
