"""Abstract interpreter: lattice joins, constant facts, reachability."""

import pytest

from repro.analysis.lattice import Init, Kind, TypeVal, type_of_constant
from repro.analysis.typeflow import analyze_types
from repro.cli.assembly import MethodBuilder
from repro.cli.cil import Instruction, Op
from repro.cli.metadata import MethodDef
from repro.cli.verifier import verify_method
from repro.errors import VerificationError


def test_lattice_joins():
    i32 = type_of_constant(1)
    i64 = type_of_constant(1 << 40)
    f64 = type_of_constant(1.5)
    s = type_of_constant("x")
    assert i32.kind is Kind.INT32 and i64.kind is Kind.INT64
    assert i32.join(i64).kind is Kind.INT64          # numeric widening
    assert i32.join(f64).kind is Kind.FLOAT64
    assert i32.join(s).kind is Kind.TOP              # confusion
    assert i32.join(s).confused
    # Equal kinds with disagreeing constants keep the kind, drop the const.
    j = type_of_constant(1).join(type_of_constant(2))
    assert j.kind is Kind.INT32 and not j.known
    assert Init.UNINIT.join(Init.INIT) is Init.MAYBE


def test_constant_folding_through_arithmetic():
    m = (
        MethodBuilder("fold", returns=True)
        .ldc(6).ldc(7).mul().ret()
        .build()
    )
    facts = analyze_types(m)
    # Entry state of ret holds the folded constant 42.
    ret_state = facts.entry_states[3]
    assert ret_state.stack[0].const == 42
    assert ret_state.stack[0].kind is Kind.INT32


def test_const_branch_flows_both_edges():
    # brtrue on a constant: fact recorded, but both edges reachable
    # (alignment with the verifier and the template JIT).
    m = MethodDef("cb", [
        Instruction(Op.LDC, 1),
        Instruction(Op.BRTRUE, 4),
        Instruction(Op.LDC, 7),   # the never-taken fall-through
        Instruction(Op.POP),
        Instruction(Op.LDC, 0),
        Instruction(Op.RET),
    ], returns=True)
    verify_method(m)
    facts = analyze_types(m)
    assert (1, True) in facts.const_branches
    assert facts.entry_states[2] is not None, "fall-through must stay reachable"
    assert facts.entry_states[4] is not None


def test_uninit_local_read_recorded():
    m = MethodDef("uninit", [
        Instruction(Op.LDLOC, 0),
        Instruction(Op.RET),
    ], local_count=1, returns=True)
    verify_method(m)
    facts = analyze_types(m)
    assert [(pc, i) for pc, i, _state in facts.uninit_reads] == [(0, 0)]
    assert facts.uninit_reads[0][2] is Init.UNINIT


def test_unknown_conv_kind_is_type_error():
    m = MethodDef("badconv", [
        Instruction(Op.LDC, 1),
        Instruction(Op.CONV, "i2"),
        Instruction(Op.RET),
    ], returns=True)
    # The verifier rejects it at load; the analysis still reports it.
    with pytest.raises(VerificationError, match="unknown conversion kind"):
        verify_method(m)
    facts = analyze_types(m)
    assert any("conv" in msg for _pc, msg in facts.type_errors)


def test_const_div_by_zero_warns():
    m = (
        MethodBuilder("dz", returns=True)
        .ldc(1).ldc(0).div().ret()
        .build()
    )
    facts = analyze_types(m)
    assert any("DivideByZero" in msg for _pc, msg in facts.type_warnings)
    assert not facts.type_errors


def test_handler_entry_state_is_exception_object():
    m = (
        MethodBuilder("guarded", returns=True)
        .local("x")
        .begin_try()
        .ldc(1).ldc(0).div().stloc("x")
        .end_try("handler")
        .ldloc("x").ret()
        .label("handler")
        .pop().ldc(-1).ret()
        .build()
    )
    facts = analyze_types(m)
    hpc = m.handlers[0].handler_start
    state = facts.entry_states[hpc]
    assert state is not None
    assert len(state.stack) == 1
    assert state.stack[0].kind is Kind.OBJECT


def test_join_confusion_recorded_on_mixed_types():
    m = (
        MethodBuilder("mix", returns=True)
        .arg("c").local("x")
        .ldarg("c").brtrue("s")
        .ldc(1).stloc("x").br("join")
        .label("s").ldstr("one").stloc("x")
        .label("join").ldloc("x").ret()
        .build()
    )
    facts = analyze_types(m)
    assert any("local[0]" in slot for _pc, slot, _k in facts.join_confusions)


def test_malformed_call_is_type_error_and_stops_path():
    m = MethodDef("badcall", [
        Instruction(Op.LDC, 1),
        Instruction(Op.CALL, "not-a-tuple"),
        Instruction(Op.RET),
    ], returns=True)
    m.max_stack = 1  # pretend-verified; the verifier would reject this
    facts = analyze_types(m)
    assert any("malformed" in msg for _pc, msg in facts.type_errors)
    assert facts.entry_states[2] is None  # depth unknowable past the call


def test_stack_kinds_matches_entry_states():
    m = (
        MethodBuilder("sk", returns=True)
        .ldc(2).ldc(3).add().ret()
        .build()
    )
    facts = analyze_types(m)
    kinds = facts.stack_kinds()
    assert len(kinds) == len(m.body)
    assert kinds[0] == ()
    assert kinds[2] == (Kind.INT32, Kind.INT32)
    assert kinds[3] == (Kind.INT32,)
