"""Tests for the method builder, metadata, and bytecode verifier."""

import pytest

from repro.cli import AssemblyBuilder, MethodBuilder, Op
from repro.cli.cil import Instruction, successors
from repro.cli.metadata import MethodDef
from repro.cli.verifier import verify_method
from repro.errors import CliError, VerificationError


def test_simple_method_builds_and_verifies():
    m = MethodBuilder("three", returns=True).ldc(3).ret().build()
    assert m.size == 2
    assert m.max_stack == 1
    assert m.returns


def test_builder_name_validation():
    with pytest.raises(CliError):
        MethodBuilder("3bad")
    with pytest.raises(CliError):
        MethodBuilder("no-dash")
    with pytest.raises(CliError):
        MethodBuilder("")


def test_duplicate_param_local_label_rejected():
    with pytest.raises(CliError):
        MethodBuilder("m").arg("x").arg("x")
    with pytest.raises(CliError):
        MethodBuilder("m").local("v").local("v")
    with pytest.raises(CliError):
        MethodBuilder("m").label("a").nop().label("a")


def test_undeclared_names_rejected():
    with pytest.raises(CliError):
        MethodBuilder("m").ldloc("ghost")
    with pytest.raises(CliError):
        MethodBuilder("m").ldarg("ghost")


def test_undefined_label_rejected_at_build():
    b = MethodBuilder("m").br("nowhere").ret()
    with pytest.raises(CliError):
        b.build()


def test_build_twice_rejected():
    b = MethodBuilder("m").ret()
    b.build()
    with pytest.raises(CliError):
        b.build()


def test_loop_with_labels_resolves():
    m = (
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
    # Branch operands are integer indices after build.
    assert all(
        isinstance(i.operand, int)
        for i in m.body
        if i.op in (Op.BR, Op.BRTRUE, Op.BRFALSE)
    )


def test_call_target_validation():
    with pytest.raises(CliError):
        MethodBuilder("m").call("just-a-string")
    with pytest.raises(CliError):
        MethodBuilder("m").call(("name", "not-int", True))
    with pytest.raises(CliError):
        MethodBuilder("m").call_intrinsic("x", -1, False)


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

def _raw(name, body, params=0, local_count=0, returns=False):
    return MethodDef(
        name,
        body,
        param_names=[f"a{i}" for i in range(params)],
        local_count=local_count,
        returns=returns,
    )


def test_verifier_empty_body():
    with pytest.raises(VerificationError):
        verify_method(_raw("m", []))


def test_verifier_stack_underflow():
    m = _raw("m", [Instruction(Op.POP), Instruction(Op.RET)])
    with pytest.raises(VerificationError, match="pops"):
        verify_method(m)


def test_verifier_ret_depth_mismatch():
    # Returns declared but stack empty at ret.
    m = _raw("m", [Instruction(Op.RET)], returns=True)
    with pytest.raises(VerificationError, match="ret with stack depth"):
        verify_method(m)
    # Value left behind on a void method.
    m2 = _raw("m", [Instruction(Op.LDC, 1), Instruction(Op.RET)])
    with pytest.raises(VerificationError, match="ret with stack depth"):
        verify_method(m2)


def test_verifier_branch_out_of_range():
    m = _raw("m", [Instruction(Op.BR, 99), Instruction(Op.RET)])
    with pytest.raises(VerificationError, match="out of range"):
        verify_method(m)


def test_verifier_unresolved_label():
    m = _raw("m", [Instruction(Op.BR, "label"), Instruction(Op.RET)])
    with pytest.raises(VerificationError, match="unresolved"):
        verify_method(m)


def test_verifier_falls_off_end():
    m = _raw("m", [Instruction(Op.NOP)])
    with pytest.raises(VerificationError, match="falls off"):
        verify_method(m)


def test_verifier_inconsistent_join_depth():
    # Path A arrives at index 3 with depth 1; path B with depth 0.
    body = [
        Instruction(Op.LDC, 1),       # 0: depth 1
        Instruction(Op.BRTRUE, 3),    # 1: pops → depth 0, branch to 3
        Instruction(Op.LDC, 7),       # 2: depth 1, falls into 3
        Instruction(Op.NOP),          # 3: join — 0 vs 1
        Instruction(Op.RET),
    ]
    with pytest.raises(VerificationError, match="inconsistent"):
        verify_method(_raw("m", body))


def test_verifier_local_and_arg_ranges():
    m = _raw("m", [Instruction(Op.LDLOC, 2), Instruction(Op.RET)], local_count=1)
    with pytest.raises(VerificationError, match="local index"):
        verify_method(m)
    m2 = _raw("m", [Instruction(Op.LDARG, 0), Instruction(Op.POP), Instruction(Op.RET)])
    with pytest.raises(VerificationError, match="argument index"):
        verify_method(m2)


def test_verifier_max_stack_recorded():
    m = (
        MethodBuilder("deep", returns=True)
        .ldc(1).ldc(2).ldc(3).add().add().ret()
        .build()
    )
    assert m.max_stack == 3


def test_successors_rule():
    """A branch's target first, then the fall-through; ``ret`` and
    ``throw`` end control; everything else falls through."""
    assert successors(Instruction(Op.BR, 5), 2) == (5,)
    assert successors(Instruction(Op.BRTRUE, 5), 2) == (5, 3)
    assert successors(Instruction(Op.BRFALSE, 3), 2) == (3, 3)
    assert successors(Instruction(Op.RET), 2) == ()
    assert successors(Instruction(Op.THROW), 2) == ()
    assert successors(Instruction(Op.ADD), 2) == (3,)


def test_verifier_records_entry_depths():
    m = _raw("m", [
        Instruction(Op.LDC, 1),     # 0: depth 0
        Instruction(Op.BRTRUE, 4),  # 1: depth 1
        Instruction(Op.LDC, 2),     # 2: depth 0
        Instruction(Op.BR, 5),      # 3: depth 1
        Instruction(Op.LDC, 3),     # 4: depth 0
        Instruction(Op.RET),        # 5: depth 1, reached twice
        Instruction(Op.POP),        # 6: unreachable
    ], returns=True)
    assert m.entry_depths is None
    verify_method(m)
    assert m.entry_depths == [0, 1, 0, 1, 0, 1, None]


def test_verifier_call_effects():
    callee = MethodBuilder("callee", returns=True).arg("a").ldarg("a").ret().build()
    m = (
        MethodBuilder("caller", returns=True)
        .ldc(5).call(callee).ret()
        .build()
    )
    assert m.max_stack == 1


def test_verifier_intrinsic_effects():
    m = (
        MethodBuilder("m", returns=True)
        .ldc(1).ldc(2)
        .call_intrinsic("two_in_one_out", 2, True)
        .ret()
        .build()
    )
    assert m.max_stack == 2


# ---------------------------------------------------------------------------
# Assembly metadata
# ---------------------------------------------------------------------------

def test_assembly_builder_and_lookup():
    ab = AssemblyBuilder("bench")
    main = MethodBuilder("main").ret().build()
    helper = MethodBuilder("helper").ret().build()
    ab.add_method("Program", main)
    ab.add_method("Program", helper)
    asm = ab.build()
    assert asm.method_count == 2
    assert asm.find_method("Program::main") is main
    assert asm.find_method("helper") is helper
    with pytest.raises(CliError):
        asm.find_method("Program::missing")
    with pytest.raises(CliError):
        asm.find_method("Nope::main")


def test_assembly_ambiguous_bare_name():
    ab = AssemblyBuilder("bench")
    ab.add_method("A", MethodBuilder("go").ret().build())
    ab.add_method("B", MethodBuilder("go").ret().build())
    with pytest.raises(CliError, match="ambiguous"):
        ab.build().find_method("go")


def test_duplicate_method_and_type():
    ab = AssemblyBuilder("bench")
    ab.add_method("A", MethodBuilder("go").ret().build())
    with pytest.raises(CliError):
        ab.add_method("A", MethodBuilder("go").ret().build())
    with pytest.raises(CliError):
        ab.add_type("A")
