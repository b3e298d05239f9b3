"""Tests for the CIL disassembler / textual assembler."""

import pytest

from repro.cli import CliRuntime, MethodBuilder
from repro.cli.disasm import disassemble, parse_cil
from repro.errors import CliError
from repro.sim import Engine


def invoke(method, args=()):
    runtime = CliRuntime(Engine())
    return runtime.engine.run_process(runtime.invoke(method, args))


def sum_method():
    return (
        MethodBuilder("sum_to_n", returns=True)
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


def test_disassemble_contains_structure():
    text = disassemble(sum_method())
    assert ".method sum_to_n(n) returns" in text
    assert ".locals v0 v1" in text
    assert "clt" in text
    assert "brfalse" in text
    # Branch targets became labels.
    assert "L" in text and ":" in text


def test_roundtrip_preserves_semantics():
    original = sum_method()
    rebuilt = parse_cil(disassemble(original))
    for n in (0, 1, 10, 50):
        assert invoke(rebuilt, [n]) == invoke(original, [n]) == sum(range(n))


def test_roundtrip_preserves_body_shape():
    original = sum_method()
    rebuilt = parse_cil(disassemble(original))
    assert [i.op for i in rebuilt.body] == [i.op for i in original.body]
    assert rebuilt.param_count == original.param_count
    assert rebuilt.local_count == original.local_count
    assert rebuilt.returns == original.returns


def test_parse_simple_source():
    src = """
    .method double_it(x) returns
        ldarg x
        ldc 2
        mul
        ret
    """
    m = parse_cil(src)
    assert invoke(m, [21]) == 42


def test_parse_comments_and_blank_lines():
    src = """
    ; a comment-only line
    .method f() returns

        ldc 5   ; trailing comment
        ret
    """
    assert invoke(parse_cil(src)) == 5


def test_parse_string_and_float_literals():
    m = parse_cil(".method f() returns\n ldstr 'hi'\n pop\n ldc 2.5\n ret")
    assert invoke(m) == 2.5


def test_parse_intrinsic_and_static_fields():
    src = """
    .method f() returns
        ldsfld Counters::x
        ldc 1
        add
        dup
        stsfld Counters::x
        ret
    """
    m = parse_cil(src)
    runtime = CliRuntime(Engine())
    assert runtime.engine.run_process(runtime.invoke(m)) == 1
    assert runtime.engine.run_process(runtime.invoke(m)) == 2


def test_roundtrip_with_protected_region():
    original = (
        MethodBuilder("safe_div", returns=True)
        .arg("a").arg("b")
        .begin_try()
        .ldarg("a").ldarg("b").div().ret()
        .end_try("oops")
        .label("oops").pop().ldc(-1).ret()
        .build()
    )
    text = disassemble(original)
    assert ".try" in text and ".endtry" in text
    rebuilt = parse_cil(text)
    assert invoke(rebuilt, [10, 2]) == 5
    assert invoke(rebuilt, [10, 0]) == -1


def test_parse_call_forward_reference():
    src = """
    .method go() returns
        ldc 20
        call Math::inc/1/ret
        ret
    """
    m = parse_cil(src)
    from repro.cli import AssemblyBuilder

    runtime = CliRuntime(Engine())
    ab = AssemblyBuilder("lib")
    ab.add_method(
        "Math",
        MethodBuilder("inc", returns=True).arg("x").ldarg("x").ldc(1).add().ret().build(),
    )
    runtime.engine.run_process(runtime.load_assembly(ab.build()))
    assert runtime.engine.run_process(runtime.invoke(m)) == 21


def test_cfg_flag_on_protected_region_method():
    """--cfg renders the graph for a method with a handler, and the
    listing above it still round-trips through parse_cil."""
    import io
    from contextlib import redirect_stdout

    from repro.analysis.targets import bundled_assembly
    from repro.cli.disasm import format_cfg, main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["webserver", "Work::StartListen", "--cfg"]) == 0
    text = out.getvalue()
    assert "cfg Work::StartListen:" in text
    assert "[handler]" in text
    assert "(exception)" in text
    # The listing portion (everything before the cfg block) reparses.
    listing = text.split("cfg Work::StartListen:")[0]
    rebuilt = parse_cil(listing)
    assert rebuilt.handlers, "protected region survived the round trip"
    original = bundled_assembly("webserver").types["Work"].methods["StartListen"]
    strip_header = lambda s: s.split("\n", 1)[1]  # noqa: E731 - name differs
    assert strip_header(format_cfg(rebuilt)) == strip_header(format_cfg(original))


def test_cfg_output_matches_format_cfg():
    from repro.cli.disasm import format_cfg

    method = sum_method()
    text = format_cfg(method)
    assert text.startswith("cfg sum_to_n:")
    assert "-> B" in text
    # Deterministic across calls.
    assert text == format_cfg(method)


def test_help_lists_every_bundled_assembly(capsys):
    from repro.analysis.targets import BUNDLED
    from repro.cli.disasm import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name in BUNDLED:
        assert name in out


def test_main_unknown_assembly_exits_2(capsys):
    from repro.cli.disasm import main

    assert main(["no_such_bundle"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_unknown_method_exits_2(capsys):
    from repro.cli.disasm import main

    assert main(["webserver", "No::Such"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_errors():
    with pytest.raises(CliError, match="\\.method"):
        parse_cil("ldc 1\nret")
    with pytest.raises(CliError, match="mnemonic"):
        parse_cil(".method f()\n frobnicate\n ret")
    with pytest.raises(CliError, match="operand"):
        parse_cil(".method f()\n ldc\n ret")
    with pytest.raises(CliError, match="argc"):
        parse_cil(".method f()\n callintrinsic Foo/x\n ret")
    with pytest.raises(CliError, match="empty"):
        parse_cil("   \n ; nothing\n")
    with pytest.raises(CliError, match="one \\.method"):
        parse_cil(".method a()\n ret\n.method b()\n ret")
    with pytest.raises(CliError, match="malformed"):
        parse_cil(".method broken\n ret")
