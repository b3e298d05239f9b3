"""CFG construction: blocks, edges, reachability."""

from repro.analysis.cfg import build_cfg
from repro.cli.assembly import MethodBuilder
from repro.cli.cil import Instruction, Op
from repro.cli.metadata import ExceptionHandler, MethodDef
from repro.cli.verifier import verify_method


def loop_method():
    return (
        MethodBuilder("loop", returns=True)
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


def try_method():
    return (
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


def test_straight_line_is_one_block():
    m = (
        MethodBuilder("straight", returns=True)
        .ldc(1).ldc(2).add().ret()
        .build()
    )
    cfg = build_cfg(m)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].pcs == range(0, 4)
    assert cfg.reachable == frozenset({0})


def test_loop_blocks_and_edges():
    cfg = build_cfg(loop_method())
    # Entry, loop head, loop body, exit.
    assert len(cfg.blocks) == 4
    kinds = {(e.src, e.dst): e.kind for e in cfg.edges}
    # Loop head branches to exit, falls to body; body branches back.
    head = cfg.block_at(4).index
    body = next(b for b in cfg.blocks if b.start > cfg.blocks[head].start
                and not b.is_handler_entry and b.index != len(cfg.blocks) - 1)
    assert kinds[(body.index, head)] == "branch"
    assert all(b.index in cfg.reachable for b in cfg.blocks)


def test_exception_edges_and_handler_flag():
    m = try_method()
    cfg = build_cfg(m)
    handler_pc = m.handlers[0].handler_start
    hblock = cfg.block_at(handler_pc)
    assert hblock.is_handler_entry
    exc_edges = [e for e in cfg.edges if e.kind == "exception"]
    assert exc_edges, "protected region must produce exception edges"
    assert all(e.dst == hblock.index for e in exc_edges)
    # Every block overlapping the try region has the edge.
    h = m.handlers[0]
    for b in cfg.blocks:
        overlaps = max(b.start, h.try_start) < min(b.end, h.try_end)
        has_edge = any(e.kind == "exception" for e in b.successors)
        assert overlaps == has_edge


def test_unreachable_block_detected():
    # 0: ldc 1; 1: br 4; 2: ldc 9; 3: pop; 4: ret
    m = MethodDef("dead", [
        Instruction(Op.LDC, 1),
        Instruction(Op.BR, 4),
        Instruction(Op.LDC, 9),
        Instruction(Op.POP),
        Instruction(Op.RET),
    ], returns=True)
    verify_method(m)
    cfg = build_cfg(m)
    dead = cfg.block_at(2)
    assert dead.index not in cfg.reachable
    assert 2 not in cfg.reachable_pcs() and 3 not in cfg.reachable_pcs()
    assert 4 in cfg.reachable_pcs()


def test_format_is_deterministic_and_flags():
    m = try_method()
    first = build_cfg(m).format()
    second = build_cfg(m).format()
    assert first == second
    assert "[handler]" in first
    assert "(exception)" in first
    assert first.startswith("cfg guarded:")
