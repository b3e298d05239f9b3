"""CIL disassembler and textual assembler.

``disassemble`` renders a method body as ILASM-flavoured text with
labels, protected-region markers and signature summary; ``parse_cil``
assembles the same dialect back into a verified method.  Round-trip
stability is tested property-style.

Dialect::

    .method sum_to_n(n) returns
    .locals i acc
        ldc 0
        stloc acc
    top:
        ldloc i
        ldarg n
        clt
        brfalse done
        ...
        br top
    done:
        ldloc acc
        ret

Protected regions use ``.try`` / ``.endtry <handler-label> [prefix]``
directives at the matching positions.

Run as a CLI — ``python -m repro.cli.disasm <bundled-assembly>
[Type::Method] [--cfg]`` — to list any bundled benchmark method;
``--cfg`` appends the basic-block graph from :mod:`repro.analysis.cfg`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cli.assembly import MethodBuilder
from repro.cli.cil import BRANCHES, Instruction, Op
from repro.cli.metadata import MethodDef
from repro.errors import CliError

__all__ = ["disassemble", "parse_cil", "format_cfg", "main"]


def _operand_text(ins: Instruction, labels: Dict[int, str]) -> str:
    if ins.op in BRANCHES:
        return labels[ins.operand]
    if ins.op is Op.CALL:
        target = ins.operand
        if isinstance(target, MethodDef):
            return f"{target.full_name}/{target.param_count}" + (
                "/ret" if target.returns else ""
            )
        name, argc, returns = target
        return f"{name}/{argc}" + ("/ret" if returns else "")
    if ins.op is Op.CALLINTRINSIC:
        name, argc, returns = ins.operand
        return f"{name}/{argc}" + ("/ret" if returns else "")
    if ins.operand is None:
        return ""
    return repr(ins.operand)


def disassemble(method: MethodDef) -> str:
    """Readable listing of ``method``."""
    # Label every branch target and handler entry.
    targets = set()
    for ins in method.body:
        if ins.op in BRANCHES:
            targets.add(ins.operand)
    for h in method.handlers:
        targets.add(h.handler_start)
    labels = {pc: f"L{pc}" for pc in sorted(targets)}

    try_starts: Dict[int, int] = {}
    try_ends: Dict[int, List] = {}
    for h in method.handlers:
        try_starts[h.try_start] = try_starts.get(h.try_start, 0) + 1
        try_ends.setdefault(h.try_end, []).append(h)

    header = f".method {method.name}({', '.join(method.param_names)})"
    if method.returns:
        header += " returns"
    lines = [header]
    if method.local_count:
        lines.append(f".locals {' '.join(f'v{i}' for i in range(method.local_count))}")
    for pc, ins in enumerate(method.body):
        for h in try_ends.get(pc, ()):
            lines.append(f"    .endtry {labels[h.handler_start]} {h.catches}")
        for _ in range(try_starts.get(pc, 0)):
            lines.append("    .try")
        if pc in labels:
            lines.append(f"{labels[pc]}:")
        text = f"    {ins.op.value}"
        operand = _operand_text(ins, labels)
        if operand:
            text += f" {operand}"
        lines.append(text)
    for h in try_ends.get(len(method.body), ()):
        lines.append(f"    .endtry {labels[h.handler_start]} {h.catches}")
    return "\n".join(lines)


def _parse_operand(op: Op, text: str) -> Tuple[Op, object]:
    if op in (Op.CALL, Op.CALLINTRINSIC):
        parts = text.split("/")
        if len(parts) < 2:
            raise CliError(f"{op.value} operand needs name/argc[/ret]: {text!r}")
        name = parts[0]
        try:
            argc = int(parts[1])
        except ValueError:
            raise CliError(f"bad argc in {text!r}") from None
        returns = len(parts) > 2 and parts[2] == "ret"
        return op, (name, argc, returns)
    if op in BRANCHES:
        return op, text  # label, resolved by the builder
    if op is Op.CONV:
        return op, text
    if op in (Op.LDSFLD, Op.STSFLD):
        return op, text
    # Literals (ints, floats, strings) use Python literal syntax.
    try:
        return op, ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise CliError(f"cannot parse operand {text!r} for {op.value}") from None


def parse_cil(source: str, verify: bool = True) -> MethodDef:
    """Assemble the textual dialect back into a verified method."""
    builder: Optional[MethodBuilder] = None
    ops_by_name = {op.value: op for op in Op}
    for raw in source.splitlines():
        line = raw.split(";", 1)[0].strip()  # ';' starts a comment
        if not line:
            continue
        if line.startswith(".method"):
            if builder is not None:
                raise CliError("only one .method per source")
            rest = line[len(".method"):].strip()
            returns = rest.endswith("returns")
            if returns:
                rest = rest[: -len("returns")].strip()
            if "(" not in rest or not rest.endswith(")"):
                raise CliError(f"malformed .method line: {raw!r}")
            name, params = rest[:-1].split("(", 1)
            builder = MethodBuilder(name.strip(), returns=returns)
            for param in filter(None, (p.strip() for p in params.split(","))):
                builder.arg(param)
            continue
        if builder is None:
            raise CliError("source must start with a .method directive")
        if line.startswith(".locals"):
            for local in line[len(".locals"):].split():
                builder.local(local)
            continue
        if line == ".try":
            builder.begin_try()
            continue
        if line.startswith(".endtry"):
            parts = line.split()
            if len(parts) < 2:
                raise CliError(".endtry needs a handler label")
            catches = parts[2] if len(parts) > 2 else "System."
            builder.end_try(parts[1], catches=catches)
            continue
        if line.endswith(":"):
            builder.label(line[:-1].strip())
            continue
        mnemonic, _, operand_text = line.partition(" ")
        op = ops_by_name.get(mnemonic)
        if op is None:
            raise CliError(f"unknown mnemonic {mnemonic!r}")
        operand_text = operand_text.strip()
        if not operand_text:
            if op in (Op.LDLOC, Op.STLOC, Op.LDARG, Op.STARG, Op.LDC,
                      Op.CALL, Op.CALLINTRINSIC, *BRANCHES):
                raise CliError(f"{mnemonic} requires an operand")
            builder.emit(op)
            continue
        if op in (Op.LDLOC, Op.STLOC):
            getattr(builder, op.value)(operand_text if not operand_text.isdigit()
                                       else int(operand_text))
            continue
        if op in (Op.LDARG, Op.STARG):
            getattr(builder, op.value)(operand_text if not operand_text.isdigit()
                                       else int(operand_text))
            continue
        op, operand = _parse_operand(op, operand_text)
        builder.emit(op, operand)
    if builder is None:
        raise CliError("empty CIL source")
    return builder.build(verify=verify)


def format_cfg(method: MethodDef) -> str:
    """The method's basic-block graph as deterministic text (the
    ``--cfg`` rendering): blocks with pc ranges, handler/unreachable
    flags, and fall/branch/exception edges."""
    from repro.analysis.cfg import build_cfg  # lazy: keep cli→analysis soft

    return build_cfg(method).format()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: disassemble bundled benchmark methods."""
    import argparse
    import sys

    from repro.analysis.targets import BUNDLED, bundled_assembly

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli.disasm",
        description="Disassemble bundled benchmark CIL methods.",
    )
    parser.add_argument(
        "assembly",
        help=f"bundled assembly name ({', '.join(BUNDLED)})",
    )
    parser.add_argument(
        "method",
        nargs="?",
        help="qualified method name (Type::Method); default: all methods",
    )
    parser.add_argument(
        "--cfg",
        action="store_true",
        help="also print the basic-block graph of each method",
    )
    args = parser.parse_args(argv)

    try:
        assembly = bundled_assembly(args.assembly)
        if args.method is not None:
            methods = [assembly.find_method(args.method)]
        else:
            methods = [
                assembly.types[t].methods[m]
                for t in sorted(assembly.types)
                for m in sorted(assembly.types[t].methods)
            ]
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    chunks = []
    for method in methods:
        text = disassemble(method)
        if args.cfg:
            text += "\n\n" + format_cfg(method)
        chunks.append(text)
    print("\n\n".join(chunks))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
