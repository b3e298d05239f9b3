"""Differential fuzzing of the CIL interpreter.

Hypothesis generates random arithmetic expression trees; each tree is
compiled to a CIL method (post-order emission onto the evaluation
stack) and executed on the VM; the result must equal a direct Python
evaluation with C# integer semantics.  This catches stack-discipline,
operator-semantics and verifier bugs that example-based tests miss.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import CliRuntime, MethodBuilder
from repro.cli.interpreter import _truncdiv, _truncrem
from repro.errors import ExecutionFault
from repro.sim import Engine


# --- expression tree -------------------------------------------------------

class Leaf:
    def __init__(self, value):
        self.value = value


class Node:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Cond:
    """Ternary: ``then_e if cond_e != 0 else else_e`` — emitted as real
    branches with a join, stressing the verifier's depth analysis."""

    def __init__(self, cond, then_e, else_e):
        self.cond = cond
        self.then_e = then_e
        self.else_e = else_e


_OPS = ("add", "sub", "mul", "div", "rem", "and_", "or_", "xor")


def expressions(depth=4):
    leaf = st.builds(Leaf, st.integers(min_value=-1000, max_value=1000))
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Node, st.sampled_from(_OPS), children, children),
            st.builds(Cond, children, children, children),
        ),
        max_leaves=16,
    )


class _Divide(Exception):
    pass


def evaluate(expr):
    """Python oracle with C# semantics; raises _Divide on /0."""
    if isinstance(expr, Leaf):
        return expr.value
    if isinstance(expr, Cond):
        # Both arms are evaluated for /0 purposes only via the taken
        # branch — the VM likewise only executes the taken arm.
        return evaluate(expr.then_e) if evaluate(expr.cond) else evaluate(expr.else_e)
    a = evaluate(expr.left)
    b = evaluate(expr.right)
    if expr.op == "add":
        return a + b
    if expr.op == "sub":
        return a - b
    if expr.op == "mul":
        return a * b
    if expr.op == "div":
        if b == 0:
            raise _Divide
        return _truncdiv(a, b)
    if expr.op == "rem":
        if b == 0:
            raise _Divide
        return _truncrem(a, b)
    if expr.op == "and_":
        return a & b
    if expr.op == "or_":
        return a | b
    return a ^ b


_label_counter = [0]


def _fresh(prefix):
    _label_counter[0] += 1
    return f"{prefix}{_label_counter[0]}"


def emit(builder, expr):
    """Post-order emission: operands on the stack, then the operator.
    Conditionals become brfalse/br with a depth-1 join point."""
    if isinstance(expr, Leaf):
        builder.ldc(expr.value)
        return
    if isinstance(expr, Cond):
        else_label = _fresh("else")
        join_label = _fresh("join")
        emit(builder, expr.cond)
        builder.brfalse(else_label)
        emit(builder, expr.then_e)
        builder.br(join_label)
        builder.label(else_label)
        emit(builder, expr.else_e)
        builder.label(join_label)
        return
    emit(builder, expr.left)
    emit(builder, expr.right)
    getattr(builder, expr.op)()


def run_on_vm(expr):
    builder = MethodBuilder("fuzzed", returns=True)
    emit(builder, expr)
    method = builder.ret().build()
    runtime = CliRuntime(Engine())
    return runtime.engine.run_process(runtime.invoke(method)), method


@settings(max_examples=150, deadline=None)
@given(expressions())
# A join leaves (s0 + s1) fused at depth 1; the non-literal div then
# writes s1.
@example(Node("add", Node("add", Leaf(0), Cond(Leaf(0), Leaf(0), Leaf(0))),
              Node("div", Leaf(1), Node("div", Leaf(1), Leaf(1)))))
def test_vm_matches_python_oracle(expr):
    try:
        expected = evaluate(expr)
    except _Divide:
        with pytest.raises(ExecutionFault, match="DivideByZero"):
            run_on_vm(expr)
        return
    result, method = run_on_vm(expr)
    assert result == expected
    # The verifier's max_stack must bound the real evaluation depth.
    assert method.max_stack is not None and method.max_stack >= 1


@settings(max_examples=50, deadline=None)
@given(expressions())
def test_vm_deterministic_across_runs(expr):
    try:
        evaluate(expr)
    except _Divide:
        return
    a, _ = run_on_vm(expr)
    b, _ = run_on_vm(expr)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(expressions(), st.integers(min_value=-50, max_value=50))
def test_expression_plus_argument(expr, x):
    """Wrap the fuzzed expression with an argument addition, checking
    argument plumbing under arbitrary stack pressure."""
    try:
        expected = evaluate(expr) + x
    except _Divide:
        return
    builder = MethodBuilder("fuzzed_arg", returns=True).arg("x")
    emit(builder, expr)
    method = builder.ldarg("x").add().ret().build()
    runtime = CliRuntime(Engine())
    assert runtime.engine.run_process(runtime.invoke(method, [x])) == expected
