"""The stale-read-across-wait AST lint, rule by rule."""

import textwrap
from pathlib import Path

from repro.analysis.staleread import (
    PRAGMA,
    SHARED_ATTRS,
    lint_source,
)

PATH = Path("mod.py")


def lint(code):
    return lint_source(textwrap.dedent(code), PATH)


# -- R1: linear stale read --------------------------------------------------

def test_r1_use_across_a_wait_is_flagged():
    findings = lint("""
        def loop(listener, eng):
            live = listener.listening
            yield eng.timeout(1.0)
            return live
        """)
    assert [f.rule for f in findings] == ["R1:linear"]
    f = findings[0]
    assert (f.local, f.shared_expr) == ("live", "listener.listening")
    assert f.assign_line == 3 and f.line == 5


def test_r1_wait_embedded_in_assignment_rhs_counts():
    # ``x = yield from f()`` — the wait IS the RHS; a pre-wait shared
    # snapshot used after it must still be flagged (the fixture-A bug).
    findings = lint("""
        def loop(listener, handled):
            live = listener.listening
            sock = yield from listener.accept_socket()
            if not live:
                handled.append(sock)
        """)
    assert [(f.rule, f.local) for f in findings] == [("R1:linear", "live")]


def test_use_before_the_wait_is_clean():
    assert lint("""
        def loop(listener, eng):
            live = listener.listening
            if live:
                yield eng.timeout(1.0)
        """) == []


def test_reread_after_the_wait_is_clean():
    assert lint("""
        def loop(listener, eng):
            live = listener.listening
            yield eng.timeout(1.0)
            live = listener.listening
            return live
        """) == []


# -- R2 / R3: loop shapes ---------------------------------------------------

def test_r2_refresh_below_use_inside_yielding_loop():
    findings = lint("""
        def drain(node, eng):
            backlog = node.pending
            while True:
                if backlog:
                    yield eng.timeout(1.0)
                backlog = node.pending
        """)
    assert ("R2:loop-back-edge", "backlog") in [
        (f.rule, f.local) for f in findings]


def test_r3_pre_loop_snapshot_never_refreshed():
    findings = lint("""
        def drive(client, eng, key):
            targets = client.balancer.write_targets(key)
            for name in list(targets):
                yield eng.timeout(1.0)
                use(name)
        """)
    assert [(f.rule, f.local) for f in findings] == [
        ("R3:pre-loop-snapshot", "targets")]
    assert findings[0].shared_expr == "client.balancer.write_targets"


def test_loop_without_wait_is_clean():
    assert lint("""
        def walk(client, eng, key):
            targets = client.balancer.write_targets(key)
            for name in list(targets):
                use(name)
            yield eng.timeout(1.0)
        """) == []


# -- scope and ownership rules ----------------------------------------------

def test_self_attributes_are_not_shared():
    assert lint("""
        def poll(self, eng):
            mine = self.pending
            yield eng.timeout(1.0)
            return mine
        """) == []


def test_non_shared_attribute_is_clean():
    assert lint("""
        def poll(node, eng):
            label = node.display_name
            yield eng.timeout(1.0)
            return label
        """) == []


def test_functions_without_waits_are_skipped():
    assert lint("""
        def check(listener):
            live = listener.listening
            return live
        """) == []


def test_nested_function_is_its_own_scope():
    # The outer function yields but the stale pattern lives wholly in
    # the nested (non-yielding) closure, which cannot go stale.
    assert lint("""
        def outer(listener, eng):
            def inner():
                live = listener.listening
                return live
            yield eng.timeout(1.0)
            return inner()
        """) == []


# -- pragma suppression -----------------------------------------------------

def test_pragma_on_use_line_suppresses():
    assert lint("""
        def loop(listener, eng):
            live = listener.listening
            yield eng.timeout(1.0)
            return live  # sanitizer: allow
        """) == []


def test_pragma_on_assign_line_suppresses_all_uses():
    assert lint("""
        def loop(listener, eng):
            live = listener.listening  # sanitizer: allow
            yield eng.timeout(1.0)
            if live:
                return live
        """) == []


# -- robustness -------------------------------------------------------------

def test_syntax_error_becomes_a_parse_finding():
    findings = lint_source("def broken(:\n", PATH)
    assert [f.rule for f in findings] == ["parse"]
    text = str(findings[0])
    assert text == f"{PATH}:1:0: cannot parse: {findings[0].error}"
    assert findings[0].error and "caches shared state" not in text
    assert findings[0].to_dict()["message"] == (
        f"cannot parse: {findings[0].error}")


def test_finding_to_dict_round_trip():
    findings = lint("""
        def loop(listener, eng):
            live = listener.listening
            yield eng.timeout(1.0)
            return live
        """)
    payload = findings[0].to_dict()
    assert payload["path"] == "mod.py"
    assert payload["rule"] == "R1:linear"
    assert PRAGMA in payload["message"]


def test_shared_attr_set_covers_the_pr8_surfaces():
    assert {"listening", "write_targets", "is_admitted"} <= SHARED_ATTRS
