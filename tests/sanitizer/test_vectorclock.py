"""Vector-clock algebra of the full-clock oracle: fork, join, and the
happened-before test."""

from tests.sanitizer.vectorclock import (
    fork_clock,
    happened_before,
    join_into,
    joined,
)


def test_fork_from_nothing_starts_at_one():
    clock = fork_clock(None, 7)
    assert clock == {7: 1}


def test_fork_copies_parent_and_ticks_child():
    parent = {1: 4, 2: 2}
    child = fork_clock(parent, 3)
    assert child == {1: 4, 2: 2, 3: 1}
    # The copy is independent of the parent.
    child[1] = 99
    assert parent[1] == 4


def test_join_into_takes_componentwise_max():
    clock = {1: 3, 2: 1}
    join_into(clock, {2: 5, 3: 2})
    assert clock == {1: 3, 2: 5, 3: 2}


def test_joined_leaves_operands_untouched():
    a = {1: 1}
    b = {2: 2}
    assert joined(a, b) == {1: 1, 2: 2}
    assert a == {1: 1} and b == {2: 2}


def test_happened_before_is_component_lookup():
    # An access by tid 4 at epoch 2 is ordered before any context whose
    # clock has seen tid 4 reach >= 2.
    assert happened_before(4, 2, {4: 2})
    assert happened_before(4, 2, {4: 7, 9: 1})
    assert not happened_before(4, 2, {4: 1})
    assert not happened_before(4, 2, {9: 10})


def test_fork_then_join_orders_both_ways():
    parent = fork_clock(None, 1)
    parent[1] = 5
    child = fork_clock(parent, 2)
    # Child sees everything the parent had done at the fork.
    assert happened_before(1, 5, child)
    # Parent has not seen the child's work until an explicit join.
    assert not happened_before(2, 1, parent)
    join_into(parent, child)
    assert happened_before(2, 1, parent)
