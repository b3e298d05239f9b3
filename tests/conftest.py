"""Suite-wide fixtures.

``REPRO_SANITIZE=1`` runs every test under its own happens-before race
detector (``repro.sanitizer``) and fails the test if any annotated
shared access raced.  Tests that *construct* races on purpose do so
inside a nested ``sanitized()`` block, which shadows the suite
detector for its duration — so the gate stays clean while the
deliberate races stay observable.
"""

import os
from contextlib import contextmanager

import pytest

_SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"


@pytest.fixture(autouse=_SANITIZE)
def _race_detector():
    from repro.sanitizer import sanitized

    with sanitized() as det:
        yield det
    assert det.races == [], det.format_report()


@contextmanager
def detector_or_none(enabled: bool):
    """A fresh race detector, or none at all (shadowing the suite's
    detector under ``REPRO_SANITIZE=1``, for schedules that race on
    purpose)."""
    from repro.sanitizer import runtime, sanitized

    if enabled:
        with sanitized() as det:
            yield det
        return
    prev, runtime.active = runtime.active, None
    try:
        yield None
    finally:
        runtime.active = prev
