"""Per-rep correctness checks: simulated digest, invariants, rep identity."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["IDENTITY_COUNTS", "digest", "expected_digest", "check_rep"]

#: Host-independent work counts every rep must repeat exactly: a rep
#: that reuses results from an earlier one does less work and fails.
IDENTITY_COUNTS = ("sim.events", "cli.instructions")

DIGESTS = Path(__file__).with_name("digests.json")


def digest(outcome: Dict[str, Any]) -> str:
    """Stable hash of a simulated outcome (floats at full precision)."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The recorded digest for ``workload`` at ``seed``, if any."""
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(seed))


def check_rep(outcome: Dict[str, Any], violations: List[str],
              expected: Optional[str], counts: Dict[str, float],
              first_counts: Optional[Dict[str, float]]) -> List[str]:
    """Why one rep fails (empty when it passes).

    ``violations`` are the workload's invariant breaks for ``outcome``;
    ``expected`` is the recorded digest (``None`` on an unrecorded
    seed, where only the invariants and rep identity are checked);
    ``first_counts`` are the first rep's work counts (``None`` for the
    first rep itself).
    """
    reasons = list(violations)
    if expected is not None and digest(outcome) != expected:
        reasons.append(f"digest {digest(outcome)} != recorded {expected}")
    if first_counts is not None:
        for key in IDENTITY_COUNTS:
            if counts[key] != first_counts[key]:
                reasons.append(f"{key} {counts[key]} != first rep's "
                               f"{first_counts[key]}")
    return reasons
