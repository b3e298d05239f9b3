"""Record the simulated-outcome digest of every workload on seeds 0..31.

Run from the repository root after a change that deliberately alters
the simulated results::

    python3 perfbench/record_digests.py

It rewrites ``perfbench/digests.json``; the benchmark then checks every
rep on these seeds against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import DIGESTS, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(32)


def main() -> int:
    recorded = {}
    for name, workload in WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            outcome = workload.rep(workload.inputs(seed))
            broken = workload.violations(outcome)
            if broken:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(broken)}")
            recorded[name][str(seed)] = digest(outcome)
        print(f"{name}: {len(SEEDS)} seeds recorded")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
