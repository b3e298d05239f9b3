"""Cross-process experiment execution for ``python -m repro.bench --jobs N``.

Every experiment builds its own :class:`~repro.sim.Engine` from scratch
and shares no state with its siblings, so the suite is embarrassingly
parallel.  Workers return each result as its ``to_dict()`` form plus
the wall seconds spent; the parent reconstructs
:class:`~repro.bench.report.ExperimentResult` objects and reorders them
to match the requested sequence, so rendered reports and JSON dumps
are byte-identical to a serial run (simulated metrics are
deterministic; only ``wall_seconds`` varies run to run).

``--profile DIR`` works in both modes: each experiment runs under
:mod:`cProfile` and dumps ``DIR/<exp_id>.pstats`` for
``python -m pstats`` / ``snakeviz``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

from repro.bench.report import ExperimentResult
from repro.errors import BenchmarkError

__all__ = ["run_one", "run_experiments_parallel"]


def run_one(
    exp_id: str, profile_dir: Optional[str] = None
) -> Tuple[str, dict, float]:
    """Run one experiment (optionally under cProfile); returns
    ``(exp_id, result.to_dict(), wall_seconds)``.

    Module-level so it pickles for ProcessPoolExecutor.  The experiment
    registry import stays inside the function: workers pay it once,
    and the parent does not need the registry loaded to schedule.
    """
    from repro.bench.experiments import run_experiment

    profiler = None
    if profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()  # det: allow - wall-time measurement is the point
    try:
        result = run_experiment(exp_id)
    finally:
        if profiler is not None:
            profiler.disable()
    elapsed = time.perf_counter() - t0  # det: allow - wall-time measurement
    if profiler is not None:
        os.makedirs(profile_dir, exist_ok=True)
        profiler.dump_stats(os.path.join(profile_dir, f"{exp_id}.pstats"))
    return exp_id, result.to_dict(), elapsed


def run_experiments_parallel(
    exp_ids: List[str],
    jobs: int,
    profile_dir: Optional[str] = None,
) -> List[Tuple[ExperimentResult, float]]:
    """Run ``exp_ids`` across ``jobs`` worker processes.

    Returns ``(result, wall_seconds)`` pairs in the order of
    ``exp_ids`` — results stream back in completion order but are
    reassembled, so downstream output matches a serial run exactly.
    """
    if jobs < 1:
        raise BenchmarkError(f"--jobs must be >= 1, got {jobs}")
    out: List[Tuple[ExperimentResult, float]] = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(exp_ids)) or 1) as pool:
        futures = [pool.submit(run_one, exp_id, profile_dir)
                   for exp_id in exp_ids]
        # The futures list is in request order; result() blocks per
        # future, so completion order never leaks into the output.
        for future in futures:
            _exp_id, payload, elapsed = future.result()
            out.append((ExperimentResult.from_dict(payload), elapsed))
    return out
