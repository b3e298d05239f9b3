"""Fault-injection experiments (the robustness extension).

* ``ext_faults``   — the Dmine trace replayed fault-free, under
  transient media errors absorbed by retries, and on a degraded
  (slowed) disk: what resilience costs and what it buys.
* ``ext_degraded`` — a mirrored array read workload healthy, with one
  failed member (degraded reads), and through a rebuild.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.report import ExperimentResult
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, MirroredArray
from repro.traces import IOOp, ReplayConfig, TraceReplayer, generate_dmine
from repro.units import MiB, to_ms

__all__ = ["run_ext_faults", "run_ext_degraded"]

#: Simulated-time window in which the telemetry showcase scenario arms
#: its media errors, and the sampling interval that resolves it.  The
#: dmine replay runs ~0.2 simulated seconds, so [80ms, 140ms) sits
#: mid-run with clean windows on both sides at 10 ms sampling.
_TELEMETRY_FAULT_WINDOW = (0.08, 0.14)
_TELEMETRY_INTERVAL = 0.01


def _fault_window_rules():
    """SLO rules for the telemetry fault-window scenario.

    Local import so the experiment stays importable without the
    telemetry subsystem in play (and costs nothing when unused).
    """
    from repro.obs.slo import AlertRule, SloSpec

    return (
        # Burn-rate alert on the retry channel: every retried read is
        # budget spend against a 95%-first-attempt-success objective.
        AlertRule(
            SloSpec("retry-burn", "error_budget", "retry.retries",
                    objective=0.95, total_metric="retry.attempts",
                    burn_threshold=1.0),
            for_windows=1, clear_windows=2,
        ),
        # Windowed availability of the same channel.
        AlertRule(
            SloSpec("read-availability", "availability", "retry.retries",
                    objective=0.5, total_metric="retry.attempts"),
            for_windows=1, clear_windows=2,
        ),
    )


def _run_telemetry_fault_window(seed: int, telemetry) -> None:
    """Extra telemetry-only replay: a windowed fault burst + repair.

    This scenario exists purely for the time axis — its results feed
    the telemetry stream, never the experiment rows (the committed
    ``results/full_report.json`` rows must stay byte-identical).  Media
    errors are armed only inside :data:`_TELEMETRY_FAULT_WINDOW`, so
    the series shows clean windows, a degraded burst with a firing
    alert, and recovery after the window closes.
    """
    start, end = _TELEMETRY_FAULT_WINDOW
    header, records = generate_dmine(dataset_size=8 * MiB, passes=1)
    cfg = ReplayConfig(
        warmup=False, file_size=32 * MiB,
        fault_plan=FaultPlan(seed=seed, specs=(
            FaultSpec(kind="disk.media_error", target="local-disk",
                      probability=0.6, start=start, end=end),
        )),
        retry=RetryPolicy(max_attempts=5),
        telemetry=telemetry,
        telemetry_labels=(("scenario", "fault-window"),),
        telemetry_rules=_fault_window_rules(),
        telemetry_interval=_TELEMETRY_INTERVAL,
    )
    TraceReplayer(cfg).replay(header, records, "faults-fault-window")


def run_ext_faults(seed: int = 11,
                   telemetry: Optional[object] = None) -> ExperimentResult:
    """Faulted trace replay: transient faults vs. retry resilience.

    ``telemetry`` (a :class:`repro.obs.Telemetry` hub) additionally
    samples every scenario into windowed series and runs one extra
    telemetry-only scenario with a mid-run fault burst (see
    :func:`_run_telemetry_fault_window`); the experiment rows are
    byte-identical either way.
    """
    scenarios = (
        ("fault-free", None),
        ("media-errors+retry", FaultPlan(seed=seed, specs=(
            FaultSpec(kind="disk.media_error", target="local-disk",
                      probability=0.03),
        ))),
        ("slow-disk+retry", FaultPlan(seed=seed, specs=(
            FaultSpec(kind="disk.slow", target="local-disk",
                      probability=0.25, slow_factor=6.0),
        ))),
    )
    policy = RetryPolicy(max_attempts=5)
    rows = []
    for name, plan in scenarios:
        header, records = generate_dmine(dataset_size=8 * MiB, passes=1)
        cfg = ReplayConfig(
            warmup=False, file_size=32 * MiB,
            fault_plan=plan, retry=policy if plan is not None else None,
            telemetry=telemetry,
            telemetry_labels=(("scenario", name),),
        )
        result = TraceReplayer(cfg).replay(header, records, f"faults-{name}")
        rows.append(
            (
                name,
                result.faults_injected,
                result.retries,
                result.retries_exhausted,
                round(result.timings.mean_ms(IOOp.READ), 4),
                round(result.total_time, 4),
            )
        )
    notes = [
        "transient media errors are absorbed entirely by the retry "
        "policy (zero exhausted budgets): the workload completes with "
        "per-read latency inflated only on the faulted reads",
        "a slowed disk injects no errors, so retries stay at zero and "
        "the cost appears purely as elongated service times",
    ]
    if telemetry is not None:
        _run_telemetry_fault_window(seed, telemetry)
    return ExperimentResult(
        exp_id="ext_faults",
        title="Extension: trace replay under deterministic fault injection",
        columns=("scenario", "faults_injected", "retries",
                 "retries_exhausted", "mean_read_ms", "total_time_s"),
        rows=rows,
        notes=notes,
    )


def run_ext_degraded(nreads: int = 120, seed: int = 23,
                     telemetry: Optional[object] = None) -> ExperimentResult:
    """Mirrored-array reads: healthy, degraded, and rebuilt.

    With a ``telemetry`` hub, each scenario's engine is sampled into
    windowed series labeled ``scenario=`` — the degraded-read and
    failover counters become visible as trajectories.
    """
    import numpy as np

    geo = DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40)
    scenarios = (
        ("healthy", None, False),
        # m1 fails at t=0 and stays down: every read it would have
        # served fails over to m0.
        ("degraded", FaultPlan(seed=seed, specs=(
            FaultSpec(kind="disk.fail", target="m1"),
        )), False),
        # m1 fails and is swapped at t=5; after the workload the array
        # rebuilds the replacement from the surviving mirror.
        ("rebuilt", FaultPlan(seed=seed, specs=(
            FaultSpec(kind="disk.fail", target="m1", end=5.0),
        )), True),
    )
    rows = []
    for name, plan, do_rebuild in scenarios:
        engine = Engine()
        injector = None
        if plan is not None:
            from repro.faults import FaultInjector

            injector = FaultInjector(engine, plan)
        disks = [
            Disk(engine, geometry=geo, name=f"m{i}", injector=injector)
            for i in range(2)
        ]
        array = MirroredArray(engine, disks)
        rng = np.random.default_rng(seed)
        lbas = [int(x) for x in
                rng.integers(0, array.total_blocks - 8, size=nreads)]

        read_phase_end = [0.0]

        def workload():
            for lba in lbas:
                yield array.submit_range(lba, 8)
            read_phase_end[0] = engine.now
            if do_rebuild:
                # Wait out the drive swap (the fault window ends at
                # t=5), then resilver the replacement.
                yield max(0.0, 6.0 - engine.now)
                copied = yield from array.rebuild(1)
                return copied
            return 0

        sampler = None
        if telemetry is not None:
            sampler = telemetry.attach(engine, scenario=name)
        copied = engine.run_process(workload())
        if sampler is not None:
            sampler.finish()
        rows.append(
            (
                name,
                nreads,
                array.degraded_reads.value,
                array.failovers.value,
                round(to_ms(read_phase_end[0] / nreads), 3),
                copied,
                sorted(array.in_sync_members()),
            )
        )
    notes = [
        "with one mirror down the array keeps serving every read from "
        "the survivor — availability costs the loss of arm parallelism, "
        "visible as a higher per-read time",
        "after the drive swap, rebuild copies the full extent from the "
        "surviving mirror and returns the array to two in-sync members",
    ]
    return ExperimentResult(
        exp_id="ext_degraded",
        title="Extension: mirrored array under whole-disk failure",
        columns=("scenario", "reads", "degraded_reads", "failovers",
                 "mean_read_ms", "rebuild_blocks", "in_sync"),
        rows=rows,
        notes=notes,
    )
