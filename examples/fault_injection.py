#!/usr/bin/env python3
"""Break the stack deterministically, then watch it recover.

Walks the three resilience stories from ``docs/robustness.md``, with
assertions on each so the script doubles as a CI smoke test:

1. **Faulted trace replay** — the Dmine workload on a disk that
   returns transient media errors; a :class:`repro.faults.RetryPolicy`
   absorbs every one and the obs trace attributes each
   ``fault.injected`` / ``retry.attempt`` to its layer.
2. **Degraded mirror** — one member of a RAID-1 pair dies mid-read;
   the array fails over, keeps serving, and resilvers the replacement.
3. **Webserver under connection drops** — server-side resets answered
   by client retries; every torn request lands in the errors gauge.

Everything is seed-driven: run it twice and the fault schedules,
metrics, and printed numbers are identical.

Usage::

    python examples/fault_injection.py [output-dir]
"""

import sys
from pathlib import Path

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    Retrier,
    RetryPolicy,
)
from repro.obs import Tracer, analyze, write_jsonl
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, MirroredArray
from repro.traces import ReplayConfig, TraceReplayer, generate_dmine
from repro.units import MiB
from repro.webserver import HostConfig, WebServerHost


def faulted_replay(out_dir: Path) -> None:
    # 1. Replay Dmine against a disk that throws transient media
    #    errors and occasionally runs slow.  The retry policy turns
    #    both into latency instead of failure.
    tracer = Tracer()
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(kind="disk.media_error", target="local-disk",
                  probability=0.03),
        FaultSpec(kind="disk.slow", target="local-disk",
                  probability=0.10, slow_factor=4.0),
    ))
    header, records = generate_dmine(dataset_size=8 * MiB, passes=1)
    cfg = ReplayConfig(warmup=False, file_size=32 * MiB, tracer=tracer,
                       fault_plan=plan, retry=RetryPolicy(max_attempts=5))
    result = TraceReplayer(cfg).replay(header, records, "faulted-dmine")

    print("1. faulted trace replay")
    print(f"   faults injected:   {result.faults_injected}")
    print(f"   retries:           {result.retries} "
          f"(exhausted: {result.retries_exhausted})")
    print(f"   total time:        {result.total_time:.3f}s simulated")
    assert result.faults_injected > 0, "the plan should have fired"
    assert result.retries > 0, "media errors should have forced retries"
    assert result.retries_exhausted == 0, "the budget should suffice"

    jsonl = out_dir / "faulted_dmine.jsonl"
    write_jsonl(str(jsonl), tracer)
    instants = analyze(tracer.events).instant_summary()
    for name in ("fault.injected", "retry.attempt"):
        row = instants[name]
        layers = " ".join(f"{k}x{v}" for k, v in sorted(row["layers"].items()))
        print(f"   {name:<16} {row['count']:>3}  ({layers})")
    print(f"   trace written to {jsonl} "
          f"(try: python -m repro.obs report {jsonl})")


def degraded_mirror() -> None:
    # 2. A two-way mirror loses a member at t=0; the drive is swapped
    #    at t=5 and the array rebuilds it from the survivor.
    engine = Engine()
    plan = FaultPlan(seed=23, specs=(
        FaultSpec(kind="disk.fail", target="m1", end=5.0),
    ))
    injector = FaultInjector(engine, plan)
    geo = DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40)
    disks = [Disk(engine, geometry=geo, name=f"m{i}", injector=injector)
             for i in range(2)]
    array = MirroredArray(engine, disks)

    def workload():
        for i in range(60):
            yield array.submit_range((i * 97) % (array.total_blocks - 8), 8)
        yield max(0.0, 6.0 - engine.now)
        copied = yield from array.rebuild(1)
        return copied

    copied = engine.run_process(workload())
    print("\n2. degraded mirror")
    print(f"   degraded reads:    {array.degraded_reads.value}")
    print(f"   failovers:         {array.failovers.value}")
    print(f"   rebuild copied:    {copied} blocks "
          f"(progress {array.rebuild_progress:.0%})")
    print(f"   in-sync members:   {sorted(array.in_sync_members())}")
    assert array.degraded_reads.value > 0, "reads should have run degraded"
    assert copied == geo.total_blocks, "rebuild should copy the full extent"
    assert not array.degraded and array.rebuild_progress == 1.0


def webserver_resets() -> None:
    # 3. A quarter of server-side sends are torn down mid-transfer;
    #    the client's retrier re-issues each request on a fresh
    #    connection until it lands.
    plan = FaultPlan(seed=77, specs=(
        FaultSpec(kind="net.drop", target="server", probability=0.25),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    client = host.client(retrier=Retrier(
        host.engine, RetryPolicy(max_attempts=6), category="client"))

    def driver():
        statuses = []
        for _ in range(12):
            response = yield from client.get("/images/photo2.jpg")
            statuses.append(response.status)
        return statuses

    statuses = host.engine.run_process(driver())
    print("\n3. webserver under connection drops")
    print(f"   requests:          {len(statuses)} (all "
          f"{statuses[0]}s: {all(s == 200 for s in statuses)})")
    print(f"   resets injected:   {host.injector.injected.value}")
    print(f"   client retries:    {client.retrier.retries.value}")
    print(f"   server failures:   {host.metrics.failures} "
          f"({dict(host.metrics.failure_reasons)})")
    assert all(s == 200 for s in statuses), "every request should recover"
    assert host.injector.injected.value > 0, "the plan should have fired"
    assert host.metrics.failures == host.injector.injected.value, \
        "every torn request must be accounted for"


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    faulted_replay(out_dir)
    degraded_mirror()
    webserver_resets()
    print("\nAll fault scenarios recovered.")


if __name__ == "__main__":
    target = (Path(sys.argv[1]) if len(sys.argv) > 1
              else Path("fault_injection_out"))
    main(target)
