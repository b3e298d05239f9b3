"""Command-line web-server load driver::

    python -m repro.webserver --clients 8 --requests 20
    python -m repro.webserver --profile commercial --get-fraction 0.5
    python -m repro.webserver --architecture eventloop \
        --telemetry-out series.jsonl

``--telemetry-out`` samples the server's metrics registry on simulated
time into a windowed series file (render with ``python -m repro.obs
timeline``); sampling never changes the simulated results.

A setting the configuration rejects (``--clients 0``, a negative think
time, ...) is a usage error: one ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse

from repro.cli.profiles import VM_PROFILES
from repro.errors import ReproError
from repro.webserver import (
    HostConfig,
    WebServerHost,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.webserver.host import SERVER_ARCHITECTURES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.webserver")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=10,
                        help="requests per client")
    parser.add_argument("--get-fraction", type=float, default=0.8)
    parser.add_argument("--think-ms", type=float, default=10.0,
                        help="mean client think time (ms)")
    parser.add_argument("--profile", choices=sorted(VM_PROFILES),
                        default="sscli", help="CLI VM cost profile")
    parser.add_argument("--architecture",
                        choices=sorted(SERVER_ARCHITECTURES),
                        default="thread",
                        help="server concurrency architecture "
                        "(default thread)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--telemetry-out", dest="telemetry_out",
                        metavar="PATH",
                        help="write windowed metric series sampled on "
                        "simulated time as deterministic JSONL")
    parser.add_argument("--telemetry-interval-ms",
                        dest="telemetry_interval_ms",
                        type=float, default=100.0, metavar="MS",
                        help="telemetry sampling interval in simulated "
                        "milliseconds (default 100)")
    args = parser.parse_args(argv)

    from repro.obs import Telemetry, TelemetryConfig

    try:
        host_config = HostConfig(vm_profile=args.profile,
                                 architecture=args.architecture)
        workload_config = WorkloadConfig(
            num_clients=args.clients,
            requests_per_client=args.requests,
            get_fraction=args.get_fraction,
            mean_think_time=args.think_ms * 1e-3,
            seed=args.seed,
        )
        telemetry_config = TelemetryConfig(
            interval=args.telemetry_interval_ms * 1e-3)
    except ReproError as exc:
        parser.error(str(exc))

    host = WebServerHost(host_config)
    telemetry = None
    sampler = None
    if args.telemetry_out:
        telemetry = Telemetry(telemetry_config)
        sampler = telemetry.attach(
            host.engine, architecture=args.architecture, node="server-0")
    result = WorkloadGenerator(host, workload_config).run()
    if sampler is not None:
        sampler.finish()

    print(f"vm profile      : {args.profile}")
    print(f"clients         : {args.clients} x {args.requests} requests")
    print(f"served          : {result.count} ({result.error_count} errors)")
    print(f"threads spawned : {result.threads_spawned}")
    print(f"duration        : {result.duration:.4f} simulated s")
    print(f"throughput      : {result.throughput:.1f} req/s")
    print(f"latency mean    : {result.mean_latency_ms:.3f} ms")
    print(f"latency p95     : {result.latencies.percentile(95) * 1e3:.3f} ms")
    print(f"latency max     : {result.latencies.maximum * 1e3:.3f} ms")
    reads = host.metrics.read_times
    if reads.count:
        print(f"server read mean: {reads.mean * 1e3:.4f} ms over {reads.count} GETs")
    writes = host.metrics.write_times
    if writes.count:
        print(f"server write mean: {writes.mean * 1e3:.4f} ms over {writes.count} POSTs")
    if telemetry is not None:
        n = telemetry.write(args.telemetry_out)
        print(f"telemetry       : {n} records -> {args.telemetry_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
