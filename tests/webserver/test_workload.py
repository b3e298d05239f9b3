"""Workload generation: the closed loop, retry/abort accounting."""

import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.webserver import (
    HostConfig,
    WebServerHost,
    WorkloadConfig,
    WorkloadGenerator,
)


@pytest.mark.parametrize("architecture", ["thread", "eventloop"])
def test_closed_loop_issues_every_request(architecture):
    host = WebServerHost(HostConfig(architecture=architecture))
    result = WorkloadGenerator(host, WorkloadConfig(
        num_clients=3, requests_per_client=4, seed=5)).run()
    assert result.count == 12
    assert result.attempted == 12
    assert result.aborted == 0
    assert result.architecture == architecture
    assert result.connections_accepted == 12
    if architecture == "thread":
        assert result.threads_spawned == 12
        assert result.peak_processes >= 2
    else:
        # One loop process serves every connection; no worker threads.
        assert result.threads_spawned == 0
        assert result.peak_processes == 1
    assert result.throughput > 0
    assert result.latencies.count == 12


def test_closed_loop_is_deterministic():
    def run_once():
        host = WebServerHost(HostConfig())
        result = WorkloadGenerator(host, WorkloadConfig(
            num_clients=4, requests_per_client=5, seed=7)).run()
        return ([(r.method, r.path, r.status, r.elapsed) for r in result.results],
                result.duration)

    assert run_once() == run_once()


def test_client_retry_recovers_dropped_connections():
    plan = FaultPlan(seed=77, specs=(
        FaultSpec(kind="net.drop", target="server", probability=0.2),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    result = WorkloadGenerator(host, WorkloadConfig(
        num_clients=4, requests_per_client=8, seed=77,
        retry=RetryPolicy(max_attempts=6))).run()
    assert host.injector.injected.value > 0
    assert result.retries > 0
    assert result.recovered > 0
    assert result.aborted == 0
    assert result.count == 32
    # Latency is each request's final attempt, backoff excluded.
    assert list(result.latencies.values) == [r.elapsed for r in result.results]


def test_aborts_counted_not_raised_without_retry():
    # Every connection's first receive is dropped and there is no
    # retry budget: every request aborts, none crash the workload.
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(kind="net.drop", target="server", probability=1.0),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    result = WorkloadGenerator(host, WorkloadConfig(
        num_clients=2, requests_per_client=3, seed=5)).run()
    assert result.count == 0
    assert result.aborted == 6
    assert result.attempted == 6
    assert set(result.abort_reasons) == {"ConnectionReset"}


def test_exhausted_retries_count_as_aborts():
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(kind="net.drop", target="server", probability=1.0),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    result = WorkloadGenerator(host, WorkloadConfig(
        num_clients=2, requests_per_client=2, seed=5,
        retry=RetryPolicy(max_attempts=3))).run()
    assert result.count == 0
    assert result.aborted == 4
    assert result.retries > 0
    assert set(result.abort_reasons) == {"RetryExhausted"}


def test_aborted_requests_excluded_from_throughput():
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(kind="net.drop", target="server", probability=1.0),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    result = WorkloadGenerator(host, WorkloadConfig(
        num_clients=2, requests_per_client=2, seed=5)).run()
    assert result.throughput == 0.0
    assert result.latencies.count == 0
