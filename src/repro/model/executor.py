"""Machine executor: runs a modeled application on simulated hardware.

Each program becomes a simulation process stepping through its phase
sequence; within a phase:

1. the **I/O burst** reads its demand (burst seconds × the baseline
   device rate) from the program's own region of a striped disk array,
   in large sequential chunks — raw device access, as out-of-core
   codes "explicitly handle data movement in and out of core memory
   avoiding the use of virtual memory" (paper §1);
2. the **computation burst** splits its work evenly over the machine's
   CPUs, contending with the other programs on a shared CPU pool;
3. the **communication burst** (if any) pushes its demand through a
   shared interconnect channel.

The result records per-program busy times and the application
makespan; Figures 2–5 are all derived from these runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ModelError
from repro.model.application import Application
from repro.model.program import Program
from repro.sim import Channel, Engine, Resource
from repro.storage import Disk, DiskGeometry, DiskParams, StripedArray
from repro.units import KiB, MB, MiB

__all__ = [
    "MachineConfig",
    "ProgramResult",
    "ExecutionResult",
    "ApplicationExecutor",
    "SharedChannelFabric",
]


class SharedChannelFabric:
    """The default interconnect: one shared channel (a cluster switch
    uplink) that every node's communication bursts serialize on."""

    def __init__(self, engine: Engine, machine: "MachineConfig") -> None:
        self.machine = machine
        self.channel = Channel(
            engine, machine.net_bandwidth, machine.net_latency, name="interconnect"
        )

    def transmit(self, node_index: int, nbytes: int):
        """Generator: push ``nbytes`` through the shared link in
        ``comm_chunk`` pieces."""
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.machine.comm_chunk, remaining)
            yield from self.channel.send(chunk)
            remaining -= chunk


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine the application runs on.

    ``io_rate`` converts model I/O-burst seconds into bytes: one
    second of I/O demand equals one second of a single baseline disk's
    streaming throughput.  More disks then genuinely shorten bursts;
    fewer leave them at model duration.
    """

    cpus: int = 1                    # CPUs per node (each program owns a node)
    disks: int = 1                   # disks per node (local striped scratch)
    stripe_unit: int = 128           # blocks (64 KiB at 512 B blocks)
    io_chunk: int = 4 * MiB          # bytes per device request
    io_rate: float = 50.0 * MB       # bytes/s of demand per burst-second
    net_bandwidth: float = 100.0 * MB
    net_latency: float = 50e-6
    comm_chunk: int = 256 * KiB
    disk_geometry: DiskGeometry = field(default_factory=DiskGeometry)
    disk_params: DiskParams = field(default_factory=DiskParams)
    # Optional fabric factory: (engine, nnodes, config) -> fabric with a
    # ``transmit(node_index, nbytes)`` coroutine.  None = one shared
    # interconnect channel (the default cluster switch).  See
    # repro.model.distributed for point-to-point topologies.
    fabric_factory: Optional[object] = None

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise ModelError(f"cpus must be >= 1, got {self.cpus}")
        if self.disks < 1:
            raise ModelError(f"disks must be >= 1, got {self.disks}")
        if self.io_chunk < 1 or self.comm_chunk < 1:
            raise ModelError("chunk sizes must be >= 1 byte")
        if self.io_rate <= 0 or self.net_bandwidth <= 0:
            raise ModelError("rates must be positive")


@dataclass
class ProgramResult:
    """Measured outcome for one program."""

    name: str
    finish_time: float = 0.0
    cpu_busy: float = 0.0
    io_busy: float = 0.0
    comm_busy: float = 0.0
    phases_run: int = 0
    bytes_read: int = 0
    bytes_sent: int = 0

    @property
    def total_busy(self) -> float:
        return self.cpu_busy + self.io_busy + self.comm_busy

    @property
    def io_percentage(self) -> float:
        return 100.0 * self.io_busy / self.total_busy if self.total_busy else 0.0

    @property
    def cpu_percentage(self) -> float:
        return 100.0 * self.cpu_busy / self.total_busy if self.total_busy else 0.0


@dataclass
class ExecutionResult:
    """Outcome of one application run."""

    application: str
    machine: MachineConfig
    makespan: float
    programs: Dict[str, ProgramResult]

    @property
    def cpu_busy(self) -> float:
        """Aggregate CPU time across programs (Figure 2's app bar)."""
        return sum(p.cpu_busy for p in self.programs.values())

    @property
    def io_busy(self) -> float:
        return sum(p.io_busy for p in self.programs.values())

    @property
    def comm_busy(self) -> float:
        return sum(p.comm_busy for p in self.programs.values())

    @property
    def total_busy(self) -> float:
        return self.cpu_busy + self.io_busy + self.comm_busy

    @property
    def io_percentage(self) -> float:
        return 100.0 * self.io_busy / self.total_busy if self.total_busy else 0.0

    @property
    def cpu_percentage(self) -> float:
        return 100.0 * self.cpu_busy / self.total_busy if self.total_busy else 0.0


class ApplicationExecutor:
    """Runs one :class:`Application` on one :class:`MachineConfig`.

    Each call to :meth:`run` builds a fresh engine and hardware, so
    runs are independent and deterministic.
    """

    def __init__(self, application: Application, machine: Optional[MachineConfig] = None) -> None:
        self.application = application
        self.machine = machine or MachineConfig()

    def run(self) -> ExecutionResult:
        m = self.machine
        engine = Engine()
        nprogs = len(self.application.programs)
        if m.fabric_factory is not None:
            fabric = m.fabric_factory(engine, nprogs, m)
        else:
            fabric = SharedChannelFabric(engine, m)

        results = {p.name: ProgramResult(p.name) for p in self.application.programs}

        for idx, program in enumerate(self.application.programs):
            # One node per program: private CPUs and private local
            # striped scratch disks; only the interconnect is shared.
            # This matches the model's framing ("a program ... running
            # on a node") and the paper's speedup reasoning, where the
            # application time is dominated by the longest program.
            node_disks = [
                Disk(
                    engine,
                    geometry=m.disk_geometry,
                    params=m.disk_params,
                    name=f"node{idx}.disk{i}",
                )
                for i in range(m.disks)
            ]
            array = StripedArray(engine, node_disks, stripe_unit=m.stripe_unit)
            cpu_pool = Resource(engine, capacity=m.cpus, name=f"cpus:{program.name}")
            engine.process(
                self._run_program(
                    engine, program, results[program.name],
                    array, cpu_pool, fabric,
                    node_index=idx,
                    region_start=0,
                    region_blocks=array.total_blocks,
                ),
                name=f"program:{program.name}",
            )
        makespan = engine.run()
        return ExecutionResult(
            application=self.application.name,
            machine=m,
            makespan=makespan,
            programs=results,
        )

    # -- one program ------------------------------------------------------------

    def _run_program(
        self,
        engine: Engine,
        program: Program,
        result: ProgramResult,
        array: StripedArray,
        cpu_pool: Resource,
        fabric,
        node_index: int,
        region_start: int,
        region_blocks: int,
    ):
        m = self.machine
        block_size = array.block_size
        chunk_blocks = max(1, m.io_chunk // block_size)
        cursor = 0  # block offset within the region, wraps around

        for phase in program.phases():
            # ---- I/O burst (first, per the paper's phase structure) ----
            io_bytes = int(phase.io_time * m.io_rate)
            if io_bytes > 0:
                t0 = engine.now
                remaining_blocks = max(1, io_bytes // block_size)
                while remaining_blocks > 0:
                    run_len = min(chunk_blocks, remaining_blocks, region_blocks - cursor)
                    done = array.submit_range(region_start + cursor, run_len)
                    yield done
                    cursor += run_len
                    if cursor >= region_blocks:
                        cursor = 0
                    remaining_blocks -= run_len
                result.io_busy += engine.now - t0
                result.bytes_read += io_bytes

            # ---- computation burst, split across the CPU pool ----
            if phase.cpu_time > 0:
                t0 = engine.now
                share = phase.cpu_time / m.cpus

                def cpu_worker(work=share):
                    grant = cpu_pool.acquire()
                    yield grant
                    try:
                        yield work
                    finally:
                        cpu_pool.release(grant)

                workers = [
                    engine.process(cpu_worker(), name=f"{program.name}.cpu")
                    for _ in range(m.cpus)
                ]
                yield engine.all_of(workers)
                result.cpu_busy += engine.now - t0

            # ---- communication burst (through the fabric) ----
            comm_bytes = int(phase.comm_time * m.net_bandwidth)
            if comm_bytes > 0:
                t0 = engine.now
                yield from fabric.transmit(node_index, comm_bytes)
                result.comm_busy += engine.now - t0
                result.bytes_sent += comm_bytes

            result.phases_run += 1

        result.finish_time = engine.now
