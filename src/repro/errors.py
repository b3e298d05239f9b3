"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems add their own subclasses;
keeping them all here gives a single import point and avoids circular
imports between layers.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "StorageError",
    "DiskError",
    "MediaError",
    "DiskFailedError",
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "InvalidHandle",
    "OutOfSpace",
    "CliError",
    "VerificationError",
    "JitError",
    "ExecutionFault",
    "TypeMismatch",
    "ModelError",
    "TraceError",
    "TraceFormatError",
    "HttpError",
    "ConnectionReset",
    "BenchmarkError",
    "FaultError",
    "RetryExhausted",
    "OperationTimeout",
    "ClusterError",
    "NoReplicasAvailable",
    "SanitizerError",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Generic error inside the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when ``run()`` is asked to progress but no event is pending
    while live processes still exist (every process is blocked forever)."""


# --------------------------------------------------------------------------
# Storage / disk layer
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for the storage substrate."""


class DiskError(StorageError):
    """Invalid request against a disk (out-of-range LBA, zero length...)."""


class MediaError(DiskError):
    """A block transfer failed with an unrecoverable media (ECC) error.

    Transient by nature: the same LBA may read fine on the next attempt,
    which is what retry policies exploit.
    """


class DiskFailedError(DiskError):
    """The whole device is offline (injected failure or pulled drive).

    Unlike :class:`MediaError` this is persistent until the disk is
    repaired/replaced; arrays respond by entering degraded mode.
    """


class FileSystemError(StorageError):
    """Base class for simulated file-system errors."""


class FileNotFound(FileSystemError):
    """Path does not exist in the simulated namespace."""


class FileExists(FileSystemError):
    """Path already exists and exclusive creation was requested."""


class InvalidHandle(FileSystemError):
    """Operation on a closed or never-opened file handle."""


class OutOfSpace(FileSystemError):
    """The simulated volume has no free extents left."""


# --------------------------------------------------------------------------
# CLI virtual machine
# --------------------------------------------------------------------------

class CliError(ReproError):
    """Base class for the simulated Common Language Infrastructure."""


class VerificationError(CliError):
    """Bytecode failed verification before JIT/execution."""


class JitError(CliError):
    """The JIT cost model was asked to compile something unsupported."""


class ExecutionFault(CliError):
    """Runtime fault inside the execution engine (managed exception)."""


class TypeMismatch(ExecutionFault):
    """Operand types do not match the instruction's expectations."""


# --------------------------------------------------------------------------
# Behavioral model
# --------------------------------------------------------------------------

class ModelError(ReproError):
    """Invalid behavioral-model construction (fractions out of range,
    relative times not summing to one, ...)."""


# --------------------------------------------------------------------------
# Trace benchmark
# --------------------------------------------------------------------------

class TraceError(ReproError):
    """Base class for trace-file handling errors."""


class TraceFormatError(TraceError):
    """Malformed trace file (bad magic, truncated record, bad op code)."""


# --------------------------------------------------------------------------
# Web server micro-benchmark
# --------------------------------------------------------------------------

class HttpError(ReproError):
    """Malformed HTTP request or unsupported method."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ConnectionReset(ReproError):
    """The peer (or an injected fault) tore the connection down while
    data was still in flight."""


# --------------------------------------------------------------------------
# Benchmark harness
# --------------------------------------------------------------------------

class BenchmarkError(ReproError):
    """An experiment failed its configuration sanity checks."""


# --------------------------------------------------------------------------
# Fault injection / resilience
# --------------------------------------------------------------------------

class FaultError(ReproError):
    """Invalid fault-plan construction (bad kind, empty window, ...)."""


class RetryExhausted(ReproError):
    """A retried operation failed on every allowed attempt.

    The original failure is available as ``last_error``.
    """

    def __init__(self, message: str, last_error: Exception = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class OperationTimeout(ReproError):
    """A single attempt exceeded the retry policy's per-op timeout."""


# --------------------------------------------------------------------------
# Cluster
# --------------------------------------------------------------------------

class ClusterError(ReproError):
    """Invalid cluster configuration or a broken cluster invariant."""


class NoReplicasAvailable(ClusterError):
    """Every replica of a key is down, ejected, or still rebuilding."""


# --------------------------------------------------------------------------
# Concurrency sanitizer
# --------------------------------------------------------------------------

class SanitizerError(ReproError):
    """Misuse of the concurrency sanitizer (enabling twice, checking an
    unreadable trace, unknown invariant name, ...)."""
