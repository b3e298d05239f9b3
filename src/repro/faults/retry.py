"""Retry with exponential backoff, deterministic jitter and timeouts.

:class:`RetryPolicy` is pure data (attempt budget, backoff curve,
per-attempt timeout, which exception types are worth retrying);
:class:`Retrier` executes coroutine operations under a policy on one
engine.  Jitter draws from a seeded stream, so the exact backoff
schedule — like everything else in the stack — is a function of the
root seed.

Usage, from any process::

    retrier = Retrier(engine, RetryPolicy(max_attempts=4), rng=streams.get("retry"))
    data = yield from retrier.call(lambda: fs.read(handle, 4096, offset=0),
                                   op="fs.read")

The ``factory`` is invoked once per attempt and must return a *fresh*
generator whose effects are idempotent (e.g. reads at an explicit
offset) — a retried attempt re-executes it from the top.

Per-attempt timeouts race the attempt (run as its own process) against
``engine.timeout``; a timed-out attempt is abandoned, which the kernel
tolerates (failed :class:`~repro.sim.process.Process` objects without
waiters do not crash the engine).

Every failed attempt emits a ``retry.attempt`` instant through
``engine.tracer`` and bumps the ``retry.*`` counters registered with
the engine's metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Type

from repro.errors import (
    ConnectionReset,
    FaultError,
    MediaError,
    OperationTimeout,
    RetryExhausted,
)
from repro.sim import Counter, Engine

__all__ = ["RetryPolicy", "Retrier", "DEFAULT_RETRYABLE"]

#: Exception types retried by default: transient media errors, torn
#: connections, and per-attempt timeouts.  Persistent failures
#: (DiskFailedError, FileNotFound, ...) are deliberately absent.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    MediaError, ConnectionReset, OperationTimeout,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/budget description (pure data, shareable across runs).

    Attributes
    ----------
    max_attempts:
        Total attempt budget including the first try.
    base_delay:
        Backoff before the second attempt (seconds); attempt ``n``
        waits ``base_delay * multiplier**(n-1)`` capped at ``max_delay``.
    jitter:
        Fractional jitter: the delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]`` (0 disables).
        Requires the retrier to hold an rng; without one the delay is
        used as-is.
    timeout:
        Per-attempt budget (simulated seconds); ``None`` disables.  A
        timed-out attempt raises :class:`~repro.errors.OperationTimeout`
        (retryable by default).
    retryable:
        Exception types that trigger a retry; anything else propagates
        immediately.
    """

    max_attempts: int = 4
    base_delay: float = 0.002
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.25
    timeout: Optional[float] = None
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise FaultError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise FaultError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter < 1.0):
            raise FaultError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0:
            raise FaultError(f"timeout must be positive, got {self.timeout}")

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before attempt ``attempt + 1`` (1-based failed attempt)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


class Retrier:
    """Executes coroutine operations under a :class:`RetryPolicy`.

    Parameters
    ----------
    engine:
        The simulation engine (clock, processes, obs).
    policy:
        The retry policy; defaults to ``RetryPolicy()``.
    name:
        Metrics prefix — counters register as ``{name}.attempts``,
        ``{name}.retries``, ``{name}.recovered``, ``{name}.exhausted``,
        ``{name}.timeouts``.
    rng:
        numpy Generator for jitter (seeded stream); ``None`` = no jitter.
    category:
        Tracer category for ``retry.attempt`` instants, so retries
        attribute to the layer doing the retrying.
    """

    def __init__(
        self,
        engine: Engine,
        policy: Optional[RetryPolicy] = None,
        name: str = "retry",
        rng=None,
        category: str = "io",
    ) -> None:
        self.engine = engine
        self.policy = policy or RetryPolicy()
        self.name = name
        self.rng = rng
        self.category = category
        self.attempts = Counter(f"{name}.attempts")
        self.retries = Counter(f"{name}.retries")
        self.recovered = Counter(f"{name}.recovered")
        self.exhausted = Counter(f"{name}.exhausted")
        self.timeouts = Counter(f"{name}.timeouts")
        reg = engine.metrics
        for counter in (self.attempts, self.retries, self.recovered,
                        self.exhausted, self.timeouts):
            reg.register(counter.name, counter)

    def call(
        self,
        factory: Callable[[], Generator],
        op: str = "op",
    ) -> Generator[Any, Any, Any]:
        """Generator: run ``factory()`` until success or budget exhausted.

        Returns the operation's return value; raises
        :class:`~repro.errors.RetryExhausted` (carrying the last error)
        when every attempt failed, or the original exception immediately
        if it is not retryable under the policy.
        """
        policy = self.policy
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            self.attempts.add()
            if attempt > 1:
                self.retries.add()
            try:
                if policy.timeout is None:
                    result = yield from factory()
                else:
                    result = yield from self._attempt_with_timeout(
                        factory, op, attempt)
            except policy.retryable as exc:
                last_error = exc
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant(
                        "retry.attempt", self.category, op=op,
                        attempt=attempt, error=type(exc).__name__,
                        exhausted=attempt >= policy.max_attempts,
                    )
                if attempt >= policy.max_attempts:
                    break
                delay = policy.backoff(attempt, self.rng)
                if delay > 0:
                    yield delay
            else:
                if attempt > 1:
                    self.recovered.add()
                return result
        self.exhausted.add()
        raise RetryExhausted(
            f"{op} failed after {policy.max_attempts} attempt(s): {last_error}",
            last_error=last_error, attempts=policy.max_attempts,
        )

    def _attempt_with_timeout(self, factory, op: str, attempt: int):
        """Race one attempt (as its own process) against the per-op budget."""
        proc = self.engine.process(factory(), name=f"{self.name}.{op}#{attempt}")
        deadline = self.engine.timeout(self.policy.timeout)
        # AnyOf fails if the attempt fails first, re-raising its error
        # here; a deadline win leaves the attempt running detached (its
        # effects are discarded by the idempotence contract).
        yield self.engine.any_of([proc, deadline])
        if proc.triggered:
            if not proc.ok:  # pragma: no cover - any_of already raised
                raise proc.value
            return proc.value
        self.timeouts.add()
        raise OperationTimeout(
            f"{op} attempt {attempt} exceeded {self.policy.timeout}s budget"
        )
