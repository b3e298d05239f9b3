"""Deterministic fault injection and resilience primitives.

The subsystem has two halves:

* **Injection** — :class:`FaultPlan`/:class:`FaultSpec` describe *what*
  goes wrong (pure data), :class:`FaultInjector` decides *when* using
  seeded streams against simulated time.  Layers consult the injector
  on their hot paths (a disk request's start, socket transfers) or
  receive scheduled failures (whole-disk ``disk.fail``).
* **Resilience** — :class:`RetryPolicy`/:class:`Retrier` give callers
  exponential backoff with deterministic jitter and per-attempt
  timeouts; arrays add degraded reads and rebuild
  (:class:`repro.storage.MirroredArray`); the webserver adds deadlines
  and load shedding.

Everything is observable: ``fault.injected`` / ``retry.attempt``
instants and ``faults.*`` / ``retry.*`` counters flow through
:mod:`repro.obs` like every other signal.  See ``docs/robustness.md``.
"""

from repro.faults.injector import FaultInjector, InjectionRecord
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.retry import DEFAULT_RETRYABLE, Retrier, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectionRecord",
    "RetryPolicy",
    "Retrier",
    "DEFAULT_RETRYABLE",
]
