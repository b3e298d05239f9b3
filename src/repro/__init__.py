"""repro — reproduction of "Benchmarking the CLI for I/O-Intensive
Computing" (Qin, Xie, Nathan, Tadepalli; IPDPS/PDSEC 2005).

The package provides, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.storage` — mechanical disk models, schedulers, RAID-0;
* :mod:`repro.io` — file system, buffer cache with prefetching,
  managed file streams, simulated TCP;
* :mod:`repro.cli` — a simulated Common Language Infrastructure VM
  (CIL bytecode, verifier, JIT cost model, GC, managed threads);
* :mod:`repro.model` — the paper's application behavioral model and
  the QCRD instantiation (benchmark 1);
* :mod:`repro.traces` — the trace format, five application trace
  generators, and the trace-driven replayer (benchmark 2);
* :mod:`repro.webserver` — the multithreaded web server
  micro-benchmark (benchmark 3);
* :mod:`repro.bench` — experiment harness regenerating every table
  and figure in the paper's evaluation.

Quickstart::

    from repro.bench import run_experiment, render_table
    print(render_table(run_experiment("tab1")))
"""

from importlib import import_module as _import_module

#: Public name -> the module that defines it.  Nothing here is imported
#: with the package: each name is resolved on first access
#: (:func:`__getattr__`), so ``import repro.sim`` compiles neither the
#: experiment harness nor NumPy.
_EXPORTS = {
    "__version__": "repro._version",
    "ReproError": "repro.errors",
    "Engine": "repro.sim",
    "WorkingSet": "repro.model",
    "Program": "repro.model",
    "Application": "repro.model",
    "build_qcrd": "repro.model",
    "MachineConfig": "repro.model",
    "ApplicationExecutor": "repro.model",
    "disk_speedup_study": "repro.model",
    "cpu_speedup_study": "repro.model",
    "IOOp": "repro.traces",
    "generate_trace": "repro.traces",
    "read_trace": "repro.traces",
    "write_trace": "repro.traces",
    "ReplayConfig": "repro.traces",
    "TraceReplayer": "repro.traces",
    "WebServerHost": "repro.webserver",
    "WorkloadConfig": "repro.webserver",
    "WorkloadGenerator": "repro.webserver",
    "run_experiment": "repro.bench",
    "render_table": "repro.bench",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
