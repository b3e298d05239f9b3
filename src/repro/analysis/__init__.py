"""Static analysis over CIL method bodies (``repro.analysis``).

The subsystem decomposes into:

* :mod:`repro.analysis.cfg`         — basic blocks, edges (including
  exception-handler edges), reachability;
* :mod:`repro.analysis.lattice`     — the per-slot type lattice and
  the local-initialization lattice;
* :mod:`repro.analysis.typeflow`    — the worklist abstract
  interpreter producing per-pc entry states and dataflow facts;
* :mod:`repro.analysis.passes`      — the diagnostic pass suite;
* :mod:`repro.analysis.callgraph`   — assembly-level call-graph facts
  (recursion, inline depth, unresolved targets);
* :mod:`repro.analysis.driver`      — assembly orchestration and CLI
  target resolution;
* :mod:`repro.analysis.targets`     — the bundled benchmark corpus.

Run it: ``python -m repro.analysis --all`` (see ``--help``).  See
``docs/static-analysis.md`` for the design.
"""

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.cfg import CFG, BasicBlock, Edge, build_cfg
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    max_severity,
    render_json,
    render_text,
)
from repro.analysis.driver import (
    AssemblyAnalysis,
    analyze_assembly,
    resolve_targets,
)
from repro.analysis.lattice import Init, Kind, TypeVal
from repro.analysis.passes import PASSES, MethodAnalysis, analyze_method
from repro.analysis.targets import BUNDLED, bundled_assembly
from repro.analysis.typeflow import TypeFacts, analyze_types

__all__ = [
    "AssemblyAnalysis",
    "BUNDLED",
    "BasicBlock",
    "CFG",
    "CallGraph",
    "Diagnostic",
    "Edge",
    "Init",
    "Kind",
    "MethodAnalysis",
    "PASSES",
    "Severity",
    "TypeFacts",
    "TypeVal",
    "analyze_assembly",
    "analyze_method",
    "analyze_types",
    "build_callgraph",
    "build_cfg",
    "bundled_assembly",
    "max_severity",
    "render_json",
    "render_text",
    "resolve_targets",
]
