"""The import path: a simulation loads only the modules it runs.

``repro`` and ``repro.obs`` resolve their public names on first access,
and NumPy is imported where it is first used, so running a model study
or a trace replay loads neither NumPy, the experiment harness nor the
trace analysis code.  The check runs in a fresh interpreter, because
this one has already imported all of them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a simulation must not load.
LAZY = (
    "numpy",
    "repro.bench",
    "repro.obs.analysis",
    "repro.obs.report",
    "repro.obs.slo",
    "repro.obs.timeseries",
    "repro.obs.export",
)

SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import repro

speedups = repro.disk_speedup_study(repro.build_qcrd(1.2, 0.55),
                                    counts=(1, 2, 4))
header, records = repro.generate_trace("dmine", dataset_size=1 << 20,
                                       passes=2)
result = repro.TraceReplayer(repro.ReplayConfig(warmup=False)).replay(
    header, records, "dmine")
print(json.dumps({{
    "speedups": sorted(speedups),
    "replayed": result.total_time > 0,
    "loaded": sorted(m for m in {lazy!r} if m in sys.modules),
}}))
"""


def test_simulation_loads_no_numpy_harness_or_analysis():
    script = SCRIPT.format(src=str(SRC), lazy=LAZY)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["speedups"] == [1, 2, 4]
    assert out["replayed"]
    assert out["loaded"] == []


@pytest.mark.parametrize("package", [repro, repro.obs],
                         ids=["repro", "repro.obs"])
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from repro.obs import *", namespace)
    assert set(repro.obs.__all__) <= set(namespace)
    assert namespace["Tracer"] is repro.obs.tracer.Tracer
    assert namespace["analyze"] is repro.obs.analysis.analyze


@pytest.mark.parametrize("package", [repro, repro.obs],
                         ids=["repro", "repro.obs"])
def test_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})
