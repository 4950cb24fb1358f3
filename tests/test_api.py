import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import streamrpca

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_and_bench_imports_resolve(monkeypatch):
    # the names users and the benchmark import from streamrpca: the README's
    # quick start is executed as written, and bench/workloads.py imported
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(API\)\s*```python\n(.*?)```", readme,
                      re.S)
    assert block is not None
    scope = {}
    exec(compile(block.group(1), "README.md quick start", "exec"), scope)
    assert scope["result"].L.shape == scope["gt"].L.shape
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    importlib.import_module("workloads")


def test_bench_smoke_passes():
    # every workload briefly, traced and untraced, through the benchmark's
    # correctness gate and result-line schema
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"


# streamrpca's public names; a change to the API changes this set on purpose
PUBLIC_API = {
    "ChangePointReport", "ChangePoints", "ContractViolation", "CpDiagnostic",
    "DecompositionResult", "Drift", "EvalReport", "InitializationError",
    "ObservationStream", "OmwCpPipeline", "ParseError", "PcpConfig",
    "PcpResult", "ProjectionConfig", "SimSpec", "SnapshotError", "Stable",
    "SubspaceModel", "TrackerConfig", "TrackerStepError", "WindowBuffer",
    "continue_tracker", "cp_deviation", "err_rel", "full_stream_matrix",
    "generate", "ingest_stream", "init_tracker", "load_state", "pcp_alm",
    "restore_pipeline", "run_omw_cp", "run_tracker", "save_state",
    "snapshot_pipeline", "snapshot_tracker", "support_mismatch",
    "write_raw_f64",
}


def test_public_api_is_pinned():
    exported = {name for name, value in vars(streamrpca).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_API) == 38
    assert (exported - PUBLIC_API, PUBLIC_API - exported) == (set(), set())


def test_numpy_is_the_only_run_time_dependency():
    # scipy is the tests' independent SVD reference, so the test extra
    # holds it; nothing in the package imports it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    name = re.compile(r"[A-Za-z0-9_.-]+")
    assert [name.match(dep).group() for dep in project["dependencies"]] == [
        "numpy"]
    assert "scipy" in [name.match(dep).group()
                       for dep in project["optional-dependencies"]["test"]]
