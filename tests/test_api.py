import importlib
import re
import sys
from pathlib import Path

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
