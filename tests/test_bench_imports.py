"""Import guard for the benchmark code no tier-1 test runs.

The script-style benchmarks (``benchmarks/bench_*.py`` with a
``__main__`` guard) and the ``perfbench`` harness are driven only by
the benchmark jobs, so an engine API they use could disappear without
any test noticing.  Importing each module — without running it —
resolves every name it takes from ``repro`` at import time.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT_BENCHMARKS = sorted(
    f"benchmarks.{path.stem}"
    for path in (ROOT / "benchmarks").glob("bench_*.py")
    if '__name__ == "__main__"' in path.read_text(encoding="utf-8")
)
PERFBENCH = sorted(
    f"perfbench.{path.stem}" for path in (ROOT / "perfbench").glob("*.py")
)


@pytest.mark.parametrize("module", SCRIPT_BENCHMARKS + PERFBENCH)
def test_benchmark_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    importlib.import_module(module)
