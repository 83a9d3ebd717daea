"""Docs-integrity checks: the documentation references real artifacts.

Keeps README/DESIGN/EXPERIMENTS honest as the code evolves: every
module path mentioned must exist, every bench target must be a file,
every class-like name in backticks must be defined, and the public API
snippets must import.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def design_text() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme_text() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


class TestFilesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/architecture.md",
            "docs/algorithms.md",
            "examples/quickstart.py",
        ],
    )
    def test_required_documents_present(self, name):
        assert (ROOT / name).is_file()

    def test_at_least_three_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3


class TestDesignReferences:
    def test_module_paths_exist(self, design_text):
        for match in re.finditer(r"`repro/([\w/]+\.py)`", design_text):
            path = ROOT / "src" / "repro" / match.group(1)
            assert path.is_file(), f"DESIGN.md references missing {path}"

    def test_bench_targets_exist(self, design_text):
        for match in re.finditer(
            r"`benchmarks/(bench_\w+\.py)`", design_text
        ):
            path = ROOT / "benchmarks" / match.group(1)
            assert path.is_file(), f"DESIGN.md references missing {path}"

    def test_paper_match_is_confirmed(self, design_text):
        # the reproduction must state the paper-text check result
        assert "Paper-text check" in design_text


# a backticked dotted name whose head has a lowercase letter, as in
# `SketchIndex.apply_delta` or `CSRGraph`; calls and file names such
# as `DESIGN.md` or `BENCH_service.json` do not match
_CAMEL_SPAN = re.compile(
    r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.[A-Za-z_]\w*)*`"
)


def _defined_names() -> set[str]:
    """Classes, functions and module-level assignments of every
    ``repro`` module and of ``tests/conftest.py``."""
    names: set[str] = set()
    sources = [*(ROOT / "src" / "repro").rglob("*.py")]
    sources.append(ROOT / "tests" / "conftest.py")
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                names.add(node.name)
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


class TestClassNames:
    def test_backticked_camel_case_names_are_defined(self):
        documents = [ROOT / "README.md", ROOT / "DESIGN.md"]
        documents += sorted((ROOT / "docs").glob("*.md"))
        defined = _defined_names()
        missing = set()
        for document in documents:
            text = document.read_text(encoding="utf-8")
            for match in _CAMEL_SPAN.finditer(text):
                name = match.group(1)
                if sum(c.isupper() for c in name) < 2:
                    continue  # one hump (`Trace`, `None`): not CamelCase
                if name not in defined and not hasattr(builtins, name):
                    missing.add(f"{document.relative_to(ROOT)}: {name}")
        assert not missing, sorted(missing)


class TestReadmeReferences:
    def test_example_commands_reference_real_files(self, readme_text):
        for match in re.finditer(
            r"python (examples/\w+\.py)", readme_text
        ):
            assert (ROOT / match.group(1)).is_file()

    def test_quickstart_snippet_imports(self, readme_text):
        # every `from repro... import ...` line in the README must work
        for line in readme_text.splitlines():
            line = line.strip()
            if line.startswith("from repro"):
                exec(line, {})  # noqa: S102 - controlled input


class TestPackageSurface:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.graph",
            "repro.dominator",
            "repro.models",
            "repro.sampling",
            "repro.spread",
            "repro.engine",
            "repro.core",
            "repro.theory",
            "repro.datasets",
            "repro.bench",
            "repro.imax",
            "repro.service",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"
