from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import tabnotate
from tabnotate.core import to_csv

from fixture_data import EV_TABLE, ONTOLOGY_TEXT

SOURCES = sorted(Path(tabnotate.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                (path.name, module)
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_parses_at_the_python_floor():
    # pyproject.toml promises Python >= 3.10.
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))


def test_modules_use_every_name_they_import():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(path.name, line, name) for name, line in imported.items() if name not in used]
    assert unused == []


# Loaded only by the HTTP backend (``ssl`` for https alone; ``http.client``
# never, since the backend frames HTTP/1.1 itself) and by a parallel
# run_benchmark.
HTTP_AND_POOL = {
    "http.client", "socket", "ssl", "email.utils", "selectors", "concurrent.futures"
}


def _loaded_by(statements: str) -> set[str]:
    """Modules a fresh interpreter loads from ``import tabnotate`` through
    ``statements``; ``site`` has already loaded its own before the count."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(tabnotate.__file__).parent.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import tabnotate\n"
        f"{statements}\n"
        "print(*set(sys.modules) - before)\n"
    )
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the child from writing
    # bytecode into the source tree.
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", script],
        capture_output=True, encoding="utf-8", check=True,
    )
    return set(run.stdout.split())


def test_import_loads_no_http_stack_or_thread_pool():
    loaded = _loaded_by("")
    assert "tabnotate.backend" in loaded
    assert loaded & HTTP_AND_POOL == set()


def _built(url: str) -> str:
    return f"tabnotate.HttpBackend(tabnotate.HttpEndpoint(url={url!r}, model='m'))"


def test_building_an_http_backend_loads_neither_http_client_nor_ssl():
    loaded = _loaded_by(_built("http://127.0.0.1:1/v1"))
    assert loaded & {"http.client", "ssl"} == set()


def test_building_an_https_backend_loads_ssl_but_not_http_client():
    loaded = _loaded_by(_built("https://127.0.0.1:1/v1"))
    assert "ssl" in loaded
    assert "http.client" not in loaded


def test_readme_library_example_runs_as_written(tmp_path):
    """The first ``python`` block under "Library use" runs, in a fresh
    interpreter that makes an encoding warning an error, from a directory
    holding the files it reads."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)[1]
    (tmp_path / "ontology.tsv").write_text(ONTOLOGY_TEXT, encoding="utf-8")
    (tmp_path / "ev.csv").write_text(to_csv(EV_TABLE), encoding="utf-8")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(tabnotate.__file__).parent.parent)!r})\n"
        + example
    )
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-X", "warn_default_encoding", "-W", "error", "-c", script],
        capture_output=True, encoding="utf-8", cwd=tmp_path,
    )
    assert run.stderr == ""
    assert run.stdout.splitlines() == [
        "https://dbpedia.org/ontology/ElectricVehicle "
        "['manufacturer', 'model', 'postalCode', 'vehicleIdentificationNumber']",
        "144 0.00022600000000000002 2",
    ]
