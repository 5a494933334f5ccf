"""The trust boundary between the exact search and its judges.

``enumerate`` and ``sat_oracle`` judge the search's verdicts, and
``_check_witness`` checks every feasible answer it returns, so none of
their modules may reach search code: ``oracle``, ``core`` and ``p3sat``
import neither ``search`` nor ``solver``, directly or through another
module of the package, and ``search`` imports only ``core`` and ``pdgraph``.
Imports are read from the source, so one inside a function counts too.
Importing the package loads none of its modules, so an import cycle fails
here rather than at collection, and each module, imported alone in a fresh
interpreter, must load exactly the modules its source reaches.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddorient

PACKAGE = Path(oddorient.__file__).parent

JUDGES = ["oracle", "core", "p3sat"]


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source``, a module of it, imports
    anywhere, absolute or relative; ``__init__`` stands for the package
    itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "oddorient" + (f".{base}" if base else "")
            if base == "oddorient":
                # ``from oddorient import x``: x is a module, or a public name
                # that the package imports from the module its table gives
                targets = [
                    f"oddorient.{oddorient._MODULE_OF.get(alias.name, alias.name)}"
                    for alias in node.names
                ]
            else:
                targets = [base]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "oddorient":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return {m if (PACKAGE / f"{m}.py").exists() else "__init__" for m in found}


def reached(module: str) -> set[str]:
    """The modules of the package that ``module`` imports, directly or
    through the modules it imports."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for m in package_imports((PACKAGE / f"{todo.pop()}.py").read_text()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen


@pytest.mark.parametrize("module", JUDGES)
def test_judges_reach_no_search_code(module):
    assert not reached(module) & {"search", "solver"}


def test_search_imports_only_core_and_pdgraph():
    assert package_imports((PACKAGE / "search.py").read_text()) <= {"core", "pdgraph"}


@pytest.mark.parametrize("line, module", [
    ("from oddorient.search import _ExactSearch", "search"),
    ("from oddorient import solver", "solver"),
    ("from oddorient.solver import decide as d", "solver"),
    ("import oddorient.search", "search"),
    ("from .search import solve_exact", "search"),
    ("from . import solver", "solver"),
    ("def f():\n    from .solver import decide", "solver"),
    ("from oddorient import decide", "solver"),
    ("from oddorient import FormatError as E", "io"),
    ("from . import read_instance", "io"),
    ("import oddorient", "__init__"),
    ("from oddorient import FEASIBLE", "__init__"),
])
def test_package_imports_reads_every_form(line, module):
    assert package_imports(line) == {module}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_import_loads_only_what_the_source_reaches(module):
    """The boundary read from the source is also the one in ``sys.modules``:
    ``oracle``, ``core`` and ``p3sat`` load neither ``search`` nor ``solver``."""
    name = "oddorient" if module == "__init__" else f"oddorient.{module}"
    code = f"import sys, {name}; print(*(m for m in sys.modules if m.startswith('oddorient.')))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert {m.removeprefix("oddorient.") for m in loaded} == ({module} | reached(module)) - {"__init__"}
