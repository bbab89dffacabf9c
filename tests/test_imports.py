"""The package's import graph, read from the source with ``ast``: every
import of a ``gtoric`` module sits at module level, the graph of those
imports is acyclic, and ``paulis`` stays below the modules that use it.
No module imports scipy, and a fresh interpreter that imports the package
and its CLI and runs a dense count and a membership read never loads
``scipy.sparse``; other third-party imports are not restricted."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gtoric"
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def package_imports(node, in_function=False):
    """``(module, in_function)`` for each ``gtoric`` module that an import
    under ``node`` names, and whether the import sits inside a function."""
    for child in ast.iter_child_nodes(node):
        inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(child, ast.ImportFrom):
            if child.level:
                base = child.module
            elif (child.module or "").split(".")[0] == "gtoric":
                base = child.module.partition(".")[2] or None
            else:
                continue
            # ``from . import x`` names module x, ``from .x import y`` module x
            for name in [base] if base else [alias.name for alias in child.names]:
                yield name.split(".")[0], inner
        elif isinstance(child, ast.Import):
            for alias in child.names:
                head, _, rest = alias.name.partition(".")
                if head == "gtoric" and rest:
                    yield rest.split(".")[0], inner
        yield from package_imports(child, inner)


@pytest.fixture(scope="module")
def imports():
    return {m: list(package_imports(ast.parse((SOURCE / f"{m}.py").read_text()))) for m in MODULES}


@pytest.fixture(scope="module")
def graph(imports):
    return {m: {target for target, _ in found} for m, found in imports.items()}


def reachable(graph, start):
    seen, todo = set(), list(graph[start])
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(graph[m])
    return seen


def test_every_target_is_a_module(graph):
    assert set().union(*graph.values()) <= set(MODULES)
    assert graph["oracle"] >= {"paulis", "lattice"}  # the reader sees relative imports


def test_no_import_inside_a_function(imports):
    inside = {m: [target for target, inner in found if inner] for m, found in imports.items()}
    assert inside == {m: [] for m in MODULES}


def test_acyclic(graph):
    assert [m for m in MODULES if m in reachable(graph, m)] == []


def test_paulis_below_its_users(graph):
    assert reachable(graph, "paulis").isdisjoint({"oracle", "catalog", "stabilizer"})


def test_no_module_imports_scipy():
    found = []
    for m in MODULES:
        for node in ast.walk(ast.parse((SOURCE / f"{m}.py").read_text())):  # function bodies included
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(m, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []


# a dense oracle count on m1 torus:2x2 and one membership read, after the
# package and its CLI are imported; prints the scipy.sparse modules loaded
WITHOUT_SCIPY_SPARSE = """
import sys
import gtoric, gtoric.cli
from gtoric import catalog, oracle, stabilizer
from gtoric.lattice import Lattice
h = catalog.build_hamiltonian("m1", Lattice("torus", 2, 2))
assert oracle.ground_space_dimension(h) == 32
sm = stabilizer.StabilizerModel.from_hamiltonian(h)
assert stabilizer.is_logical(sm, sm.generators[0][0]) == "stabilizer"
print(sorted(m for m in sys.modules if m == "scipy.sparse" or m.startswith("scipy.sparse.")))
"""


def test_runs_without_scipy_sparse():
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY_SPARSE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
