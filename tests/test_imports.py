"""The package's import graph, read from the source with ``ast``: every
import of a ``gtoric`` module sits at module level, the graph of those
imports is acyclic, and ``paulis`` stays below the modules that use it.
Third-party imports are not restricted."""

import ast
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
