"""Checks on the package's source text, and that the mutation sweep's targets name it."""

import ast
import runpy
from pathlib import Path

import pytest

import digitscreen

PACKAGE = Path(digitscreen.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.fixture(scope="module")
def mutate():
    """The globals of ``tools/mutate.py``, the mutation sweep, which is not a package module."""
    return runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "mutate.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses in its code, in a string annotation or in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(text.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import csv\n    return csv\n", []),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from m import T\ndef f(x: 'T') -> 'list[T]': pass\n",
     []),
    ("from m import T\nx: 'T'\n", []),
    ("from m import f\n__all__ = ['f']\n", []),
])
def test_unused_imports_finds_what_no_code_names(source, unused):
    assert unused_imports(source) == unused


def test_every_mutation_target_scope_names_code(mutate):
    # a renamed function would otherwise leave its target's sweep without the spots it was meant to mutate
    trees = {}
    for target in mutate["TARGETS"]:
        if target.module not in trees:
            trees[target.module] = ast.parse((PACKAGE / target.module).read_text(encoding="utf-8"))
        for scope in target.scopes:
            assert list(mutate["_scoped_nodes"](trees[target.module], (scope,))), f"{target.name}: {scope}"


@pytest.mark.parametrize("scope", ["_no_such_function", "ScreenConfig._no_such_method", "_NO_SUCH_CONSTANT"])
def test_a_mutation_scope_that_names_nothing_is_an_error(mutate, scope):
    scoped_nodes = mutate["_scoped_nodes"]
    tree = ast.parse("class ScreenConfig:\n    def __post_init__(self): pass\n_DELIMITERS = (',',)\n")
    assert len(list(scoped_nodes(tree, ("ScreenConfig.__post_init__", "_DELIMITERS")))) == 2
    with pytest.raises(ValueError, match=f"scope '{scope}' names nothing in the module"):
        list(scoped_nodes(tree, (scope,)))
