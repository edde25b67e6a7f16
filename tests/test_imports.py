"""Every name a module of the package imports is used in that module: a dead
import still loads its layer, and each subcommand loads only what it uses."""

import ast
from pathlib import Path

import pytest

import affine_hecke

SOURCES = sorted(Path(affine_hecke.__file__).parent.glob("*.py"))


def unused_imports(tree):
    """The names bound by import statements anywhere in tree that no Name node
    or attribute chain of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_a_dead_import():
    source = "import os\nfrom functools import cache, partial\nfrom . import x as y\n\n@cache\ndef f(): return y\n"
    tree = ast.parse(source)
    assert unused_imports(tree) == [(1, "os"), (2, "partial")]
