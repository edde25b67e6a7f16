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


def private_definitions(tree):
    """(line, name) of the private names that tree binds at its top level: the
    functions, classes and assignment targets named with one leading underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__")]
    return out


def dead_helpers(trees):
    """(module, line, name) of the private top-level names of trees, a dict
    module -> tree, that no module reads by a name, an attribute or an import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for line, name in private_definitions(tree)
        if name not in read
    )


def test_no_dead_private_helpers():
    # a helper whose last caller went still loads and reads as if it were in use
    assert dead_helpers({path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}) == []


def test_the_guard_sees_a_dead_helper():
    lib = "_shared = 2\n_dead = 3\n\n\ndef _gone(): return _dead\n\n\nclass _Kept: pass\n\n\nvalue = _Kept\n"
    user = "from .lib import _shared\n_x = 1\n\n\ndef f(): return _x + _shared\n"
    trees = {"lib": ast.parse(lib), "user": ast.parse(user)}
    assert dead_helpers(trees) == [("lib", 5, "_gone")]
