"""Every name a module of the package imports is used in that module: a dead
import still loads its layer, and each subcommand loads only what it uses."""

import ast
import re
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


def imports_serialize(node):
    """True for an import statement that binds serialize or a name from it."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "serialize" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "serialize" or any(alias.name == "serialize" for alias in node.names)
    return False


def json_outside_serialize(trees):
    """(module, line, name) of each to_json, from_json or *_from_json function
    or method that a module other than serialize defines, and of each import of
    serialize in laurent or weyl outside a __str__ method."""
    out = []
    for module, tree in trees.items():
        if module == "serialize":
            continue
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        out += [(module, f.lineno, f.name) for f in functions if re.fullmatch(r"to_json|(\w+_)?from_json", f.name)]
        if module in ("laurent", "weyl"):
            in_str = {id(node) for f in functions if f.name == "__str__" for node in ast.walk(f)}
            out += [(module, node.lineno, "import serialize") for node in ast.walk(tree) if imports_serialize(node) and id(node) not in in_str]
    return sorted(out)


def test_json_is_written_and_read_in_serialize_alone():
    # one layer spells every JSON schema, and the ring and the group do not load it to be built
    assert json_outside_serialize({path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}) == []


def test_the_guard_sees_json_outside_serialize():
    laurent = (
        "from . import serialize\n\n\nclass P:\n    def __str__(self):\n        from .serialize import to_text\n"
        "        return to_text(self)\n\n    def to_json(self): return {}\n"
    )
    weyl = "def perm_from_json(data):\n    from .serialize import perm_from_json\n    return perm_from_json(data)\n"
    hecke = "import affine_hecke.serialize\n\n\ndef from_json(data): return data\n"
    serialize = "def to_json(value): return value\n\n\ndef laurent_from_json(data): return data\n"
    trees = {name: ast.parse(src) for name, src in [("laurent", laurent), ("weyl", weyl), ("hecke", hecke), ("serialize", serialize)]}
    assert json_outside_serialize(trees) == [
        ("hecke", 4, "from_json"),
        ("laurent", 1, "import serialize"),
        ("laurent", 9, "to_json"),
        ("weyl", 1, "perm_from_json"),
        ("weyl", 2, "import serialize"),
    ]
