"""Static checks on the package source that no installed linter makes."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "lehmer").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_top_level_name_defined_twice(path):
    # a second def of a name silently replaces the first, so an edit to
    # the first copy would have no effect
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    twice = sorted(name for name, count in Counter(defs).items() if count > 1)
    assert not twice, f"{path.name} defines {', '.join(twice)} more than once"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_constant_is_read_in_its_module(path):
    # a constant nothing reads is a setting that no longer sets anything
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", name.id):
                    defined.add(name.id)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = sorted(defined - read)
    assert not unread, f"{path.name} defines {', '.join(unread)}, which it never reads"


def test_every_private_helper_is_named_elsewhere():
    # a module-level function or class that no other code names is code
    # nothing runs: every _name def must be named outside its own definition
    # (a name, an attribute or a from-import) somewhere in the package
    defs, named = [], []  # (module, statement index, name); names per statement
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for index, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defs.append((path.name, index, node.name))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            named.append(((path.name, index), names))
    assert len(defs) > 50  # the walk found the package's helpers
    dead = [
        f"{module}:{name}"
        for module, index, name in defs
        if not any(name in names for where, names in named if where != (module, index))
    ]
    assert not dead, f"nothing outside their own definitions names {', '.join(dead)}"


def test_package_source_found():
    assert "__init__.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_resolves_once(path):
    name = "lehmer" if path.stem == "__init__" else f"lehmer.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    twice = sorted(n for n, count in Counter(exported).items() if count > 1)
    missing = sorted(n for n in exported if not hasattr(module, n))
    assert not twice, f"{name}.__all__ lists {', '.join(twice)} more than once"
    assert not missing, f"{name}.__all__ lists {', '.join(missing)}, which {name} does not define"


def test_traced_sites_resolve():
    # perfbench/spans.py swaps its wrappers in by (module, attribute); a
    # name it patches must stay where it looks for it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [sites] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_SITES" for t in node.targets)
    ]
    pairs = [tuple(ast.literal_eval(item))[:2] for item in sites.elts]
    assert pairs
    missing = [f"{module}.{attr}" for module, attr in pairs if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench/spans.py traces {', '.join(missing)}, which lehmer does not define"


def test_only_calculus_imports_mpmath():
    # every 50-digit evaluation goes through calculus: its cached constants,
    # the shared logs of its powers and its noise floor
    importers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "mpmath" or name.startswith("mpmath.") for name in names):
                importers.append(path.name)
    assert importers and set(importers) == {"calculus.py"}, sorted(set(importers))
