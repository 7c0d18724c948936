"""Static checks for dead code in the library.

* every module-level function, class or constant (``NAME = ...``) of
  ``src/reglab`` but the dunders such as ``__all__`` is referenced
  somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own body (by
  name, attribute, import, or as a string such as an ``__all__`` entry or a
  helper name wrapped by the benchmark tracer);
* no function of ``src/reglab`` assigns a local that it never reads; names
  that start with ``_`` are the marked unused ones.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reglab"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(node) -> Counter:
    """Every name that ``node`` mentions: loads and stores of names,
    attributes, imported names and identifier-like strings."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _defined_names(node) -> list[str]:
    """The names a module-level statement defines as a function, a class or
    a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_module_level_definition_is_referenced():
    total = Counter()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "bench"):
        total += _references(tree)
    unused = []
    for path, tree in _trees(SRC):
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("__") and total[name] == _references(node)[name]:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _own_nodes(fn):
    """The nodes of a function's own scope: its body without the bodies of
    the functions, lambdas and classes nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(fn) -> list[str]:
    declared = {n for node in _own_nodes(fn) if isinstance(node, (ast.Global, ast.Nonlocal)) for n in node.names}
    stored = {}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            stored.setdefault(node.name, node.lineno)
    # a read anywhere in the function, nested scopes included, counts
    read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{name} (line {line})" for name, line in stored.items()
            if name not in read and name not in declared and not name.startswith("_")]


def test_no_function_assigns_a_local_it_never_reads():
    dead = []
    for path, tree in _trees(SRC):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dead += [f"{path.relative_to(ROOT)}: {fn.name}: {d}" for d in _dead_locals(fn)]
    assert not dead, "locals assigned but never read: " + "; ".join(dead)
