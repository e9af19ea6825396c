"""Every name perfbench/traced.py wraps must exist in the program.

``Recorder.patch`` skips a missing attribute without a word, so a rename
would silently drop that layer's metrics.  This reads ``install()`` and
resolves each patched attribute against the modules traced.py imports.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).parent.parent / "perfbench" / "traced.py"


def _namespace(tree: ast.Module) -> dict:
    """The dbgchat modules traced.py imports, under the names it uses."""
    ns = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dbgchat"):
                    ns[alias.asname or alias.name] = \
                        importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "dbgchat":
            for alias in node.names:
                ns[alias.asname or alias.name] = \
                    importlib.import_module(f"dbgchat.{alias.name}")
    return ns


def _resolve(node: ast.expr, ns: dict):
    if isinstance(node, ast.Name):
        return ns[node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_resolve(node.value, ns), node.attr)


def _patched(tree: ast.Module) -> list[tuple[ast.expr, str]]:
    """(owner, attribute) for each ``rec.patch`` call in install(), with
    loops over constant names unrolled."""
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    loops = {node.target.id: [e.value for e in node.iter.elts]
             for node in ast.walk(install) if isinstance(node, ast.For)}
    out = []
    for node in ast.walk(install):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"):
            owner, attr = node.args[:2]
            names = ([attr.value] if isinstance(attr, ast.Constant)
                     else loops[attr.id])
            out += [(owner, name) for name in names]
    return out


def test_every_traced_name_exists():
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    ns = _namespace(tree)
    patched = _patched(tree)
    assert ("session.DebugSession", "stack_depth") in {
        (ast.unparse(owner), name) for owner, name in patched}
    missing = [f"{ast.unparse(owner)}.{name}" for owner, name in patched
               if not hasattr(_resolve(owner, ns), name)]
    assert missing == []
