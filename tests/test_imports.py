"""No Python file in the repository imports a name it never uses, the
program defines nothing that only tests use, and it defines no exception
class that nothing catches.

Every ``.py`` file under ``src/``, ``tests/``, ``tools/`` and ``bench/`` is
read with ``ast``: each name an import binds must be read somewhere in the
same file.  ``from __future__`` imports and star imports are exempt.

Each function, class, method and module-level constant defined under
``src/dbgchat/`` must be read somewhere in ``src/`` outside its own
definition, by name or as an attribute; importing it counts.  Names are
matched without regard to their owner.  Dunder names are exempt.

Each exception class defined in ``src/dbgchat/errors.py`` must be named by
an ``except`` clause under ``src/``, or be the base of one that is.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src", "tests", "tools", "bench")
#: Definitions that nothing in src/ reads, each with its reason.
UNREAD_ALLOWED = {
    # perfbench/traced.py reads _estimate_bundle to meter prompt truncation
    # and shown_count to count the frames each enriched stack shows.
    "_estimate_bundle",
    "shown_count",
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the source never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def _reads(tree: ast.AST) -> list[str]:
    """Every name the tree reads, imports included, once per occurrence."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out += [alias.name for alias in node.names]
    return out


def _definitions(tree: ast.Module):
    """(node, name) for each module-level function, class and constant,
    and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item, item.name


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) for each definition in the sources that none of
    them reads outside the definition itself."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    found = []
    for path, tree in trees.items():
        for node, name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads.get(name, 0) == _reads(node).count(name):
                found.append((path, node.lineno, name))
    return sorted(found)


def test_scanner_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nc(os)\n"
    assert unused_imports(source) == [(2, "system"), (3, "d")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_scanner_finds_an_unread_definition():
    sources = {
        "a.py": ("LIMIT = 3\nSPARE = 4\n\ndef spin():\n    return spin()\n\n"
                 "class Box:\n    def __init__(self): pass\n"
                 "    def size(self): return LIMIT\n"
                 "    def unused(self): pass\n"),
        "b.py": "from a import Box\nBox().size()\n",
    }
    assert unread_definitions(sources) == [
        ("a.py", 2, "SPARE"), ("a.py", 4, "spin"), ("a.py", 10, "unused")]


def test_src_defines_nothing_it_never_reads():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    unread = unread_definitions(sources)
    assert [f"{path}:{line}: {name}" for path, line, name in unread
            if name not in UNREAD_ALLOWED] == []
    # An entry that src/ has come to read leaves the list.
    assert {name for _, _, name in unread} >= UNREAD_ALLOWED


def uncaught_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """The exception classes errors_source defines that no ``except``
    clause in the sources names and that are no base of one named."""
    base = {node.name: node.bases[0].id
            for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.bases}

    def lineage(name: str) -> list[str]:
        """The class, then its bases in errors_source."""
        out = []
        while name in base:
            out.append(name)
            name = base[name]
        return out

    caught: set[str] = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                for named in types:
                    caught.update(lineage(getattr(named, "id", None)
                                          or getattr(named, "attr", "")))
    return sorted(name for name in base
                  if base[lineage(name)[-1]] == "Exception"
                  and name not in caught)


def test_scanner_finds_an_uncaught_error():
    errors = ("class Base(Exception): pass\nclass Caught(Base): pass\n"
              "class Spare(Base): pass\nclass Other(dict): pass\n"
              "class Record: pass\n")
    sources = {"a.py": "try:\n    pass\nexcept (errors.Caught, OSError):\n"
                       "    pass\n"}
    assert uncaught_errors(errors, sources) == ["Spare"]


def test_src_catches_every_error_class():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    errors = sources[str(Path("src", "dbgchat", "errors.py"))]
    assert uncaught_errors(errors, sources) == []
