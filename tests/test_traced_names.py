"""Every name perfbench/traced.py wraps must exist in the program.

``Recorder.patch`` skips a missing attribute without a word, so a rename
would silently drop that layer's metrics.  This reads ``install()`` and
resolves each patched attribute against the modules traced.py imports.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from dbgchat import agent, prompts
from dbgchat.enrich import source_window
from dbgchat.llm import ToolCallRequest
from dbgchat.session import Frame

from conftest import FakeSession
from test_agent import make_agent

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


def test_traced_hooks_keep_their_shapes():
    # traced.py reads ``shown_count`` off what agent.build_enriched_stack
    # returns, and calls ``_estimate_bundle(bundle, budget)`` with the
    # first two arguments of truncate_bundle, before and after the cut.
    # ``Recorder._close`` swallows any error there, so a drift would zero
    # those layer metrics without a word.
    for fn in (prompts.truncate_bundle, prompts._estimate_bundle):
        params = list(inspect.signature(fn).parameters.values())[:2]
        assert [p.name for p in params] == ["bundle", "budget"], fn
        assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                   for p in params), fn

    frames = [Frame(level=n, func=f"fn{n}", file=f"f{n}.c",
                    fullname=f"/ws/f{n}.c", line=1) for n in range(30)]
    bundle = prompts.PromptBundle(
        prompts.instructions_text(), None, "", "err", [], "why?")
    budget = 500
    stack = agent.build_enriched_stack(
        FakeSession(frames=frames), "/ws",
        room=prompts.stack_room(bundle, budget))
    assert 0 < stack.shown_count < len(frames)
    # The bundle truncate_bundle gets still holds the unfetched frames.
    bundle = bundle.replace(enriched_stack=stack)
    before = prompts._estimate_bundle(bundle, budget)
    after = prompts._estimate_bundle(
        prompts.truncate_bundle(bundle, budget), budget)
    assert before >= after > 0


def test_traced_tool_functions_are_looked_up_when_a_tool_runs(
        tmp_path, monkeypatch):
    # traced.py replaces agent.code_window and agent.definition by setattr.
    # A reference the agent took at import would keep calling the old
    # functions, and those layers would read zero without an error.
    app = tmp_path / "app.c"
    app.write_text("".join(f"int line_{i};\n" for i in range(1, 13)))
    bot, _, _ = make_agent(
        tmp_path, [], session=FakeSession(symbols={"line_3": (str(app), 3)}))
    calls = [ToolCallRequest("c1", "code", {"loc": "app.c:5"}),
             ToolCallRequest("c2", "definition",
                             {"loc": f"{app}:3", "symbol": "line_3"})]
    replies = [source_window(str(app), 5, 5),
               f"{app}:3\n{source_window(str(app), 3, 5)}"]
    assert [bot._dispatch(call) for call in calls] == replies

    ran = []
    for name in ("code_window", "definition"):
        def recorder(*args, _name=name, _fn=getattr(agent, name)):
            ran.append(_name)
            return _fn(*args)
        monkeypatch.setattr(agent, name, recorder)
    assert [bot._dispatch(call) for call in calls] == replies
    assert ran == ["code_window", "definition"]
