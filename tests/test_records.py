"""Records compare field by field and are not hashable; the other classes
keep identity."""

from __future__ import annotations

import pytest

from dbgchat.enrich import ElisionMarker, EnrichedFrame, EnrichedStack
from dbgchat.llm import USER, ChatMessage, ToolCallRequest, ToolDef
from dbgchat.mi import MIRecord, RecordKind
from dbgchat.prompts import PromptBundle
from dbgchat.sanitizer import Verdict, native_strict
from dbgchat.session import Frame, StopInfo

#: One record of each class whose constructor takes its fields in
#: ``__slots__`` order, every field set.
RECORDS = [
    MIRecord(RecordKind.RESULT, 7, "done", {"value": "1"}, "t", True),
    ToolCallRequest("call_0_0", "debug", {"command": "bt"}),
    Frame(1, "main", "app.c", "/src/app.c", 3, "libc.so.6"),
    StopInfo("assertion", "SIGABRT", "Aborted", 134, Frame(0, "main"),
             "n > 0"),
    EnrichedFrame(Frame(0, "main"), "---> 3 x;", [("x", "int", "1")],
                  [("g", "int", "7")], True),
    ElisionMarker(2, True),
    EnrichedStack([ElisionMarker(1), Frame(0, "main")]),
    PromptBundle("do", EnrichedStack([]), "argv", "SIGSEGV",
                 [("bt", "#0 main")], "why?"),
    Verdict(False, "calls function 'f'"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_equals_its_copy_and_differs_in_each_field(record):
    cls = type(record)
    values = [getattr(record, name) for name in cls.__slots__]
    assert cls(*values) == record
    assert not cls(*values) != record
    for index in range(len(values)):
        changed = cls(*values[:index], object(), *values[index + 1:])
        assert changed != record, cls.__slots__[index]
    assert record != values[0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_a_message_compares_without_its_cached_encoding():
    sent = ChatMessage(USER, "hi", tool_calls=[ToolCallRequest("c", "x", {})])
    assert sent.wire_json and "wire_json" in vars(sent)
    assert sent == ChatMessage(USER, "hi",
                               tool_calls=[ToolCallRequest("c", "x", {})])
    for changed in (ChatMessage("assistant", "hi"), ChatMessage(USER, "ho"),
                    ChatMessage(USER, "hi", tool_call_id="c"),
                    ChatMessage(USER, "hi")):
        assert changed != sent
    with pytest.raises(TypeError, match="unhashable"):
        hash(sent)


def test_tool_defs_and_policies_keep_identity():
    tool = ToolDef("debug", "Run a command.", [("command", "the command")])
    assert tool == tool
    assert tool != ToolDef("debug", "Run a command.",
                           [("command", "the command")])
    assert native_strict() != native_strict()
    assert len({tool, tool, native_strict()}) == 2


def test_a_record_repr_is_unchanged():
    assert repr(RECORDS[0]) == (
        "MIRecord(kind=<RecordKind.RESULT: 'result'>, token=7, klass='done', "
        "payload={'value': '1'}, text='t', unparsed=True)")
