"""Request bodies of one long-chat-shaped session, built two ways.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  The session has a
first question and thirty follow-ups.  Each chat line makes two tool
rounds and a closing answer, so 93 requests, each re-sending the whole
conversation; the last body is about 90 kB.  ``join`` times
``HttpBackend.complete``, which joins the messages' cached encodings,
with a transport that sends nothing.  ``dict`` times the earlier way,
kept here as the reference: a dict of the whole conversation, re-encoded
with ``json.dumps`` for every request.  Each round starts from freshly
built messages, so ``join`` pays for encoding every message once.
``extra_info`` holds the requests and bytes per session.  Nothing here
asserts on timing.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from dbgchat.agent import TOOLS
from dbgchat.llm import (
    ASSISTANT,
    SYSTEM,
    TOOL,
    USER,
    ChatMessage,
    HttpBackend,
    ToolCallRequest,
)
from dbgchat.prompts import instructions_text

MODEL = "bench-model"
FOLLOW_UPS = 30


def hexdump(rows: int, base: int) -> str:
    return "".join(
        f"0x{base + 16 * r:x} <buf+{16 * r}>:\t"
        + "\t".join(f"0x{(r * 37 + c * 11) % 256:02x}" for c in range(16))
        + "\n" for r in range(rows))


def session() -> tuple[list[ChatMessage], list[int]]:
    """The messages of one session, and how many each request carries."""
    first = ("The program stopped on SIGSEGV (Segmentation fault).\n\n"
             + "\n".join(f'#{n}  post_entry (ledger=0x7ffc{n:08x}, '
                         f'entry=0x0, i={n}) at ledger.c:{40 + n}\n'
                         f'    ledger = {{count = 2, balance = 1234567, '
                         f'slots = {{0x5555{n:08x} <repeats 32 times>}}}}'
                         for n in range(40))
             + "\n\nQuestion: why did it crash?")
    messages = [ChatMessage(SYSTEM, instructions_text()),
                ChatMessage(USER, first)]
    cuts = []
    for k in range(FOLLOW_UPS + 1):
        if k:
            messages.append(ChatMessage(
                USER, f"Follow-up {k:02d}: what does \"slots[i]\" hold "
                      "before post_entry reads it?"))
        for rnd in range(2):
            cuts.append(len(messages))
            calls = [ToolCallRequest(f"call_{k}_{rnd}_{i}", "debug",
                                     {"command": f"x/{16 * (i + 1)}xb buf"})
                     for i in range(1 + (k + rnd) % 2)]
            messages.append(ChatMessage(ASSISTANT, "", tool_calls=calls))
            output = hexdump(3 + 2 * (k % 3), 0x7ffc0000)
            messages += [ChatMessage(TOOL, output, tool_call_id=c.id)
                         for c in calls]
        cuts.append(len(messages))
        messages.append(ChatMessage(
            ASSISTANT, f"Point {k:02d}: the slot read on ledger.c:52 is "
                       "empty, and post_entry trusts it.\n\nRecommendation"
                       "\n\nCheck each slot for NULL before posting it."))
    return messages, cuts


def dict_bodies(messages: list[ChatMessage], cuts: list[int]) -> list[bytes]:
    return [json.dumps({"model": MODEL,
                        "messages": [m.to_wire() for m in messages[:n]],
                        "stream": True,
                        "tools": [t.to_wire() for t in TOOLS]}).encode("utf-8")
            for n in cuts]


def join_bodies(messages: list[ChatMessage], cuts: list[int]) -> list[bytes]:
    backend = HttpBackend("http://127.0.0.1:9", MODEL, "DBGCHAT_BENCH_KEY")
    sent = []

    def post(key, body):
        sent.append(body)
        return io.BytesIO()

    backend._post_with_retry = post
    for n in cuts:
        list(backend.complete(messages[:n], TOOLS))
    return sent


WAYS = {"dict": dict_bodies, "join": join_bodies}


@pytest.mark.parametrize("way", WAYS)
def test_session_bodies(benchmark, monkeypatch, way):
    monkeypatch.setenv("DBGCHAT_BENCH_KEY", "sk-bench")
    messages, cuts = session()
    bodies = WAYS[way](messages, cuts)
    assert bodies == dict_bodies(messages, cuts)

    def fresh():
        return ([replace(m) for m in messages], cuts), {}

    benchmark.pedantic(WAYS[way], setup=fresh, rounds=30)
    benchmark.extra_info["requests"] = len(bodies)
    benchmark.extra_info["bytes"] = sum(map(len, bodies))
    benchmark.extra_info["last_bytes"] = len(bodies[-1])
