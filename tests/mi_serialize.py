"""Render MI records back to protocol lines.

The parser's round-trip tests use this as their oracle: parsing the
rendered line must give back an equal record.  The textual form is
normalized, not necessarily byte-identical to the line first parsed.
"""

from __future__ import annotations

from dbgchat.mi import MIRecord, MIValue, RecordKind

_SIGILS = {
    RecordKind.RESULT: "^",
    RecordKind.ASYNC_EXEC: "*",
    RecordKind.ASYNC_NOTIFY: "=",
    RecordKind.CONSOLE_STREAM: "~",
    RecordKind.TARGET_STREAM: "@",
    RecordKind.LOG_STREAM: "&",
}

_STREAMS = (RecordKind.CONSOLE_STREAM, RecordKind.TARGET_STREAM,
            RecordKind.LOG_STREAM)


def serialize(record: MIRecord) -> str:
    """One protocol line for the record, without the newline."""
    if record.unparsed:
        return record.text
    if record.kind is RecordKind.PROMPT:
        return "(gdb) "
    if record.kind in _STREAMS:
        return _SIGILS[record.kind] + _escape_cstring(record.text)
    head = "" if record.token is None else str(record.token)
    out = f"{head}{_SIGILS[record.kind]}{record.klass}"
    parts = [f"{k}={_serialize_value(v)}" for k, v in record.payload.items()]
    if parts:
        out += "," + ",".join(parts)
    return out


def _escape_cstring(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append("\\%03o" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _serialize_value(value: MIValue) -> str:
    if isinstance(value, str):
        return _escape_cstring(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}={_serialize_value(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        parts = []
        for item in value:
            if isinstance(item, dict) and len(item) == 1:
                ((k, v),) = item.items()
                parts.append(f"{k}={_serialize_value(v)}")
            else:
                parts.append(_serialize_value(item))
        return "[" + ",".join(parts) + "]"
    raise TypeError(f"not an MI value: {value!r}")
