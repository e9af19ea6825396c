"""Per-layer metrics from the spans of traced sessions.

Counts and sizes are means per session (every run holds whole rounds, so
they repeat exactly).  Times are condensed like the end-to-end timings:
each traced session's figure is scaled to the reference machine by the
speed probes taken around the session (see speed.py), and the run reports
the median over sessions.  The tracing overhead compares traced sessions
with the untraced ones that alternate with them in the same run.
"""

from __future__ import annotations

import statistics

COUNTED = ["mi.send_command", "session.stack_depth", "session.backtrace",
           "session.frame_variables", "session.evaluate",
           "values.render_value", "prompts.make_followup_prompt",
           "llm.complete", "sanitizer.sanitize"]
TIMED = ["mi.send_command", "session.run_to_stop", "session.global_variables",
         "session.execute_console", "session.symbol_definition",
         "enrich.build_enriched_stack", "values.render_value",
         "prompts.make_initial_prompt", "prompts.truncate_bundle",
         "source_nav.code", "source_nav.definition", "agent.handle_input",
         "cli.stop_report"]
SELF_TIMED = ["mi.send_command", "enrich.build_enriched_stack",
              "prompts.make_initial_prompt", "llm.complete"]

# name -> (unit, how sessions combine)
UNITS: dict[str, tuple[str, str]] = {}
for _name in COUNTED:
    UNITS[f"{_name}.count"] = ("count", "mean")
for _name in TIMED:
    UNITS[f"{_name}.ms"] = ("ms", "time")
for _name in SELF_TIMED:
    UNITS[f"{_name}.self_ms"] = ("ms", "time")
UNITS.update({
    "mi.parse.ms": ("ms", "time"),
    "mi.parse.mb_s": ("MB/s", "rate"),
    "mi.bytes_in": ("kB", "mean"),
    "enrich.frames_shown": ("count", "mean"),
    "enrich.mi_commands_per_frame": ("count", "mean"),
    "prompts.tokens_before": ("count", "mean"),
    "prompts.tokens_after": ("count", "mean"),
    "llm.request_kb": ("kB", "mean"),
    "llm.complete.first_event_ms": ("ms", "time"),
    "llm.complete.first_event_ms.session_first": ("ms", "time"),
    "sanitizer.sanitize.denied": ("count", "mean"),
    "cli.import_ms": ("ms", "time"),
})


def session_metrics(doc: dict, result: dict) -> dict:
    """Per-layer figures for one traced session."""
    spans = doc["spans"]
    by_id = {s[0]: s for s in spans}
    out = {name: 0.0 for name in UNITS}

    def under(span, ancestor: str) -> bool:
        parent = span[1]
        while parent is not None:
            node = by_id.get(parent)
            if node is None:
                return False
            if node[2] == ancestor:
                return True
            parent = node[1]
        return False

    parse_bytes = parse_s = 0.0
    enrich_commands = 0
    first_events = []
    for span in sorted(spans, key=lambda s: s[4]):
        _, _, name, _, start, end, self_s, info = span
        if f"{name}.count" in out:
            out[f"{name}.count"] += 1
        if f"{name}.ms" in out:
            out[f"{name}.ms"] += (end - start) * 1000
        if f"{name}.self_ms" in out:
            out[f"{name}.self_ms"] += self_s * 1000
        if name == "mi.parse":
            parse_s += end - start
            parse_bytes += info or 0
        elif name == "mi.send_command" and under(span, "enrich.build_enriched_stack"):
            enrich_commands += 1
        elif name == "enrich.build_enriched_stack":
            out["enrich.frames_shown"] += info or 0
        elif name == "prompts.truncate_bundle" and info:
            out["prompts.tokens_before"] += info[0]
            out["prompts.tokens_after"] += info[1]
        elif name == "sanitizer.sanitize" and info:
            out["sanitizer.sanitize.denied"] += 1
        elif name == "llm.complete" and info is not None:
            first_events.append(info * 1000)
    out["mi.parse.ms"] = parse_s * 1000
    out["mi.parse.mb_s"] = parse_bytes / parse_s / 1e6 if parse_s else 0.0
    out["mi.bytes_in"] = parse_bytes / 1000
    if out["enrich.frames_shown"]:
        out["enrich.mi_commands_per_frame"] = enrich_commands / out["enrich.frames_shown"]
    out["llm.request_kb"] = sum(r["bytes"] for r in result["requests"]) / 1000
    if first_events:
        out["llm.complete.first_event_ms"] = statistics.median(first_events)
        out["llm.complete.first_event_ms.session_first"] = first_events[0]
    out["cli.import_ms"] = doc["import_s"] * 1000
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pooled(samples: list[dict], key: str) -> list:
    """The timings under key of every sample, in one list."""
    return [timing for s in samples for timing in s[key]]


def run_metrics(traced: list[dict], untraced: list[dict], gauge) -> dict:
    """name -> (value, unit) over a run's traced and untraced sessions."""
    factors = [gauge.factor(*s["window"]) for s in traced]
    metrics = {}
    for name, (unit, how) in UNITS.items():
        values = [s["layers"].get(name, 0.0) for s in traced]
        if how == "time":
            values = [v * f for v, f in zip(values, factors)]
        elif how == "rate":
            values = [v / f for v, f in zip(values, factors)]
        if how == "mean":
            value = sum(values) / len(values) if values else 0.0
        else:
            value = median(values)
        metrics[name] = (value, unit)

    for key in ("launch_ms", "turn_ms", "cpu_ms"):
        base = gauge.scaled_median(pooled(untraced, key))
        delta = gauge.scaled_median(pooled(traced, key)) - base
        if key == "cpu_ms":
            metrics["trace.overhead.cpu_pct"] = (100 * delta / base if base else 0.0, "%")
        else:
            metrics[f"trace.overhead.{key}"] = (delta, "ms")
    return metrics
