"""Assemble chat prompts under a token budget with deterministic truncation.

The initial prompt carries six sections in fixed order: Instructions,
Enriched Stack Trace, Inputs, Error, History, User Text.  Instructions go
in the system message, the rest in one user message.  The stack and the
history stay entries (an EnrichedStack and (command, output) pairs) until
the prompt is rendered, and the budget is cut on those entries.  When the
estimate exceeds the budget, content is dropped in a fixed priority:
history entries oldest-first, then the Inputs section, then unmarked
frames from the outermost end (the stopped frame is never dropped), with
one count note where the first frame was dropped.  Each entry is rendered
once to learn its size; every cut after that is arithmetic on the sizes.
Instructions, Error, and User Text are never altered.

Since the cut order is fixed, the frames it would drop are known before
they are fetched: `stack_room` tells the stack builder how many bytes the
stack may take, and the builder stops at the first frame that cannot fit.
The frames further out, never fetched, reach truncation as bare Frames,
which never fit, so the same cut drops them.
"""

from __future__ import annotations

from . import PROMPT
from .enrich import ElisionMarker, EnrichedFrame, EnrichedStack
from .errors import BudgetImpossible, Record
from .llm import SYSTEM, USER, ChatMessage
from .session import Frame, StopInfo

DEFAULT_MAX_TOKENS = 16000


def estimate_tokens(text: str) -> int:
    """Deterministic, model-independent size estimate: ceil(bytes / 4)."""
    return (len(text.encode("utf-8")) + 3) // 4


class PromptBundle(Record):
    __slots__ = ("instructions", "enriched_stack", "inputs", "error",
                 "history", "user_text")

    def __init__(self, instructions: str, enriched_stack: EnrichedStack,
                 inputs: str, error: str, history: list[tuple[str, str]],
                 user_text: str):
        self.instructions = instructions
        self.enriched_stack = enriched_stack
        self.inputs = inputs
        self.error = error
        self.history = history
        self.user_text = user_text

    def replace(self, **changes) -> PromptBundle:
        """A copy with the named fields changed."""
        fields = {name: getattr(self, name) for name in PromptBundle.__slots__}
        return PromptBundle(**(fields | changes))


# --------------------------------------------------------------------------
# Fixed text
# --------------------------------------------------------------------------

_INSTRUCTIONS = """\
You are a debugging assistant. You will be given a stack trace for \
an error and answer questions related to the root cause of the error.

Call the debug function to run debugger commands on the stopped program. \
You may run the following commands: bt, up, down, frame, p expression, \
list, info locals. Print any variable value or expression that you \
believe may contribute to the error.

Call the code function to see the source lines surrounding a location, \
where a location has the form filename:lineno.

Call the definition function to see where the first occurrence of a \
symbol at a given location is declared. Unless it comes from a common, \
widely used library, look up any symbol that is referenced in the lines \
leading up to the error. Call the provided functions as many times as \
you would like.

The root cause of any error is likely due to a problem in the source \
code from the user. Explain why each variable contributing to the error \
has been set to the value that it has. Continue with your explanations \
until you reach the root cause of the error. Your answer may be as long \
as necessary.

End your answer with a section titled "Recommendation" that contains one of:
- a fix if you have identified the root cause
- a numbered list of 1-3 suggestions for how to continue debugging if \
you have not\
"""

HISTORY_INTRO = ("This is the history of some debugger commands I ran "
                 "and the results:")


def instructions_text() -> str:
    """The fixed system prompt; byte-stable across calls."""
    return _INSTRUCTIONS


def error_section(stop: StopInfo | None) -> str:
    """Describe the stop for the Error section."""
    if stop is None:
        return "The program has not produced an error."
    if stop.kind == "assertion":
        where = _frame_phrase(stop)
        return (f"The program stopped on {stop.signal_name} after a failed "
                f"assertion{where}.\n"
                f'The code "{stop.assertion_text}" is correct and must not '
                "be changed.")
    if stop.kind == "signal":
        meaning = f" ({stop.signal_meaning})" if stop.signal_meaning else ""
        return (f"The program stopped on {stop.signal_name}{meaning}"
                f"{_frame_phrase(stop)}.")
    if stop.kind == "exited":
        if stop.exit_code == 0:
            return "The program exited normally with code 0."
        return f"The program exited with code {stop.exit_code}."
    if stop.kind == "breakpoint":
        return f"The program is stopped at a breakpoint{_frame_phrase(stop)}."
    return "The program is stopped."


def _frame_phrase(stop: StopInfo) -> str:
    if stop.frame is None:
        return ""
    return f" in {stop.frame.func} at {stop.frame.location()}"


def _history_block(command: str, output: str) -> str:
    block = f"{PROMPT}{command}"
    if output.rstrip("\n"):
        block += "\n" + output.rstrip("\n")
    return block


def format_history(entries: list[tuple[str, str]]) -> str:
    """Render (command, output) pairs the way the user saw them."""
    return "\n".join(_history_block(command, output)
                     for command, output in entries)


def format_inputs(argv: list[str], stdin_text: str | None) -> str:
    parts = []
    if argv:
        parts.append("Command-line arguments: " + " ".join(argv))
    if stdin_text:
        parts.append("Standard input:\n" + stdin_text.rstrip("\n"))
    return "\n".join(parts)


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------

_STACK_HEADING = ("Enriched Stack Trace:\n"
                  "The program has this stack trace:\n")
_INPUTS_HEADING = "Inputs:\n"
_HISTORY_HEADING = f"History:\n{HISTORY_INTRO}\n"


def _user_sections(bundle: PromptBundle) -> str:
    sections = []
    if bundle.enriched_stack.entries:
        sections.append(_STACK_HEADING + bundle.enriched_stack.render())
    if bundle.inputs:
        sections.append(_INPUTS_HEADING + bundle.inputs)
    sections.append("Error:\n" + bundle.error)
    if bundle.history:
        sections.append(_HISTORY_HEADING + format_history(bundle.history))
    sections.append("User Text:\n" + bundle.user_text)
    return "\n\n".join(sections)


def render_messages(bundle: PromptBundle) -> list[ChatMessage]:
    return [
        ChatMessage(role=SYSTEM, content=bundle.instructions),
        ChatMessage(role=USER, content=_user_sections(bundle)),
    ]


def _estimate_bundle(bundle: PromptBundle, budget: int) -> int:
    """Estimated tokens of both messages; the estimate ignores `budget`."""
    return (estimate_tokens(bundle.instructions)
            + estimate_tokens(_user_sections(bundle)))


def _bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _section_bytes(heading: str, parts: int, body: int, sep: int) -> int:
    """Bytes an optional section adds to the user message.

    Its body joins `parts` entries of `body` bytes in all with `sep`-byte
    separators.  A section without parts is left out; otherwise it costs
    its heading and the blank line that joins it to its neighbour.
    """
    if not parts:
        return 0
    return _bytes(heading) + body + sep * (parts - 1) + 2


def _room(bundle: PromptBundle, budget: int) -> int:
    """Bytes `budget` tokens leave for the Stack, Inputs and History
    sections once Instructions, Error and User Text are in."""
    fixed = _bytes(_user_sections(bundle.replace(
        enriched_stack=EnrichedStack([]), inputs="", history=[])))
    # ceil(bytes / 4) <= n exactly when bytes <= 4 * n.
    return 4 * (budget - estimate_tokens(bundle.instructions)) - fixed


def stack_room(bundle: PromptBundle, budget: int) -> int:
    """The `room` for build_enriched_stack: bytes the stack's entries may
    take, each with its separator, before a frame has to be cut.  Only the
    bundle's Instructions, Error and User Text are read."""
    return _room(bundle, budget) - _bytes(_STACK_HEADING)


def truncate_bundle(bundle: PromptBundle, budget: int) -> PromptBundle:
    """Shrink the bundle deterministically until it fits `budget` tokens.

    Idempotent: a bundle that already fits is returned unchanged.
    Raises BudgetImpossible when the protected sections cannot fit.
    A bare Frame in the stack never fits, so it is always cut.
    """
    room = _room(bundle, budget)
    entries = bundle.enriched_stack.entries
    never = max(room, 0) + 1  # no stack holding a bare Frame fits
    entry_bytes = [never if isinstance(e, Frame) else _bytes(e.render())
                   for e in entries]
    block_bytes = [_bytes(_history_block(*e)) for e in bundle.history]
    stack = _section_bytes(_STACK_HEADING, len(entries), sum(entry_bytes), 2)
    inputs = (_bytes(_INPUTS_HEADING + bundle.inputs) + 2
              if bundle.inputs else 0)

    history = sum(block_bytes)
    for dropped in range(len(block_bytes) + 1):
        if dropped:
            history -= block_bytes[dropped - 1]
        kept = _section_bytes(_HISTORY_HEADING, len(block_bytes) - dropped,
                              history, 1)
        if stack + inputs + kept <= room:
            return (bundle.replace(history=bundle.history[dropped:])
                    if dropped else bundle)

    # Without inputs; when there were none, the last check above was this.
    if stack <= room:
        return bundle.replace(inputs="", history=[])

    droppable = [i for i, e in enumerate(entries) if isinstance(e, Frame)
                 or isinstance(e, EnrichedFrame) and not e.marked]
    body = sum(entry_bytes)
    for count, index in enumerate(droppable, start=1):
        body -= entry_bytes[index]
        note = ElisionMarker(count, budget_cut=True)
        size = _section_bytes(_STACK_HEADING, len(entries) - count + 1,
                              body + _bytes(note.render()), 2)
        if size <= room:
            gone = set(droppable[:count])
            kept_entries = [e for i, e in enumerate(entries) if i not in gone]
            kept_entries.insert(droppable[0], note)
            return bundle.replace(enriched_stack=EnrichedStack(kept_entries),
                                  inputs="", history=[])

    raise BudgetImpossible(
        f"cannot fit the prompt in {budget} tokens: instructions, "
        "error, and user text alone exceed the budget")


def make_initial_prompt(bundle: PromptBundle,
                        max_tokens: int = DEFAULT_MAX_TOKENS
                        ) -> list[ChatMessage]:
    """Build the first prompt of a dialog, truncating to max_tokens."""
    if not bundle.instructions or not bundle.user_text:
        raise ValueError("instructions and user text must be nonempty")
    return render_messages(truncate_bundle(bundle, max_tokens))


def make_followup_prompt(history: list[tuple[str, str]],
                         user_text: str) -> list[ChatMessage]:
    """A follow-up carries only the (command, output) pairs run since the
    last send, rendered as in the first prompt, plus the user's text."""
    if not history:
        return [ChatMessage(role=USER, content=user_text)]
    content = (f"{_HISTORY_HEADING}{format_history(history)}\n\n"
               f"User Text:\n{user_text}")
    return [ChatMessage(role=USER, content=content)]
