"""Output parsing, feasibility checks, anchoring repair, and task runners.

The model is free-form, so every response is parsed into a symbolic
candidate and checked against the ontology (or the table headers for
joins).  Infeasible outputs are repaired by rewriting the offending
assistant turn with a feasible answer (a synthesized history that keeps
later tasks from inheriting the mistake) or, when nothing parsed at all,
by one clarification re-ask whose answer is spliced over the bad turn.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .backend import (
    Backend,
    Conversation,
    GenerationParams,
    Role,
    Usage,
    assistant,
    user,
)
from .core import (
    EmptyLabel,
    MissingHeaders,
    Ontology,
    OntologyTerm,
    Table,
    TermKind,
    lookup,
    nearest_term,
    normalize_label,
)
from .prompt import (
    DEFAULT_PROMPT_CONFIG,
    JOIN_PREFIX,
    PromptConfig,
    assemble,
    column_type_prompt,
    join_prompt,
    table_class_prompt,
)


class InvalidState(RuntimeError):
    """The conversation is not in the shape the operation requires."""


class TaskFailed(RuntimeError):
    """The task could not produce a feasible result within budget.

    It carries no usage: callers that need the cost of a failed task meter
    the calls at the backend, as the benchmark runner does.
    """

    def __init__(self, task: str, violation: Violation | None, message: str) -> None:
        super().__init__(message)
        self.task = task
        self.violation = violation


class ViolationKind(Enum):
    UNPARSABLE_OUTPUT = "unparsable-output"
    UNKNOWN_CLASS = "unknown-class"
    UNKNOWN_PROPERTY = "unknown-property"
    NONEXISTENT_COLUMN = "nonexistent-column"
    ARITY_MISMATCH = "arity-mismatch"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    offending_text: str
    position: int | None = None

    def __post_init__(self) -> None:
        positional = (ViolationKind.UNKNOWN_PROPERTY, ViolationKind.NONEXISTENT_COLUMN)
        if self.position is not None and self.kind not in positional:
            raise ValueError(f"position is not meaningful for {self.kind.value}")


class ParseError(ValueError):
    """A response did not match the expected output shape."""

    def __init__(self, violation: Violation, items: tuple[str, ...] | None = None) -> None:
        super().__init__(f"{violation.kind.value}: {violation.offending_text!r}")
        self.violation = violation
        self.items = items


class UnknownType:
    """Singleton marking a column the model declined to type."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Unknown"


UNKNOWN = UnknownType()


@dataclass(frozen=True)
class TableClassResult:
    term: OntologyTerm
    raw_response: str
    anchored: bool
    attempts: int


@dataclass(frozen=True)
class ColumnTypeResult:
    assignments: tuple[OntologyTerm | UnknownType, ...]
    raw_response: str
    anchored: bool
    attempts: int


@dataclass(frozen=True)
class JoinPrediction:
    left_cols: tuple[str, ...]
    right_cols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_cols", tuple(self.left_cols))
        object.__setattr__(self, "right_cols", tuple(self.right_cols))
        if not self.left_cols or not self.right_cols:
            raise ValueError("join prediction needs at least one column pair")
        if len(self.left_cols) != len(self.right_cols):
            raise ValueError("left and right column lists must have equal length")

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.left_cols, self.right_cols))


@dataclass(frozen=True)
class JoinTaskRun:
    prediction: JoinPrediction
    conversation: Conversation
    usage: Usage
    attempts: int


@dataclass(frozen=True)
class PipelineConfig:
    """Settings shared by the task runners.

    The table-class and column-type tasks make at most one clarification
    re-ask and one canonical repair pass: with anchoring on, a repaired
    answer replaces the whole assistant turn, so prose around a repaired
    label is not kept.  ``max_anchor_attempts`` bounds only the join
    task's violation re-asks.
    """

    anchoring_enabled: bool = True
    max_anchor_attempts: int = 3
    context_flow: bool = True
    prompt_config: PromptConfig = DEFAULT_PROMPT_CONFIG
    params: GenerationParams = GenerationParams()
    allowed_classes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_anchor_attempts < 1:
            raise ValueError("max_anchor_attempts must be >= 1")


DEFAULT_PIPELINE_CONFIG = PipelineConfig()

LABEL_CLARIFICATION = "Answer with only the label."
LIST_CLARIFICATION = "Answer with only the comma-separated list of labels, one per column."

_IRI_TOKEN_RE = re.compile(r"https://dbpedia\.org/ontology/[^\s`'\"()\[\]{}<>,;]+")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def parse_table_class(response: str) -> str:
    """First ontology IRI in the response, else the first backticked token."""
    match = _IRI_TOKEN_RE.search(response)
    if match:
        return match.group(0)
    for match in _BACKTICK_RE.finditer(response):
        token = match.group(1).strip()
        if token:
            return token
    raise ParseError(Violation(ViolationKind.UNPARSABLE_OUTPUT, response))


def _split_list(text: str) -> tuple[str, ...]:
    items = [item.strip() for item in text.split(",")]
    while items and not items[-1]:
        items.pop()
    return tuple(items)


def parse_column_types(response: str, n: int) -> tuple[str, ...]:
    """Comma-separated type list from the first backticked span or line.

    Any backticked span (or, failing that, the first nonempty line) with
    exactly ``n`` items wins; otherwise the first candidate's count is
    reported as an arity mismatch.
    """
    if n < 1:
        raise ValueError("column count must be >= 1")
    spans = [_split_list(m.group(1)) for m in _BACKTICK_RE.finditer(response)]
    spans = [s for s in spans if s]
    first_line = next((ln for ln in response.splitlines() if ln.strip()), None)
    line_items = _split_list(first_line) if first_line is not None else ()
    for items in spans + ([line_items] if line_items else []):
        if len(items) == n:
            return items
    primary = spans[0] if spans else line_items
    if not primary:
        raise ParseError(Violation(ViolationKind.UNPARSABLE_OUTPUT, response))
    if not spans and len(primary) == 1 and n != 1 and "," not in response:
        # An undelimited lone token is prose, not a list.
        raise ParseError(Violation(ViolationKind.UNPARSABLE_OUTPUT, response))
    raise ParseError(
        Violation(
            ViolationKind.ARITY_MISMATCH,
            f"expected {n} items, got {len(primary)}: {response!r}",
        ),
        items=primary,
    )


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int = 0) -> None:
        self.text = text
        self.pos = pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def rest(self) -> str:
        return self.text[self.pos:]


def _unparsable_join(text: str) -> ParseError:
    return ParseError(Violation(ViolationKind.UNPARSABLE_OUTPUT, text))


def _parse_quoted(cur: _Cursor) -> str:
    quote = cur.peek()
    end = cur.text.find(quote, cur.pos + 1)
    if end < 0:
        raise _unparsable_join(cur.rest())
    name = cur.text[cur.pos + 1 : end]
    cur.pos = end + 1
    return name


def _parse_name_list(cur: _Cursor) -> list[str]:
    cur.skip_ws()
    head = cur.peek()
    if head in ("'", '"'):
        return [_parse_quoted(cur)]
    if head != "[":
        raise _unparsable_join(cur.rest())
    cur.pos += 1
    names: list[str] = []
    while True:
        cur.skip_ws()
        if cur.peek() == "]":
            cur.pos += 1
            break
        if cur.peek() not in ("'", '"'):
            raise _unparsable_join(cur.rest())
        names.append(_parse_quoted(cur))
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
        elif cur.peek() == "]":
            cur.pos += 1
            break
        else:
            raise _unparsable_join(cur.rest())
    if not names:
        raise _unparsable_join(cur.rest())
    return names


_LEFT_ON_RE = re.compile(r"left_on\s*=")
_RIGHT_ON_RE = re.compile(r"\s*,\s*right_on\s*=")
_LONE_ON_RE = re.compile(r"\bon\s*=")


def parse_join_completion(response: str) -> tuple[list[str], list[str]]:
    """Column names from the completion of ``pd.merge(df1, df2, left_on=``.

    Accepts quoted names or bracketed lists for ``left_on``/``right_on``,
    a lone ``on=`` (same columns both sides), and tolerates an echoed full
    merge call plus a trailing ``)``.
    """
    text = response.strip()
    if text.startswith("```"):
        lines = [ln for ln in text.splitlines() if not ln.startswith("```")]
        text = "\n".join(lines).strip()
    text = text.strip("`").strip()
    if not text:
        raise _unparsable_join(response)

    left_match = _LEFT_ON_RE.search(text)
    if left_match is not None:
        cur = _Cursor(text, left_match.end())
        left = _parse_name_list(cur)
        right = _parse_right_names(cur)
    elif text[0] in ("'", '"', "["):
        cur = _Cursor(text, 0)
        left = _parse_name_list(cur)
        right = _parse_right_names(cur)
    else:
        lone = _LONE_ON_RE.search(text)
        if lone is None:
            raise _unparsable_join(text)
        cur = _Cursor(text, lone.end())
        left = _parse_name_list(cur)
        right = list(left)
    trailing = cur.rest().strip().strip("`").strip()
    while trailing and trailing[0] in ").;":
        trailing = trailing[1:].lstrip()
    if trailing:
        raise _unparsable_join(trailing)
    return left, right


def _parse_right_names(cur: _Cursor) -> list[str]:
    match = _RIGHT_ON_RE.match(cur.text, cur.pos)
    if match is None:
        raise _unparsable_join(cur.rest())
    cur.pos = match.end()
    return _parse_name_list(cur)


def _canonical(label: str, ontology: Ontology) -> str:
    try:
        return normalize_label(label, ontology)
    except EmptyLabel:
        return ""


def _resolve(
    label: str, kind: TermKind, ontology: Ontology
) -> OntologyTerm | UnknownType | None:
    """Exact term for a parsed label; ``None`` when it is infeasible.

    A property label may also be Unknown, which is always feasible.
    """
    canonical = _canonical(label, ontology)
    if kind is TermKind.PROPERTY and canonical.lower() == "unknown":
        return UNKNOWN
    return lookup(ontology, kind, canonical)


def check_table_class(candidate: str, ontology: Ontology) -> Violation | None:
    """Feasibility check for a parsed table-class candidate."""
    if _resolve(candidate, TermKind.CLASS, ontology) is None:
        return Violation(ViolationKind.UNKNOWN_CLASS, candidate)
    return None


def check_column_types(items: Sequence[str], ontology: Ontology) -> Violation | None:
    """Feasibility check for a parsed column-type list; Unknown is always fine."""
    for index, item in enumerate(items):
        if _resolve(item, TermKind.PROPERTY, ontology) is None:
            return Violation(ViolationKind.UNKNOWN_PROPERTY, item, position=index)
    return None


def check_join(
    left_names: Sequence[str],
    right_names: Sequence[str],
    left: Table,
    right: Table,
) -> Violation | None:
    """Predicted join columns must exist and pair up one-to-one."""
    if left.headers is None or right.headers is None:
        raise MissingHeaders("join checking requires headers on both tables")
    if len(left_names) != len(right_names):
        return Violation(
            ViolationKind.ARITY_MISMATCH,
            f"left_on names {len(left_names)} columns, right_on {len(right_names)}",
        )
    for index, name in enumerate(left_names):
        if name not in left.headers:
            return Violation(ViolationKind.NONEXISTENT_COLUMN, name, position=index)
    for index, name in enumerate(right_names):
        if name not in right.headers:
            return Violation(ViolationKind.NONEXISTENT_COLUMN, name, position=index)
    return None


def anchor(conversation: Conversation, replacement: str) -> Conversation:
    """New conversation whose final assistant turn says ``replacement``.

    The original conversation is untouched; turn count and all earlier
    turns are preserved.
    """
    last = conversation.last
    if last is None or last.role is not Role.ASSISTANT:
        raise InvalidState("anchoring requires a final assistant turn")
    return conversation.replaced_last(replacement)


def render_term(term: OntologyTerm | UnknownType, ontology: Ontology) -> str:
    """Canonical text for a resolved label: the full IRI for a class, the
    ontology's short prefix and local name for a property, else ``Unknown``."""
    if isinstance(term, UnknownType):
        return "Unknown"
    if term.kind is TermKind.CLASS:
        return term.iri
    for short, iri_prefix in ontology.namespace_prefixes.items():
        if term.iri.startswith(iri_prefix):
            return short + term.local_name
    return term.local_name


def _complete_into(
    conversation: Conversation,
    backend: Backend,
    params: GenerationParams,
) -> tuple[str, Usage]:
    text, usage = backend.complete(conversation, params)
    # An empty completion still occupies an assistant turn; a lone space
    # keeps the turn invariant and parses as unparsable output downstream.
    conversation.append(assistant(text if text else " "))
    return text, usage


def _splice_retry(
    conversation: Conversation,
    clarification: str,
    backend: Backend,
    params: GenerationParams,
) -> tuple[Conversation, str, Usage]:
    """Ask once more on a side branch and graft the answer over the bad turn."""
    retry = Conversation(conversation.turns)
    retry.append(user(clarification))
    text, usage = backend.complete(retry, params)
    return anchor(conversation, text if text else " "), text, usage


def _parse_labels(
    text: str, arity: int | None, pad: bool
) -> tuple[tuple[str, ...], bool]:
    """Labels in ``text`` and whether their count had to be fixed.

    ``arity`` is ``None`` for a single table class.  With ``pad`` set, a
    list of the wrong length is padded with Unknown or truncated.
    """
    if arity is None:
        return (parse_table_class(text),), False
    try:
        return parse_column_types(text, arity), False
    except ParseError as exc:
        if not pad or exc.items is None:
            raise
        return exc.items[:arity] + ("Unknown",) * (arity - len(exc.items)), True


def _run_label_task(
    table: Table,
    prompt: str,
    kind: TermKind,
    arity: int | None,
    clarification: str,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig,
    conversation: Conversation | None,
) -> tuple[ColumnTypeResult, Conversation, Usage]:
    """Ask, parse, repair: the one loop behind the table-class and
    column-type tasks.

    An unparsable answer gets one clarification re-ask spliced over the
    bad turn.  Every infeasible label is then replaced by its nearest term
    in one pass and, with anchoring on, the final assistant turn is
    rewritten once in canonical form.  A single class comes back as the
    one assignment of the result.
    """
    conv = conversation if conversation is not None else Conversation()
    conv.append(user(prompt))
    raw_response, total = _complete_into(conv, backend, config.params)
    attempts = 1
    while True:
        try:
            labels, padded = _parse_labels(conv.last.text, arity, config.anchoring_enabled)
            break
        except ParseError as exc:
            if not config.anchoring_enabled or attempts > 1:
                task, wanted = (
                    ("table-class", "parsable table class")
                    if arity is None
                    else ("column-type", "usable column-type list")
                )
                raise TaskFailed(
                    task,
                    exc.violation,
                    f"no {wanted} for {table.name!r} after {attempts} attempts",
                ) from exc
            conv, raw_response, usage = _splice_retry(
                conv, clarification, backend, config.params
            )
            total += usage
            attempts += 1

    exact = [_resolve(label, kind, ontology) for label in labels]
    assignments = tuple(
        nearest_term(ontology, kind, _canonical(label, ontology))[0] if term is None else term
        for label, term in zip(labels, exact)
    )
    anchored = attempts > 1
    if config.anchoring_enabled and (padded or None in exact):
        rendered = [render_term(term, ontology) for term in assignments]
        text = rendered[0] if arity is None else "`" + ", ".join(rendered) + "`"
        conv = anchor(conv, text)
        anchored = True
    return ColumnTypeResult(assignments, raw_response, anchored, attempts), conv, total


def run_table_class_task(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    conversation: Conversation | None = None,
) -> tuple[TableClassResult, Conversation, Usage]:
    """Ask for the table's ontology class, mitigating infeasible answers."""
    prompt = assemble(table_class_prompt(table, config.allowed_classes, config.prompt_config))
    run, conv, usage = _run_label_task(
        table, prompt, TermKind.CLASS, None, LABEL_CLARIFICATION,
        ontology, backend, config, conversation,
    )
    (term,) = run.assignments
    return TableClassResult(term, run.raw_response, run.anchored, run.attempts), conv, usage


def run_column_type_task(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    conversation: Conversation | None = None,
) -> tuple[ColumnTypeResult, Conversation, Usage]:
    """Ask for one property per column, mitigating infeasible answers."""
    prompt = assemble(column_type_prompt(table, config.prompt_config))
    return _run_label_task(
        table, prompt, TermKind.PROPERTY, table.arity, LIST_CLARIFICATION,
        ontology, backend, config, conversation,
    )


def run_table_pipeline(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
) -> tuple[TableClassResult, ColumnTypeResult, Usage]:
    """Table class then column types, sharing one conversation so the
    class finding informs the type answers (unless context flow is off)."""
    class_result, conv, usage_class = run_table_class_task(
        table, ontology, backend, config
    )
    followup = conv if config.context_flow else None
    column_result, _, usage_columns = run_column_type_task(
        table, ontology, backend, config, conversation=followup
    )
    return class_result, column_result, usage_class + usage_columns


def _describe_join_violation(
    violation: Violation, left: Table, right: Table
) -> str:
    if violation.kind is ViolationKind.NONEXISTENT_COLUMN:
        name = violation.offending_text
        in_left = left.headers is not None and name in left.headers
        in_right = right.headers is not None and name in right.headers
        if not in_left and not in_right:
            where = "either dataframe"
        elif not in_left:
            where = "df1"
        else:
            where = "df2"
        issue = f"The column {name!r} does not exist in {where}."
    elif violation.kind is ViolationKind.ARITY_MISMATCH:
        issue = "left_on and right_on must list the same number of columns."
    else:
        issue = "That answer could not be parsed."
    return f"{issue} {JOIN_PREFIX}"


def run_join_task_detailed(
    left: Table,
    right: Table,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    context_notes: str | None = None,
) -> JoinTaskRun:
    """Join prediction with violation-driven re-asks and full run details."""
    if left.headers is None or right.headers is None:
        raise MissingHeaders("join prediction requires headers on both tables")
    components = join_prompt(
        left,
        right,
        config.prompt_config,
        context_notes if config.context_flow else None,
    )
    conv = Conversation()
    conv.append(user(assemble(components)))

    total = Usage()
    attempts = 0
    last_violation: Violation | None = None
    for round_index in range(config.max_anchor_attempts + 1):
        _, usage = _complete_into(conv, backend, config.params)
        total += usage
        attempts += 1
        current = conv.last.text
        try:
            left_names, right_names = parse_join_completion(current)
            violation = check_join(left_names, right_names, left, right)
        except ParseError as exc:
            violation = exc.violation
        if violation is None:
            prediction = JoinPrediction(tuple(left_names), tuple(right_names))
            return JoinTaskRun(prediction, conv, total, attempts)
        last_violation = violation
        if not config.anchoring_enabled or round_index >= config.max_anchor_attempts:
            break
        conv.append(user(_describe_join_violation(violation, left, right)))

    raise TaskFailed(
        "join",
        last_violation,
        f"no feasible join between {left.name!r} and {right.name!r} "
        f"after {attempts} attempts",
    )
