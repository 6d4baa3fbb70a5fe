"""Output parsing, feasibility checks, anchoring repair, and task runners.

The model is free-form, so every response is parsed into a symbolic
candidate and checked against the ontology (or the table headers for
joins).  Infeasible outputs are repaired by rewriting the offending
assistant turn with a feasible answer (a synthesized history that keeps
later tasks from inheriting the mistake) or, when nothing parsed at all,
by one clarification re-ask whose answer is spliced over the bad turn.
Every task returns a :class:`TaskRun`, which lists what was repaired as
:class:`Violation` data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, Sequence, TypeVar

from .backend import (
    Backend,
    Conversation,
    GenerationParams,
    Role,
    assistant,
    user,
)
from .core import (
    DBPEDIA_ONTOLOGY_IRI,
    DBPEDIA_PREFIX,
    EmptyLabel,
    MissingHeaders,
    Ontology,
    OntologyTerm,
    Table,
    TermKind,
    lookup,
    nearest_name,
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

    It carries no usage: to cost a failed task, wrap the backend in a
    :class:`~tabnotate.backend.MeteredBackend`, as the benchmark runner does.
    """

    def __init__(self, violation: Violation | None, message: str) -> None:
        super().__init__(message)
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
    local_name = "Unknown"

    def __repr__(self) -> str:
        return self.local_name


UNKNOWN = UnknownType()


_Value = TypeVar("_Value")


@dataclass(frozen=True)
class TaskRun(Generic[_Value]):
    """One task's answer: its feasible ``value``, the last raw response,
    whether the final assistant turn was anchored (anchoring on and any
    violation), the model calls made, the violations fixed in order, and
    the conversation as it ends, which starts with the turns it was given."""

    value: _Value
    raw_response: str
    anchored: bool
    attempts: int
    violations: tuple[Violation, ...]
    conversation: Conversation


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
class PipelineConfig:
    """Settings shared by the task runners.

    Every task makes at most one clarification re-ask and one canonical
    repair pass: with anchoring on, a repaired answer replaces the whole
    assistant turn, so prose around a repaired label is not kept.
    """

    anchoring_enabled: bool = True
    context_flow: bool = True
    prompt_config: PromptConfig = DEFAULT_PROMPT_CONFIG
    params: GenerationParams = GenerationParams()
    allowed_classes: tuple[str, ...] | None = None


DEFAULT_PIPELINE_CONFIG = PipelineConfig()

LABEL_CLARIFICATION = "Answer with only the label."
LIST_CLARIFICATION = "Answer with only the comma-separated list of labels, one per column."
JOIN_CLARIFICATION = f"Answer with only the code. {JOIN_PREFIX}"

_BACKTICK_RE = re.compile(r"`([^`]+)`")
# The DBpedia ontology stem, as ``http`` or ``https``, or ``dbo:``, then a local name.
_TERM_TOKEN_RE = re.compile(r"(?:https?://dbpedia\.org/ontology/|dbo:)[^\s`'\"()\[\]{}<>,;]+")


def parse_table_class(response: str) -> str:
    """First DBpedia term in the response, else the first backticked token.

    A DBpedia term starts with the ontology's IRI stem, in its ``http`` or
    ``https`` form, or with ``dbo:``; the match is case-sensitive.
    """
    match = _TERM_TOKEN_RE.search(response)
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


# A quoted name, a list of them, and the join answer's two shapes.
# ``(?:\s*,)?\s*\]`` rather than ``\s*,?\s*\]`` keeps a failing match linear
# in a run of whitespace.
_NAME = "|".join(quote + r"(?:\\.|[^\\" + quote + "])*" + quote for quote in "'\"")
_LIST = rf"(?:{_NAME}|\[\s*(?:{_NAME})(?:\s*,\s*(?:{_NAME}))*(?:\s*,)?\s*\])"
_NAME_RE = re.compile(_NAME, re.DOTALL)
_LEFT_RIGHT_RE = re.compile(rf"\s*({_LIST})\s*,\s*right_on\s*=\s*({_LIST})", re.DOTALL)
_LONE_LIST_RE = re.compile(rf"\s*({_LIST})", re.DOTALL)
_TAIL_RE = re.compile(r"[\s).;]*")
_ESCAPE_RE = re.compile(r"\\([\\'\"])")
_LEFT_ON_RE = re.compile(r"left_on\s*=")
_LONE_ON_RE = re.compile(r"\bon\s*=")


def parse_join_completion(response: str) -> tuple[list[str], list[str]]:
    r"""Column names from the completion of ``pd.merge(df1, df2, left_on=``.

    The answer's grammar: a name is quoted with ``'`` or ``"``, and inside
    it ``\\``, ``\'`` and ``\"`` are escapes while any other backslash is
    literal.  A LIST is one name or ``[`` comma-separated names ``]`` with an
    optional trailing comma.  The answer is ``LIST, right_on=LIST`` read
    from its start, else from just after its first ``left_on=`` (so an
    echoed merge call is fine).  Failing both, when it does not start with
    a LIST, a lone ``on=`` before any ``left_on=`` and followed by one LIST
    names the same columns on both sides.  Whitespace may surround every
    token.  After the lists, once whitespace and backticks are stripped
    from both ends, only ``)``, ``.``, ``;`` and whitespace may remain.  A
    ```` ``` ```` fence around the answer drops its first line and a last
    line that starts with ```` ``` ````.
    """
    text = response.strip()
    if text.startswith("```"):
        # Line breaks inside a quoted name are kept as they are.
        lines = text.splitlines(keepends=True)[1:]
        if lines and lines[-1].startswith("```"):
            lines.pop()
        text = "".join(lines).strip()
    text = text.strip("`").strip()
    # A bare completion; one of its names may itself hold ``left_on=``.
    bare = text[:1] in ("'", '"', "[")
    tries: list[tuple[re.Pattern[str], int]] = [(_LEFT_RIGHT_RE, 0)] if bare else []
    if (left_on := _LEFT_ON_RE.search(text)) is not None:
        tries.append((_LEFT_RIGHT_RE, left_on.end()))
    # A lone ``on=`` comes before any ``left_on=``, which is then in a name.
    end = len(text) if left_on is None else left_on.start()
    if not bare and (lone := _LONE_ON_RE.search(text, 0, end)) is not None:
        tries.append((_LONE_LIST_RE, lone.end()))
    for pattern, pos in tries:
        match = pattern.match(text, pos)
        if match and _TAIL_RE.fullmatch(text[match.end():].strip().strip("`")):
            # A lone ``on=`` has one group, read for both sides.
            return _names(match.group(1)), _names(match.group(pattern.groups))
    raise ParseError(Violation(ViolationKind.UNPARSABLE_OUTPUT, response))


def _names(names: str) -> list[str]:
    """The unescaped names of a LIST."""
    return [_ESCAPE_RE.sub(r"\1", name.group()[1:-1]) for name in _NAME_RE.finditer(names)]


def _resolve(
    labels: Sequence[str], kind: TermKind, ontology: Ontology, repair: bool = False
) -> tuple[tuple[OntologyTerm | UnknownType | None, ...], tuple[Violation, ...]]:
    """Each parsed label's exact term, and a violation for each label that
    has none, in order.  Such a label's term is its nearest term when
    ``repair`` is set, else ``None``.  A property label may also be Unknown,
    which is always feasible.
    """
    terms, violations = [], []
    for index, label in enumerate(labels):
        try:
            canonical = normalize_label(label)
        except EmptyLabel:
            canonical = ""
        if kind is TermKind.PROPERTY and canonical.lower() == "unknown":
            term = UNKNOWN
        elif (term := lookup(ontology, kind, canonical)) is None:
            violations.append(
                Violation(ViolationKind.UNKNOWN_CLASS, label) if kind is TermKind.CLASS
                else Violation(ViolationKind.UNKNOWN_PROPERTY, label, position=index)
            )
            if repair:
                term = nearest_term(ontology, kind, canonical)[0]
        terms.append(term)
    return tuple(terms), tuple(violations)


def _missing_columns(names: Sequence[str], table: Table) -> tuple[Violation, ...]:
    """A violation for each name missing from the table's headers, in order."""
    return tuple(Violation(ViolationKind.NONEXISTENT_COLUMN, name, position=index)
                 for index, name in enumerate(names) if name not in table.headers)


def check_table_class(candidate: str, ontology: Ontology) -> Violation | None:
    """Feasibility check for a parsed table-class candidate."""
    return next(iter(_resolve((candidate,), TermKind.CLASS, ontology)[1]), None)


def check_column_types(items: Sequence[str], ontology: Ontology) -> Violation | None:
    """Feasibility check for a parsed column-type list; Unknown is always fine."""
    return next(iter(_resolve(items, TermKind.PROPERTY, ontology)[1]), None)


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
    missing = _missing_columns(left_names, left) + _missing_columns(right_names, right)
    return next(iter(missing), None)


def anchor(conversation: Conversation, replacement: str) -> Conversation:
    """The conversation with its final assistant turn saying ``replacement``:
    turn count and all earlier turns are preserved."""
    last = conversation.last
    if last is None or last.role is not Role.ASSISTANT:
        raise InvalidState("anchoring requires a final assistant turn")
    return Conversation((*conversation.turns[:-1], assistant(replacement)))


def render_term(term: OntologyTerm | UnknownType) -> str:
    """Canonical text for a resolved label: the full IRI for a class,
    ``dbo:`` and the local name for a DBpedia property, the bare local name
    for a property from another namespace, else ``Unknown``."""
    if isinstance(term, UnknownType):
        return term.local_name
    if term.kind is TermKind.CLASS:
        return term.iri
    if term.iri.startswith(DBPEDIA_ONTOLOGY_IRI):
        return DBPEDIA_PREFIX + term.local_name
    return term.local_name


def _ask_parse_repair(
    prompt: str,
    clarification: str,
    read: Callable[[str], tuple[_Value, tuple[Violation, ...]]],
    render: Callable[[_Value], str],
    wanted: str,
    backend: Backend,
    config: PipelineConfig,
    conversation: Conversation = Conversation(),
) -> TaskRun[_Value]:
    """Ask, read, anchor: the one loop behind all three tasks.

    ``read`` parses an answer, makes every item feasible in one pass and
    returns the value with the violations it fixed, in order; it raises
    :class:`ParseError` when nothing usable parsed.  ``render`` writes a
    value in canonical form.  An unparsable answer gets one clarification
    re-ask spliced over the bad turn, and its violation leads the list.
    With anchoring on, an answer that ``read`` fixed then rewrites the final
    assistant turn once.  ``wanted`` names what the task lacked when no
    answer parses.  The run's conversation is ``conversation`` plus this
    task's turns; being a value, the one given cannot change.
    """
    conv = conversation + user(prompt)
    raw_response, _ = backend.complete(conv, config.params)
    # An empty completion still occupies an assistant turn: a lone space
    # holds it, and the raw response is what is read.
    conv += assistant(raw_response or " ")
    reasked = ()
    while True:
        try:
            value, violations = read(raw_response)
            break
        except ParseError as exc:
            if not config.anchoring_enabled or reasked:
                message = f"no {wanted} after {1 + len(reasked)} attempts"
                raise TaskFailed(exc.violation, message) from exc
            raw_response, _ = backend.complete(conv + user(clarification), config.params)
            conv = anchor(conv, raw_response or " ")
            reasked = (exc.violation,)

    if config.anchoring_enabled and violations:
        conv = anchor(conv, render(value))
    violations = reasked + violations
    anchored = config.anchoring_enabled and bool(violations)
    return TaskRun(value, raw_response, anchored, 1 + len(reasked), violations, conv)


def run_table_class_task(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    conversation: Conversation = Conversation(),
) -> TaskRun[OntologyTerm]:
    """Ask for the table's ontology class, mitigating infeasible answers."""
    prompt = assemble(table_class_prompt(table, config.allowed_classes, config.prompt_config))

    def read(text: str) -> tuple[OntologyTerm, tuple[Violation, ...]]:
        label = parse_table_class(text)
        (term,), violations = _resolve((label,), TermKind.CLASS, ontology, repair=True)
        return term, violations

    return _ask_parse_repair(
        prompt, LABEL_CLARIFICATION, read=read,
        render=render_term,
        wanted=f"parsable table class for {table.name!r}",
        backend=backend, config=config, conversation=conversation,
    )


def run_column_type_task(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    conversation: Conversation = Conversation(),
) -> TaskRun[tuple[OntologyTerm | UnknownType, ...]]:
    """Ask for one property per column, mitigating infeasible answers."""
    prompt = assemble(column_type_prompt(table, config.prompt_config))

    def read(text: str) -> tuple[tuple[OntologyTerm | UnknownType, ...], tuple[Violation, ...]]:
        try:
            labels, fixed = parse_column_types(text, table.arity), ()
        except ParseError as exc:
            if not config.anchoring_enabled or exc.items is None:
                raise
            labels = exc.items[:table.arity] + ("Unknown",) * (table.arity - len(exc.items))
            fixed = (exc.violation,)
        terms, violations = _resolve(labels, TermKind.PROPERTY, ontology, repair=True)
        return terms, fixed + violations

    return _ask_parse_repair(
        prompt, LIST_CLARIFICATION, read=read,
        render=lambda terms: "`" + ", ".join(map(render_term, terms)) + "`",
        wanted=f"usable column-type list for {table.name!r}",
        backend=backend, config=config, conversation=conversation,
    )


def run_table_pipeline(
    table: Table,
    ontology: Ontology,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
) -> tuple[TaskRun[OntologyTerm], TaskRun[tuple[OntologyTerm | UnknownType, ...]]]:
    """Table class then column types, sharing one conversation so the
    class finding informs the type answers (unless context flow is off)."""
    class_run = run_table_class_task(table, ontology, backend, config)
    followup = class_run.conversation if config.context_flow else Conversation()
    return class_run, run_column_type_task(table, ontology, backend, config, conversation=followup)


def _render_join(prediction: JoinPrediction) -> str:
    """Canonical completion of ``pd.merge(df1, df2, left_on=`` for a prediction."""

    def quote(name: str) -> str:
        mark = '"' if "'" in name else "'"
        return mark + name.replace("\\", "\\\\").replace(mark, "\\" + mark) + mark

    def names(cols: tuple[str, ...]) -> str:
        quoted = [quote(name) for name in cols]
        return quoted[0] if len(quoted) == 1 else "[" + ", ".join(quoted) + "]"

    return f"{names(prediction.left_cols)}, right_on={names(prediction.right_cols)})"


def run_join_task_detailed(
    left: Table,
    right: Table,
    backend: Backend,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    context_notes: str | None = None,
) -> TaskRun[JoinPrediction]:
    """Ask for the join columns, mitigating infeasible answers.

    With anchoring on, ``left_on`` and ``right_on`` lists of different
    lengths are truncated to the shorter one; with it off they fail the
    task.  A name missing from its side's headers becomes that side's
    nearest header.  An unparsable reply gets one spliced re-ask.
    """
    if left.headers is None or right.headers is None:
        raise MissingHeaders("join prediction requires headers on both tables")
    notes = context_notes if config.context_flow else None
    prompt = assemble(join_prompt(left, right, config.prompt_config, notes))

    def read(text: str) -> tuple[JoinPrediction, tuple[Violation, ...]]:
        names = parse_join_completion(text)
        n = min(map(len, names))
        fixed = () if n == max(map(len, names)) else (check_join(*names, left, right),)
        if fixed and not config.anchoring_enabled:
            raise ParseError(fixed[0])
        names = [list(side[:n]) for side in names]
        violations = fixed
        for side, table in zip(names, (left, right)):
            missing = _missing_columns(side, table)
            for violation in missing:
                side[violation.position] = nearest_name(table.headers, violation.offending_text)[0]
            violations += missing
        return JoinPrediction(*names), violations

    return _ask_parse_repair(
        prompt, JOIN_CLARIFICATION, read=read, render=_render_join,
        wanted=f"usable join between {left.name!r} and {right.name!r}",
        backend=backend, config=config,
    )
