"""Prompt assembly for the three annotation tasks.

Each task prompt is built from up to six parts: instruction, task
knowledge, demonstration, metadata, data sample, and a completion prefix.
Templates are fixed; only the data sample and metadata vary per input.
The golden files under the test fixtures pin the exact rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    EmptyTable,
    HEAD_SAMPLING,
    SamplingStrategy,
    Table,
    csv_record,
    sample_rows,
)

TABLE_CLASS_INSTRUCTION_WITH_LIST = (
    "For the following CSV sample, select one DBpedia.org ontology that "
    "represents the dataset from the following list:"
)
TABLE_CLASS_INSTRUCTION = (
    "For the following CSV sample, select one DBpedia.org ontology that "
    "represents the dataset."
)
TABLE_CLASS_DEMONSTRATION = (
    "For example, for a dataset about hospitals, return "
    "`https://dbpedia.org/ontology/Hospital`."
)
TABLE_CLASS_PREFIX = "Begin your answer with 'https://dbpedia.org/ontology'"

COLUMN_TYPE_INSTRUCTION = (
    "For the following CSV sample, suggest a DBPedia.org Property for each "
    "column from the `dbo:` namespace."
)
COLUMN_TYPE_DEMONSTRATION = (
    "Consider this example. Input:\n"
    "\n"
    "```\n"
    "Name, Famous Book, Rk, Year\n"
    "Fyodor Dostoevsky, Crime and Punishment, 22.5, 1866\n"
    "Mark Twain, Adventures of Huckleberry Finn, 53, 1884\n"
    "Albert Camus, The Stranger, -23, 1942\n"
    "```\n"
    "\n"
    "Output: `dbo:author, dbo:title, Unknown, dbo:releaseDate`."
)

JOIN_INSTRUCTION = (
    "Given two Pandas Dataframes, suggest what `pd.merge` parameters to use "
    "to join the dataframes."
)
JOIN_PREFIX = (
    "Complete the correct Pandas merge command. `pd.merge(df1, df2, left_on="
)

TRUNCATION_MARKER = "…"
MAX_CELL_CHARS = 256
CHAR_BUDGET = 16384

_FIELD_ORDER = (
    "instruction",
    "task_knowledge",
    "demonstration",
    "metadata",
    "data_sample",
    "prefix",
)


@dataclass(frozen=True)
class PromptComponents:
    """The six optional prompt parts; at least one must be present."""

    instruction: str | None = None
    demonstration: str | None = None
    data_sample: str | None = None
    metadata: str | None = None
    task_knowledge: str | None = None
    prefix: str | None = None

    def __post_init__(self) -> None:
        present = [name for name in _FIELD_ORDER if getattr(self, name) is not None]
        if not present:
            raise ValueError("at least one prompt component must be present")
        for name in present:
            text = getattr(self, name)
            if not text or text != text.strip("\n"):
                raise ValueError(
                    f"component {name} must be nonempty with no leading or "
                    f"trailing blank lines"
                )


@dataclass(frozen=True)
class PromptConfig:
    """Sampling and ablation switches shared by all prompt builders."""

    sample_k: int = 5
    include_demonstration: bool = True
    include_metadata: bool = True
    include_prefix: bool = True
    strategy: SamplingStrategy = HEAD_SAMPLING

    def __post_init__(self) -> None:
        if self.sample_k < 1:
            raise ValueError("sample_k must be >= 1")


DEFAULT_PROMPT_CONFIG = PromptConfig()


def assemble(components: PromptComponents) -> str:
    """Concatenate the present parts into the final prompt text.

    Order is fixed: instruction, task knowledge, demonstration, metadata,
    data sample, prefix, separated by single blank lines.  The builders
    fence their data samples themselves (see :func:`_fence`).  Output is
    byte-deterministic.
    """
    parts = (getattr(components, name) for name in _FIELD_ORDER)
    return "\n\n".join(part for part in parts if part is not None)


def _cut(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 1] + TRUNCATION_MARKER


def _record(cells: tuple[str, ...]) -> str:
    """One CSV record as :func:`to_csv` writes it, long cells cut."""
    return csv_record(_cut(cell, MAX_CELL_CHARS) for cell in cells)


def _sample_parts(table: Table, config: PromptConfig) -> tuple[str | None, Table]:
    """(metadata header record, sample); :func:`_fit` serializes its rows."""
    if table.is_empty:
        raise EmptyTable(f"table {table.name!r} has no rows and no headers")
    sample = sample_rows(table, config.sample_k, config.strategy)
    metadata = None
    if sample.headers is not None and config.include_metadata:
        metadata = _record(sample.headers)
    return metadata, sample


def _fit(
    build: Callable[[list[str | None], list[str]], PromptComponents],
    headers: list[str | None],
    samples: list[Table],
) -> PromptComponents:
    """Prompt from ``build`` with the most sample rows that fit the budget.

    ``build`` takes each table's metadata header record (None when it has
    none) and each table's data body, and ``samples`` holds each table's
    sample.  Every table keeps the same row count n >= 1 (all its rows if
    it has fewer), the largest that fits.  Around a body of one or more
    records the builders add only fixed text, so a prompt's length is that
    fixed part, measured once, plus the bodies' characters.  If even one
    row record per table, cut to 8 characters, cannot fit beside the
    header records, the header records are cut first, halving a cap from
    the longest down to 8, and the fixed part is measured with them cut.
    The rows are then serialized in one pass, row i of every table at a
    time, that stops at the first i >= 1 whose rows no longer fit and
    keeps n = i; no later row is read.  If n = 1 is too long, the row
    records are capped the same way until the prompt fits.  A record is
    cut whole, line breaks in its cells and all.  So a prompt goes over
    ``CHAR_BUDGET`` only when its fixed text leaves no room for its header
    and first row records cut to 8 characters each.
    """
    records = [[_record(sample.row(0))] if sample.row_count else [] for sample in samples]
    probes = ["x" if serialized else "" for serialized in records]

    def fixed_part(headers: list[str | None]) -> int:
        return len(assemble(build(headers, probes))) - len("".join(probes))

    floor = sum(len(_cut(serialized[0], 8)) for serialized in records if serialized)
    used = fixed_part(headers)
    full, cap = headers, max((len(header) for header in headers if header), default=0)
    while used + floor > CHAR_BUDGET and cap > 8:
        cap = max(8, cap // 2)
        headers = [header and _cut(header, cap) for header in full]
        used = fixed_part(headers)
    used += sum(len(serialized[0]) for serialized in records if serialized)
    kept = max(sample.row_count for sample in samples)
    for i in range(1, kept):
        for sample, serialized in zip(samples, records):
            if i < sample.row_count:
                serialized.append(_record(sample.row(i)))
                used += len(serialized[-1]) + 1
        if used > CHAR_BUDGET:
            kept = i
            break
    records = [serialized[:kept] for serialized in records]
    cap = max((len(record) for serialized in records for record in serialized), default=0)
    while True:
        bodies = ["\n".join(_cut(record, cap) for record in serialized) for serialized in records]
        components = build(headers, bodies)
        if cap <= 8 or len(assemble(components)) <= CHAR_BUDGET:
            return components
        cap = max(8, cap // 2)


def _fence(metadata: str | None, body: str) -> str:
    """The metadata header record directly above the data rows, in a
    triple-backtick fence."""
    inner = "\n".join(part for part in (metadata, body) if part)
    return f"```\n{inner}\n```"


def _one_table_prompt(table: Table, config: PromptConfig, **parts: str | None) -> PromptComponents:
    """``parts`` plus the fitted sample of ``table`` as one fenced block."""
    metadata, sample = _sample_parts(table, config)
    return _fit(
        lambda headers, bodies: PromptComponents(
            **parts,
            data_sample=_fence(headers[0], bodies[0]) if headers[0] or bodies[0] else None,
        ),
        [metadata],
        [sample],
    )


def table_class_prompt(
    table: Table,
    allowed_classes: list[str] | tuple[str, ...] | None = None,
    config: PromptConfig = DEFAULT_PROMPT_CONFIG,
) -> PromptComponents:
    """Prompt asking for the one ontology class that describes the table.

    Passing ``allowed_classes`` lists those names in the prompt (the
    supervised variant); the answer is not held to them.
    """
    return _one_table_prompt(
        table,
        config,
        instruction=(
            TABLE_CLASS_INSTRUCTION_WITH_LIST if allowed_classes else TABLE_CLASS_INSTRUCTION
        ),
        task_knowledge=", ".join(allowed_classes) + "." if allowed_classes else None,
        demonstration=TABLE_CLASS_DEMONSTRATION if config.include_demonstration else None,
        prefix=TABLE_CLASS_PREFIX if config.include_prefix else None,
    )


def column_type_prompt(
    table: Table,
    config: PromptConfig = DEFAULT_PROMPT_CONFIG,
) -> PromptComponents:
    """Prompt asking for one ontology property per column."""
    return _one_table_prompt(
        table,
        config,
        instruction=COLUMN_TYPE_INSTRUCTION,
        demonstration=COLUMN_TYPE_DEMONSTRATION if config.include_demonstration else None,
    )


def join_prompt(
    left: Table,
    right: Table,
    config: PromptConfig = DEFAULT_PROMPT_CONFIG,
    context_notes: str | None = None,
) -> PromptComponents:
    """Code-completion prompt for predicting merge key columns.

    Both samples are rendered as named dataframes; ``context_notes`` (for
    example classes detected earlier in the pipeline) become a paragraph
    above the frames.
    """
    left_metadata, left_sample = _sample_parts(left, config)
    right_metadata, right_sample = _sample_parts(right, config)

    def build(headers: list[str | None], bodies: list[str]) -> PromptComponents:
        return PromptComponents(
            instruction=JOIN_INSTRUCTION,
            metadata=context_notes,
            data_sample=(
                f"df1 =\n{_fence(headers[0], bodies[0])}\n\n"
                f"df2 =\n{_fence(headers[1], bodies[1])}"
            ),
            prefix=JOIN_PREFIX if config.include_prefix else None,
        )

    return _fit(build, [left_metadata, right_metadata], [left_sample, right_sample])
