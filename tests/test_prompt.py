from __future__ import annotations

import csv
import io
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabnotate.prompt
from tabnotate.core import EmptyTable, HEAD_SAMPLING, SamplingMode, SamplingStrategy, Table
from tabnotate.prompt import (
    CHAR_BUDGET,
    COLUMN_TYPE_DEMONSTRATION,
    COLUMN_TYPE_INSTRUCTION,
    JOIN_PREFIX,
    PromptComponents,
    PromptConfig,
    TABLE_CLASS_DEMONSTRATION,
    TABLE_CLASS_INSTRUCTION,
    assemble,
    column_type_prompt,
    join_prompt,
    table_class_prompt,
)

from make_goldens import GOLDEN_DIR, golden_name
from reference import fit_ref

# --------------------------------------------------------------- config


@pytest.mark.parametrize("k", [0, -3])
def test_prompt_config_rejects_a_sample_below_one_row(k):
    with pytest.raises(ValueError, match=r"^sample_k must be >= 1$"):
        PromptConfig(sample_k=k)


# ------------------------------------------------------------- assemble


def test_assemble_two_fields():
    assert assemble(PromptComponents(instruction="A", prefix="B")) == "A\n\nB"


def test_assemble_deterministic(ev_table, class_list):
    components = table_class_prompt(ev_table, class_list)
    assert assemble(components) == assemble(components)


def test_assemble_fenced_block_layout(ev_table, class_list):
    text = assemble(table_class_prompt(ev_table, class_list))
    fence_start = text.index("```")
    assert text[fence_start:].startswith("```\nBrand,")
    assert text.count("```") == 2


def test_assemble_metadata_only_block():
    table = Table("t", ("a", "b"), ())
    config = PromptConfig(include_demonstration=False, include_prefix=False)
    text = assemble(table_class_prompt(table, None, config))
    assert text == f"{TABLE_CLASS_INSTRUCTION}\n\n```\na,b\n```"


def test_row_starting_with_a_fence_stays_inside_the_block():
    rows = (("a", "1"), ("```x", "2"), ("b", "3"))
    config = PromptConfig(include_demonstration=False)
    lengths = []
    for n in range(1, len(rows) + 1):
        text = assemble(column_type_prompt(Table("t", ("k", "v"), rows[:n]), config))
        body = "\n".join(",".join(row) for row in rows[:n])
        assert text == f"{COLUMN_TYPE_INSTRUCTION}\n\n```\nk,v\n{body}\n```"
        lengths.append(len(text))
    assert lengths == sorted(set(lengths))


def test_components_require_one_field():
    with pytest.raises(ValueError):
        PromptComponents()


def test_components_reject_blank_line_edges():
    with pytest.raises(ValueError):
        PromptComponents(instruction="\nA")
    with pytest.raises(ValueError):
        PromptComponents(instruction="A\n")


def test_assemble_distinguishes_component_contents():
    base = PromptComponents(
        instruction="inst",
        task_knowledge="know",
        demonstration="demo",
        metadata="h1,h2",
        data_sample="v1,v2",
        prefix="pre",
    )
    assert assemble(base) == "inst\n\nknow\n\ndemo\n\nh1,h2\n\nv1,v2\n\npre"
    prompts = {assemble(base)}
    for field in ("instruction", "task_knowledge", "demonstration", "metadata",
                  "data_sample", "prefix"):
        changed = PromptComponents(**{**base.__dict__, field: "other"})
        prompts.add(assemble(changed))
        dropped = PromptComponents(**{**base.__dict__, field: None})
        prompts.add(assemble(dropped))
    assert len(prompts) == 13


# ---------------------------------------------------------------- golden


@pytest.mark.parametrize(
    "demonstration,metadata,prefix,knowledge", list(product((False, True), repeat=4))
)
def test_golden_table_class_prompts(
    ev_table, class_list, demonstration, metadata, prefix, knowledge
):
    config = PromptConfig(
        include_demonstration=demonstration,
        include_metadata=metadata,
        include_prefix=prefix,
    )
    components = table_class_prompt(
        ev_table, class_list if knowledge else None, config
    )
    golden = (GOLDEN_DIR / golden_name(demonstration, metadata, prefix, knowledge)).read_text(
        encoding="utf-8"
    )
    assert assemble(components) == golden


def test_golden_column_type_prompt(ev_table):
    golden = (GOLDEN_DIR / "column_type_default.txt").read_text(encoding="utf-8")
    assert assemble(column_type_prompt(ev_table)) == golden


def test_golden_join_prompt(ev_table, registration_table):
    golden = (GOLDEN_DIR / "join_default.txt").read_text(encoding="utf-8")
    assert assemble(join_prompt(ev_table, registration_table)) == golden


# ------------------------------------------------------------ table class


def test_table_class_includes_class_list(ev_table, class_list):
    text = assemble(table_class_prompt(ev_table, class_list))
    assert "AcademicJournal, AdministrativeRegion" in text
    assert "from the following list:" in text


def test_table_class_without_list(ev_table):
    text = assemble(table_class_prompt(ev_table, None))
    assert "from the following list" not in text
    assert "AcademicJournal" not in text


def test_table_class_prefix_ablation(ev_table, class_list):
    config = PromptConfig(include_prefix=False)
    text = assemble(table_class_prompt(ev_table, class_list, config))
    assert "Begin your answer with" not in text


def test_table_class_demonstration_ablation(ev_table):
    config = PromptConfig(include_demonstration=False)
    text = assemble(table_class_prompt(ev_table, None, config))
    assert TABLE_CLASS_DEMONSTRATION not in text


def test_all_flags_off_leaves_instruction_and_sample(ev_table):
    config = PromptConfig(
        include_demonstration=False, include_metadata=False, include_prefix=False
    )
    components = table_class_prompt(ev_table, None, config)
    assert components.instruction is not None
    assert components.data_sample is not None
    for name in ("task_knowledge", "demonstration", "metadata", "prefix"):
        assert getattr(components, name) is None


def test_table_class_empty_table_rejected():
    with pytest.raises(EmptyTable):
        table_class_prompt(Table("empty", None, ()), None)


# ------------------------------------------------------------ column type


def test_column_type_demonstration_rows(ev_table):
    text = assemble(column_type_prompt(ev_table))
    assert "Fyodor Dostoevsky, Crime and Punishment" in text
    assert "Output: `dbo:author, dbo:title, Unknown, dbo:releaseDate`." in text


def test_column_type_demonstration_ablation(ev_table):
    config = PromptConfig(include_demonstration=False)
    text = assemble(column_type_prompt(ev_table, config))
    assert "Fyodor Dostoevsky" not in text
    assert COLUMN_TYPE_DEMONSTRATION not in text


def test_column_type_sample_line_count():
    table = Table(
        "pairs",
        ("x", "y"),
        tuple((str(i), str(i * i)) for i in range(8)),
    )
    config = PromptConfig(include_demonstration=False)
    text = assemble(column_type_prompt(table, config))
    fence_inner = text.split("```")[1]
    lines = [ln for ln in fence_inner.splitlines() if ln]
    assert len(lines) == min(5, 8) + 1  # header + sampled rows


# ------------------------------------------------------------------ join


def test_join_prompt_ends_with_prefix(ev_table, registration_table):
    text = assemble(join_prompt(ev_table, registration_table))
    assert text.endswith("left_on=")
    assert JOIN_PREFIX in text


def test_join_prompt_prefix_ablation(ev_table, registration_table):
    config = PromptConfig(include_prefix=False)
    text = assemble(join_prompt(ev_table, registration_table, config))
    assert text.endswith("```")
    assert "pd.merge" not in text.split("suggest what", 1)[1].split(".", 1)[0]


def test_join_prompt_swap_swaps_frames(ev_table, registration_table):
    forward = assemble(join_prompt(ev_table, registration_table))
    backward = assemble(join_prompt(registration_table, ev_table))
    f_df1 = forward.split("df1 =")[1].split("df2 =")[0]
    b_df2 = backward.split("df2 =")[1]
    assert f_df1.strip().strip("`").strip() in b_df2
    assert forward != backward
    assert forward.split("df1 =")[0] == backward.split("df1 =")[0]


def test_join_prompt_context_notes(ev_table, registration_table):
    text = assemble(
        join_prompt(ev_table, registration_table, context_notes="df1 is an ElectricVehicle table.")
    )
    notes_index = text.index("df1 is an ElectricVehicle table.")
    assert notes_index < text.index("df1 =")


def test_join_prompt_needs_rows(ev_table):
    with pytest.raises(EmptyTable):
        join_prompt(ev_table, Table("empty", None, ()))


# ---------------------------------------------------------------- budget


def test_long_cells_truncated_with_marker():
    table = Table("wide", ("col",), (("x" * 1000,),))
    text = assemble(column_type_prompt(table, PromptConfig(include_demonstration=False)))
    assert "x" * 256 not in text
    assert "…" in text


def test_prompt_budget_holds_for_wide_tables(class_list):
    config = PromptConfig()
    for arity in (1, 40, 120):
        table = Table(
            "wide",
            tuple(f"column_{i}" for i in range(arity)),
            tuple(
                tuple(f"value-{r}-{c}" + "x" * 250 for c in range(arity))
                for r in range(6)
            ),
        )
        for builder in (
            lambda t: table_class_prompt(t, class_list, config),
            lambda t: column_type_prompt(t, config),
            lambda t: join_prompt(t, t, config),
        ):
            assert len(assemble(builder(table))) <= CHAR_BUDGET


def test_wide_headers_are_cut_to_the_budget():
    table = Table(
        "wide",
        tuple(f"{c:03d}" + "h" * 197 for c in range(200)),
        tuple(tuple(f"{r}-{c}" for c in range(200)) for r in range(5)),
    )
    for components in (column_type_prompt(table), join_prompt(table, table)):
        text = assemble(components)
        assert len(text) <= CHAR_BUDGET
        lines = _data_block(text, "df2" if components.prefix else None).splitlines()
        assert lines[0].startswith("000" + "h" * 197 + ",001")
        assert lines[0].endswith("…") and len(lines) > 1


# Line breaks too, so a header or a row record can span many lines.
_WIDE_CHARS = "ab,é019 \"'…-\n"


@st.composite
def _wide_tables(draw) -> Table:
    """Up to 300 columns with headers of up to 400 characters."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arity = draw(st.integers(1, 300))
    longest = draw(st.sampled_from([1, 20, 400]))

    def text(most: int) -> str:
        return "".join(rng.choices(_WIDE_CHARS, k=rng.randint(1, most)))

    rows = tuple(tuple(text(40) for _ in range(arity)) for _ in range(draw(st.integers(0, 5))))
    return Table("t", tuple(text(longest) for _ in range(arity)), rows)


@settings(max_examples=150, deadline=None)
@given(
    left=_wide_tables(),
    right=_wide_tables(),
    classes=st.none() | st.lists(st.text("abcXYZ", min_size=1, max_size=30), min_size=1),
    notes=st.none() | st.text("ab c.", min_size=1, max_size=2000).map(str.strip).filter(bool),
    config=st.builds(
        PromptConfig,
        sample_k=st.integers(1, 5),
        include_demonstration=st.booleans(),
        include_metadata=st.booleans(),
        include_prefix=st.booleans(),
    ),
    budget=st.sampled_from([CHAR_BUDGET, 4000, 1500, 600]),
)
def test_a_prompt_fits_whenever_its_fixed_text_does(left, right, classes, notes, config, budget):
    """Header and row records can be cut to 8 characters, so a prompt fits
    whenever that of a one-cell table, plus that much, does."""
    tiny = Table("t", ("h",), (("v",),))
    builders = [
        (lambda t: table_class_prompt(t, classes, config), [left]),
        (lambda t: column_type_prompt(t, config), [left]),
        (lambda t, u: join_prompt(t, u, config, notes), [left, right]),
    ]
    with mock.patch.object(tabnotate.prompt, "CHAR_BUDGET", budget):
        for build, tables in builders:
            if len(assemble(build(*[tiny] * len(tables)))) + 14 * len(tables) <= budget:
                assert len(assemble(build(*tables))) <= budget


def test_header_cutting_keeps_separators_that_end_no_line():
    def table(separator: str) -> Table:
        headers = tuple(f"{c:03d}" + "h" * 150 + separator + "h" * 146 for c in range(100))
        return Table("w", headers, tuple(tuple(f"{r}-{c}" for c in range(100)) for r in range(5)))

    for build in (column_type_prompt, lambda t: join_prompt(t, t)):
        plain, text = (assemble(build(table(separator))) for separator in ("h", "\u2028"))
        assert "\u2028" in text and len(text) <= CHAR_BUDGET
        assert text.replace("\u2028", "h") == plain


def _data_block(text: str, marker: str | None = None) -> str:
    """The fenced sample: the last fenced block, or the named join frame's."""
    if marker is None:
        return text.rsplit("```", 2)[-2].strip("\n")
    return text.split(f"{marker} =\n```\n", 1)[1].split("\n```", 1)[0]


def test_over_budget_join_keeps_both_frames():
    def table(name: str, prefix: str) -> Table:
        headers = tuple(f"{prefix}_{c}" for c in range(8))
        rows = tuple(tuple(f"{prefix}{r}-{c}" + "y" * 240 for c in range(8)) for r in range(30))
        return Table(name, headers, rows)

    left, right = table("left", "a"), table("right", "b")
    text = assemble(join_prompt(left, right, PromptConfig(sample_k=30)))
    assert len(text) <= CHAR_BUDGET
    kept = []
    for marker, source in (("df1", left), ("df2", right)):
        lines = _data_block(text, marker).splitlines()
        assert lines[0] == ",".join(source.headers)
        kept.append(len(lines) - 1)
    assert kept[0] == kept[1] >= 1


def test_multiline_cells_fit_budget_and_parse_back():
    notes = Table(
        "notes",
        ("id", "note", "author"),
        tuple(
            (str(i), f"First paragraph of note {i}.\n\nSecond paragraph of note {i}.", "ann")
            for i in range(300)
        ),
    )
    config = PromptConfig(sample_k=300)
    for components in (table_class_prompt(notes, None, config), column_type_prompt(notes, config)):
        text = assemble(components)
        assert len(text) <= CHAR_BUDGET
        records = list(csv.reader(io.StringIO(_data_block(text))))
        assert records[0] == list(notes.headers)
        assert 1 < len(records) < 301
        assert all(len(record) == notes.arity for record in records)
        assert records[1:] == [list(row) for row in notes.rows[: len(records) - 1]]


_BUILDERS = {
    "table-class": lambda table, config: table_class_prompt(table, None, config),
    "column-type": column_type_prompt,
    "join": lambda table, config: join_prompt(table, table, config),
}

# No line breaks and no backticks, so every record is one line and no
# cell can open a fence.
_ALPHABET = "abcXYZ019 ,;\"'é…-"
_CELL = st.builds(
    lambda text, repeat: text * repeat,
    st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
    st.integers(0, 100),
)


@st.composite
def _tables(draw) -> Table:
    arity = draw(st.integers(1, 10))
    header = st.text(alphabet=_ALPHABET, min_size=1, max_size=12)
    headers = tuple(draw(st.lists(header, min_size=arity, max_size=arity)))
    height = draw(st.integers(0, 50))
    row = st.lists(_CELL, min_size=arity, max_size=arity)
    rows = draw(st.lists(row, min_size=height, max_size=height))
    return Table("t", headers, tuple(tuple(row) for row in rows))


def _kept_rows(text: str) -> int:
    block = _data_block(text, "df1" if "df1 =" in text else None)
    return len(block.splitlines()) - 1  # less the header line


@settings(max_examples=150, deadline=None)
@given(table=_tables(), k=st.integers(1, 50), builder=st.sampled_from(sorted(_BUILDERS)))
def test_trimmed_prompt_is_the_untrimmed_prompt_of_fewer_rows(table, k, builder):
    build = _BUILDERS[builder]
    text = assemble(build(table, PromptConfig(sample_k=k)))
    n = _kept_rows(text)
    assert 1 <= n <= min(k, len(table.rows)) if table.rows else n == 0
    assert text == assemble(build(table, PromptConfig(sample_k=max(n, 1))))
    if len(table.rows) > n and k > n:
        with mock.patch.object(tabnotate.prompt, "CHAR_BUDGET", 10**9):
            longer = assemble(build(table, PromptConfig(sample_k=n + 1)))
        assert len(longer) > CHAR_BUDGET


_FRAME_CHARS = "abé019 ,;\"'\n…-"


@st.composite
def _frames(draw) -> Table:
    """0–400 rows, cells of up to 300 characters, optional headers."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arity = draw(st.integers(1, 8))
    longest = draw(st.sampled_from([3, 30, 300]))
    height = draw(st.integers(0, 400))

    def cell() -> str:
        piece = "".join(rng.choices(_FRAME_CHARS, k=rng.randint(1, 6)))
        return (piece * (longest // len(piece) + 1))[: rng.randint(0, longest)]

    headers = tuple(cell() or "h" for _ in range(arity)) if draw(st.booleans()) or not height else None
    return Table("t", headers, tuple(tuple(cell() for _ in range(arity)) for _ in range(height)))


# Headers alone over the budget: the prompt of empty bodies leaves no room.
_WIDE_HEADERS = Table("h", tuple(f"{c}" + "h" * 300 for c in range(80)), (("1",) * 80,) * 3)


@settings(max_examples=200, deadline=None)
@example(
    left=_WIDE_HEADERS,
    right=_WIDE_HEADERS,
    k=5,
    metadata=True,
    strategy=HEAD_SAMPLING,
    budget=CHAR_BUDGET,
)
@given(
    left=_frames(),
    right=_frames(),
    k=st.sampled_from([1, 5, 50, 500]),
    metadata=st.booleans(),
    strategy=st.sampled_from([HEAD_SAMPLING, SamplingStrategy(SamplingMode.SEEDED_RANDOM, 7)]),
    budget=st.sampled_from([CHAR_BUDGET, 2000, 300, 50]),
)
def test_prompts_equal_the_prompts_from_every_sampled_row(
    left, right, k, metadata, strategy, budget
):
    config = PromptConfig(sample_k=k, include_metadata=metadata, strategy=strategy)
    builders = (
        lambda: table_class_prompt(left, None, config),
        lambda: table_class_prompt(left, ("Animal", "Car"), config),
        lambda: column_type_prompt(left, config),
        lambda: join_prompt(left, right, config),
    )
    with mock.patch.object(tabnotate.prompt, "CHAR_BUDGET", budget):
        prompts = [build() for build in builders]
        with mock.patch.object(tabnotate.prompt, "_fit", fit_ref):
            assert prompts == [build() for build in builders]


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
def test_rows_past_the_budget_are_never_serialized(builder):
    rng = random.Random(3)
    table = Table(
        "wide",
        tuple(f"column_{c}" for c in range(30)),
        tuple(
            tuple(f"{r}-{c}-" + "x" * rng.randint(0, 12) for c in range(30))
            for r in range(3000)
        ),
    )
    config = PromptConfig(sample_k=500, strategy=SamplingStrategy(SamplingMode.SEEDED_RANDOM, 5))
    with mock.patch.object(
        tabnotate.prompt, "_record", wraps=tabnotate.prompt._record
    ) as record:
        text = assemble(_BUILDERS[builder](table, config))
    kept = _kept_rows(text)
    frames = 2 if builder == "join" else 1
    assert 1 < kept < 500
    # Per frame: the header, the kept rows and the one that no longer fits.
    assert record.call_count == frames * (kept + 2)
