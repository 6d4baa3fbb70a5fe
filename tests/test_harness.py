from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnotate.backend import (
    BackendExhausted,
    Conversation,
    MeteredBackend,
    Role,
    ScriptedBackend,
    Usage,
    assistant,
    user,
)
from tabnotate.core import (
    EmptyLabel,
    MissingHeaders,
    OntologyFormat,
    Table,
    TermKind,
    load_ontology,
    lookup,
    normalize_label,
)
from tabnotate.harness import (
    UNKNOWN,
    InvalidState,
    JoinPrediction,
    ParseError,
    PipelineConfig,
    TaskFailed,
    UnknownType,
    Violation,
    ViolationKind,
    _render_join,
    anchor,
    check_column_types,
    check_join,
    check_table_class,
    parse_column_types,
    parse_join_completion,
    parse_table_class,
    render_term,
    run_column_type_task,
    run_join_task_detailed,
    run_table_class_task,
    run_table_pipeline,
)
from tabnotate.prompt import JOIN_PREFIX

from fixture_data import ONTOLOGY_TEXT, PROPERTY_LIST, TABLE_CLASS_LIST
from reference import nearest_label_ref


def violation_kind(callable_, *args, **kwargs) -> ViolationKind:
    with pytest.raises(ParseError) as excinfo:
        callable_(*args, **kwargs)
    return excinfo.value.violation.kind


# --------------------------------------------------------------- parsing


def test_parse_table_class_iri():
    response = "https://dbpedia.org/ontology/ElectricVehicle"
    assert parse_table_class(response) == response


def test_parse_table_class_backtick_fallback():
    assert parse_table_class("I think `Hospital` fits.") == "Hospital"


def test_parse_table_class_unparsable():
    assert violation_kind(parse_table_class, "no idea") is ViolationKind.UNPARSABLE_OUTPUT


def test_parse_table_class_ignores_bare_prefix_echo():
    response = "Begin your answer with 'https://dbpedia.org/ontology' ... `City`"
    assert parse_table_class(response) == "City"


def test_parse_table_class_strips_iri_from_sentence():
    response = "The answer is https://dbpedia.org/ontology/Airport."
    assert parse_table_class(response) == "https://dbpedia.org/ontology/Airport."


def test_parse_table_class_reads_every_namespace_spelling(ev_table):
    ontology = load_ontology(
        ONTOLOGY_TEXT + "C\thttps://dbpedia.org/ontology/Person\n",
        OntologyFormat.TAB_SEPARATED_KIND_IRI,
    )
    for response in ("http://dbpedia.org/ontology/Person", "I think dbo:Person fits."):
        backend = ScriptedBackend([response])
        result = run_table_class_task(ev_table, ontology, backend)
        assert result.value.local_name == "Person"
        assert result.attempts == 1 and result.anchored is False
        assert result.conversation.last.text == response


def test_parse_column_types_backtick_list():
    items = parse_column_types("`dbo:author, dbo:title, Unknown, dbo:releaseDate`", 4)
    assert items == ("dbo:author", "dbo:title", "Unknown", "dbo:releaseDate")


def test_parse_column_types_arity_mismatch():
    with pytest.raises(ParseError) as excinfo:
        parse_column_types("`dbo:a, dbo:b`", 3)
    violation = excinfo.value.violation
    assert violation.kind is ViolationKind.ARITY_MISMATCH
    assert "2" in violation.offending_text and "3" in violation.offending_text
    assert excinfo.value.items == ("dbo:a", "dbo:b")


def test_parse_column_types_first_line_fallback():
    assert parse_column_types("dbo:make, dbo:model", 2) == ("dbo:make", "dbo:model")


def test_parse_column_types_prefers_matching_backtick_span():
    response = "Use `dbo:author` then the rest: `dbo:author, dbo:title`"
    assert parse_column_types(response, 2) == ("dbo:author", "dbo:title")


def test_parse_column_types_prose_is_unparsable():
    assert (
        violation_kind(parse_column_types, "cannot help with that", 3)
        is ViolationKind.UNPARSABLE_OUTPUT
    )


def test_parse_column_types_single_column():
    assert parse_column_types("dbo:author", 1) == ("dbo:author",)


@pytest.mark.parametrize("n", [0, -1])
def test_parse_column_types_needs_a_column(n):
    with pytest.raises(ValueError, match=r"^column count must be >= 1$"):
        parse_column_types("`dbo:author`", n)


def test_unknown_prints_as_unknown():
    assert repr(UNKNOWN) == str(UNKNOWN) == "Unknown"


def test_parse_join_completion_plain():
    left, right = parse_join_completion("'VIN_prefix', right_on='vehicle_id_number')")
    assert (left, right) == (["VIN_prefix"], ["vehicle_id_number"])


def test_parse_join_completion_lists():
    left, right = parse_join_completion("['a','b'], right_on=['c','d'])")
    assert (left, right) == (["a", "b"], ["c", "d"])


def test_parse_join_completion_dangling():
    assert (
        violation_kind(parse_join_completion, "'id', right_on=")
        is ViolationKind.UNPARSABLE_OUTPUT
    )


def test_parse_join_completion_full_echo():
    left, right = parse_join_completion(
        "pd.merge(df1, df2, left_on='vin', right_on='vehicle_id_number')"
    )
    assert (left, right) == (["vin"], ["vehicle_id_number"])


def test_parse_join_completion_lone_on():
    assert parse_join_completion("pd.merge(df1, df2, on='key')") == (["key"], ["key"])


def test_parse_join_completion_trailing_junk_rejected():
    assert (
        violation_kind(parse_join_completion, "'a', right_on='b', how='inner')")
        is ViolationKind.UNPARSABLE_OUTPUT
    )


def test_parse_join_completion_round_trip():
    rng = random.Random(23)
    pool = ["id", "name", "vin", "VIN_prefix", "vehicle_id_number", "zip", "key_2"]
    for _ in range(200):
        width = rng.randint(1, 3)
        left = [rng.choice(pool) for _ in range(width)]
        right = [rng.choice(pool) for _ in range(width)]
        if width == 1 and rng.random() < 0.5:
            text = f"'{left[0]}', right_on='{right[0]}')"
        else:
            lrepr = "[" + ", ".join(f"'{n}'" for n in left) + "]"
            rrepr = "[" + ", ".join(f"'{n}'" for n in right) + "]"
            text = f"{lrepr}, right_on={rrepr})"
        parsed_left, parsed_right = parse_join_completion(text)
        assert parsed_left == left and parsed_right == right


_WHITESPACE = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]
_GAP = st.text(st.sampled_from(_WHITESPACE), max_size=2)
_TICKS = st.sampled_from(["", "`", "``"])
_CLOSING = st.text(st.sampled_from([")", ";", "."] + _WHITESPACE), max_size=4)
_JOIN_NAME = st.lists(
    st.one_of(
        st.sampled_from(["'", '"', "\\", "]", ",", "left_on=", "on=", "é", "列", "a"]),
        st.characters(),
    ),
    max_size=6,
).map("".join)


@st.composite
def _spelled_list(draw, names: list[str]) -> str:
    def quoted(name: str) -> str:
        mark = draw(st.sampled_from(["'", '"']))
        return mark + name.replace("\\", "\\\\").replace(mark, "\\" + mark) + mark

    if len(names) == 1 and draw(st.booleans()):
        return quoted(names[0])
    items = [draw(_GAP) + quoted(name) + draw(_GAP) for name in names]
    trailing = "," + draw(_GAP) if draw(st.booleans()) else ""
    return "[" + ",".join(items) + trailing + "]"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), left=st.lists(_JOIN_NAME, min_size=1, max_size=4))
def test_parse_join_completion_reads_every_valid_spelling(data, left):
    draw = data.draw
    right = draw(st.lists(_JOIN_NAME, min_size=len(left), max_size=len(left)))
    if draw(st.booleans()):
        right = left
        echo = draw(st.sampled_from(["", "pd.merge(df1, df2, "]))
        text = (draw(_GAP) + echo + draw(_GAP) + "on" + draw(_GAP) + "=" + draw(_GAP)
                + draw(_spelled_list(left)))
    else:
        echo = draw(st.sampled_from(["", "pd.merge(df1, df2, left_on="]))
        text = (draw(_GAP) + echo + draw(_GAP) + draw(_spelled_list(left)) + draw(_GAP)
                + "," + draw(_GAP) + "right_on" + draw(_GAP) + "=" + draw(_GAP)
                + draw(_spelled_list(right)))
    # Backticks may open and close the tail, not sit inside it.
    text += draw(_GAP) + draw(_TICKS) + draw(_CLOSING) + draw(_TICKS) + draw(_GAP)
    if draw(st.booleans()):
        text = "```" + draw(st.sampled_from(["", "python"])) + "\n" + text + "\n```"
    assert parse_join_completion(text) == (left, right)


def test_join_parser_rejects_long_answers_in_linear_time():
    for text in (
        "['a'" + " " * 200_000 + "x",
        "'a'" + " " * 200_000 + ", right_on=" + " " * 200_000 + "x",
        "['n'" + ", 'n'" * 49_999 + ", x]",
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_join_completion(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2.0s"


# ---------------------------------------------------------------- checks


def test_check_unknown_property(ontology):
    violation = check_column_types(["dbo:iucnStatus", "dbo:binomial"], ontology)
    assert violation.kind is ViolationKind.UNKNOWN_PROPERTY
    assert violation.position == 0
    assert violation.offending_text == "dbo:iucnStatus"


def test_check_unknown_passes(ontology):
    assert check_column_types(["Unknown", "dbo:binomial"], ontology) is None
    assert check_column_types(["unknown."], ontology) is None


def test_check_table_class(ontology):
    assert check_table_class("https://dbpedia.org/ontology/Hospital", ontology) is None
    bad = check_table_class("iucnStatus", ontology)
    assert bad.kind is ViolationKind.UNKNOWN_CLASS


def test_check_join_membership(ev_table, registration_table):
    assert (
        check_join(["VIN_prefix"], ["vehicle_id_number"], ev_table, registration_table)
        is None
    )
    missing = check_join(["VIN_prefix"], ["zipcode"], ev_table, registration_table)
    assert missing.kind is ViolationKind.NONEXISTENT_COLUMN
    assert missing.offending_text == "zipcode"


def test_check_join_arity(ev_table, registration_table):
    bad = check_join(["a", "b"], ["c"], ev_table, registration_table)
    assert bad.kind is ViolationKind.ARITY_MISMATCH


@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_check_join_needs_headers_on_both_tables(ev_table, registration_table, side):
    tables = {"left": ev_table, "right": registration_table}
    for name in tables if side == "both" else (side,):
        tables[name] = Table(name, None, tables[name].rows)
    with pytest.raises(MissingHeaders, match="requires headers on both tables"):
        check_join(["VIN_prefix"], ["vehicle_id_number"], tables["left"], tables["right"])


def test_violation_position_rules():
    with pytest.raises(ValueError):
        Violation(ViolationKind.UNKNOWN_CLASS, "x", position=1)
    Violation(ViolationKind.UNKNOWN_PROPERTY, "x", position=1)


# -------------------------------------------------------------- anchoring


def make_conversation(*texts: str) -> Conversation:
    conv = Conversation()
    builders = [user, assistant]
    for index, text in enumerate(texts):
        conv.append(builders[index % 2](text))
    return conv


def test_anchor_replaces_last_assistant_turn():
    conv = make_conversation("prompt", "dbo:iucnStatus")
    repaired = anchor(conv, "dbo:conservationStatus")
    assert repaired.last.text == "dbo:conservationStatus"
    assert conv.last.text == "dbo:iucnStatus"
    assert len(repaired) == len(conv)


def test_anchor_identity_repair():
    conv = make_conversation("prompt", "answer")
    repaired = anchor(conv, "answer")
    assert [t.text for t in repaired.turns] == [t.text for t in conv.turns]


def test_anchor_requires_assistant_tail():
    for conv in (make_conversation("prompt"), Conversation()):
        with pytest.raises(InvalidState):
            anchor(conv, "x")


def test_anchor_touches_only_last_turn():
    rng = random.Random(31)
    for _ in range(50):
        texts = [f"t{i}-{rng.random()}" for i in range(rng.choice([2, 4, 6]))]
        conv = make_conversation(*texts)
        repaired = anchor(conv, "fixed")
        assert len(repaired) == len(conv)
        assert repaired.turns[:-1] == conv.turns[:-1]
        assert repaired.last.role is Role.ASSISTANT


def _nearest_name(ontology, kind: TermKind, label: str) -> str:
    return nearest_label_ref([t.local_name for t in ontology.terms(kind)], label)[0]


def test_bare_class_anchored_to_iri(ev_table, ontology):
    expected_name = _nearest_name(ontology, TermKind.CLASS, "Hostpital")
    assert expected_name == "Hospital"
    for response in ("`Hostpital`", "`dbo:Hostpital`", "I think `Hostpital` fits."):
        backend = ScriptedBackend([response])
        result = run_table_class_task(ev_table, ontology, backend)
        assert result.value.local_name == expected_name
        assert result.anchored is True
        assert result.conversation.last.text == "https://dbpedia.org/ontology/Hospital"


def test_iri_class_anchored_to_iri(ev_table, ontology):
    backend = ScriptedBackend(["https://dbpedia.org/ontology/Hostpital"])
    result = run_table_class_task(ev_table, ontology, backend)
    assert result.value.local_name == "Hospital" and result.attempts == 1
    assert result.conversation.last.text == "https://dbpedia.org/ontology/Hospital"


def test_misspelt_property_becomes_nearest(animals_table, ontology):
    expected_name = _nearest_name(ontology, TermKind.PROPERTY, "iucnStatus")
    assert expected_name == "conservationStatus"
    backend = ScriptedBackend(["`dbo:iucnStatus, dbo:binomial`"])
    result = run_column_type_task(animals_table, ontology, backend)
    assert [a.local_name for a in result.value] == [expected_name, "binomial"]
    assert result.conversation.last.text == "`dbo:conservationStatus, dbo:binomial`"


def test_empty_label_does_not_overwrite_its_neighbour(ev_table, ontology):
    backend = ScriptedBackend(
        ["`dbo:manufacturer, Unknown, , dbo:vehicleIdentificationNumber`"]
    )
    result = run_column_type_task(ev_table, ontology, backend)
    filled = lookup(ontology, TermKind.PROPERTY, _nearest_name(ontology, TermKind.PROPERTY, ""))
    assert result.value == (
        lookup(ontology, TermKind.PROPERTY, "manufacturer"),
        UNKNOWN,
        filled,
        lookup(ontology, TermKind.PROPERTY, "vehicleIdentificationNumber"),
    )
    assert result.conversation.last.text == (
        "`dbo:manufacturer, Unknown, dbo:author, dbo:vehicleIdentificationNumber`"
    )


def test_leading_empty_label_anchored_cleanly(animals_table, ontology):
    backend = ScriptedBackend(["`, dbo:binomial`"])
    result = run_column_type_task(animals_table, ontology, backend)
    filled = lookup(ontology, TermKind.PROPERTY, _nearest_name(ontology, TermKind.PROPERTY, ""))
    assert result.value == (filled, lookup(ontology, TermKind.PROPERTY, "binomial"))
    assert result.conversation.last.text == "`dbo:author, dbo:binomial`"


# ---------------------------------------------------------- table pipeline


def fig4_backend() -> ScriptedBackend:
    return ScriptedBackend(
        [
            "https://dbpedia.org/ontology/Animal",
            "`dbo:iucnStatus, dbo:binomial`",
        ]
    )


def test_pipeline_happy_path(ev_table, ontology):
    backend = ScriptedBackend(
        [
            "https://dbpedia.org/ontology/ElectricVehicle",
            "`dbo:manufacturer, dbo:model, dbo:postalCode, dbo:vehicleIdentificationNumber`",
        ]
    )
    meter = MeteredBackend(backend)
    class_result, column_result = run_table_pipeline(ev_table, ontology, meter)
    assert class_result.value.local_name == "ElectricVehicle"
    assert class_result.anchored is False and class_result.attempts == 1
    assert [a.local_name for a in column_result.value] == [
        "manufacturer",
        "model",
        "postalCode",
        "vehicleIdentificationNumber",
    ]
    assert column_result.anchored is False
    assert meter.usage.prompt_tokens > 0 and meter.usage.cost > 0


def test_pipeline_anchors_unknown_property(animals_table, ontology):
    class_result, column_result = run_table_pipeline(animals_table, ontology, fig4_backend())
    assert class_result.value.local_name == "Animal"
    assert column_result.anchored is True
    assert [a.local_name for a in column_result.value] == [
        "conservationStatus",
        "binomial",
    ]


def test_pipeline_leaves_the_class_conversation_as_it_ended(animals_table, ontology):
    class_result, column_result = run_table_pipeline(animals_table, ontology, fig4_backend())
    assert len(class_result.conversation) == 2
    assert len(column_result.conversation) == 4
    assert column_result.conversation.turns[:2] == class_result.conversation.turns


def test_a_property_from_another_namespace_is_rendered_bare():
    ontology = load_ontology(
        "P\thttps://example.org/vocab/color\nP\thttps://dbpedia.org/ontology/manufacturer\n",
        OntologyFormat.TAB_SEPARATED_KIND_IRI,
    )
    table = Table("paints", ("shade", "maker"), (("red", "Acme"),))
    backend = ScriptedBackend(["`colour, dbo:manufacturer`"])
    result = run_column_type_task(table, ontology, backend)
    assert [term.local_name for term in result.value] == ["color", "manufacturer"]
    assert result.anchored is True
    anchored = result.conversation.last.text
    assert anchored == "`color, dbo:manufacturer`"
    assert check_column_types(parse_column_types(anchored, table.arity), ontology) is None


def test_pipeline_conversation_is_violation_free(animals_table, ontology):
    config = PipelineConfig()
    class_result = run_table_class_task(
        animals_table, ontology, fig4_backend(), config
    )
    backend = fig4_backend()
    backend.complete(Conversation([user("warm")]), config.params)  # consume entry 1
    column_result = run_column_type_task(
        animals_table, ontology, backend, config, conversation=class_result.conversation
    )
    assistant_turns = [t for t in column_result.conversation.turns if t.role is Role.ASSISTANT]
    assert len(assistant_turns) == 2
    assert check_table_class(parse_table_class(assistant_turns[0].text), ontology) is None
    parsed = parse_column_types(assistant_turns[1].text, animals_table.arity)
    assert check_column_types(parsed, ontology) is None
    assert "iucnStatus" not in assistant_turns[1].text


def test_pipeline_no_anchoring_keeps_dirty_history(animals_table, ontology):
    config = PipelineConfig(anchoring_enabled=False)
    backend = fig4_backend()
    class_result = run_table_class_task(animals_table, ontology, backend, config)
    column_result = run_column_type_task(
        animals_table, ontology, backend, config, conversation=class_result.conversation
    )
    assert column_result.anchored is False
    assert [a.local_name for a in column_result.value] == [
        "conservationStatus",
        "binomial",
    ]
    assert "iucnStatus" in column_result.conversation.turns[-1].text


def test_pipeline_anchored_and_plain_conversations_differ(animals_table, ontology):
    conv_anchored = _run_fig4_columns(animals_table, ontology, anchoring=True).conversation
    conv_plain = _run_fig4_columns(animals_table, ontology, anchoring=False).conversation
    assert [t.text for t in conv_anchored.turns] != [t.text for t in conv_plain.turns]


class HistoryKeyedBackend:
    """Answers from the whole conversation: a misspelt class first, then,
    while an earlier assistant turn still holds it, an infeasible property,
    and otherwise feasible ones.  Records the assistant turns of each call."""

    def __init__(self) -> None:
        self.histories: list[tuple[str, ...]] = []

    def complete(self, conversation, params):
        history = tuple(t.text for t in conversation.turns if t.role is Role.ASSISTANT)
        self.histories.append(history)
        if "DBPedia.org Property" not in conversation.last.text:
            text = "https://dbpedia.org/ontology/Animl"
        elif any("Animl" in turn for turn in history):
            text = "`dbo:iucnStatus, dbo:binomial`"
        else:
            text = "`dbo:conservationStatus, dbo:binomial`"
        return text, Usage()


@pytest.mark.parametrize("anchoring", [True, False])
def test_anchoring_keeps_a_mistake_from_reaching_the_next_turn(animals_table, ontology, anchoring):
    backend = HistoryKeyedBackend()
    config = PipelineConfig(anchoring_enabled=anchoring)
    class_result, column_result = run_table_pipeline(animals_table, ontology, backend, config)
    assert class_result.value.local_name == "Animal"
    assert class_result.raw_response == "https://dbpedia.org/ontology/Animl"
    assert [a.local_name for a in column_result.value] == ["conservationStatus", "binomial"]
    assert len(backend.histories) == 2 and backend.histories[0] == ()
    if anchoring:
        assert backend.histories[1] == ("https://dbpedia.org/ontology/Animal",)
        assert column_result.raw_response == "`dbo:conservationStatus, dbo:binomial`"
        assert column_result.anchored is False and column_result.attempts == 1
    else:
        assert backend.histories[1] == ("https://dbpedia.org/ontology/Animl",)
        assert column_result.raw_response == "`dbo:iucnStatus, dbo:binomial`"


def _run_fig4_columns(table, ontology, anchoring: bool):
    config = PipelineConfig(anchoring_enabled=anchoring)
    backend = ScriptedBackend(["`dbo:iucnStatus, dbo:binomial`"])
    return run_column_type_task(table, ontology, backend, config)


def test_unknown_class_anchored(ev_table, ontology):
    backend = ScriptedBackend(["https://dbpedia.org/ontology/ElectricCar"])
    result = run_table_class_task(ev_table, ontology, backend)
    assert result.anchored is True
    assert result.value.local_name == "ElectricVehicle"
    assert result.conversation.last.text == "https://dbpedia.org/ontology/ElectricVehicle"
    assert result.raw_response == "https://dbpedia.org/ontology/ElectricCar"


def test_unparsable_retry_is_spliced(ev_table, ontology):
    backend = ScriptedBackend(
        ["I will not answer in the requested format.",
         "https://dbpedia.org/ontology/ElectricVehicle"]
    )
    result = run_table_class_task(ev_table, ontology, backend)
    assert result.value.local_name == "ElectricVehicle"
    assert result.attempts == 2
    assert result.anchored is True
    # The clarification exchange is spliced over the bad turn: two turns total.
    assert len(result.conversation) == 2
    assert result.conversation.last.text == "https://dbpedia.org/ontology/ElectricVehicle"


def test_unparsable_twice_fails(ev_table, ontology):
    backend = ScriptedBackend(["no idea", "still no idea"])
    with pytest.raises(TaskFailed) as excinfo:
        run_table_class_task(ev_table, ontology, backend)
    assert excinfo.value.violation.kind is ViolationKind.UNPARSABLE_OUTPUT


def test_empty_reply_is_read_as_empty(ev_table, registration_table, ontology):
    empty = Violation(ViolationKind.UNPARSABLE_OUTPUT, "")
    backend = ScriptedBackend(["", "https://dbpedia.org/ontology/ElectricVehicle"])
    result = run_table_class_task(ev_table, ontology, backend)
    assert result.violations == (empty,)
    assert result.value.local_name == "ElectricVehicle" and len(result.conversation) == 2
    with pytest.raises(TaskFailed) as excinfo:
        run_join_task_detailed(ev_table, registration_table, ScriptedBackend(["", ""]))
    assert excinfo.value.violation == empty


def test_unparsable_without_anchoring_fails_fast(ev_table, ontology):
    backend = ScriptedBackend(["no idea", "unused"])
    config = PipelineConfig(anchoring_enabled=False)
    with pytest.raises(TaskFailed):
        run_table_class_task(ev_table, ontology, backend, config)
    assert backend.remaining == 1


def test_arity_mismatch_padded(animals_table, ontology):
    backend = ScriptedBackend(["`dbo:conservationStatus`"])
    result = run_column_type_task(animals_table, ontology, backend)
    assert result.anchored is True
    assert result.value[0].local_name == "conservationStatus"
    assert isinstance(result.value[1], UnknownType)
    assert result.conversation.last.text == "`dbo:conservationStatus, Unknown`"


def test_arity_mismatch_truncated(animals_table, ontology):
    backend = ScriptedBackend(["`dbo:conservationStatus, dbo:binomial, dbo:author`"])
    result = run_column_type_task(animals_table, ontology, backend)
    assert result.anchored is True
    assert [v.kind for v in result.violations] == [ViolationKind.ARITY_MISMATCH]
    assert [a.local_name for a in result.value] == [
        "conservationStatus",
        "binomial",
    ]


def test_arity_mismatch_without_anchoring_fails(animals_table, ontology):
    backend = ScriptedBackend(["`dbo:conservationStatus`"])
    config = PipelineConfig(anchoring_enabled=False)
    with pytest.raises(TaskFailed) as excinfo:
        run_column_type_task(animals_table, ontology, backend, config)
    assert excinfo.value.violation.kind is ViolationKind.ARITY_MISMATCH


def test_attempt_budget_falls_back_to_nearest(animals_table, ontology):
    # Both items unknown: one repair pass still yields in-ontology terms.
    backend = ScriptedBackend(["`dbo:iucnStatus, dbo:binomialName`"])
    config = PipelineConfig()
    result = run_column_type_task(animals_table, ontology, backend, config)
    assert result.anchored is True
    for assignment in result.value:
        assert lookup(ontology, TermKind.PROPERTY, assignment.local_name) is assignment
    parsed = parse_column_types(result.conversation.last.text, animals_table.arity)
    assert check_column_types(parsed, ontology) is None


def test_reask_reply_of_wrong_length_is_padded(animals_table, ontology):
    backend = ScriptedBackend(["no idea", "`dbo:binomial`"])
    config = PipelineConfig()
    result = run_column_type_task(animals_table, ontology, backend, config)
    assert result.attempts == 2 and result.anchored is True
    assert result.value == (lookup(ontology, TermKind.PROPERTY, "binomial"), UNKNOWN)
    assert len(result.conversation) == 2
    assert result.conversation.last.text == "`dbo:binomial, Unknown`"


def test_pipeline_deterministic(animals_table, ontology):
    def run():
        meter = MeteredBackend(fig4_backend())
        class_result, column_result = run_table_pipeline(animals_table, ontology, meter)
        return (
            class_result.value.iri,
            tuple(repr(a) for a in column_result.value),
            meter.usage,
        )

    assert run() == run()


def test_context_flow_shares_conversation(animals_table, ontology):
    config = PipelineConfig()
    backend = fig4_backend()
    conv = run_table_class_task(animals_table, ontology, backend, config).conversation
    conv2 = run_column_type_task(
        animals_table, ontology, backend, config, conversation=conv
    ).conversation
    assert len(conv2) == 4  # two user/assistant exchanges in one history


def test_backend_errors_propagate(ev_table, ontology):
    with pytest.raises(BackendExhausted):
        run_table_class_task(ev_table, ontology, ScriptedBackend([]))


def test_task_prompt_satisfies_instruction_guard(ev_table, ontology):
    from tabnotate.backend import TranscriptEntry

    backend = ScriptedBackend(
        [TranscriptEntry("https://dbpedia.org/ontology/ElectricVehicle",
                         match="select one DBpedia.org ontology")]
    )
    result = run_table_class_task(ev_table, ontology, backend)
    assert result.value.local_name == "ElectricVehicle"


def test_class_task_no_anchoring_nearest_fallback(ev_table, ontology):
    backend = ScriptedBackend(["https://dbpedia.org/ontology/ElectricCar"])
    config = PipelineConfig(anchoring_enabled=False)
    result = run_table_class_task(ev_table, ontology, backend, config)
    assert result.value.local_name == "ElectricVehicle"
    assert result.anchored is False
    assert result.violations == (
        Violation(ViolationKind.UNKNOWN_CLASS, "https://dbpedia.org/ontology/ElectricCar"),
    )
    assert result.conversation.last.text == "https://dbpedia.org/ontology/ElectricCar"


def test_context_flow_off_shrinks_column_prompt(animals_table, ontology):
    def usage_for(context_flow: bool) -> int:
        config = PipelineConfig(context_flow=context_flow)
        meter = MeteredBackend(fig4_backend())
        run_table_pipeline(animals_table, ontology, meter, config)
        return meter.usage.prompt_tokens

    assert usage_for(True) > usage_for(False)


# ------------------------------------------------ the shared result contract

# Per task: a clean answer, then one that needs a repair.
_CONTRACT_ANSWERS = {
    "table-class": (
        "https://dbpedia.org/ontology/ElectricVehicle",
        "https://dbpedia.org/ontology/ElectricCar",
    ),
    "column-type": (
        "`dbo:manufacturer, dbo:model, dbo:postalCode, dbo:vehicleIdentificationNumber`",
        "`dbo:manufacturer, dbo:modl, Unknown, dbo:vehicleIdentificationNumber`",
    ),
    "join": (
        "'VIN_prefix', right_on='vehicle_id_number')",
        "'VIN_prefix', right_on='zipcode')",
    ),
}


@pytest.mark.parametrize("task", sorted(_CONTRACT_ANSWERS))
@pytest.mark.parametrize(
    ("answer", "anchoring"),
    [("clean", True), ("clean", False), ("repaired", True), ("repaired", False),
     ("reasked", True)],
)
def test_every_runner_returns_one_result_contract(
    ev_table, registration_table, ontology, task, answer, anchoring
):
    clean, repaired = _CONTRACT_ANSWERS[task]
    replies = {"clean": [clean], "repaired": [repaired], "reasked": ["", clean]}[answer]
    meter = MeteredBackend(ScriptedBackend(replies))
    config = PipelineConfig(anchoring_enabled=anchoring)
    if task == "table-class":
        run = run_table_class_task(ev_table, ontology, meter, config)
        rendered = render_term(run.value)
    elif task == "column-type":
        run = run_column_type_task(ev_table, ontology, meter, config)
        rendered = "`" + ", ".join(map(render_term, run.value)) + "`"
    else:
        run = run_join_task_detailed(ev_table, registration_table, meter, config)
        rendered = _render_join(run.value)
    assert run.attempts == meter.calls == len(replies)
    assert bool(run.violations) == (answer != "clean")
    assert run.anchored == (config.anchoring_enabled and bool(run.violations))
    assert run.raw_response == replies[-1]
    last = run.conversation.last
    assert last.role is Role.ASSISTANT
    assert last.text == (rendered if run.anchored else run.raw_response or " ")


# ------------------------------------------------- repair against the oracle

_FUZZ_WORDS = ["table", "join", "maybe", "zone", "ξ", "42", "dbo:", "unknown", "???"]

# The shapes of the acceptance suite's constraint-totality fuzz.
_FUZZ_RESPONSES = st.one_of(
    st.lists(st.sampled_from(_FUZZ_WORDS), min_size=1, max_size=12).map(" ".join),
    st.sampled_from(["", "Zzz", "NotAClass", "ElectricCar"]).map(
        "https://dbpedia.org/ontology/".__add__
    ),
    st.lists(
        st.sampled_from(["dbo:author", "dbo:nope", "Unknown", "dbo:made_up", ""]),
        min_size=1,
        max_size=6,
    ).map(lambda items: "`" + ", ".join(items) + "`"),
    st.sampled_from(["Hospital", "Hostpital", "zzz", ""]).map(lambda x: f"`{x}`"),
    st.sampled_from(["'vin', right_on='zip')", "['name'], right_on=['vid', 'x'])"]),
    st.sampled_from(["", "   ", "()", "[]", "“quotes”"]),
)


@st.composite
def _label(draw, names: tuple[str, ...]) -> str:
    name = draw(st.sampled_from(names))
    index = draw(st.integers(0, len(name) - 1))
    return draw(
        st.sampled_from(
            [
                f"dbo:{name}",
                name,
                name.lower(),
                f"https://dbpedia.org/ontology/{name}",
                f"dbo:{name[:index]}{name[index + 1:]}",
                f"{name[:index]}x{name[index:]}",
                "",
                "Unknown",
                "unknown.",
            ]
        )
    )


@st.composite
def _label_list(draw) -> str:
    labels = draw(st.lists(_label(PROPERTY_LIST), max_size=5))
    if labels and draw(st.booleans()):
        labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(labels)))
    wrap = draw(st.sampled_from(["`{}`", "{}", "Here you go: `{}` as asked.", "`{}`\nDone."]))
    return wrap.format(", ".join(labels))


@st.composite
def _class_answer(draw) -> str:
    wrap = draw(st.sampled_from(["`{}`", "{}", "I think `{}` fits.", "It is {}."]))
    return wrap.format(draw(_label(TABLE_CLASS_LIST)))


def _oracle_name(label: str, kind: TermKind, ontology) -> tuple[str, bool]:
    """Expected local name, and whether the label names a term exactly."""
    try:
        canonical = normalize_label(label)
    except EmptyLabel:
        canonical = ""
    if kind is TermKind.PROPERTY and canonical.lower() == "unknown":
        return "Unknown", True
    term = lookup(ontology, kind, canonical)
    if term is not None:
        return term.local_name, True
    return _nearest_name(ontology, kind, canonical), False


def _oracle(responses, kind: TermKind, arity, ontology, anchoring: bool):
    """Expected names per label and violations in order, or ``None`` when
    the task must fail."""
    violations = []
    for response in responses[: 2 if anchoring else 1]:
        try:
            if arity is None:
                labels = (parse_table_class(response),)
            else:
                labels = parse_column_types(response, arity)
        except ParseError as exc:
            # An unparsable first turn, or a list of the wrong length.
            violations.append(exc.violation)
            if not (anchoring and exc.items is not None):
                continue
            labels = exc.items[:arity] + ("Unknown",) * (arity - len(exc.items))
        names = []
        for index, label in enumerate(labels):
            name, exact = _oracle_name(label, kind, ontology)
            names.append(name)
            if exact:
                continue
            violations.append(
                Violation(ViolationKind.UNKNOWN_CLASS, label) if arity is None
                else Violation(ViolationKind.UNKNOWN_PROPERTY, label, position=index)
            )
        return tuple(names), tuple(violations)
    return None


def _assert_label_task_matches_oracle(table, ontology, kind, responses, anchoring):
    arity = None if kind is TermKind.CLASS else table.arity
    expected = _oracle(responses, kind, arity, ontology, anchoring)
    run = run_table_class_task if arity is None else run_column_type_task
    backend = ScriptedBackend(list(responses))
    config = PipelineConfig(anchoring_enabled=anchoring)
    if expected is None:
        with pytest.raises(TaskFailed):
            run(table, ontology, backend, config)
        return
    result = run(table, ontology, backend, config)
    expected, violations = expected
    assert result.violations == violations
    assert result.anchored == (anchoring and bool(violations))
    labels = (result.value,) if arity is None else result.value
    assert len(labels) == len(expected)
    for label, name in zip(labels, expected):
        if label is UNKNOWN:
            assert name == "Unknown"
        else:
            assert label.local_name == name
    if not anchoring:
        assert len(result.conversation) == 2
        assert result.conversation.last.text == (responses[0] or " ")
        return
    for turn in result.conversation.turns:
        if turn.role is not Role.ASSISTANT:
            continue
        if arity is None:
            assert check_table_class(parse_table_class(turn.text), ontology) is None
        else:
            assert check_column_types(parse_column_types(turn.text, arity), ontology) is None


@settings(max_examples=150, deadline=None)
@given(
    responses=st.lists(st.one_of(_label_list(), _FUZZ_RESPONSES), min_size=2, max_size=2),
    anchoring=st.booleans(),
    wide=st.booleans(),
)
def test_column_type_repair_matches_oracle(
    ontology, animals_table, ev_table, responses, anchoring, wide
):
    table = ev_table if wide else animals_table
    _assert_label_task_matches_oracle(table, ontology, TermKind.PROPERTY, responses, anchoring)


@settings(max_examples=150, deadline=None)
@given(
    responses=st.lists(st.one_of(_class_answer(), _FUZZ_RESPONSES), min_size=2, max_size=2),
    anchoring=st.booleans(),
)
def test_table_class_repair_matches_oracle(ontology, ev_table, responses, anchoring):
    _assert_label_task_matches_oracle(ev_table, ontology, TermKind.CLASS, responses, anchoring)


# Label replies with the IRI stem in its https or http form.
_LABEL_REPLIES = st.one_of(_label_list(), _class_answer()).flatmap(
    lambda reply: st.sampled_from([reply, reply.replace("https://", "http://")])
)


@settings(max_examples=150, deadline=None)
@given(
    responses=st.lists(_LABEL_REPLIES, min_size=2, max_size=2),
    kind=st.sampled_from([TermKind.CLASS, TermKind.PROPERTY]),
    wide=st.booleans(),
)
def test_label_anchoring_is_idempotent(
    ontology, animals_table, ev_table, responses, kind, wide
):
    table = ev_table if wide else animals_table
    run = run_table_class_task if kind is TermKind.CLASS else run_column_type_task
    try:
        result = run(table, ontology, ScriptedBackend(list(responses)))
    except TaskFailed:
        return
    # The anchored turn, asked again, needs no repair and is kept as it is.
    final = result.conversation.last.text
    again = run(table, ontology, ScriptedBackend([final]))
    assert again.anchored is False and again.attempts == 1
    assert again.violations == ()
    assert again.value == result.value
    assert again.conversation.last.text == final


# ------------------------------------------------------------------- join


def test_join_task_paper_example(ev_table, registration_table, ontology):
    backend = ScriptedBackend(["'VIN_prefix', right_on='vehicle_id_number')"])
    prediction = run_join_task_detailed(ev_table, registration_table, backend).value
    assert prediction.left_cols == ("VIN_prefix",)
    assert prediction.right_cols == ("vehicle_id_number",)


def test_join_task_anchors_missing_column(ev_table, registration_table):
    nearest = nearest_label_ref(list(registration_table.headers), "zipcode")[0]
    assert nearest == "vehicle_id_number"
    backend = ScriptedBackend(["'VIN_prefix', right_on='zipcode')"])
    run = run_join_task_detailed(ev_table, registration_table, backend)
    assert run.attempts == 1 and run.anchored is True
    assert run.value.pairs == (("VIN_prefix", nearest),)
    assert len(run.conversation) == 2
    assert run.conversation.last.text == "'VIN_prefix', right_on='vehicle_id_number')"


def test_join_arity_mismatch_truncated(ev_table, registration_table):
    backend = ScriptedBackend(["['VIN_prefix', 'ZIP'], right_on=['vehicle_id_number'])"])
    run = run_join_task_detailed(ev_table, registration_table, backend)
    assert run.attempts == 1 and run.anchored is True
    assert run.value.pairs == (("VIN_prefix", "vehicle_id_number"),)
    assert run.conversation.last.text == "'VIN_prefix', right_on='vehicle_id_number')"


def test_join_unparsable_reask_is_spliced(ev_table, registration_table):
    answers = ["Join them on the VIN.", "['VIN_prefix'], right_on=['vehicle_id_number'])"]
    scripted = ScriptedBackend(answers)
    asked = []

    class Recorder:
        def complete(self, conversation, params):
            asked.append(conversation.last.text)
            return scripted.complete(conversation, params)

    run = run_join_task_detailed(ev_table, registration_table, Recorder())
    assert run.attempts == 2 and run.anchored is True
    assert asked[1].endswith(JOIN_PREFIX)
    assert run.value.pairs == (("VIN_prefix", "vehicle_id_number"),)
    # The clarification exchange is spliced over the bad turn: two turns total.
    assert len(run.conversation) == 2
    assert run.conversation.last.text == answers[1]


def test_join_task_headers_required(ev_table):
    headerless = Table("raw", None, (("a", "b"),))
    backend = ScriptedBackend([])
    with pytest.raises(MissingHeaders):
        run_join_task_detailed(ev_table, headerless, backend)
    assert backend.remaining == 0  # no backend call was attempted


def test_join_task_fails_after_budget(ev_table, registration_table):
    backend = ScriptedBackend(["no idea", "'nope', right_on=", "unused"])
    with pytest.raises(TaskFailed) as excinfo:
        run_join_task_detailed(ev_table, registration_table, backend)
    assert excinfo.value.violation.kind is ViolationKind.UNPARSABLE_OUTPUT
    assert backend.remaining == 1  # exactly 2 calls
    # A nonexistent column is repaired, not a failure.
    backend = ScriptedBackend(["'nope', right_on='nothing')"])
    run = run_join_task_detailed(ev_table, registration_table, backend)
    assert run.attempts == 1 and run.anchored is True


def test_join_without_anchoring(ev_table, registration_table):
    config = PipelineConfig(anchoring_enabled=False)
    answer = "'VIN_prefix', right_on='zipcode')"
    run = run_join_task_detailed(ev_table, registration_table, ScriptedBackend([answer]), config)
    assert run.value.pairs == (("VIN_prefix", "vehicle_id_number"),)
    assert run.anchored is False
    assert len(run.conversation) == 2 and run.conversation.last.text == answer
    backend = ScriptedBackend(["['VIN_prefix', 'ZIP'], right_on=['vehicle_id_number'])", "unused"])
    with pytest.raises(TaskFailed) as excinfo:
        run_join_task_detailed(ev_table, registration_table, backend, config)
    assert excinfo.value.violation.kind is ViolationKind.ARITY_MISMATCH
    assert backend.remaining == 1


def test_join_task_context_notes(ev_table, registration_table):
    from tabnotate.backend import TranscriptEntry

    # The match guard proves the notes made it into the prompt.
    backend = ScriptedBackend(
        [TranscriptEntry("'VIN_prefix', right_on='vehicle_id_number')",
                         match="ElectricVehicle")]
    )
    prediction = run_join_task_detailed(
        ev_table,
        registration_table,
        backend,
        context_notes="df1 is an ElectricVehicle table.",
    ).value
    assert prediction.left_cols == ("VIN_prefix",)


def test_join_prediction_invariants():
    with pytest.raises(ValueError):
        JoinPrediction((), ())
    with pytest.raises(ValueError):
        JoinPrediction(("a",), ("b", "c"))


# -------------------------------------------- join repair against the oracle

_NAME = st.from_regex(r"[A-Za-z0-9_]{1,10}", fullmatch=True)
_HEADERS = st.lists(_NAME, min_size=1, max_size=5, unique=True)


@st.composite
def _join_name(draw, headers: list[str]) -> str:
    name = draw(st.sampled_from(headers))
    index = draw(st.integers(0, len(name) - 1))
    return draw(
        st.one_of(
            st.just(name),
            st.just(f"{name[:index]}x{name[index:]}"),
            st.just(name[:index] + name[index + 1:]).filter(bool),
            _NAME,
        )
    )


@st.composite
def _join_answer(draw, left_headers: list[str], right_headers: list[str]) -> str:
    def names(headers: list[str]) -> str:
        chosen = draw(st.lists(_join_name(headers), min_size=1, max_size=3))
        quoted = [f"'{name}'" for name in chosen]
        if len(quoted) == 1 and draw(st.booleans()):
            return quoted[0]
        return "[" + ", ".join(quoted) + "]"

    shape = draw(
        st.sampled_from(
            ["{}, right_on={})", "pd.merge(df1, df2, left_on={}, right_on={})", "{}, right_on={}"]
        )
    )
    return shape.format(names(left_headers), names(right_headers))


def _oracle_header(name: str, headers: list[str]) -> tuple[str, bool]:
    """Expected header, and whether the name is a header."""
    if name in headers:
        return name, True
    return nearest_label_ref(headers, name)[0], False


def _join_oracle(responses, left_headers, right_headers, anchoring: bool):
    """Expected (left, right) names and violations in order, or ``None``
    when the task must fail."""
    violations = []
    for response in responses[: 2 if anchoring else 1]:
        try:
            left_names, right_names = parse_join_completion(response)
        except ParseError as exc:
            violations.append(exc.violation)
            continue
        if len(left_names) != len(right_names):
            if not anchoring:
                return None
            violations.append(Violation(
                ViolationKind.ARITY_MISMATCH,
                f"left_on names {len(left_names)} columns, right_on {len(right_names)}",
            ))
        n = min(len(left_names), len(right_names))
        expected = ([], [])
        for side, names, headers in zip(
            expected, (left_names, right_names), (left_headers, right_headers)
        ):
            for index, name in enumerate(names[:n]):
                header, exact = _oracle_header(name, headers)
                side.append(header)
                if not exact:
                    violations.append(
                        Violation(ViolationKind.NONEXISTENT_COLUMN, name, position=index)
                    )
        return expected, tuple(violations)
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), left_headers=_HEADERS, right_headers=_HEADERS, anchoring=st.booleans())
def test_join_repair_matches_oracle(data, left_headers, right_headers, anchoring):
    left = Table("left", left_headers, (tuple("v" for _ in left_headers),))
    right = Table("right", right_headers, (tuple("w" for _ in right_headers),))
    answer = st.one_of(
        _join_answer(left_headers, right_headers),
        st.sampled_from(["", "no idea", "'a', right_on=", "[]", "on="]),
    )
    responses = data.draw(st.lists(answer, min_size=2, max_size=2))
    expected = _join_oracle(responses, left_headers, right_headers, anchoring)
    config = PipelineConfig(anchoring_enabled=anchoring)
    backend = ScriptedBackend(list(responses))
    if expected is None:
        with pytest.raises(TaskFailed):
            run_join_task_detailed(left, right, backend, config)
        return
    run = run_join_task_detailed(left, right, backend, config)
    expected, violations = expected
    assert (list(run.value.left_cols), list(run.value.right_cols)) == expected
    assert run.violations == violations
    assert run.anchored == (anchoring and bool(violations))
    if not anchoring:
        assert len(run.conversation) == 2
        assert run.conversation.last.text == (responses[0] or " ")
        return
    for turn in run.conversation.turns:
        if turn.role is Role.ASSISTANT:
            assert check_join(*parse_join_completion(turn.text), left, right) is None
    # Anchoring is idempotent: the anchored turn, asked again, needs no repair.
    final = run.conversation.last.text
    again = run_join_task_detailed(left, right, ScriptedBackend([final]), config)
    assert again.value == run.value
    assert again.anchored is False and again.conversation.last.text == final
    assert again.violations == ()


def test_join_header_with_both_quotes_is_anchored_to_a_parsable_turn():
    left = Table("left", ("a'b\"c", "zz"), (("v", "v"),))
    right = Table("right", ("k",), (("w",),))
    run = run_join_task_detailed(left, right, ScriptedBackend(["'ab', right_on='k')"]))
    assert run.value.pairs == (("a'b\"c", "k"),)
    assert run.conversation.last.text == "\"a'b\\\"c\", right_on='k')"
    assert parse_join_completion(run.conversation.last.text) == (["a'b\"c"], ["k"])


def test_join_parser_reads_escapes_and_keeps_other_backslashes():
    assert parse_join_completion(r"'a\'b', right_on='c\\d')") == (["a'b"], ["c\\d"])
    assert parse_join_completion("'C:\\path', right_on=\"x\\\"y\")") == (
        ["C:\\path"], ['x"y'])


_COLUMNS = st.lists(st.text(min_size=1), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), left_cols=_COLUMNS)
def test_rendered_join_parses_back(data, left_cols):
    right_cols = data.draw(st.lists(st.text(min_size=1), min_size=len(left_cols),
                                    max_size=len(left_cols)))
    prediction = JoinPrediction(tuple(left_cols), tuple(right_cols))
    assert parse_join_completion(_render_join(prediction)) == (left_cols, right_cols)


def test_rendered_join_parses_back_when_a_name_holds_left_on():
    prediction = JoinPrediction(("pd.merge(df1, df2, left_on=",), ("k",))
    assert parse_join_completion(_render_join(prediction)) == (
        ["pd.merge(df1, df2, left_on="], ["k"])


# ------------------------------------------------------- parser totality

_SYNTAX = ["'", '"', "[", "]", ",", " ", "\n", ")", "`", "```", "left_on=", "right_on=",
           "on=", "a", "B_1", "dbo:", "http://dbpedia.org/ontology/", "Unknown", "\\",
           '"x"', "\x1c", "\xa0"]


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(st.text(), st.lists(st.sampled_from(_SYNTAX), max_size=24).map("".join)),
    n=st.integers(1, 6),
)
def test_parsers_raise_only_parse_error(text, n):
    for parse in (parse_table_class, lambda t: parse_column_types(t, n), parse_join_completion):
        try:
            parse(text)
        except ParseError as exc:
            if exc.violation.kind is ViolationKind.UNPARSABLE_OUTPUT:
                assert exc.violation.offending_text == text
