from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabnotate.core
from tabnotate.backend import PriceTable, ScriptedBackend, Usage
from tabnotate.core import (
    EmptyTable,
    MissingHeaders,
    OntologyFormat,
    Table,
    edit_distance,
    load_ontology,
    read_csv,
    to_csv,
)
from tabnotate.evaluate import (
    EmptyStats,
    ItemOutcome,
    LabeledExample,
    LengthMismatch,
    ManifestError,
    System,
    Task,
    WeightedMetrics,
    jaccard,
    jaccard_join,
    levenshtein_join,
    load_manifest,
    per_class_stats,
    run_benchmark,
    weighted_metrics,
    write_report,
    _aggregate,
)

from fixture_data import ANIMALS_TABLE, CAR_REGISTRATION_TABLE, EV_TABLE, ONTOLOGY_TEXT
from make_goldens import EVAL_REPORTS, GOLDEN_DIR, eval_report
from reference import (
    best_jaccard_pair_ref,
    best_levenshtein_pair_ref,
    levenshtein_ref,
    weighted_metrics_ref,
)


# ----------------------------------------------------------------- stats


def test_per_class_stats_all_correct():
    stats = per_class_stats(["A", "A", "B"], ["A", "A", "B"])
    assert (stats["A"].tp, stats["A"].fp, stats["A"].fn, stats["A"].support) == (2, 0, 0, 2)
    assert (stats["B"].tp, stats["B"].fp, stats["B"].fn, stats["B"].support) == (1, 0, 0, 1)


def test_per_class_stats_hand_confusion():
    stats = per_class_stats(["A", "B", "B"], ["A", "A", "B"])
    assert (stats["A"].tp, stats["A"].fp, stats["A"].fn, stats["A"].support) == (1, 0, 1, 2)
    assert (stats["B"].tp, stats["B"].fp, stats["B"].fn, stats["B"].support) == (1, 1, 0, 1)


def test_per_class_stats_empty():
    assert per_class_stats([], []) == {}


def test_per_class_stats_length_mismatch():
    with pytest.raises(LengthMismatch):
        per_class_stats(["A"], [])


def test_weighted_metrics_all_correct():
    metrics = weighted_metrics(per_class_stats(["A", "A", "B"], ["A", "A", "B"]))
    assert metrics == WeightedMetrics(1.0, 1.0, 1.0)


def test_weighted_metrics_derived_example():
    metrics = weighted_metrics(per_class_stats(["A", "B", "B"], ["A", "A", "B"]))
    assert metrics.precision == pytest.approx(5 / 6)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)


def test_weighted_metrics_half_correct_bounds():
    metrics = weighted_metrics(per_class_stats(["A", "X"], ["A", "A"]))
    assert 0.0 < metrics.f1 < 1.0


def test_weighted_metrics_empty_stats():
    with pytest.raises(EmptyStats):
        weighted_metrics({})


def test_weighted_metrics_matches_brute_force():
    rng = random.Random(7)
    for _ in range(100):
        n_classes = rng.randint(1, 10)
        classes = [f"c{i}" for i in range(n_classes)]
        n = rng.randint(1, 500)
        golds = [rng.choice(classes) for _ in range(n)]
        preds = [
            g if rng.random() < 0.6 else rng.choice(classes + ["zz-junk"])
            for g in golds
        ]
        metrics = weighted_metrics(per_class_stats(preds, golds))
        p, r, f1 = weighted_metrics_ref(preds, golds)
        assert metrics.precision == pytest.approx(p, abs=1e-12)
        assert metrics.recall == pytest.approx(r, abs=1e-12)
        assert metrics.f1 == pytest.approx(f1, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.sampled_from("ABCD")] * 2), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)
def test_weighted_metrics_do_not_depend_on_item_order(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert weighted_metrics(per_class_stats(*zip(*shuffled))) == weighted_metrics(
        per_class_stats(*zip(*pairs))
    )


# --------------------------------------------------------- edit distance


def test_edit_distance_examples():
    assert edit_distance("kitten", "sitting") == levenshtein_ref("kitten", "sitting") == 3
    assert edit_distance("same", "same") == 0
    assert edit_distance("", "abc") == 3


def test_edit_distance_metric_properties():
    rng = random.Random(13)
    words = [
        "".join(rng.choice("abcde") for _ in range(rng.randint(0, 8))) for _ in range(60)
    ]
    for _ in range(200):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


# -------------------------------------------------------------- baselines


def test_levenshtein_join_example():
    left = Table("l", ("id", "name"), (("1", "x"),))
    right = Table("r", ("ident", "title"), (("1", "y"),))
    expected = best_levenshtein_pair_ref(left, right)
    prediction = levenshtein_join(left, right)
    assert (prediction.left_cols[0], prediction.right_cols[0]) == expected == ("id", "ident")


def test_levenshtein_join_identical_header():
    left = Table("l", ("key", "blob"), ())
    right = Table("r", ("other", "key"), ())
    prediction = levenshtein_join(left, right)
    assert prediction.pairs == (("key", "key"),)


def test_levenshtein_join_single_pair():
    prediction = levenshtein_join(Table("l", ("a",), ()), Table("r", ("zzz",), ()))
    assert prediction.pairs == (("a", "zzz"),)


def test_levenshtein_join_requires_headers():
    with pytest.raises(MissingHeaders):
        levenshtein_join(Table("l", None, (("x",),)), Table("r", ("h",), ()))


def test_jaccard_formula():
    assert jaccard({"1", "2", "3"}, {"2", "3", "4"}) == 0.5
    assert jaccard(set(), set()) == 0.0
    assert jaccard({"a"}, {"a"}) == 1.0


def test_jaccard_symmetry_and_bounds():
    rng = random.Random(5)
    for _ in range(100):
        x = {str(rng.randint(0, 20)) for _ in range(rng.randint(0, 10))}
        y = {str(rng.randint(0, 20)) for _ in range(rng.randint(0, 10))}
        assert jaccard(x, y) == jaccard(y, x)
        assert 0.0 <= jaccard(x, y) <= 1.0


def test_jaccard_join_identical_column_selected():
    left = Table("l", ("a", "b"), (("1", "q"), ("2", "w")))
    right = Table("r", ("c", "d"), (("9", "1"), ("8", "2")))
    prediction = jaccard_join(left, right)
    assert prediction.pairs == (("a", "d"),)


def test_jaccard_join_planted_pair_matches_oracle():
    rng = random.Random(21)
    for _ in range(30):
        shared = [str(rng.randint(1000, 9999)) for _ in range(6)]
        left = Table(
            "l",
            ("k", "l1", "l2"),
            tuple((shared[i], f"a{i}", f"b{rng.randint(0, 99)}") for i in range(6)),
        )
        right = Table(
            "r",
            ("r1", "k2", "r2"),
            tuple((f"c{i}", shared[i], f"d{rng.randint(100, 199)}") for i in range(6)),
        )
        expected = best_jaccard_pair_ref(left, right)
        prediction = jaccard_join(left, right)
        assert (prediction.left_cols[0], prediction.right_cols[0]) == expected == ("k", "k2")


def test_jaccard_join_requires_rows():
    with pytest.raises(EmptyTable):
        jaccard_join(Table("l", ("a",), ()), Table("r", ("b",), (("1",),)))


def test_jaccard_join_positional_names_without_headers():
    left = Table("l", None, (("1", "x"), ("2", "y")))
    right = Table("r", None, (("x", "9"), ("y", "8")))
    prediction = jaccard_join(left, right)
    assert prediction.pairs == (("1", "0"),)


# Few distinct cells and header letters, so scores tie and the tie-break decides.
# "a,b" forces quotes, so its table read back from CSV goes through csv.reader.
_CELL = st.sampled_from(["", "a", "b", "c", "a,b"])
_HEADER = st.text(alphabet="aAbé", max_size=3)
# Long names, some holding "İ", whose lowercase form is one character longer.
_LONG_HEADER = st.text(alphabet="aAbİi", min_size=60, max_size=150)


@st.composite
def _baseline_table(
    draw, name: str, headers: bool | None = None, rows: bool = True, header=_HEADER
):
    arity = draw(st.integers(1, 5))
    with_headers = draw(st.booleans()) if headers is None else headers
    row = st.lists(_CELL, min_size=arity, max_size=arity).map(tuple)
    body = []
    if rows:
        # 300 copies span more than one chunk of Table.column_sets, and the
        # tail's rows, drawn apart, can add values in the last chunk; no
        # copy and no tail leaves a table with no rows.
        body = draw(st.lists(row, min_size=1, max_size=6))
        body = body * draw(st.sampled_from((1, 300, 0))) + draw(st.lists(row, max_size=2))
    table = Table(
        name,
        draw(st.lists(header, min_size=arity, max_size=arity)) if with_headers else None,
        body,
    )
    if draw(st.booleans()):  # kept lines, or csv.reader's rows if a cell is quoted
        table = read_csv(to_csv(table), name, headers=with_headers)
    return table


@settings(max_examples=300, deadline=None)
@given(left=_baseline_table("l"), right=_baseline_table("r"))
def test_jaccard_join_equals_reference(left, right):
    if not left.row_count or not right.row_count:
        with pytest.raises(EmptyTable):
            jaccard_join(left, right)
        return
    # Before the reference, whose ``rows`` would split and keep every line.
    pairs = jaccard_join(left, right).pairs
    assert pairs == (best_jaccard_pair_ref(left, right),)


@settings(max_examples=300, deadline=None)
@given(
    left=_baseline_table("l", headers=True, rows=False, header=_HEADER | _LONG_HEADER),
    right=_baseline_table("r", headers=True, rows=False, header=_HEADER | _LONG_HEADER),
)
def test_levenshtein_join_equals_reference(left, right):
    assert levenshtein_join(left, right).pairs == (best_levenshtein_pair_ref(left, right),)


def _wide_table(rng, name, arity, rows, pool, quoted):
    """A table whose columns draw from small slices of one shared ``pool``,
    with empty cells, and with some columns holding an earlier column's
    values in another order, so that their scores tie exactly.  Read back
    from CSV: a quoted cell sends it through csv.reader, else its lines
    are kept."""
    columns: list[list[str]] = []
    for _ in range(arity):
        if columns and rng.random() < 0.3:
            column = list(rng.choice(columns))
            rng.shuffle(column)
        else:
            values = rng.sample(pool, rng.randint(1, 12))
            column = [rng.choice(values) if rng.random() > 0.2 else "" for _ in range(rows)]
        columns.append(column)
    if quoted:
        columns[rng.randrange(arity)][rng.randrange(rows)] = "x,y"
    with_headers = rng.random() < 0.7
    headers = rng.sample([f"c{i}" for i in range(20)], arity) if with_headers else None
    table = read_csv(to_csv(Table(name, headers, zip(*columns))), name, headers=with_headers)
    assert isinstance(table._rows, tabnotate.core._Lines) is not quoted
    return table


def test_wide_jaccard_join_equals_reference_on_shared_values_and_ties():
    rng = random.Random(24)
    pool = [f"v{i}" for i in range(30)]
    tied = 0
    for case in range(40):
        quoted, rows = case % 2 == 1, rng.choice((40, 300))
        left = _wide_table(rng, "l", 12, rows, pool, quoted)
        right = _wide_table(rng, "r", 9, rows, pool, quoted)
        assert jaccard_join(left, right).pairs == (best_jaccard_pair_ref(left, right),)
        columns = [
            [{row[i] for row in table.rows if row[i]} for i in range(table.arity)]
            for table in (left, right)
        ]
        scores = [jaccard(x, y) for x in columns[0] for y in columns[1]]
        tied += scores.count(max(scores)) > 1
    assert tied >= 10  # the tie-break decides the answer in many cases


def test_baseline_invariance_under_row_order_and_duplicates():
    rng = random.Random(8)
    for _ in range(20):
        rows = tuple(
            (str(rng.randint(0, 30)), str(rng.randint(0, 30))) for _ in range(8)
        )
        other = tuple(
            (str(rng.randint(0, 30)), str(rng.randint(0, 30))) for _ in range(8)
        )
        left = Table("l", ("p", "q"), rows)
        right = Table("r", ("u", "v"), other)
        baseline = jaccard_join(left, right)

        shuffled_rows = list(rows)
        rng.shuffle(shuffled_rows)
        shuffled = Table("l", ("p", "q"), tuple(shuffled_rows))
        assert jaccard_join(shuffled, right) == baseline

        duplicated = Table("l", ("p", "q"), rows + rows[:3])
        assert jaccard_join(duplicated, right) == baseline

        lev = levenshtein_join(left, right)
        assert levenshtein_join(shuffled, right) == lev


# --------------------------------------------------------------- manifest


def write_csv(path, table: Table) -> None:
    path.write_text(to_csv(table) + "\n", encoding="utf-8")


def test_load_manifest_round_trip(tmp_path):
    write_csv(tmp_path / "animals.csv", ANIMALS_TABLE)
    write_csv(tmp_path / "ev.csv", EV_TABLE)
    write_csv(tmp_path / "reg.csv", CAR_REGISTRATION_TABLE)
    lines = [
        {"id": "a", "task": "table-class", "table": "animals.csv", "headers": True,
         "gold": "Animal"},
        {"id": "b", "task": "column-type", "table": "animals.csv", "headers": True,
         "gold": ["conservationStatus", "binomial"]},
        {"id": "c", "task": "join", "left": "ev.csv", "right": "reg.csv",
         "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]},
    ]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    examples = load_manifest(manifest)
    assert [e.task for e in examples] == [Task.TABLE_CLASS, Task.COLUMN_TYPE, Task.JOIN]
    assert examples[0].table == tmp_path / "animals.csv"
    assert examples[2].gold == (("VIN_prefix", "vehicle_id_number"),)


def test_load_manifest_reports_line(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        '{"id": "a", "task": "table-class", "table": "t.csv", "gold": "X"}\n'
        '{"id": "b", "task": "table-class", "table": "t.csv", "gold": "Y"}\n'
        "oops\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="line 3"):
        load_manifest(manifest)


def test_manifest_lines_end_only_at_cr_and_lf(tmp_path):
    # json.dumps escapes the form feed, so a raw one ends a line's text.
    ids = ["a\u2028b", "c\x85d", "e\x0cf"]
    lines = [
        json.dumps({"id": item_id, "task": "table-class", "table": "t.csv", "gold": "X"},
                   ensure_ascii=False)
        for item_id in ids
    ]
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(f"{lines[0]}\r\n\r\n{lines[1]}\x0c\r{lines[2]}\n".encode("utf-8"))
    assert [example.id for example in load_manifest(manifest)] == ids
    manifest.write_bytes(f"{lines[0]}\x0c\n{lines[1]}\rnot json\u2028\n".encode("utf-8"))
    with pytest.raises(ManifestError, match="line 3"):
        load_manifest(manifest)


def test_load_manifest_bad_gold_shape(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        '{"id": "a", "task": "column-type", "table": "t.csv", "gold": "not-a-list"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(manifest)


def test_load_manifest_unknown_task(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "a", "task": "what", "gold": "x"}\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="unknown task"):
        load_manifest(manifest)


_GOOD_ITEM = {"id": "a", "task": "table-class", "table": "t.csv", "gold": "X"}
_GOOD_COLUMNS = {"id": "c", "task": "column-type", "table": "t.csv", "gold": ["X"]}
_GOOD_JOIN = {"id": "j", "task": "join", "left": "l.csv", "right": "r.csv", "gold": [["a", "b"]]}


@pytest.mark.parametrize(
    "item, message",
    [
        ([1], "expected a JSON object"),
        ({**_GOOD_ITEM, "id": None}, "missing 'id' string"),
        ({**_GOOD_ITEM, "id": ""}, "missing 'id' string"),
        ({**_GOOD_ITEM, "headers": "yes"}, "'headers' must be a boolean"),
        ({**_GOOD_ITEM, "gold": ["X"]}, "table-class gold must be a string"),
        ({**_GOOD_JOIN, "gold": []}, "join gold must be a list of [left, right] pairs"),
        ({**_GOOD_JOIN, "gold": [["a"]]}, "join gold must be a list of [left, right] pairs"),
        ({**_GOOD_JOIN, "gold": [["a", 1]]}, "join gold must be a list of [left, right] pairs"),
        ({**_GOOD_JOIN, "right": None}, "join items need 'left' and 'right' paths"),
        ({k: v for k, v in _GOOD_ITEM.items() if k != "table"}, "missing 'table' path"),
        ({**_GOOD_JOIN, "id": "a"}, "id 'a' repeats line 1"),
        ({**_GOOD_COLUMNS, "gold": []}, "column-type gold must be a non-empty list of strings"),
        ({**_GOOD_COLUMNS, "gold": "x"}, "column-type gold must be a non-empty list of strings"),
        ({**_GOOD_COLUMNS, "gold": ["a", 1]}, "column-type gold must be a non-empty list of strings"),
        ({**_GOOD_ITEM, "gold": ""}, "table-class gold must not be empty"),
        ({**_GOOD_COLUMNS, "gold": ["", ""]}, "column-type gold must not hold an empty label"),
    ],
)
def test_load_manifest_names_the_line_and_fault_of_a_bad_item(tmp_path, item, message):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(f"{json.dumps(_GOOD_ITEM)}\n{json.dumps(item)}\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=f"^line 2: {re.escape(message)}$"):
        load_manifest(manifest)


# -------------------------------------------------------------- benchmark


def class_manifest(tmp_path, golds):
    write_csv(tmp_path / "animals.csv", ANIMALS_TABLE)
    lines = [
        json.dumps(
            {"id": f"item-{i}", "task": "table-class", "table": "animals.csv",
             "headers": True, "gold": gold}
        )
        for i, gold in enumerate(golds)
    ]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_manifest(manifest)


def test_benchmark_all_correct(tmp_path, ontology):
    examples = class_manifest(tmp_path, ["Animal"] * 3)
    backend = ScriptedBackend(["https://dbpedia.org/ontology/Animal"] * 3)
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    assert report.metrics.f1 == 1.0
    assert report.items == 3
    assert report.task == "table-class"
    assert report.total_cost > 0
    assert report.throughput > 0


def test_benchmark_levenshtein_no_cost(tmp_path):
    write_csv(tmp_path / "ev.csv", EV_TABLE)
    write_csv(tmp_path / "reg.csv", CAR_REGISTRATION_TABLE)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps(
            {"id": "j", "task": "join", "left": "ev.csv", "right": "reg.csv",
             "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}
        )
        + "\n",
        encoding="utf-8",
    )
    report = run_benchmark(load_manifest(manifest), System.LEVENSHTEIN)
    assert report.total_cost == 0.0
    assert report.throughput == 0.0
    assert report.items == 1
    assert report.system == "levenshtein"


def test_benchmark_mixed_correctness_matches_oracle(tmp_path, ontology):
    golds = ["Animal", "Hospital", "Animal", "City"]
    examples = class_manifest(tmp_path, golds)
    responses = [
        "https://dbpedia.org/ontology/Animal",     # correct
        "https://dbpedia.org/ontology/Animal",     # wrong (gold Hospital)
        "https://dbpedia.org/ontology/Animal",     # correct
        "https://dbpedia.org/ontology/Airport",    # wrong (gold City)
    ]
    backend = ScriptedBackend(responses)
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    preds = [o.prediction for o in report.per_item]
    metrics = weighted_metrics(per_class_stats(preds, golds))
    assert report.metrics == metrics
    p, r, f1 = weighted_metrics_ref(preds, golds)
    assert report.metrics.f1 == pytest.approx(f1, abs=1e-12)


def test_benchmark_baseline_rejects_classification(tmp_path):
    examples = class_manifest(tmp_path, ["Animal"])
    with pytest.raises(ManifestError, match="only supports join"):
        run_benchmark(examples, System.JACCARD)


def test_benchmark_records_failures_as_incorrect(tmp_path, ontology):
    examples = class_manifest(tmp_path, ["Animal", "Animal"])
    backend = ScriptedBackend(
        ["gibberish", "also gibberish",  # item 1: unparsable twice -> TaskFailed
         "https://dbpedia.org/ontology/Animal"]
    )
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    assert report.items == 2
    first, second = report.per_item
    assert first.correct is False and first.error is not None
    assert second.correct is True
    assert report.metrics.recall == pytest.approx(0.5)


def test_benchmark_meters_failed_items(tmp_path, ontology):
    examples = class_manifest(tmp_path, ["Animal", "Animal"])
    responses = ["gibberish", "also gibberish", "https://dbpedia.org/ontology/Animal"]

    def run(items, replies):
        return run_benchmark(
            items, System.MODEL, ontology=ontology, backend=ScriptedBackend(replies)
        )

    report = run(examples, responses)
    failed_only, passed_only = run(examples[:1], responses[:2]), run(examples[1:], responses[2:])
    assert report.per_item[0].attempts == 2
    assert failed_only.usage["prompt_tokens"] > passed_only.usage["prompt_tokens"] > 0
    for key in ("prompt_tokens", "completion_tokens"):
        assert report.usage[key] == failed_only.usage[key] + passed_only.usage[key]
    assert report.total_cost == pytest.approx(failed_only.total_cost + passed_only.total_cost)


def test_backend_error_after_a_call_is_metered(tmp_path, ontology):
    examples = class_manifest(tmp_path, ["Animal"])
    # The one reply is unparsable; the clarification re-ask finds the
    # transcript exhausted, after one call already finished.
    backend = ScriptedBackend(["gibberish"])
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    (item,) = report.per_item
    assert item.error is not None
    assert item.attempts == 1
    assert report.usage["prompt_tokens"] > 0
    assert report.total_cost > 0


def test_model_join_reports_a_repair_as_anchored(tmp_path):
    write_csv(tmp_path / "ev.csv", EV_TABLE)
    write_csv(tmp_path / "reg.csv", CAR_REGISTRATION_TABLE)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps(
            {"id": "j", "task": "join", "left": "ev.csv", "right": "reg.csv",
             "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}
        )
        + "\n",
        encoding="utf-8",
    )
    # No such column in df1; its nearest df1 header is the gold key.
    backend = ScriptedBackend(["'VIN_prefx', right_on='vehicle_id_number')"])
    report = run_benchmark(load_manifest(manifest), System.MODEL, backend=backend)
    (item,) = report.per_item
    assert item.correct is True
    assert item.attempts == 1
    assert item.anchored is True


@pytest.mark.parametrize(
    "answer",
    [
        "['id', 'id'], right_on=['ident', 'ident'])",
        # Repair maps both misspellings on each side to the same header.
        "['idd', 'iid'], right_on=['identt', 'idnt'])",
    ],
)
def test_a_repeated_join_pair_counts_once(tmp_path, answer):
    (tmp_path / "l.csv").write_text("id,name\n1,x\n", encoding="utf-8")
    (tmp_path / "r.csv").write_text("ident,title\n1,y\n", encoding="utf-8")
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "j", "task": "join", "left": "l.csv", "right": "r.csv",
                    "headers": True, "gold": [["id", "ident"]]}) + "\n",
        encoding="utf-8",
    )
    backend = ScriptedBackend([answer])
    report = run_benchmark(load_manifest(manifest), System.MODEL, backend=backend)
    assert report.per_item[0].prediction == [["id", "ident"], ["id", "ident"]]
    assert report.metrics == WeightedMetrics(1.0, 1.0, 1.0)
    assert report.by_task["join"]["instances"] == 1


def test_oversized_csv_field_fails_its_item_alone(tmp_path):
    write_csv(tmp_path / "ev.csv", EV_TABLE)
    write_csv(tmp_path / "reg.csv", CAR_REGISTRATION_TABLE)
    (tmp_path / "big.csv").write_text("id,note\n1," + "x" * 140_000 + "\n", encoding="utf-8")
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        "".join(
            json.dumps({"id": item_id, "task": "join", "left": left, "right": "reg.csv",
                        "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}) + "\n"
            for item_id, left in (("big", "big.csv"), ("ok", "ev.csv"))
        ),
        encoding="utf-8",
    )
    bad, good = run_benchmark(load_manifest(manifest), System.JACCARD).per_item
    assert bad.error == "big-left: field larger than field limit (131072)"
    assert not bad.correct
    assert good.error is None and good.correct


@pytest.mark.parametrize("jobs", [0, -2])
def test_benchmark_rejects_jobs_below_one(tmp_path, ontology, jobs):
    examples = class_manifest(tmp_path, ["Animal"])
    backend = ScriptedBackend(["https://dbpedia.org/ontology/Animal"])
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend, jobs=jobs)
    assert backend.remaining == 1


def test_benchmark_model_requires_backend(tmp_path):
    examples = class_manifest(tmp_path, ["Animal"])
    with pytest.raises(ValueError, match="backend"):
        run_benchmark(examples, System.MODEL)


def test_benchmark_model_classification_requires_an_ontology(tmp_path):
    examples = class_manifest(tmp_path, ["Animal"])
    backend = ScriptedBackend(["https://dbpedia.org/ontology/Animal"])
    with pytest.raises(ValueError, match="^classification tasks need an ontology$"):
        run_benchmark(examples, System.MODEL, backend=backend)
    assert backend.remaining == 1


def test_report_json_shape(tmp_path, ontology):
    examples = class_manifest(tmp_path, ["Animal"])
    backend = ScriptedBackend(["https://dbpedia.org/ontology/Animal"])
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    out = tmp_path / "report.json"
    write_report(report, out)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["items"] == 1
    assert set(payload["metrics"]) == {"precision", "recall", "f1"}
    item = payload["per_item"][0]
    assert set(item) >= {"id", "prediction", "gold", "correct", "anchored", "attempts"}
    assert payload["usage"]["token_counts_approximate"] is True
    # A backend that bills its own counts is exact.
    live = run_benchmark(examples, System.MODEL, ontology=ontology, backend=PromptKeyedBackend())
    assert live.usage["token_counts_approximate"] is False


@pytest.mark.parametrize("name", sorted(EVAL_REPORTS))
def test_report_bytes_equal_the_golden_report(tmp_path, name):
    out = tmp_path / name
    write_report(eval_report(tmp_path, name), out)
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


# ------------------------------------------------------------ aggregation

_LABELS = st.sampled_from(["Animal", "City", "Country", "Unknown"])
_PAIRS = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["x", "y"])).map(list), max_size=4
)


@st.composite
def _outcome(draw) -> ItemOutcome:
    """A scored item of any task; a failed one predicts None, and a join may
    repeat a pair or miss a gold one."""
    task = draw(st.sampled_from(list(Task)))
    if task is Task.TABLE_CLASS:
        gold, prediction = draw(_LABELS), draw(st.none() | _LABELS)
    elif task is Task.COLUMN_TYPE:
        gold = draw(st.lists(_LABELS, max_size=3))
        prediction = draw(st.none() | st.lists(_LABELS, min_size=len(gold), max_size=len(gold)))
    else:
        gold, prediction = draw(_PAIRS.filter(bool)), draw(st.none() | _PAIRS)
    return ItemOutcome("i", task, prediction, gold, False, False, 0, Usage())


@settings(max_examples=300, deadline=None)
@given(st.lists(_outcome(), max_size=8))
def test_aggregate_scores_each_task_and_weights_the_groups(outcomes):
    labels = {Task.TABLE_CLASS: [], Task.COLUMN_TYPE: []}
    correct = predicted = gold_pairs = 0
    for o in outcomes:
        if o.task is Task.TABLE_CLASS:
            labels[o.task].append((o.prediction or "", o.gold))
        elif o.task is Task.COLUMN_TYPE:
            labels[o.task] += zip(o.prediction or [""] * len(o.gold), o.gold)
        else:
            got, want = {tuple(p) for p in o.prediction or ()}, {tuple(p) for p in o.gold}
            correct, predicted = correct + len(got & want), predicted + len(got)
            gold_pairs += len(want)
    expected = {
        task.value: (*weighted_metrics_ref(*map(list, zip(*pairs))), len(pairs))
        for task, pairs in labels.items()
        if pairs
    }
    if gold_pairs:
        precision = correct / predicted if predicted else 0.0
        recall = correct / gold_pairs
        f1 = 2 * precision * recall / (precision + recall) if correct else 0.0
        expected["join"] = (precision, recall, f1, gold_pairs)
    if not expected:
        with pytest.raises(EmptyStats):
            _aggregate(outcomes)
        return
    overall, by_task = _aggregate(outcomes)
    assert list(by_task) == list(expected)  # in Task order
    for name, (precision, recall, f1, instances) in expected.items():
        group = by_task[name]
        assert group["instances"] == instances
        assert group["precision"] == pytest.approx(precision, abs=1e-12)
        assert group["recall"] == pytest.approx(recall, abs=1e-12)
        assert group["f1"] == pytest.approx(f1, abs=1e-12)
    groups = list(by_task.values())
    if len(groups) == 1:
        weighted = {key: groups[0][key] for key in ("precision", "recall", "f1")}
    else:
        total = sum(g["instances"] for g in groups)
        weighted = {
            key: math.fsum(g["instances"] * g[key] for g in groups) / total
            for key in ("precision", "recall", "f1")
        }
    assert overall == WeightedMetrics(**weighted)


def test_overall_figures_are_correctly_rounded():
    """Mixed sets whose overall figures a plain float ``sum`` rounds
    differently before Python 3.12; they are the same on every Python."""
    cases = json.loads((GOLDEN_DIR.parent / "overall_figures.json").read_text(encoding="utf-8"))
    for case in cases:
        outcomes = [
            ItemOutcome("i", Task(task), prediction, gold, False, False, 0, Usage())
            for task, prediction, gold in case["outcomes"]
        ]
        overall, _ = _aggregate(outcomes)
        assert {key: value.hex() for key, value in asdict(overall).items()} == case["overall"]


# ------------------------------------------------- item order and --jobs


class PromptKeyedBackend:
    """Answers and bills as a pure function of the conversation, so items
    may run on any thread in any order.  ``delay`` holds back the calls
    about the animals table so that threads finish out of manifest order."""

    PRICES = PriceTable(prompt_per_1k=0.001, completion_per_1k=0.003)

    def __init__(self, delay: float = 0.0) -> None:
        self._delay = delay

    def complete(self, conversation, params):
        prompt = conversation.turns[0].text
        animals = "Panthera leo" in prompt
        if "pd.merge" in prompt:
            text = "'VIN_prefix', right_on='vehicle_id_number')"
        elif "DBPedia.org Property" in prompt:
            text = "`dbo:iucnStatus, dbo:binomial`" if animals else "`dbo:manufacturer, dbo:model`"
        elif animals:
            text = "https://dbpedia.org/ontology/Animal"
        elif "Nissan" in prompt:
            text = "https://dbpedia.org/ontology/ElectricVehicle"
        else:
            text = "no idea"  # unparsable, re-asked, then TaskFailed
        if animals:
            time.sleep(self._delay)
        prompt_tokens = sum(len(t.text.split()) for t in conversation.turns)
        completion_tokens = len(text.split())
        return text, Usage(
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            wall_time=prompt_tokens * 1e-4,
            cost=self.PRICES.cost(prompt_tokens, completion_tokens),
        )


def mixed_manifest(root):
    """Eight items over three tables: every task, costs that differ per
    item, an anchored item, a failed task and an unreadable table."""
    write_csv(root / "animals.csv", ANIMALS_TABLE)
    write_csv(root / "ev.csv", EV_TABLE)
    write_csv(root / "reg.csv", CAR_REGISTRATION_TABLE)
    tc = lambda i, table, gold: {"id": f"tc{i}", "task": "table-class", "table": table,
                                 "headers": True, "gold": gold}
    lines = [
        tc(0, "animals.csv", "Animal"),
        tc(1, "ev.csv", "ElectricVehicle"),
        tc(2, "reg.csv", "Country"),
        tc(3, "animals.csv", "Hospital"),
        tc(4, "absent.csv", "Animal"),
        {"id": "ct0", "task": "column-type", "table": "animals.csv", "headers": True,
         "gold": ["conservationStatus", "binomial"]},
        {"id": "ct1", "task": "column-type", "table": "reg.csv", "headers": True,
         "gold": ["author", "vehicleIdentificationNumber"]},
        {"id": "j0", "task": "join", "left": "ev.csv", "right": "reg.csv", "headers": True,
         "gold": [["VIN_prefix", "vehicle_id_number"]]},
    ]
    manifest = root / "mixed.jsonl"
    manifest.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    return load_manifest(manifest)


def test_benchmark_totals_sum_the_items(tmp_path, ontology):
    examples = mixed_manifest(tmp_path)

    def run(items):
        return run_benchmark(
            items, System.MODEL, ontology=ontology, backend=PromptKeyedBackend(), jobs=1
        )

    report, alone = run(examples), [run([example]) for example in examples]
    assert report.items == len(examples)
    for key in ("prompt_tokens", "completion_tokens"):
        assert report.usage[key] == sum(r.usage[key] for r in alone) > 0
    wall_time = sum(r.usage["wall_time"] for r in alone)
    assert report.usage["wall_time"] == pytest.approx(wall_time)
    assert report.throughput == pytest.approx(len(examples) / wall_time)
    assert report.total_cost == pytest.approx(sum(r.total_cost for r in alone))
    assert report.total_cost == pytest.approx(
        PromptKeyedBackend.PRICES.cost(
            report.usage["prompt_tokens"], report.usage["completion_tokens"]
        )
    )
    assert [o.attempts for o in report.per_item] == [r.per_item[0].attempts for r in alone]


def test_thread_pool_report_equals_sequential_report(tmp_path):
    examples = mixed_manifest(tmp_path)
    # Repeats of ct0, whose misspelt ``dbo:iucnStatus`` every copy anchors
    # through one freshly loaded ontology's nearest-term memo.
    examples += [replace(examples[5], id=f"ct0-{i}") for i in range(6)]

    def run(jobs):
        backend = PromptKeyedBackend(delay=0.005)
        ontology = load_ontology(ONTOLOGY_TEXT, OntologyFormat.TAB_SEPARATED_KIND_IRI)
        return run_benchmark(
            examples, System.MODEL, ontology=ontology, backend=backend, jobs=jobs
        ).to_dict()

    sequential, pooled = run(1), run(4)
    assert pooled["config"].pop("jobs") == 4
    assert sequential["config"].pop("jobs") == 1
    # Measured wall clock differs from run to run; everything else is equal.
    assert pooled.pop("elapsed_s") > 0 and sequential.pop("elapsed_s") > 0
    assert pooled == sequential
    assert [o["id"] for o in pooled["per_item"]] == [ex.id for ex in examples]
    assert len({o["attempts"] for o in pooled["per_item"]}) > 1
    anchored = [o for o in pooled["per_item"] if o["id"].startswith("ct0")]
    assert len(anchored) == 7
    assert all(o["anchored"] and o["prediction"][0] == "conservationStatus" for o in anchored)
    assert sum(o["error"] is not None for o in pooled["per_item"]) == 2


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(8)))
def test_report_is_invariant_under_item_order(tmp_path_factory, ontology, order):
    examples = mixed_manifest(tmp_path_factory.mktemp("order"))
    assert len(examples) == len(order)

    def run(items):
        return run_benchmark(
            items, System.MODEL, ontology=ontology, backend=PromptKeyedBackend(), jobs=1
        ).to_dict()

    base, permuted = run(examples), run([examples[i] for i in order])
    assert permuted["per_item"] == [base["per_item"][i] for i in order]
    for name, value in base["metrics"].items():
        assert permuted["metrics"][name] == pytest.approx(value, abs=1e-12)
    assert permuted["by_task"].keys() == base["by_task"].keys()
    for task, group in base["by_task"].items():
        for name, value in group.items():
            assert permuted["by_task"][task][name] == pytest.approx(value, abs=1e-12)
    for key in ("prompt_tokens", "completion_tokens"):
        assert permuted["usage"][key] == base["usage"][key]
    assert permuted["total_cost"] == pytest.approx(base["total_cost"], abs=1e-12)


def test_gold_of_the_wrong_length_fails_only_its_own_item(tmp_path, ontology, monkeypatch):
    examples = mixed_manifest(tmp_path)
    wide = replace(examples[5], id="ct0-wide", gold=examples[5].gold + ("author",))

    def run(items):
        return run_benchmark(
            items, System.MODEL, ontology=ontology, backend=PromptKeyedBackend(), jobs=1
        )

    base, report = run(examples), run(examples[:6] + [wide] + examples[6:])
    outcome = report.per_item[6]
    assert outcome.error == "item 'ct0-wide': gold lists 3 columns, table has 2"
    assert outcome.attempts == 0 and outcome.prediction is None and not outcome.correct
    assert report.per_item[:6] + report.per_item[7:] == base.per_item
    # The arity comes from the header row alone: no row is built.
    monkeypatch.setattr(Table, "rows", property(lambda table: pytest.fail("rows were built")))
    assert run([wide]).per_item[0].error == outcome.error


def test_items_split_only_the_rows_they_read(tmp_path, ontology, monkeypatch):
    """A model item splits its header line and its sampled lines; a
    levenshtein or jaccard item splits only the two header lines."""
    lines = [",".join(ANIMALS_TABLE.headers)]
    lines += [f"Vulnerable,Panthera leo {i}" for i in range(300)]
    text = "\n".join(lines)
    for name in ("left.csv", "right.csv"):
        (tmp_path / name).write_text(text, encoding="utf-8")
    gold = ("conservationStatus", "binomial")
    typed = LabeledExample("ct", Task.COLUMN_TYPE, True, gold, table=tmp_path / "left.csv")
    joined = LabeledExample(
        "j", Task.JOIN, True, (("Binomial name", "Binomial name"),),
        left=tmp_path / "left.csv", right=tmp_path / "right.csv",
    )
    original, split = tabnotate.core._row, []

    def counting(record):  # a line is a row kept unsplit; a tuple is already split
        if isinstance(record, str):
            split.append(record)
        return original(record)

    monkeypatch.setattr(tabnotate.core, "_row", counting)
    report = run_benchmark([typed], System.MODEL, ontology=ontology, backend=PromptKeyedBackend())
    assert report.per_item[0].correct and len(split) == 1 + 5
    split.clear()
    assert run_benchmark([joined], System.LEVENSHTEIN).per_item[0].correct
    assert split == [lines[0]] * 2
    split.clear()
    monkeypatch.setattr(Table, "rows", property(lambda table: pytest.fail("rows were built")))
    assert run_benchmark([joined], System.JACCARD).per_item[0].correct
    assert split == [lines[0]] * 2


def test_live_model_reports_measure_elapsed_time(tmp_path, ontology):
    examples = mixed_manifest(tmp_path)
    start = time.perf_counter()
    report = run_benchmark(
        examples, System.MODEL, ontology=ontology, backend=PromptKeyedBackend(), jobs=2
    )
    assert 0 < report.elapsed_s <= time.perf_counter() - start
    payload = report.to_dict()
    keys = list(payload)
    assert keys[keys.index("throughput") + 1] == "elapsed_s"
    assert payload["elapsed_s"] == report.elapsed_s
    # ``throughput`` still divides by the metered time.
    assert report.throughput == len(examples) / report.usage["wall_time"]


class CallOrderBackend:
    """Not a ``ScriptedBackend``, but like one it answers by call order:
    the n-th call gets the n-th reply.  ``ordered`` says so."""

    ordered = True

    def __init__(self, replies) -> None:
        self._replies = iter(replies)

    def complete(self, conversation, params):
        time.sleep(0.002)  # long enough for pool threads to overlap
        return next(self._replies), Usage(prompt_tokens=1, completion_tokens=1, wall_time=1e-3)


def test_an_ordered_backend_runs_its_items_one_at_a_time(tmp_path, ontology):
    golds = ["Animal", "Country", "Hospital", "ElectricVehicle", "Animal", "Country"]
    backend = CallOrderBackend(f"https://dbpedia.org/ontology/{gold}" for gold in golds)
    report = run_benchmark(
        class_manifest(tmp_path, golds), System.MODEL, ontology=ontology, backend=backend, jobs=4
    )
    assert report.config["jobs"] == 1
    assert report.elapsed_s is None and "elapsed_s" not in report.to_dict()
    assert [o.prediction for o in report.per_item] == golds
    assert all(o.correct and o.attempts == 1 for o in report.per_item)


def test_scripted_and_baseline_reports_have_no_elapsed_time(tmp_path, ontology):
    examples = mixed_manifest(tmp_path)
    scripted = run_benchmark(
        examples[:1], System.MODEL, ontology=ontology,
        backend=ScriptedBackend(["https://dbpedia.org/ontology/Animal"]),
    )
    baseline = run_benchmark(examples[-1:], System.JACCARD)
    for report in (scripted, baseline):
        assert report.elapsed_s is None and "elapsed_s" not in report.to_dict()
