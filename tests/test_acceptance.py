"""Acceptance suite: one test per criterion, each with its runtime bound.

The terminal summary (see conftest) prints one pass/fail line per
criterion.  The live-endpoint check is optional and skipped unless the
environment provides an endpoint, a credential, and a labeled manifest.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from tabnotate.backend import ScriptedBackend
from tabnotate.cli import main
from tabnotate.core import Table, TermKind, lookup, to_csv
from tabnotate.evaluate import (
    System,
    Task,
    WeightedMetrics,
    jaccard_join,
    levenshtein_join,
    load_manifest,
    per_class_stats,
    run_benchmark,
    weighted_metrics,
)
from tabnotate.harness import (
    PipelineConfig,
    TaskFailed,
    UnknownType,
    check_column_types,
    check_table_class,
    parse_column_types,
    parse_table_class,
    run_column_type_task,
    run_join_task_detailed,
    run_table_class_task,
)
from tabnotate.prompt import PromptConfig, assemble, table_class_prompt

from fixture_data import (
    ANIMALS_TABLE,
    CAR_REGISTRATION_TABLE,
    EV_TABLE,
    ONTOLOGY_TEXT,
    TABLE_CLASS_LIST,
)
from make_goldens import GOLDEN_DIR, golden_name
from reference import weighted_metrics_ref


class Stopwatch:
    def __init__(self, budget_seconds: float) -> None:
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def check(self) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"took {elapsed:.2f}s, budget {self.budget}s"


def test_criterion_1_metric_oracle():
    watch = Stopwatch(5.0)
    rng = random.Random(1234)
    for _ in range(200):
        classes = [f"c{i}" for i in range(rng.randint(1, 10))]
        n = rng.randint(1, 1000)
        golds = [rng.choice(classes) for _ in range(n)]
        preds = [
            g if rng.random() < 0.55 else rng.choice(classes + ["spurious"])
            for g in golds
        ]
        metrics = weighted_metrics(per_class_stats(preds, golds))
        p, r, f1 = weighted_metrics_ref(preds, golds)
        assert abs(metrics.precision - p) < 1e-12
        assert abs(metrics.recall - r) < 1e-12
        assert abs(metrics.f1 - f1) < 1e-12
    watch.check()


def test_criterion_2_golden_prompts():
    watch = Stopwatch(1.0)
    for demonstration in (False, True):
        for metadata in (False, True):
            for prefix in (False, True):
                for knowledge in (False, True):
                    config = PromptConfig(
                        include_demonstration=demonstration,
                        include_metadata=metadata,
                        include_prefix=prefix,
                    )
                    prompt = assemble(
                        table_class_prompt(
                            EV_TABLE,
                            TABLE_CLASS_LIST if knowledge else None,
                            config,
                        )
                    )
                    golden = (
                        GOLDEN_DIR / golden_name(demonstration, metadata, prefix, knowledge)
                    ).read_bytes()
                    assert prompt.encode("utf-8") == golden
    watch.check()


@pytest.fixture(scope="module")
def ontology():
    from tabnotate.core import OntologyFormat, load_ontology

    return load_ontology(ONTOLOGY_TEXT, OntologyFormat.TAB_SEPARATED_KIND_IRI)


def _fig4_transcript() -> ScriptedBackend:
    return ScriptedBackend(
        ["https://dbpedia.org/ontology/Animal", "`dbo:iucnStatus, dbo:binomial`"]
    )


def _run_fig4(ontology, anchoring: bool):
    config = PipelineConfig(anchoring_enabled=anchoring)
    backend = _fig4_transcript()
    class_result = run_table_class_task(ANIMALS_TABLE, ontology, backend, config)
    column_result = run_column_type_task(
        ANIMALS_TABLE, ontology, backend, config, conversation=class_result.conversation
    )
    labels = tuple(
        "Unknown" if isinstance(a, UnknownType) else a.local_name
        for a in column_result.value
    )
    texts = tuple(t.text for t in column_result.conversation.turns)
    return class_result, column_result, labels, texts, column_result.conversation


def test_criterion_3_anchoring_replay(ontology):
    watch = Stopwatch(1.0)
    anchored_runs = set()
    plain_runs = set()
    for _ in range(10):
        class_result, column_result, labels, texts, conv = _run_fig4(ontology, True)
        assert class_result.value.local_name == "Animal"
        assert column_result.anchored is True
        assert labels == ("conservationStatus", "binomial")
        for turn_text in texts:
            assert "iucnStatus" not in turn_text
        # every assistant turn in the anchored history parses and checks
        from tabnotate.backend import Role

        for turn in conv.turns:
            if turn.role is Role.ASSISTANT:
                continue_ok = False
                try:
                    candidate = parse_table_class(turn.text)
                    continue_ok = check_table_class(candidate, ontology) is None
                except Exception:
                    pass
                if not continue_ok:
                    items = parse_column_types(turn.text, ANIMALS_TABLE.arity)
                    assert check_column_types(items, ontology) is None
        anchored_runs.add((labels, texts))

        plain_class, plain_columns, plain_labels, plain_texts, _ = _run_fig4(
            ontology, False
        )
        assert plain_columns.anchored is False
        assert plain_labels == ("conservationStatus", "binomial")
        assert any("iucnStatus" in t for t in plain_texts)
        assert plain_texts != texts
        plain_runs.add((plain_labels, plain_texts))
    assert len(anchored_runs) == 1
    assert len(plain_runs) == 1
    watch.check()


def _planted_join_corpus(root: Path) -> list[dict]:
    rng = random.Random(4242)
    noise_words = ["order", "price", "region", "color", "batch", "owner", "note"]
    entries = []
    for index in range(50):
        shared = [f"K{index}-{v}" for v in range(8)]
        left_key, right_key = f"key_{index}", f"key{index}"
        l_noise = rng.sample(noise_words, 2)
        r_noise = rng.sample(noise_words, 2)
        left = Table(
            f"left{index}",
            (left_key, f"{l_noise[0]}_l", f"{l_noise[1]}_l"),
            tuple(
                (shared[r], f"L{index}a{r}", f"L{index}b{rng.randint(0, 9)}")
                for r in range(8)
            ),
        )
        # In a handful of pairs the planted key is diluted so the argmax can
        # legitimately disagree with the gold label.
        dilute = index % 9 == 0
        right_rows = []
        for r in range(8):
            key_value = shared[r] if (r < 3 or not dilute) else f"R{index}x{r}"
            right_rows.append((f"R{index}c{r}", key_value, f"R{index}d{r}"))
        right = Table(
            f"right{index}",
            (f"{r_noise[0]}_r", right_key, f"{r_noise[1]}_r"),
            tuple(right_rows),
        )
        left_path = root / f"left{index}.csv"
        right_path = root / f"right{index}.csv"
        left_path.write_text(to_csv(left) + "\n", encoding="utf-8")
        right_path.write_text(to_csv(right) + "\n", encoding="utf-8")
        entries.append(
            {
                "left": left,
                "right": right,
                "gold": (left_key, right_key),
                "line": {
                    "id": f"pair{index}",
                    "task": "join",
                    "left": left_path.name,
                    "right": right_path.name,
                    "headers": True,
                    "gold": [[left_key, right_key]],
                },
            }
        )
    return entries


def test_criterion_4_baseline_oracle(tmp_path):
    from reference import best_jaccard_pair_ref, best_levenshtein_pair_ref

    watch = Stopwatch(10.0)
    corpus = _planted_join_corpus(tmp_path)
    manifest_path = tmp_path / "joins.jsonl"
    manifest_path.write_text(
        "\n".join(json.dumps(e["line"]) for e in corpus) + "\n", encoding="utf-8"
    )
    examples = load_manifest(manifest_path)

    for system, predict, oracle in (
        (System.JACCARD, jaccard_join, best_jaccard_pair_ref),
        (System.LEVENSHTEIN, levenshtein_join, best_levenshtein_pair_ref),
    ):
        correct = 0
        for entry in corpus:
            prediction = predict(entry["left"], entry["right"])
            expected = oracle(entry["left"], entry["right"])
            assert prediction.pairs == (expected,), (system, entry["line"]["id"])
            if expected == entry["gold"]:
                correct += 1
        precision = correct / 50
        recall = correct / 50
        oracle_f1 = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
        report = run_benchmark(examples, system)
        assert report.metrics.precision == precision
        assert report.metrics.recall == recall
        assert report.metrics.f1 == oracle_f1
        assert report.total_cost == 0.0
    watch.check()


def _fuzz_response(rng: random.Random) -> str:
    words = ["table", "join", "maybe", "zone", "ξ", "42", "dbo:", "unknown", "???"]
    kind = rng.randrange(6)
    if kind == 0:
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
    if kind == 1:
        return "https://dbpedia.org/ontology/" + (
            "" if rng.random() < 0.5 else rng.choice(["Zzz", "NotAClass", "ElectricCar"])
        )
    if kind == 2:
        items = ", ".join(
            rng.choice(["dbo:author", "dbo:nope", "Unknown", "dbo:made_up", ""])
            for _ in range(rng.randint(1, 6))
        )
        return f"`{items}`"
    if kind == 3:
        return "`" + rng.choice(["Hospital", "Hostpital", "zzz", ""]) + "`"
    if kind == 4:
        name1 = rng.choice(["VIN_prefix", "vin", "zipcode", "name", ""])
        name2 = rng.choice(["vehicle_id_number", "vid", "zip", ""])
        shape = rng.randrange(3)
        if shape == 0:
            return f"'{name1}', right_on='{name2}')"
        if shape == 1:
            return f"['{name1}'], right_on=['{name2}', '{name1}'])"
        return f"'{name1}', right_on="
    return rng.choice(["", "   ", "()", "[]", "“quotes”"])


def test_criterion_5_constraint_totality(ontology):
    watch = Stopwatch(10.0)
    rng = random.Random(97)
    config = PipelineConfig()
    max_calls = 4
    for index in range(1000):
        response = _fuzz_response(rng)
        backend = ScriptedBackend([response] * max_calls)
        lane = index % 5
        try:
            if lane in (0, 1):
                table = ANIMALS_TABLE if lane == 0 else EV_TABLE
                result = run_table_class_task(table, ontology, backend, config)
                assert (
                    lookup(ontology, TermKind.CLASS, result.value.local_name)
                    is result.value
                )
                assert result.attempts <= max_calls
            elif lane in (2, 3):
                table = ANIMALS_TABLE if lane == 2 else EV_TABLE
                result = run_column_type_task(table, ontology, backend, config)
                assert len(result.value) == table.arity
                for assignment in result.value:
                    if isinstance(assignment, UnknownType):
                        continue
                    assert (
                        lookup(ontology, TermKind.PROPERTY, assignment.local_name)
                        is assignment
                    )
            else:
                run = run_join_task_detailed(
                    EV_TABLE, CAR_REGISTRATION_TABLE, backend, config
                )
                prediction = run.value
                assert len(prediction.left_cols) == len(prediction.right_cols)
                for name in prediction.left_cols:
                    assert name in EV_TABLE.headers
                for name in prediction.right_cols:
                    assert name in CAR_REGISTRATION_TABLE.headers
                assert run.attempts <= max_calls
        except TaskFailed:
            pass
    watch.check()


def _write_eval_workspace(root: Path) -> tuple[Path, Path]:
    (root / "ontology.tsv").write_text(ONTOLOGY_TEXT, encoding="utf-8")
    (root / "animals.csv").write_text(to_csv(ANIMALS_TABLE) + "\n", encoding="utf-8")
    lines = [
        json.dumps(
            {"id": f"i{i}", "task": "table-class", "table": "animals.csv",
             "headers": True, "gold": "Animal"}
        )
        for i in range(4)
    ]
    manifest = root / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, root / "ontology.tsv"


def test_criterion_6_determinism_sweep(tmp_path, capsys):
    watch = Stopwatch(5.0)
    manifest, ontology_path = _write_eval_workspace(tmp_path)
    responses = [
        "https://dbpedia.org/ontology/Animal",
        "https://dbpedia.org/ontology/Hospital",
        "https://dbpedia.org/ontology/Animal",
        "https://dbpedia.org/ontology/Animal",
    ]
    seen = []
    for temperature in (0.0, 0.25, 0.5, 0.75, 1.0):
        transcript = tmp_path / f"t{temperature}.jsonl"
        transcript.write_text(
            "\n".join(json.dumps({"response": r}) for r in responses) + "\n",
            encoding="utf-8",
        )
        report_path = tmp_path / f"report{temperature}.json"
        code = main(
            [
                "eval", str(manifest),
                "--system", "model",
                "--temperature", str(temperature),
                "--ontology", str(ontology_path),
                "--backend", f"scripted:{transcript}",
                "--report", str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["config"]["temperature"] == temperature
        seen.append(json.dumps(payload["metrics"], sort_keys=True))
    assert len(set(seen)) == 1
    watch.check()


def _mixed_benchmark(root: Path) -> tuple[list, ScriptedBackend]:
    (root / "animals.csv").write_text(to_csv(ANIMALS_TABLE) + "\n", encoding="utf-8")
    (root / "ev.csv").write_text(to_csv(EV_TABLE) + "\n", encoding="utf-8")
    (root / "reg.csv").write_text(
        to_csv(CAR_REGISTRATION_TABLE) + "\n", encoding="utf-8"
    )
    lines = []
    responses = []
    for i in range(8):  # table-class items, two deliberately wrong
        lines.append(
            {"id": f"tc{i}", "task": "table-class", "table": "animals.csv",
             "headers": True, "gold": "Animal"}
        )
        responses.append(
            "https://dbpedia.org/ontology/Animal"
            if i % 4 != 3
            else "https://dbpedia.org/ontology/Hospital"
        )
    for i in range(6):  # column-type items, one dirty (anchored), one wrong
        lines.append(
            {"id": f"ct{i}", "task": "column-type", "table": "animals.csv",
             "headers": True, "gold": ["conservationStatus", "binomial"]}
        )
        if i == 2:
            responses.append("`dbo:iucnStatus, dbo:binomial`")
        elif i == 4:
            responses.append("`dbo:author, dbo:binomial`")
        else:
            responses.append("`dbo:conservationStatus, dbo:binomial`")
    for i in range(6):  # join items, two wrong-but-existing pairs
        lines.append(
            {"id": f"j{i}", "task": "join", "left": "ev.csv", "right": "reg.csv",
             "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}
        )
        responses.append(
            "'VIN_prefix', right_on='vehicle_id_number')"
            if i % 3 != 1
            else "'ZIP', right_on='name')"
        )
    manifest = root / "mixed.jsonl"
    manifest.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    return load_manifest(manifest), ScriptedBackend(responses)


def test_criterion_7_end_to_end_report(tmp_path, ontology):
    watch = Stopwatch(5.0)
    examples, backend = _mixed_benchmark(tmp_path)
    assert len(examples) == 20
    report = run_benchmark(examples, System.MODEL, ontology=ontology, backend=backend)
    assert report.items == 20
    assert report.task == "mixed"
    assert report.throughput > 0.0
    assert report.total_cost > 0.0

    # Re-aggregate the per-item records exactly as documented: group
    # metrics weighted by gold-instance counts, each distinct join pair
    # counted once.
    class_pairs: list[tuple[str, str]] = []
    column_pairs: list[tuple[str, str]] = []
    join_correct = join_pred = join_gold = 0
    for outcome in report.per_item:
        if outcome.task is Task.TABLE_CLASS:
            class_pairs.append((outcome.prediction or "", outcome.gold))
        elif outcome.task is Task.COLUMN_TYPE:
            column_pairs.extend(zip(outcome.prediction, outcome.gold))
        else:
            gold = {tuple(p) for p in outcome.gold}
            predicted = {tuple(p) for p in (outcome.prediction or [])}
            join_gold += len(gold)
            join_pred += len(predicted)
            join_correct += sum(1 for p in predicted if p in gold)
    groups = []
    class_metrics = weighted_metrics(
        per_class_stats([p for p, _ in class_pairs], [g for _, g in class_pairs])
    )
    groups.append((class_metrics, len(class_pairs)))
    column_metrics = weighted_metrics(
        per_class_stats([p for p, _ in column_pairs], [g for _, g in column_pairs])
    )
    groups.append((column_metrics, len(column_pairs)))
    join_precision = join_correct / join_pred
    join_recall = join_correct / join_gold
    join_f1 = (
        2 * join_precision * join_recall / (join_precision + join_recall)
        if join_precision + join_recall
        else 0.0
    )
    groups.append((WeightedMetrics(join_precision, join_recall, join_f1), join_gold))
    total = sum(w for _, w in groups)
    expected = WeightedMetrics(
        precision=sum(w * m.precision for m, w in groups) / total,
        recall=sum(w * m.recall for m, w in groups) / total,
        f1=sum(w * m.f1 for m, w in groups) / total,
    )
    assert report.metrics == expected
    assert 0.0 < report.metrics.f1 < 1.0
    anchored_items = [o for o in report.per_item if o.anchored]
    assert anchored_items, "the dirty column-type item should be anchored"
    watch.check()


_LIVE_VARS = ("TABNOTATE_LIVE_ENDPOINT", "TABNOTATE_API_KEY", "TABNOTATE_LIVE_MANIFEST")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _LIVE_VARS),
    reason="live check needs TABNOTATE_LIVE_ENDPOINT, TABNOTATE_API_KEY, and "
    "TABNOTATE_LIVE_MANIFEST (25-table class-task manifest with a class list)",
)
def test_criterion_8_live_check(ontology):
    from tabnotate.backend import HttpBackend, HttpEndpoint
    from tabnotate.core import OntologyFormat, detect_ontology_format, load_ontology

    manifest_path = Path(os.environ["TABNOTATE_LIVE_MANIFEST"])
    examples = load_manifest(manifest_path)
    ontology_path = os.environ.get("TABNOTATE_LIVE_ONTOLOGY")
    live_ontology = ontology
    if ontology_path:
        text = Path(ontology_path).read_text(encoding="utf-8")
        live_ontology = load_ontology(text, detect_ontology_format(text))
    classes_path = os.environ.get("TABNOTATE_LIVE_CLASSES")
    allowed = None
    if classes_path:
        allowed = tuple(
            ln.strip()
            for ln in Path(classes_path).read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.startswith("#")
        )
    endpoint = HttpEndpoint(
        url=os.environ["TABNOTATE_LIVE_ENDPOINT"],
        model=os.environ.get("TABNOTATE_MODEL", "gpt-3.5-turbo"),
        api_key=os.environ["TABNOTATE_API_KEY"],
    )
    config = PipelineConfig(allowed_classes=allowed)
    report = run_benchmark(
        examples,
        System.MODEL,
        ontology=live_ontology,
        backend=HttpBackend(endpoint),
        config=config,
    )
    assert report.metrics.f1 >= 0.75
    per_hundred = report.total_cost / report.items * 100
    assert per_hundred <= 0.025 * 2  # within 2x of the 2.5 cents / 100 figure
