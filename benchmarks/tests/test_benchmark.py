"""Tests for the benchmark itself: inputs, oracle check, failure counting,
tracing and the output contract.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tabnotate
from tabnotate.backend import BackendError

import generate
import run
import tracing
import worker
from model import StandInModel

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_byte_identical_for_equal_seeds(tmp_path, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")
    description = json.loads(first["workload.json"])
    assert description["why"] == generate.WORKLOADS[workload]


def test_pruned_nearest_oracle_matches_full_reference_scan():
    reference = generate._load_reference()
    rng = random.Random(3)
    _, properties, _ = generate.make_ontology(rng)
    names = properties[:300]
    oracle = generate.NearestOracle(reference, names)
    taken = {n.lower() for n in names}
    for source in rng.sample(names, 8):
        label = generate.misspell(rng, source, taken)
        assert oracle.nearest(label, source) == reference.nearest_label_ref(names, label)[0]


def _load(data: Path):
    ontology = tabnotate.load_ontology(
        (data / "ontology.tsv").read_text(encoding="utf-8"),
        tabnotate.OntologyFormat.TAB_SEPARATED_KIND_IRI,
    )
    examples = tabnotate.load_manifest(data / "manifest.jsonl")
    answers = json.loads((data / "answers.json").read_text(encoding="utf-8"))
    expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
    return ontology, examples, answers, expected


def _model_round(ontology, examples, backend, expected):
    def call():
        return tabnotate.run_benchmark(
            examples, tabnotate.System.MODEL, ontology=ontology, backend=backend, jobs=1
        )

    return worker.run_round([("model", call)], [ex.id for ex in examples], expected)


@pytest.fixture(scope="module")
def live_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("live")
    generate.generate("live-http", 5, data)
    return data


def test_seed_program_matches_every_oracle_prediction(live_data):
    ontology, examples, answers, expected = _load(live_data)
    stats = _model_round(ontology, examples, StandInModel(answers), expected)
    assert stats["failed"] == 0 and stats["items"] == len(examples)


def test_oracle_check_catches_a_planted_wrong_prediction(live_data):
    ontology, examples, answers, expected = _load(live_data)
    item = next(ex for ex in examples if ex.task is tabnotate.Task.TABLE_CLASS)
    other = next(c for c in ontology.classes.values() if c.local_name != expected["model"][item.id])
    answers[item.id] = {"first": f"`{other.iri}`", "reask": None}
    stats = _model_round(ontology, examples, StandInModel(answers), expected)
    assert stats["failed"] == 1
    assert item.id in stats["errors"][0]


def test_aborted_run_counts_every_unfinished_item_as_failed():
    def aborts():
        raise BackendError("endpoint went away")

    stats = worker.run_round([("model", aborts)], ["a", "b", "c"], {"model": {}})
    assert (stats["attempted"], stats["failed"], stats["items"]) == (3, 3, 0)
    assert "run aborted" in stats["errors"][0]


def test_backend_error_on_one_item_is_counted_whether_or_not_it_aborts(live_data):
    ontology, examples, answers, expected = _load(live_data)
    model = StandInModel(answers)

    class Flaky:
        def complete(self, conversation, params):
            if "ref_lh00003" in conversation.turns[0].text:
                raise BackendError("planted failure")
            return model.complete(conversation, params)

    stats = _model_round(ontology, examples, Flaky(), expected)
    assert stats["failed"] >= 1
    if any("run aborted" in e for e in stats["errors"]):
        assert stats["failed"] == len(examples)


def _traced_counts(ontology, examples, answers, expected):
    tracer = tracing.Tracer(tabnotate)
    backend = StandInModel(answers)
    tracer.install()
    undo = tracer.wrap_backend(backend)
    try:
        stats = _model_round(ontology, examples, backend, expected)
    finally:
        tracer.uninstall()
        undo()
    metrics = worker.layer_metrics(tracer, stats, {"model_s": 0.0})
    units = run.metric_units("per_layer")
    return {k: v for k, v in metrics.items() if not run.is_timed(k, units[k])}


def test_traced_counts_repeat_exactly(tmp_path):
    generate.generate("annotate-repair", 2, tmp_path)
    ontology, examples, answers, expected = _load(tmp_path)
    first = _traced_counts(ontology, examples, answers, expected)
    second = _traced_counts(ontology, examples, answers, expected)
    assert first == second
    assert first["core.nearest_term.calls"] == sum(generate.REPAIR_MISSPELLING_COUNTS) + 1
    assert first["harness.reask.calls"] == 2


def _worker_result(calls_per_round):
    rounds = [{"traced": False, "items": 1, "elapsed": 1.0}]
    for calls in calls_per_round:
        layers = {"core.nearest_term.calls": calls, "core.read_csv.s": 0.5}
        rounds += [{"traced": True, "items": 1, "elapsed": 1.0, "layers": layers}]
    return {"rounds": rounds, "load_ontology_s": 0.1, "load_manifest_s": 0.1}


def test_counts_must_repeat_across_workers_round_by_round():
    units = run.metric_units("per_layer")
    # A cache kept across rounds of one process changes later rounds alike.
    steady = [_worker_result([9, 4]), _worker_result([9, 4, 4]), _worker_result([9])]
    metrics, repeat = run.per_layer(steady, units)
    assert repeat and metrics["core.nearest_term.calls"] == 9
    _, repeat = run.per_layer([_worker_result([9, 4]), _worker_result([9, 5])], units)
    assert not repeat


def test_tracer_records_a_missing_layer_as_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "SPANS", tracing.SPANS + (("core", "renamed_away", "core.renamed_away"),)
    )
    monkeypatch.setattr(
        tracing, "COUNTERS", tracing.COUNTERS + (("no_such_module", "assemble", "x"),)
    )
    original = tabnotate.harness.nearest_term
    tracer = tracing.Tracer(tabnotate)
    tracer.install()
    try:
        assert tracer.absent == ["core.renamed_away", "no_such_module.assemble"]
        assert tabnotate.harness.nearest_term is not original
    finally:
        tracer.uninstall()
    assert tabnotate.harness.nearest_term is original


def test_rows_in_sample_skips_frame_headers():
    assert tracing.rows_in_sample("a,b\nc,d") == 2
    frames = "df1 =\n```\nh1,h2\nx,y\nz,w\n```\n\ndf2 =\n```\nh3\n```"
    assert tracing.rows_in_sample(frames) == 2


def test_stub_answers_from_the_answer_table_and_counts_posts(live_data):
    _, examples, answers, _ = _load(live_data)
    stub, url = run._start_stub(live_data / "answers.json")
    try:
        endpoint = tabnotate.HttpEndpoint(url=f"{url}/v1/chat/completions", model="stub")
        backend = tabnotate.HttpBackend(endpoint)
        conversation = tabnotate.Conversation()
        conversation.append(tabnotate.backend.user("header\nref_lh00004,x\n"))
        text, usage = backend.complete(conversation, tabnotate.GenerationParams())
        assert text == answers["lh00004"]["first"]
        assert usage.prompt_tokens == 2
        assert worker._stub_stats(url)["posts"] == 1
    finally:
        run._stop(stub)
    assert stub.returncode is not None


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "live-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
