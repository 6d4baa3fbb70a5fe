from __future__ import annotations

import argparse
import json
import re

import pytest

import tabnotate.cli
from tabnotate.backend import ScriptedBackend
from tabnotate.cli import build_parser, main
from tabnotate.core import Table, to_csv
from tabnotate.prompt import assemble, column_type_prompt, join_prompt

from fixture_data import (
    ANIMALS_TABLE,
    CAR_REGISTRATION_TABLE,
    EV_TABLE,
    ONTOLOGY_TEXT,
)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "ontology.tsv").write_text(ONTOLOGY_TEXT, encoding="utf-8")
    for name, table in (
        ("ev.csv", EV_TABLE),
        ("reg.csv", CAR_REGISTRATION_TABLE),
        ("animals.csv", ANIMALS_TABLE),
    ):
        (tmp_path / name).write_text(to_csv(table) + "\n", encoding="utf-8")
    return tmp_path


def transcript(workspace, name, responses):
    path = workspace / name
    path.write_text(
        "\n".join(json.dumps({"response": r}) for r in responses) + "\n",
        encoding="utf-8",
    )
    return str(path)


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table_happy_path(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/ElectricVehicle"])
    code, out, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 0, err
    assert out == "https://dbpedia.org/ontology/ElectricVehicle\tfalse\t1\n"


def test_classify_missing_ontology(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["x"])
    missing = workspace / "nope.tsv"
    code, _, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(missing),
        "--backend", f"scripted:{backend}",
    )
    assert code == 1
    assert "nope.tsv" in err


def test_classify_exhausted_backend(workspace, capsys):
    backend = transcript(workspace, "empty.jsonl", [])
    code, _, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 2
    assert "exhaust" in err.lower()


def test_classify_with_class_list(workspace, capsys):
    classes = workspace / "classes.txt"
    classes.write_text("Animal\nElectricVehicle\nHospital\n", encoding="utf-8")
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/ElectricVehicle"])
    code, out, _ = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--classes", str(classes),
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 0
    assert out.startswith("https://dbpedia.org/ontology/ElectricVehicle")


def test_classify_without_an_ontology_is_a_usage_error(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/ElectricVehicle"])
    code, out, err = run_cli(
        capsys, "classify-table", str(workspace / "ev.csv"), "--headers",
        "--backend", f"scripted:{backend}",
    )
    assert (code, out) == (1, "")
    assert err == "error: --ontology is required for this command\n"


def test_an_empty_class_list_is_a_usage_error(workspace, capsys):
    classes = workspace / "classes.txt"
    classes.write_text("# none yet\n\n  \n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "classify-table", str(workspace / "ev.csv"), "--headers",
        "--classes", str(classes), "--dump-prompt",
    )
    assert (code, out) == (1, "")
    assert err == f"error: class list {str(classes)!r} is empty\n"


def test_class_list_lines_end_only_at_cr_and_lf(workspace):
    classes = workspace / "classes.txt"
    classes.write_bytes(
        "Animal\r\n\r\n# old\u2028Ghost\rElectricVehicle \r  \n#\x0cPhantom\nHospital\n".encode()
    )
    names = tabnotate.cli._load_class_list(str(classes))
    assert names == ("Animal", "ElectricVehicle", "Hospital")


def test_dump_prompt_skips_backend(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--dump-prompt",
    )
    assert code == 0
    assert "For the following CSV sample" in out
    assert "Begin your answer with" in out


@pytest.mark.parametrize("command", ["annotate-columns", "predict-join"])
def test_dump_prompt_of_columns_and_joins_skips_backend(workspace, capsys, command):
    ev = Table("ev", EV_TABLE.headers, EV_TABLE.rows)
    reg = Table("reg", CAR_REGISTRATION_TABLE.headers, CAR_REGISTRATION_TABLE.rows)
    if command == "annotate-columns":
        paths, prompt = ["ev.csv"], column_type_prompt(ev)
    else:
        paths, prompt = ["ev.csv", "reg.csv"], join_prompt(ev, reg)
    code, out, err = run_cli(
        capsys, command, *(str(workspace / p) for p in paths), "--headers", "--dump-prompt"
    )
    assert (code, out, err) == (0, assemble(prompt) + "\n", "")


def test_dump_prompt_no_prefix_ablation(workspace, capsys):
    base = run_cli(
        capsys, "classify-table", str(workspace / "ev.csv"), "--headers", "--dump-prompt"
    )[1]
    ablated = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers", "--dump-prompt", "--no-prefix",
    )[1]
    assert "Begin your answer with" in base
    assert "Begin your answer with" not in ablated
    assert ablated.rstrip("\n") == base.replace("\n\nBegin your answer with 'https://dbpedia.org/ontology'", "").rstrip("\n")


def test_annotate_columns_output(workspace, capsys):
    backend = transcript(
        workspace,
        "t.jsonl",
        ["`dbo:manufacturer, dbo:model, dbo:postalCode, dbo:vehicleIdentificationNumber`"],
    )
    code, out, _ = run_cli(
        capsys,
        "annotate-columns", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0\tdbo:manufacturer"
    assert lines[3] == "3\tdbo:vehicleIdentificationNumber"
    assert len(lines) == 4


def test_annotate_single_column(workspace, capsys):
    single = workspace / "single.csv"
    single.write_text(to_csv(Table("s", ("title",), (("Dune",), ("Emma",)))) + "\n",
                      encoding="utf-8")
    backend = transcript(workspace, "t.jsonl", ["`dbo:title`"])
    code, out, _ = run_cli(
        capsys,
        "annotate-columns", str(single),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 0
    assert out == "0\tdbo:title\n"


def test_annotate_arity_mismatch_without_anchoring(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["`dbo:manufacturer, dbo:model`"])
    code, _, err = run_cli(
        capsys,
        "annotate-columns", str(workspace / "ev.csv"),
        "--headers", "--no-anchoring",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 2
    assert "task failed" in err


def test_annotate_unknown_printed_literally(workspace, capsys):
    backend = transcript(
        workspace, "t.jsonl", ["`dbo:manufacturer, Unknown, dbo:postalCode, Unknown`"]
    )
    code, out, _ = run_cli(
        capsys,
        "annotate-columns", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
    )
    assert code == 0
    assert out.splitlines()[1] == "1\tUnknown"


def test_predict_join_scripted(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["'VIN_prefix', right_on='vehicle_id_number')"])
    code, out, _ = run_cli(
        capsys,
        "predict-join", str(workspace / "ev.csv"), str(workspace / "reg.csv"),
        "--headers",
        "--backend", f"scripted:{backend}",
    )
    assert code == 0
    assert out == "VIN_prefix\tvehicle_id_number\n"


def test_predict_join_levenshtein_baseline(workspace, capsys):
    left = workspace / "l.csv"
    right = workspace / "r.csv"
    left.write_text("id,name\n1,x\n", encoding="utf-8")
    right.write_text("ident,title\n1,y\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "predict-join", str(left), str(right),
        "--headers", "--system", "levenshtein",
    )
    assert code == 0
    assert out == "id\tident\n"


def test_predict_join_quotes_a_name_that_holds_a_comma(workspace, capsys):
    left = workspace / "l.csv"
    right = workspace / "r.csv"
    left.write_text('id,"a,b"\n1,x\n', encoding="utf-8")
    right.write_text('key,"a,b"\n1,y\n', encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "predict-join", str(left), str(right),
        "--headers", "--system", "levenshtein",
    )
    assert code == 0
    assert out == '"a,b"\t"a,b"\n'


def test_predict_join_jaccard_rowless(workspace, capsys):
    left = workspace / "l.csv"
    right = workspace / "r.csv"
    left.write_text("id,name\n", encoding="utf-8")
    right.write_text("ident,title\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "predict-join", str(left), str(right),
        "--headers", "--system", "jaccard",
    )
    assert code == 1
    assert "rows" in err


@pytest.mark.parametrize("system", ["jaccard", "levenshtein", "model"])
def test_predict_join_agrees_with_eval(workspace, capsys, system):
    # Two pairs, one of them repaired to its nearest header.
    answer = "['VIN_prefx', 'Model'], right_on=['vehicle_id_number', 'name'])"
    backend = ["--backend", f"scripted:{transcript(workspace, 't.jsonl', [answer])}"]
    options = ["--system", system] + (backend if system == "model" else [])
    code, out, err = run_cli(
        capsys, "predict-join", str(workspace / "ev.csv"), str(workspace / "reg.csv"),
        "--headers", *options,
    )
    assert code == 0, err
    manifest = workspace / "join.jsonl"
    manifest.write_text(
        json.dumps({"id": "j", "task": "join", "left": "ev.csv", "right": "reg.csv",
                    "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}) + "\n",
        encoding="utf-8",
    )
    report_path = workspace / "report.json"
    code, _, err = run_cli(capsys, "eval", str(manifest), *options, "--report", str(report_path))
    assert code == 0, err
    (item,) = json.loads(report_path.read_text(encoding="utf-8"))["per_item"]
    left, right = zip(*item["prediction"])
    assert out == f"{','.join(left)}\t{','.join(right)}\n"
    if system == "model":
        assert item["anchored"] is True and len(item["prediction"]) == 2


def eval_manifest(workspace, golds=("Animal", "Animal", "Animal")):
    lines = [
        json.dumps(
            {"id": f"i{i}", "task": "table-class", "table": "animals.csv",
             "headers": True, "gold": g}
        )
        for i, g in enumerate(golds)
    ]
    manifest = workspace / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def test_eval_all_correct_summary(workspace, capsys):
    manifest = eval_manifest(workspace)
    backend = transcript(
        workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"] * 3
    )
    report_path = workspace / "report.json"
    code, out, _ = run_cli(
        capsys,
        "eval", str(manifest),
        "--system", "model",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
        "--report", str(report_path),
    )
    assert code == 0
    assert "F1=1.000" in out
    assert "items=3" in out
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["metrics"]["f1"] == 1.0


def test_eval_summary_gives_items_per_second_only_for_live_backends(
    workspace, capsys, monkeypatch
):
    manifest = workspace / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "a", "task": "table-class", "table": "animals.csv",
                    "headers": True, "gold": "Animal"}) + "\n",
        encoding="utf-8",
    )
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"])
    args = ("eval", str(manifest), "--ontology", str(workspace / "ontology.tsv"),
            "--backend", f"scripted:{backend}")
    code, scripted, _ = run_cli(capsys, *args)
    assert code == 0
    assert re.fullmatch(r"P=1\.000 R=1\.000 F1=1\.000 items=1 cost=0\.\d{6}\n", scripted)

    class Live:
        """The scripted replies, from a backend that is not scripted."""

        def __init__(self, replay):
            self._replay = replay

        def complete(self, conversation, params):
            return self._replay.complete(conversation, params)

    build = tabnotate.cli._build_backend
    monkeypatch.setattr(tabnotate.cli, "_build_backend", lambda spec: Live(build(spec)))
    code, live, _ = run_cli(capsys, *args)
    assert code == 0
    assert re.fullmatch(re.escape(scripted[:-1]) + r" items/s=\d+\.\d\d\n", live)


def test_eval_scores_an_unknown_column_type_against_unknown_gold(workspace, capsys):
    manifest = workspace / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "ct", "task": "column-type", "table": "ev.csv", "headers": True,
                    "gold": ["manufacturer", "model", "postalCode", "Unknown"]}) + "\n",
        encoding="utf-8",
    )
    backend = transcript(
        workspace, "t.jsonl", ["`dbo:manufacturer, dbo:model, dbo:postalCode, Unknown`"]
    )
    report_path = workspace / "report.json"
    code, _, err = run_cli(
        capsys, "eval", str(manifest), "--system", "model",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}", "--report", str(report_path),
    )
    assert code == 0, err
    report = json.loads(report_path.read_text(encoding="utf-8"))
    (item,) = report["per_item"]
    assert item["prediction"] == item["gold"] == ["manufacturer", "model", "postalCode", "Unknown"]
    assert item["correct"] is True and item["anchored"] is False
    assert report["metrics"]["f1"] == 1.0 and report["by_task"]["column-type"]["instances"] == 4


def test_eval_records_item_errors_and_writes_report(workspace, capsys):
    manifest = workspace / "manifest.jsonl"
    manifest.write_text(
        "".join(
            json.dumps({"id": item_id, "task": "table-class", "table": table,
                        "headers": True, "gold": "Animal"}) + "\n"
            for item_id, table in (("ok", "animals.csv"), ("missing", "absent.csv"),
                                   ("exhausted", "animals.csv"))
        ),
        encoding="utf-8",
    )
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"])
    report_path = workspace / "report.json"
    code, out, _ = run_cli(
        capsys,
        "eval", str(manifest),
        "--system", "model",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
        "--report", str(report_path),
    )
    assert code == 0
    assert "items=3" in out
    items = json.loads(report_path.read_text(encoding="utf-8"))["per_item"]
    assert [item["correct"] for item in items] == [True, False, False]
    assert items[0]["error"] is None
    assert "absent.csv" in items[1]["error"]
    assert "exhausted" in items[2]["error"]


def test_eval_malformed_manifest_line(workspace, capsys):
    manifest = workspace / "bad.jsonl"
    manifest.write_text(
        '{"id": "a", "task": "table-class", "table": "animals.csv", "gold": "Animal"}\n'
        '{"id": "b", "task": "table-class", "table": "animals.csv", "gold": "Animal"}\n'
        "{broken\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(
        capsys,
        "eval", str(manifest),
        "--system", "levenshtein",
    )
    assert code == 1
    assert "line 3" in err


def test_eval_temperature_sweep_identical(workspace, capsys):
    manifest = eval_manifest(workspace)
    metrics = []
    for temperature in ("0", "0.25", "0.5", "0.75", "1.0"):
        backend = transcript(
            workspace, f"t{temperature}.jsonl",
            ["https://dbpedia.org/ontology/Animal",
             "https://dbpedia.org/ontology/Hospital",
             "https://dbpedia.org/ontology/Animal"],
        )
        report_path = workspace / f"report-{temperature}.json"
        code, _, _ = run_cli(
            capsys,
            "eval", str(manifest),
            "--system", "model",
            "--temperature", temperature,
            "--ontology", str(workspace / "ontology.tsv"),
            "--backend", f"scripted:{backend}",
            "--report", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["config"]["temperature"] == float(temperature)
        metrics.append(json.dumps(payload["metrics"]))
    assert len(set(metrics)) == 1


def test_cli_bit_reproducible(workspace, capsys):
    manifest = eval_manifest(workspace)

    def run(tag: str):
        backend = transcript(
            workspace, f"{tag}.jsonl", ["https://dbpedia.org/ontology/Animal"] * 3
        )
        report_path = workspace / f"{tag}-report.json"
        code, out, _ = run_cli(
            capsys,
            "eval", str(manifest),
            "--system", "model",
            "--seed", "7",
            "--ontology", str(workspace / "ontology.tsv"),
            "--backend", f"scripted:{backend}",
            "--report", str(report_path),
        )
        assert code == 0
        return out, report_path.read_bytes()

    first_out, first_report = run("one")
    second_out, second_report = run("two")
    assert first_out == second_out
    assert first_report == second_report


def test_bad_backend_spec(workspace, capsys):
    code, _, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", "carrier-pigeon:coop",
    )
    assert code == 1
    assert "backend" in err


def test_malformed_http_url_is_usage_error(workspace, capsys):
    code, _, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", "http:ftp://example.com/v1",
    )
    assert code == 1
    assert "endpoint URL" in err


def test_unknown_flag_is_usage_error(workspace, capsys):
    code, _, _ = run_cli(capsys, "classify-table", "x.csv", "--frobnicate")
    assert code == 1


def test_missing_backend_is_usage_error(workspace, capsys):
    code, _, err = run_cli(
        capsys,
        "classify-table", str(workspace / "ev.csv"),
        "--headers",
        "--ontology", str(workspace / "ontology.tsv"),
    )
    assert code == 1
    assert "--backend" in err


# ------------------------------------------- each subcommand's own options

_SHARED_OPTIONS = {
    "--backend", "--sample-rows", "--temperature", "--max-tokens", "--seed",
    "--no-metadata", "--no-anchoring",
}
_OWN_OPTIONS = {
    "classify-table": {"--ontology", "--headers", "--no-demonstration", "--no-prefix",
                       "--dump-prompt", "--classes"},
    "annotate-columns": {"--ontology", "--headers", "--no-demonstration", "--dump-prompt"},
    "predict-join": {"--headers", "--no-prefix", "--dump-prompt", "--system"},
    "eval": {"--ontology", "--no-demonstration", "--no-prefix", "--report", "--system",
             "--jobs"},
}


def test_each_subcommand_registers_only_the_options_it_reads():
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(_OWN_OPTIONS)
    for name, parser in subparsers.choices.items():
        options = {
            option for action in parser._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert options == _SHARED_OPTIONS | _OWN_OPTIONS[name], name


@pytest.mark.parametrize(
    "argv",
    [
        ("classify-table", "t.csv", "--report", "r.json"),
        ("annotate-columns", "t.csv", "--report", "r.json"),
        ("annotate-columns", "t.csv", "--no-prefix"),
        ("predict-join", "l.csv", "r.csv", "--report", "r.json"),
        ("predict-join", "l.csv", "r.csv", "--ontology", "o.tsv"),
        ("predict-join", "l.csv", "r.csv", "--no-demonstration"),
        ("eval", "m.jsonl", "--headers"),
        ("eval", "m.jsonl", "--dump-prompt"),
    ],
)
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    option = next(arg for arg in argv if arg.startswith("--"))
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert f"unrecognized arguments: {option}" in err


def test_eval_dump_prompt_calls_no_backend_and_writes_no_report(workspace, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda *args: calls.append(args))
    manifest = eval_manifest(workspace)
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"] * 3)
    report_path = workspace / "report.json"
    code, out, err = run_cli(
        capsys,
        "eval", str(manifest),
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
        "--dump-prompt",
        "--report", str(report_path),
    )
    assert code == 1
    assert "unrecognized arguments: --dump-prompt" in err
    assert out == ""
    assert calls == []
    assert not report_path.exists()


# ------------------------------------------------- inputs with a UTF-8 BOM


def bom_twin(path) -> str:
    """A copy of ``path``, named ``bom-<name>``, that starts with a UTF-8
    byte-order mark."""
    twin = path.with_name("bom-" + path.name)
    twin.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return str(twin)


def test_bom_ontology_reads_like_its_twin(workspace, capsys):
    ontology = workspace / "ontology.tsv"
    assert ontology.read_text(encoding="utf-8").startswith("# ")
    backend = transcript(workspace, "t.jsonl", ["`Hostpital`"])
    plain, bom = (
        run_cli(
            capsys,
            "classify-table", str(workspace / "ev.csv"),
            "--headers",
            "--ontology", path,
            "--backend", f"scripted:{backend}",
        )
        for path in (str(ontology), bom_twin(ontology))
    )
    assert plain == bom
    assert plain[0] == 0


def test_bom_table_reads_like_its_twin(workspace, capsys):
    table = workspace / "ev.csv"
    plain, bom = (
        run_cli(capsys, "classify-table", path, "--headers", "--dump-prompt")
        for path in (str(table), bom_twin(table))
    )
    assert plain == bom
    assert "\ufeff" not in bom[1]


def test_bom_class_list_reads_like_its_twin(workspace, capsys):
    classes = workspace / "classes.txt"
    classes.write_text("Animal\nElectricVehicle\n", encoding="utf-8")
    plain, bom = (
        run_cli(
            capsys,
            "classify-table", str(workspace / "ev.csv"),
            "--headers", "--dump-prompt", "--classes", path,
        )
        for path in (str(classes), bom_twin(classes))
    )
    assert plain == bom
    assert "\ufeff" not in bom[1]


def test_bom_transcript_reads_like_its_twin(workspace, capsys):
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/ElectricVehicle"])
    plain, bom = (
        run_cli(
            capsys,
            "classify-table", str(workspace / "ev.csv"),
            "--headers",
            "--ontology", str(workspace / "ontology.tsv"),
            "--backend", f"scripted:{path}",
        )
        for path in (backend, bom_twin(workspace / "t.jsonl"))
    )
    assert plain == bom
    assert plain[0] == 0


def _levenshtein_eval(capsys, manifest, report_path):
    code, out, err = run_cli(
        capsys, "eval", str(manifest), "--system", "levenshtein", "--report", str(report_path)
    )
    assert code == 0, err
    return out, report_path.read_bytes()


def _join_manifest(workspace, left: str):
    manifest = workspace / "join.jsonl"
    manifest.write_text(
        json.dumps({"id": "j", "task": "join", "left": left, "right": "reg.csv",
                    "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}) + "\n",
        encoding="utf-8",
    )
    return manifest


def test_bom_manifest_reads_like_its_twin(workspace, capsys):
    manifest = _join_manifest(workspace, "ev.csv")
    plain = _levenshtein_eval(capsys, manifest, workspace / "plain.json")
    bom = _levenshtein_eval(capsys, bom_twin(manifest), workspace / "bom.json")
    assert plain == bom


def test_bom_manifest_table_reads_like_its_twin(workspace, capsys):
    bom_twin(workspace / "ev.csv")
    plain = _levenshtein_eval(
        capsys, _join_manifest(workspace, "ev.csv"), workspace / "plain.json"
    )
    bom = _levenshtein_eval(
        capsys, _join_manifest(workspace, "bom-ev.csv"), workspace / "bom.json"
    )
    assert plain == bom


# -------------------------------------------------------- oversized field


@pytest.fixture()
def big_csv(workspace):
    path = workspace / "big.csv"
    path.write_text("id,note\n1," + "x" * 140_000 + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify-table", "{big}", "--headers", "--dump-prompt"],
        ["annotate-columns", "{big}", "--headers", "--dump-prompt"],
        ["predict-join", "{big}", "{reg}", "--headers", "--system", "jaccard"],
    ],
)
def test_oversized_csv_field_is_a_usage_error(workspace, big_csv, capsys, argv):
    args = [a.format(big=big_csv, reg=workspace / "reg.csv") for a in argv]
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err == "error: big: field larger than field limit (131072)\n"


def test_eval_with_an_oversized_csv_field_fails_that_item_alone(workspace, big_csv, capsys):
    manifest = workspace / "join.jsonl"
    manifest.write_text(
        "".join(
            json.dumps({"id": item_id, "task": "join", "left": left, "right": "reg.csv",
                        "headers": True, "gold": [["VIN_prefix", "vehicle_id_number"]]}) + "\n"
            for item_id, left in (("big", "big.csv"), ("ok", "ev.csv"))
        ),
        encoding="utf-8",
    )
    report_path = workspace / "report.json"
    code, out, err = run_cli(
        capsys, "eval", str(manifest), "--system", "jaccard", "--report", str(report_path)
    )
    assert (code, err) == (0, "")
    assert "items=2" in out
    items = json.loads(report_path.read_text(encoding="utf-8"))["per_item"]
    assert [item["error"] for item in items] == [
        "big-left: field larger than field limit (131072)", None
    ]
    assert [item["correct"] for item in items] == [False, True]


def test_eval_report_in_a_missing_directory_is_usage_error_before_any_item(
    workspace, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(tabnotate.cli, "run_benchmark", lambda *args, **kwargs: calls.append(args))
    report_path = workspace / "missing" / "r.json"
    code, out, err = run_cli(
        capsys, "eval", str(_join_manifest(workspace, "ev.csv")), "--system", "jaccard",
        "--report", str(report_path),
    )
    assert code == 1
    assert err == f"error: --report {str(report_path)!r}: no such directory\n"
    assert out == ""
    assert calls == []


def test_eval_report_that_is_a_directory_is_usage_error_before_any_call(
    workspace, capsys, monkeypatch
):
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(
        ScriptedBackend, "complete", lambda *args: calls.append(args) or complete(*args)
    )
    manifest = eval_manifest(workspace)
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"] * 3)
    code, out, err = run_cli(
        capsys,
        "eval", str(manifest),
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
        "--report", str(workspace),
    )
    assert code == 1
    assert err == f"error: --report {str(workspace)!r}: is a directory\n"
    assert out == ""
    assert calls == []


# -------------------------------------------------------------------- jobs


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(workspace, capsys, jobs):
    manifest = _join_manifest(workspace, "ev.csv")
    report_path = workspace / "report.json"
    code, out, err = run_cli(
        capsys, "eval", str(manifest), "--system", "levenshtein", "--jobs", jobs,
        "--report", str(report_path),
    )
    assert code == 1
    assert out == ""
    assert err == "error: jobs must be >= 1\n"
    assert not report_path.exists()


# ------------------------------------------------------------------ prices


def test_nan_price_is_usage_error_before_any_call(workspace, capsys, monkeypatch):
    monkeypatch.setenv("TABNOTATE_PRICE_IN", "nan")
    manifest = eval_manifest(workspace)
    backend = transcript(workspace, "t.jsonl", ["https://dbpedia.org/ontology/Animal"] * 3)
    report_path = workspace / "report.json"
    code, out, err = run_cli(
        capsys,
        "eval", str(manifest),
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", f"scripted:{backend}",
        "--report", str(report_path),
    )
    assert code == 1
    assert "prompt_per_1k" in err
    assert out == ""
    assert not report_path.exists()


@pytest.mark.parametrize(
    "variable, value, reason",
    [
        ("TABNOTATE_PRICE_IN", "abc", "could not convert string to float: 'abc'"),
        ("TABNOTATE_PRICE_OUT", "-1", "completion_per_1k must be finite and >= 0"),
    ],
    ids=["not-a-number", "negative"],
)
def test_bad_price_error_names_its_variable(
    workspace, capsys, monkeypatch, variable, value, reason
):
    monkeypatch.setenv(variable, value)
    built = []
    monkeypatch.setattr(tabnotate.cli, "HttpBackend", lambda *args, **kwargs: built.append(args))
    code, out, err = run_cli(
        capsys,
        "eval", str(eval_manifest(workspace)),
        "--ontology", str(workspace / "ontology.tsv"),
        "--backend", "http:http://127.0.0.1:9/v1",
    )
    assert code == 1
    assert err == f"error: {variable} {value!r}: {reason}\n"
    assert out == "" and built == []


@pytest.mark.parametrize(
    "key, message",
    [
        ("sk-a\nb", "api_key must not hold a CR or LF character"),
        ("sk-€", "api_key must hold only Latin-1 characters"),
    ],
    ids=["line-break", "not-latin-1"],
)
def test_api_key_the_request_cannot_carry_is_usage_error_before_any_item(
    workspace, capsys, monkeypatch, key, message
):
    monkeypatch.setenv("TABNOTATE_API_KEY", key)
    report_path = workspace / "report.json"
    code, out, err = run_cli(
        capsys,
        "eval", str(eval_manifest(workspace)),
        "--ontology", str(workspace / "ontology.tsv"),
        "--report", str(report_path),
        "--backend", "http:http://127.0.0.1:1/v1",
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert out == ""
    assert not report_path.exists()
