"""Regenerate the golden prompt and report files under tests/fixtures/golden/.

Run after an intentional template or report change, then review the diff:

    python3 tests/make_goldens.py
"""

from __future__ import annotations

import json
import tempfile
from itertools import product
from pathlib import Path

from tabnotate.backend import ScriptedBackend
from tabnotate.core import OntologyFormat, load_ontology, to_csv
from tabnotate.evaluate import Report, System, load_manifest, run_benchmark, write_report
from tabnotate.prompt import (
    PromptConfig,
    assemble,
    column_type_prompt,
    join_prompt,
    table_class_prompt,
)

from fixture_data import (
    ANIMALS_TABLE,
    CAR_REGISTRATION_TABLE,
    EV_TABLE,
    ONTOLOGY_TEXT,
    TABLE_CLASS_LIST,
)

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"


def golden_name(demonstration: bool, metadata: bool, prefix: bool, knowledge: bool) -> str:
    return (
        f"table_class_D{int(demonstration)}M{int(metadata)}"
        f"P{int(prefix)}K{int(knowledge)}.txt"
    )


JOIN_GOLD = [["VIN_prefix", "vehicle_id_number"]]

# Each scripted report: the system, its manifest lines, and the replies in
# call order.  The model run answers one item at once, re-asks one, anchors
# a column type and a join column, fails one item and gets two wrong; the
# baseline run gets one join right and one wrong.
EVAL_REPORTS = {
    "report_model_mixed.json": (
        System.MODEL,
        [
            {"id": "tc0", "task": "table-class", "table": "animals.csv", "gold": "Animal"},
            {"id": "tc1", "task": "table-class", "table": "ev.csv", "gold": "ElectricVehicle"},
            {"id": "tc2", "task": "table-class", "table": "reg.csv", "gold": "Country"},
            {"id": "tc3", "task": "table-class", "table": "reg.csv", "gold": "Country"},
            {"id": "ct0", "task": "column-type", "table": "animals.csv",
             "gold": ["conservationStatus", "binomial"]},
            {"id": "ct1", "task": "column-type", "table": "reg.csv",
             "gold": ["author", "vehicleIdentificationNumber"]},
            {"id": "j0", "task": "join", "left": "ev.csv", "right": "reg.csv", "gold": JOIN_GOLD},
        ],
        [
            "https://dbpedia.org/ontology/Animal",
            "I am not sure.",
            "https://dbpedia.org/ontology/ElectricVehicle",
            "no idea",
            "still no idea",
            "https://dbpedia.org/ontology/Animal",
            "`dbo:conservationStatu, dbo:binomial`",
            "`dbo:title, dbo:vehicleIdentificationNumber`",
            "'VIN_prefx', right_on='vehicle_id_number')",
        ],
    ),
    "report_jaccard_join.json": (
        System.JACCARD,
        [
            {"id": "j0", "task": "join", "left": "ev.csv", "right": "reg.csv", "gold": JOIN_GOLD},
            {"id": "j1", "task": "join", "left": "animals.csv", "right": "reg.csv",
             "gold": [["Conservation status", "name"]]},
        ],
        [],
    ),
}


def eval_report(root: Path, name: str) -> Report:
    """Run the scripted report ``name`` over fixture tables written under ``root``."""
    for file_name, table in (
        ("animals.csv", ANIMALS_TABLE),
        ("ev.csv", EV_TABLE),
        ("reg.csv", CAR_REGISTRATION_TABLE),
    ):
        (root / file_name).write_text(to_csv(table) + "\n", encoding="utf-8")
    system, lines, replies = EVAL_REPORTS[name]
    manifest = root / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    return run_benchmark(
        load_manifest(manifest),
        system,
        ontology=load_ontology(ONTOLOGY_TEXT, OntologyFormat.TAB_SEPARATED_KIND_IRI),
        backend=ScriptedBackend(replies) if system is System.MODEL else None,
    )


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for demonstration, metadata, prefix, knowledge in product((False, True), repeat=4):
        config = PromptConfig(
            include_demonstration=demonstration,
            include_metadata=metadata,
            include_prefix=prefix,
        )
        components = table_class_prompt(
            EV_TABLE, TABLE_CLASS_LIST if knowledge else None, config
        )
        path = GOLDEN_DIR / golden_name(demonstration, metadata, prefix, knowledge)
        path.write_text(assemble(components), encoding="utf-8")

    (GOLDEN_DIR / "column_type_default.txt").write_text(
        assemble(column_type_prompt(EV_TABLE)), encoding="utf-8"
    )
    (GOLDEN_DIR / "join_default.txt").write_text(
        assemble(join_prompt(EV_TABLE, CAR_REGISTRATION_TABLE)), encoding="utf-8"
    )
    for name in EVAL_REPORTS:
        with tempfile.TemporaryDirectory() as root:
            write_report(eval_report(Path(root), name), GOLDEN_DIR / name)
    print(f"wrote {len(list(GOLDEN_DIR.iterdir()))} golden files to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
