"""Command-line interface.

Machine-parsable results go to stdout as tab-separated fields;
diagnostics go to stderr.  Exit codes: 0 success, 1 usage or input
error, 2 task failure (including backend trouble).

Credentials are read from the environment only: TABNOTATE_API_KEY for
the bearer token, TABNOTATE_MODEL for the model name, and
TABNOTATE_PRICE_IN / TABNOTATE_PRICE_OUT for dollars per 1000 tokens.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .backend import (
    BackendError,
    GenerationParams,
    HttpBackend,
    HttpEndpoint,
    PriceTable,
    load_transcript,
)
from .core import (
    Ontology,
    SamplingMode,
    SamplingStrategy,
    _content_lines,
    csv_record,
    detect_ontology_format,
    load_ontology,
)
from .evaluate import (
    System,
    Task,
    _predict_join,
    _read_table,
    load_manifest,
    run_benchmark,
    write_report,
)
from .harness import (
    PipelineConfig,
    TaskFailed,
    render_term,
    run_column_type_task,
    run_table_class_task,
)
from .prompt import (
    PromptConfig,
    assemble,
    column_type_prompt,
    join_prompt,
    table_class_prompt,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TASK = 2

DEFAULT_MODEL = "gpt-3.5-turbo"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # task failures.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Every option of every subcommand; each subcommand registers only the
# options its cmd_* function reads.
_OPTIONS: dict[str, dict] = {
    "--backend": dict(metavar="SPEC", help="scripted:<transcript.jsonl> or http:<endpoint-url>"),
    "--ontology": dict(metavar="PATH", help="ontology term file"),
    "--headers": dict(action="store_true", help="treat the first CSV line as the header row"),
    "--sample-rows": dict(type=int, default=5, metavar="N"),
    "--temperature": dict(type=float, default=0.0, metavar="T"),
    "--max-tokens": dict(type=int, default=256, metavar="N"),
    "--seed": dict(
        type=int,
        default=None,
        metavar="N",
        help="sample rows with a seeded draw instead of taking the head",
    ),
    "--no-demonstration": dict(action="store_true"),
    "--no-metadata": dict(action="store_true"),
    "--no-prefix": dict(action="store_true"),
    "--no-anchoring": dict(action="store_true"),
    "--report": dict(metavar="PATH", help="write a JSON report here"),
    "--dump-prompt": dict(
        action="store_true",
        help="print the assembled prompt and exit without calling any backend",
    ),
    "--classes": dict(metavar="PATH", help="list these class names in the prompt"),
    "--system": dict(
        choices=[s.value for s in System],
        default=System.MODEL.value,
        help="the model, or a similarity baseline for join items",
    ),
    "--jobs": dict(type=int, default=4, metavar="N"),
}

# The options all four subcommands read.
_SHARED = (
    "--backend", "--sample-rows", "--temperature", "--max-tokens", "--seed",
    "--no-metadata", "--no-anchoring",
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tabnotate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, positionals, options, run in (
        (
            "classify-table", "assign an ontology class to a table",
            [("csv_path", "TABLE.csv")],
            ("--ontology", "--headers", "--no-demonstration", "--no-prefix",
             "--dump-prompt", "--classes"),
            cmd_classify_table,
        ),
        (
            "annotate-columns", "assign a property to each column",
            [("csv_path", "TABLE.csv")],
            ("--ontology", "--headers", "--no-demonstration", "--dump-prompt"),
            cmd_annotate_columns,
        ),
        (
            "predict-join", "predict the join column pair",
            [("left_csv", "LEFT.csv"), ("right_csv", "RIGHT.csv")],
            ("--headers", "--no-prefix", "--dump-prompt", "--system"),
            cmd_predict_join,
        ),
        (
            "eval", "run a benchmark manifest and report metrics",
            [("manifest", "MANIFEST.jsonl")],
            ("--ontology", "--no-demonstration", "--no-prefix", "--report", "--system",
             "--jobs"),
            cmd_eval,
        ),
    ):
        command = sub.add_parser(name, help=help_text)
        for dest, metavar in positionals:
            command.add_argument(dest, metavar=metavar)
        for option in _SHARED + options:
            command.add_argument(option, **_OPTIONS[option])
        command.set_defaults(run=run)
    return parser


def _prices_from_env() -> PriceTable:
    return PriceTable(
        prompt_per_1k=float(os.environ.get("TABNOTATE_PRICE_IN", "0.0015")),
        completion_per_1k=float(os.environ.get("TABNOTATE_PRICE_OUT", "0.002")),
    )


def _build_backend(spec: str | None):
    if spec is None:
        raise ValueError("--backend is required (scripted:<path> or http:<url>)")
    kind, _, rest = spec.partition(":")
    if kind == "scripted" and rest:
        return load_transcript(
            Path(rest).read_text(encoding="utf-8-sig"), prices=_prices_from_env()
        )
    if kind == "http" and rest:
        endpoint = HttpEndpoint(
            url=rest,
            model=os.environ.get("TABNOTATE_MODEL", DEFAULT_MODEL),
            api_key=os.environ.get("TABNOTATE_API_KEY"),
        )
        return HttpBackend(endpoint, prices=_prices_from_env())
    raise ValueError(f"unrecognized backend spec {spec!r}")


def _load_ontology_file(path: str | None) -> Ontology:
    if path is None:
        raise ValueError("--ontology is required for this command")
    text = Path(path).read_text(encoding="utf-8-sig")
    return load_ontology(text, detect_ontology_format(text))


def _load_class_list(path: str | None) -> tuple[str, ...] | None:
    if path is None:
        return None
    text = Path(path).read_text(encoding="utf-8-sig")
    names = [line for _, line in _content_lines(text, comments=True)]
    if not names:
        raise ValueError(f"class list {path!r} is empty")
    return tuple(names)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    strategy = (
        SamplingStrategy(SamplingMode.SEEDED_RANDOM, args.seed)
        if args.seed is not None
        else SamplingStrategy(SamplingMode.HEAD)
    )
    prompt_config = PromptConfig(
        sample_k=args.sample_rows,
        include_demonstration=not getattr(args, "no_demonstration", False),
        include_metadata=not args.no_metadata,
        include_prefix=not getattr(args, "no_prefix", False),
        strategy=strategy,
    )
    return PipelineConfig(
        anchoring_enabled=not args.no_anchoring,
        prompt_config=prompt_config,
        params=GenerationParams(
            temperature=args.temperature, max_tokens=args.max_tokens
        ),
        allowed_classes=_load_class_list(getattr(args, "classes", None)),
    )


def cmd_classify_table(args: argparse.Namespace, config: PipelineConfig) -> int:
    table = _read_table(args.csv_path, args.headers)
    if args.dump_prompt:
        components = table_class_prompt(table, config.allowed_classes, config.prompt_config)
        print(assemble(components))
        return EXIT_OK
    ontology = _load_ontology_file(args.ontology)
    backend = _build_backend(args.backend)
    run = run_table_class_task(table, ontology, backend, config)
    print(f"{run.value.iri}\t{str(run.anchored).lower()}\t{run.attempts}")
    return EXIT_OK


def cmd_annotate_columns(args: argparse.Namespace, config: PipelineConfig) -> int:
    table = _read_table(args.csv_path, args.headers)
    if args.dump_prompt:
        print(assemble(column_type_prompt(table, config.prompt_config)))
        return EXIT_OK
    ontology = _load_ontology_file(args.ontology)
    backend = _build_backend(args.backend)
    run = run_column_type_task(table, ontology, backend, config)
    for index, assignment in enumerate(run.value):
        print(f"{index}\t{render_term(assignment)}")
    return EXIT_OK


def cmd_predict_join(args: argparse.Namespace, config: PipelineConfig) -> int:
    left = _read_table(args.left_csv, args.headers)
    right = _read_table(args.right_csv, args.headers)
    if args.dump_prompt:
        print(assemble(join_prompt(left, right, config.prompt_config)))
        return EXIT_OK
    system = System(args.system)
    backend = _build_backend(args.backend) if system is System.MODEL else None
    prediction, _ = _predict_join(left, right, system, backend, config)
    print(f"{csv_record(prediction.left_cols)}\t{csv_record(prediction.right_cols)}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    # Checked before any item runs, so a bad path costs no model call.
    if args.report and not Path(args.report).parent.is_dir():
        raise ValueError(f"--report {args.report!r}: no such directory")
    system = System(args.system)
    examples = load_manifest(args.manifest)
    ontology = None
    backend = None
    if system is System.MODEL:
        backend = _build_backend(args.backend)
        if any(ex.task is not Task.JOIN for ex in examples):
            ontology = _load_ontology_file(args.ontology)
    report = run_benchmark(
        examples, system, ontology=ontology, backend=backend, config=config, jobs=args.jobs
    )
    if args.report:
        write_report(report, args.report)
    m = report.metrics
    rate = "" if report.elapsed_s is None else f" items/s={report.items / report.elapsed_s:.2f}"
    print(
        f"P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f} "
        f"items={report.items} cost={report.total_cost:.6f}{rate}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args, _pipeline_config(args))
    except TaskFailed as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return EXIT_TASK
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_TASK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
