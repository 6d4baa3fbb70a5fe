"""Support-weighted metrics, join baselines, and the benchmark runner.

Classification tasks score per-class precision/recall/F1 aggregated by
gold support.  Join predictions score per column pair: precision over
predicted pairs, recall over gold pairs.  The runner emits a JSON report
with throughput and cost alongside the metrics.  The command line reads
its tables and picks its join system through this module too.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Sequence

from .backend import Backend, BackendError, MeteredBackend, Usage
from .core import EmptyTable, MissingHeaders, Ontology, Table, _content_lines, _Packed, read_csv
from .harness import (
    DEFAULT_PIPELINE_CONFIG,
    JoinPrediction,
    PipelineConfig,
    TaskFailed,
    run_column_type_task,
    run_join_task_detailed,
    run_table_class_task,
)


class LengthMismatch(ValueError):
    """Prediction and gold vectors differ in length."""


class EmptyStats(ValueError):
    """No gold labels to aggregate over."""


class ManifestError(ValueError):
    """A benchmark manifest line is unusable."""


@dataclass
class ClassStats:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    support: int = 0


def per_class_stats(
    predictions: Sequence[str], golds: Sequence[str]
) -> dict[str, ClassStats]:
    """Confusion counts per class: tp, fp, fn, and gold support."""
    if len(predictions) != len(golds):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(golds)} gold labels"
        )
    stats: dict[str, ClassStats] = {}
    for predicted, gold in zip(predictions, golds):
        stats.setdefault(gold, ClassStats()).support += 1
        if predicted == gold:
            stats[gold].tp += 1
        else:
            stats.setdefault(predicted, ClassStats()).fp += 1
            stats[gold].fn += 1
    return stats


@dataclass(frozen=True)
class WeightedMetrics:
    precision: float
    recall: float
    f1: float


def _scores(correct: int, predicted: int, gold: int) -> WeightedMetrics:
    """Precision over the predicted instances, recall over the gold ones,
    and their harmonic mean; a ratio with nothing to divide by is 0."""
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return WeightedMetrics(precision, recall, f1)


def _weighted_mean(pairs: Sequence[tuple[int, WeightedMetrics]]) -> WeightedMetrics:
    """Each metric's mean over ``(weight, metrics)`` pairs, summed by
    :func:`math.fsum`, so neither their order nor the Python changes it."""
    total = sum(weight for weight, _ in pairs)
    names = (f.name for f in fields(WeightedMetrics))
    return WeightedMetrics(
        *(math.fsum(w * getattr(m, name) for w, m in pairs) / total for name in names)
    )


def weighted_metrics(stats: dict[str, ClassStats]) -> WeightedMetrics:
    """Support-weighted mean of per-class precision, recall, and F1."""
    if not any(s.support for s in stats.values()):
        raise EmptyStats("no gold labels in the confusion stats")
    return _weighted_mean(
        [(s.support, _scores(s.tp, s.tp + s.fp, s.tp + s.fn)) for s in stats.values()]
    )


def _score(inter: int, nx: int, ny: int) -> float:
    """Jaccard score of two sets of sizes ``nx`` and ``ny`` sharing ``inter``."""
    union = nx + ny - inter
    return inter / union if union else 0.0


def jaccard(x: set[str], y: set[str]) -> float:
    """|X ∩ Y| / |X ∪ Y|, defined as 0 when both sets are empty."""
    return _score(len(x & y), len(x), len(y))


def _column_names(table: Table) -> list[str]:
    if table.headers is not None:
        return list(table.headers)
    return [str(i) for i in range(table.arity)]


def levenshtein_join(left: Table, right: Table) -> JoinPrediction:
    """Header pair with the smallest edit distance between lowercased names."""
    if left.headers is None or right.headers is None:
        raise MissingHeaders("the edit-distance baseline requires headers")
    groups: dict[int, list[tuple[str, str]]] = {}
    for r in sorted(right.headers):
        lowered = r.lower()
        groups.setdefault(len(lowered), []).append((r, lowered))
    packed = [_Packed(groups[lb]) for lb in sorted(groups)]
    best: tuple[float, str, str] = (float("inf"), "", "")
    for l in left.headers:
        query = l.lower()
        for group in packed:
            # A distance is never below the length gap, so a group whose gap
            # exceeds the best distance can neither beat it nor tie it.
            if abs(len(query) - group.length) > best[0]:
                continue
            distance, r = group.nearest(query)
            best = min(best, (distance, l, r))
    return JoinPrediction((best[1],), (best[2],))


def jaccard_join(left: Table, right: Table) -> JoinPrediction:
    """Column pair whose distinct value sets overlap most.

    The sets come from :meth:`Table.column_sets`, which splits no row of a
    table that :func:`read_csv` kept as lines.  Empty cells are ignored.
    Each left column is first cut to its values that occur anywhere in the
    right table; a pair's overlap is that cut set's overlap with the right
    column, which is the whole overlap since every right column lies in the
    right table, and a column with no such value overlaps none without a
    lookup.  Ties break lexicographically by column name; a headerless
    column is named by its index as a string, so ``"10"`` sorts before
    ``"2"``.
    """
    if not left.row_count or not right.row_count:
        raise EmptyTable("the value-overlap baseline requires rows on both sides")
    left_names, right_names = _column_names(left), _column_names(right)
    left_sets, right_sets = left.column_sets(), right.column_sets()
    for values in (*left_sets, *right_sets):
        values.discard("")
    seen = set().union(*right_sets)
    best: tuple[float, str, str] | None = None
    for lname, x in zip(left_names, left_sets):
        shared = x & seen
        for rname, y in zip(right_names, right_sets):
            score = _score(len(shared & y) if shared else 0, len(x), len(y))
            key = (-score, lname, rname)
            if best is None or key < best:
                best = key
    assert best is not None
    return JoinPrediction((best[1],), (best[2],))


class Task(Enum):
    TABLE_CLASS = "table-class"
    COLUMN_TYPE = "column-type"
    JOIN = "join"


class System(Enum):
    MODEL = "model"
    JACCARD = "jaccard"
    LEVENSHTEIN = "levenshtein"


@dataclass(frozen=True)
class LabeledExample:
    """One benchmark item: table path(s), headers flag, and the gold label."""

    id: str
    task: Task
    headers: bool
    gold: object
    table: Path | None = None
    left: Path | None = None
    right: Path | None = None


def _manifest_error(lineno: int, message: str) -> ManifestError:
    return ManifestError(f"line {lineno}: {message}")


def _parse_gold(task: Task, gold: object, lineno: int) -> object:
    if task is Task.TABLE_CLASS:
        if not isinstance(gold, str):
            raise _manifest_error(lineno, "table-class gold must be a string")
        if not gold:
            raise _manifest_error(lineno, "table-class gold must not be empty")
        return gold
    if task is Task.COLUMN_TYPE:
        if not isinstance(gold, list) or not gold or not all(isinstance(g, str) for g in gold):
            raise _manifest_error(lineno, "column-type gold must be a non-empty list of strings")
        if not all(gold):
            raise _manifest_error(lineno, "column-type gold must not hold an empty label")
        return tuple(gold)
    if (
        not isinstance(gold, list)
        or not gold
        or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(n, str) for n in p)
            for p in gold
        )
    ):
        raise _manifest_error(lineno, "join gold must be a list of [left, right] pairs")
    return tuple((p[0], p[1]) for p in gold)


def load_manifest(path: Path | str) -> list[LabeledExample]:
    """Parse a JSON-lines manifest; table paths resolve against its directory."""
    path = Path(path)
    base = path.parent
    examples: list[LabeledExample] = []
    first_line: dict[str, int] = {}
    for lineno, line in _content_lines(path.read_text(encoding="utf-8-sig")):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _manifest_error(lineno, f"invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise _manifest_error(lineno, "expected a JSON object")
        item_id = obj.get("id")
        if not isinstance(item_id, str) or not item_id:
            raise _manifest_error(lineno, "missing 'id' string")
        try:
            task = Task(obj.get("task"))
        except ValueError:
            raise _manifest_error(lineno, f"unknown task {obj.get('task')!r}") from None
        headers = obj.get("headers", True)
        if not isinstance(headers, bool):
            raise _manifest_error(lineno, "'headers' must be a boolean")
        gold = _parse_gold(task, obj.get("gold"), lineno)
        if task is Task.JOIN:
            paths = {side: obj.get(side) for side in ("left", "right")}
            if not all(isinstance(p, str) for p in paths.values()):
                raise _manifest_error(lineno, "join items need 'left' and 'right' paths")
        else:
            paths = {"table": obj.get("table")}
            if not isinstance(paths["table"], str):
                raise _manifest_error(lineno, "missing 'table' path")
        paths = {key: base / p for key, p in paths.items()}
        if first_line.setdefault(item_id, lineno) != lineno:
            raise _manifest_error(lineno, f"id {item_id!r} repeats line {first_line[item_id]}")
        examples.append(LabeledExample(item_id, task, headers, gold, **paths))
    return examples


@dataclass
class ItemOutcome:
    id: str
    task: Task
    prediction: object
    gold: object
    correct: bool
    anchored: bool
    attempts: int
    usage: Usage
    error: str | None = None


@dataclass
class Report:
    task: str
    system: str
    metrics: WeightedMetrics
    items: int
    throughput: float
    total_cost: float
    per_item: list[ItemOutcome]
    by_task: dict[str, dict] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    usage: dict = field(default_factory=dict)
    # Measured wall clock, for model runs on a backend whose time is real.
    elapsed_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "system": self.system,
            "metrics": asdict(self.metrics),
            "items": self.items,
            "throughput": self.throughput,
            **({} if self.elapsed_s is None else {"elapsed_s": self.elapsed_s}),
            "total_cost": self.total_cost,
            "config": self.config,
            "usage": self.usage,
            "by_task": self.by_task,
            "per_item": [
                {
                    f.name: o.task.value if f.name == "task" else getattr(o, f.name)
                    for f in fields(o)
                    if f.name != "usage"  # summed into the report's usage
                }
                for o in self.per_item
            ],
        }


def write_report(report: Report, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _read_table(path: Path | str, headers: bool, name: str | None = None) -> Table:
    """The CSV table at ``path`` as written, less a leading BOM, named by its
    file stem unless ``name`` is given; see :func:`read_csv` for line ends."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8-sig")
    return read_csv(text, name=path.stem if name is None else name, headers=headers)


def _aggregate(
    outcomes: Sequence[ItemOutcome],
) -> tuple[WeightedMetrics, dict[str, dict]]:
    """Combine per-item records into overall and per-task metrics.

    Classification groups use support-weighted multiclass metrics; joins
    use pair-level micro precision/recall over distinct predicted pairs.
    With several task groups the overall numbers are the groups' metrics
    weighted by their gold instance counts (items, columns, or gold pairs),
    averaged as :func:`weighted_metrics` averages its classes.
    """
    # (prediction, gold) label pairs per classification task, in report order.
    labels: dict[Task, list[tuple[str, str]]] = {Task.TABLE_CLASS: [], Task.COLUMN_TYPE: []}
    join_correct = join_predicted = join_gold = 0
    for outcome in outcomes:
        if outcome.task is Task.TABLE_CLASS:
            predicted = outcome.prediction if isinstance(outcome.prediction, str) else ""
            labels[outcome.task].append((predicted, outcome.gold))  # type: ignore[arg-type]
        elif outcome.task is Task.COLUMN_TYPE:
            golds = outcome.gold
            predictions = outcome.prediction or [""] * len(golds)  # type: ignore[arg-type]
            labels[outcome.task] += zip(predictions, golds)  # type: ignore[arg-type]
        else:
            gold_pairs = {tuple(p) for p in outcome.gold}  # type: ignore[union-attr]
            predicted_pairs = {tuple(p) for p in outcome.prediction or ()}  # type: ignore[attr-defined]
            join_gold += len(gold_pairs)
            join_predicted += len(predicted_pairs)
            join_correct += len(predicted_pairs & gold_pairs)

    groups = [
        (task.value, weighted_metrics(per_class_stats(*zip(*pairs))), len(pairs))
        for task, pairs in labels.items()
        if pairs
    ]
    if join_gold or join_predicted:
        groups.append((Task.JOIN.value, _scores(join_correct, join_predicted, join_gold), join_gold))
    if not groups:
        raise EmptyStats("benchmark produced no scorable instances")
    by_task = {name: {**asdict(m), "instances": weight} for name, m, weight in groups}
    if len(groups) == 1:
        return groups[0][1], by_task
    return _weighted_mean([(weight, m) for _, m, weight in groups]), by_task


def _json_ready(task: Task, value: object) -> object:
    """A gold or predicted label in its report shape: lists, not tuples."""
    if task is Task.JOIN:
        return [list(p) for p in value]  # type: ignore[attr-defined]
    return list(value) if task is Task.COLUMN_TYPE else value  # type: ignore[call-overload]


def _predict_join(
    left: Table, right: Table, system: System, backend: Backend | None, config: PipelineConfig
) -> tuple[JoinPrediction, bool]:
    """The join ``system`` predicts and whether it was anchored; only the
    model calls ``backend``."""
    if system is System.JACCARD:
        return jaccard_join(left, right), False
    if system is System.LEVENSHTEIN:
        return levenshtein_join(left, right), False
    run = run_join_task_detailed(left, right, backend, config)  # type: ignore[arg-type]
    return run.value, run.anchored


def _predict(
    example: LabeledExample,
    system: System,
    ontology: Ontology | None,
    backend: Backend,
    config: PipelineConfig,
) -> tuple[object, bool]:
    """The item's raw prediction and whether it was anchored."""
    if example.task is Task.JOIN:
        left = _read_table(example.left, example.headers, f"{example.id}-left")
        right = _read_table(example.right, example.headers, f"{example.id}-right")
        prediction, anchored = _predict_join(left, right, system, backend, config)
        return prediction.pairs, anchored
    table = _read_table(example.table, example.headers, example.id)
    if example.task is Task.TABLE_CLASS:
        run = run_table_class_task(table, ontology, backend, config)
        return run.value.local_name, run.anchored
    if len(example.gold) != table.arity:  # type: ignore[arg-type]
        raise ManifestError(
            f"item {example.id!r}: gold lists {len(example.gold)} columns, "
            f"table has {table.arity}"
        )
    run = run_column_type_task(table, ontology, backend, config)
    return [a.local_name for a in run.value], run.anchored


def _run_item(
    example: LabeledExample,
    system: System,
    ontology: Ontology | None,
    backend: Backend | None,
    config: PipelineConfig,
) -> ItemOutcome:
    """Run one example; a failure becomes the item's ``error``.

    Usage and attempts come from the calls that reached the backend, so an
    item that fails still reports every call it finished.
    """
    meter = MeteredBackend(backend)
    try:
        raw, anchored = _predict(example, system, ontology, meter, config)
        prediction, error = _json_ready(example.task, raw), None
    except (TaskFailed, BackendError, OSError, ValueError) as exc:
        prediction, anchored, error = None, False, str(exc)
    gold = _json_ready(example.task, example.gold)
    if example.task is Task.JOIN and prediction is not None:
        correct = {tuple(p) for p in prediction} == {tuple(p) for p in gold}  # type: ignore[union-attr]
    else:
        correct = prediction == gold
    return ItemOutcome(
        id=example.id,
        task=example.task,
        prediction=prediction,
        gold=gold,
        correct=correct,
        anchored=anchored,
        attempts=meter.calls,
        usage=meter.usage,
        error=error,
    )


def run_benchmark(
    examples: Sequence[LabeledExample],
    system: System,
    ontology: Ontology | None = None,
    backend: Backend | None = None,
    config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
    jobs: int = 4,
) -> Report:
    """Run every example and aggregate task-appropriate metrics.

    The similarity baselines need no backend and support only join items.
    A backend whose ``ordered`` attribute is true answers by call order,
    as a replayed transcript does, so its items run one at a time in
    manifest order; other model runs use ``jobs`` threads.  An item that
    fails (no feasible answer, an unreadable table, a backend error) is
    recorded as incorrect with its error rather than aborting the run.
    Usage is summed over the items in manifest order, so the totals do
    not depend on ``jobs``, which must be at least 1.  Model runs on a
    backend that is not ordered also report their measured wall clock as
    ``elapsed_s``; ``throughput`` divides by metered time.  The token
    counts are reported as approximate when any call's were ``estimated``.
    """
    start = time.perf_counter()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if system is System.MODEL:
        if backend is None:
            raise ValueError("the model system needs a backend")
        needs_ontology = any(ex.task is not Task.JOIN for ex in examples)
        if needs_ontology and ontology is None:
            raise ValueError("classification tasks need an ontology")
    else:
        bad = next((ex for ex in examples if ex.task is not Task.JOIN), None)
        if bad is not None:
            raise ManifestError(
                f"item {bad.id!r}: system {system.value!r} only supports join items"
            )

    def run(example: LabeledExample) -> ItemOutcome:
        return _run_item(example, system, ontology, backend, config)

    live = system is System.MODEL and not getattr(backend, "ordered", False)
    parallel = live and jobs > 1 and len(examples) > 1
    if parallel:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, examples))
    else:
        outcomes = list(map(run, examples))

    overall, by_task = _aggregate(outcomes)
    tasks_present = {o.task.value for o in outcomes}
    task_name = tasks_present.pop() if len(tasks_present) == 1 else "mixed"
    usage = sum((o.usage for o in outcomes), Usage())
    return Report(
        task=task_name,
        system=system.value,
        metrics=overall,
        items=len(outcomes),
        throughput=len(outcomes) / usage.wall_time if usage.wall_time > 0 else 0.0,
        total_cost=usage.cost,
        per_item=outcomes,
        by_task=by_task,
        config={
            "temperature": config.params.temperature,
            "max_tokens": config.params.max_tokens,
            "sample_rows": config.prompt_config.sample_k,
            "anchoring": config.anchoring_enabled,
            "context_flow": config.context_flow,
            "jobs": jobs if parallel else 1,
        },
        usage={
            "prompt_tokens": usage.prompt_tokens,
            "completion_tokens": usage.completion_tokens,
            "wall_time": usage.wall_time,
            "token_counts_approximate": usage.estimated,
        },
        elapsed_s=time.perf_counter() - start if live else None,
    )
