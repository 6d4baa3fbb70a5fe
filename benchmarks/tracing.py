"""Spans and counters recorded from outside the tabnotate package.

The tracer rebinds public functions where callers look them up: every
module of the package that binds the original function object gets a
wrapper, so ``tabnotate.harness.nearest_term``, ``tabnotate.evaluate.read_csv``
and ``tabnotate.prompt.assemble`` are all caught whichever module calls them.
Nothing under ``src/`` changes.  A target that no longer exists (renamed or
removed by a refactor) is recorded as absent and its metrics read 0.

Layer boundaries get spans (name, start, end, parent, item id); the item id
comes from ``Table.name`` and is inherited by child spans.  Hot leaf
functions (``label_similarity``, ``edit_distance``, ``assemble``) and the
parsers, ``anchor`` and ``repair_text`` get counters only, which keeps the
overhead low.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import threading
import time
from collections import Counter

# (defining module, function, recorded name)
SPANS = (
    ("core", "nearest_term", "core.nearest_term"),
    ("core", "read_csv", "core.read_csv"),
    ("core", "sample_rows", "core.sample_rows"),
    ("prompt", "table_class_prompt", "prompt.build"),
    ("prompt", "column_type_prompt", "prompt.build"),
    ("prompt", "join_prompt", "prompt.build"),
    ("harness", "run_table_class_task", "harness.table_class"),
    ("harness", "run_column_type_task", "harness.column_type"),
    ("harness", "run_join_task_detailed", "harness.join"),
    ("evaluate", "jaccard_join", "evaluate.jaccard_join"),
    ("evaluate", "levenshtein_join", "evaluate.levenshtein_join"),
)
COUNTERS = (
    ("core", "label_similarity", "core.label_similarity"),
    ("core", "edit_distance", "core.edit_distance"),
    ("prompt", "assemble", "prompt.assemble"),
    ("harness", "parse_table_class", "harness.parse"),
    ("harness", "parse_column_types", "harness.parse"),
    ("harness", "parse_join_completion", "harness.parse"),
    ("harness", "repair_text", "harness.repair"),
    ("harness", "anchor", "harness.anchor"),
)


def _item_of(args, kwargs):
    """Item id from the first Table-like argument (or a ``name=`` keyword)."""
    name = kwargs.get("name")
    if not isinstance(name, str):
        for value in args:
            name = getattr(value, "name", None)
            if isinstance(name, str) and hasattr(value, "rows"):
                break
        else:
            return None
    for suffix in ("-left", "-right"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def rows_in_sample(data_sample):
    """Data rows in a prompt's sample; fenced frames start with a header line."""
    if data_sample is None:
        return 0
    lines = data_sample.splitlines()
    if not any(line.startswith("```") for line in lines):
        return len(lines)
    kept, block, inside = 0, 0, False
    for line in lines:
        if line.startswith("```"):
            if inside:
                kept += max(0, block - 1)
            inside, block = not inside, 0
        elif inside:
            block += 1
    return kept


class Tracer:
    def __init__(self, package) -> None:
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.root: int | None = None
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Start a new round: drop spans, counters and label sets."""
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.amounts: Counter = Counter()
        self.labels: set = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, item=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if item is None and parent is not None:
            item = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, item])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def rooted(self, name: str, call):
        """``call`` inside a span that also parents spans from pool threads."""

        def run():
            self.root = None
            self.root = self.open(name)
            try:
                return call()
            finally:
                index, self.root = self.root, None
                self.close(index)

        return run

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.amounts[name] += amount

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        after = _AFTER.get(name)
        nested = _NESTED_COUNT.get(name)

        def wrapper(*args, **kwargs):
            before = self.counts[nested] if nested else 0
            index = self.open(name, _item_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if nested:
                self.add(f"{name}.nested", self.counts[nested] - before)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        calls, failures = f"{name}.calls", f"{name}.failures"

        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.count(failures)
                raise

        return wrapper

    def install(self) -> None:
        """Rebind every target in every tabnotate module that binds it."""
        modules = [self._package] + [
            importlib.import_module(f"{self._package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(self._package.__path__)
        ]
        self.absent = []
        for targets, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for module_name, attr, name in targets:
                try:
                    home = importlib.import_module(f"{self._package.__name__}.{module_name}")
                except ImportError:
                    home = None
                original = getattr(home, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = make(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._bindings.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings = []

    def wrap_backend(self, backend):
        """Span every ``complete`` call on this backend instance; return undo."""
        original = backend.complete

        def complete(conversation, params):
            turns = conversation.turns
            users = [t for t in turns if t.role.value == "user"]
            if len(users) > 1:
                self.count("harness.reask.calls")
            else:
                self.add("prompt.chars", len(users[0].text))
                self.count("prompt.sent")
            index = self.open("backend.complete")
            try:
                text, usage = original(conversation, params)
            except Exception:
                self.count("backend.complete.failures")
                raise
            finally:
                self.close(index)
            self.add("backend.prompt_tokens", usage.prompt_tokens)
            self.add("backend.completion_tokens", usage.completion_tokens)
            self.add("backend.cost_usd", usage.cost)
            return text, usage

        backend.complete = complete
        return lambda: vars(backend).pop("complete", None)

    # -- output ------------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            if end is not None:
                out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name, summed duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write_spans(self, handle, round_index: int) -> None:
        for index, (name, start, end, parent, item) in enumerate(self.spans):
            record = {
                "round": round_index,
                "id": index,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "item": item,
            }
            handle.write(json.dumps(record) + "\n")


def _after_nearest(tracer, args, kwargs, result) -> None:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    label = kwargs.get("canonical", args[2] if len(args) > 2 else None)
    with tracer._lock:
        tracer.labels.add((getattr(kind, "value", kind), label))


def _after_read_csv(tracer, args, kwargs, result) -> None:
    text = kwargs.get("text", args[0] if args else "")
    tracer.add("core.read_csv.chars", len(text))


def _after_sample(tracer, args, kwargs, result) -> None:
    tracer.add("prompt.rows_sampled", len(result.rows))


def _after_build(tracer, args, kwargs, result) -> None:
    tracer.add("prompt.rows_kept", rows_in_sample(result.data_sample))


def _after_join_baseline(tracer, args, kwargs, result) -> None:
    left, right = args[0], args[1]
    tracer.add("evaluate.jaccard_join.pairs_scored", left.arity * right.arity)
    tracer.add(
        "evaluate.jaccard_join.cells_read",
        len(left.rows) * left.arity + len(right.rows) * right.arity,
    )


# Counter whose growth during the span is recorded as ``<span>.nested``:
# candidates a nearest-term scan actually scored.
_NESTED_COUNT = {"core.nearest_term": "core.label_similarity.calls"}

_AFTER = {
    "core.nearest_term": _after_nearest,
    "core.read_csv": _after_read_csv,
    "core.sample_rows": _after_sample,
    "prompt.build": _after_build,
    "evaluate.jaccard_join": _after_join_baseline,
}
