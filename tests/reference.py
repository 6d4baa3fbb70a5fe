"""Independent reference implementations used as test oracles.

These deliberately avoid the package's code paths: straightforward
formula-level implementations, full DP matrices, and exhaustive scans.
"""

from __future__ import annotations

import csv
import io


def normalize_ref(raw: str) -> str:
    """``normalize_label`` as it was written with two fixpoint loops: the
    inner one strips whitespace, wrappers and every trailing ``.`` or ``,``
    until nothing changes; the outer one runs it, then strips a prefix or
    cuts an IRI, until nothing changes."""
    from tabnotate.core import EmptyLabel

    def strip_decoration(text: str) -> str:
        previous = None
        while text != previous:
            previous = text
            text = text.strip().strip("`'\"").strip()
            while text and text[-1] in ".,":
                text = text[:-1].rstrip()
        return text

    text = raw
    previous = None
    while text != previous:
        previous = text
        text = strip_decoration(text)
        lowered = text.lower()
        if lowered.startswith("dbo:"):
            text = text[len("dbo:"):]
        elif lowered.startswith("https://dbpedia.org/ontology/"):
            text = text[len("https://dbpedia.org/ontology/"):]
        elif lowered.startswith(("http://", "https://")):
            text = text.rsplit("/", 1)[-1]
    if not text:
        raise EmptyLabel(f"nothing left after normalizing {raw!r}")
    return text


def levenshtein_ref(a: str, b: str) -> int:
    """Full-matrix dynamic program, unit costs."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def tokenize_ref(label: str) -> str:
    """Manual scan: split on whitespace/underscores and camel boundaries."""
    words: list[str] = []
    current: list[str] = []

    def flush() -> None:
        if current:
            words.append("".join(current))
            current.clear()

    chars = [c for c in label]
    for index, char in enumerate(chars):
        if char.isspace() or char == "_":
            flush()
            continue
        if current:
            prev = current[-1]
            nxt = chars[index + 1] if index + 1 < len(chars) else ""
            lower_to_upper = (prev.islower() or prev.isdigit()) and char.isupper()
            acronym_end = (
                prev.isupper() and char.isupper() and nxt.islower()
            )
            if lower_to_upper or acronym_end:
                flush()
        current.append(char)
    flush()
    return " ".join(w.lower() for w in words)


def similarity_ref(a: str, b: str) -> float:
    ta, tb = tokenize_ref(a), tokenize_ref(b)
    if ta == tb:
        return 1.0
    denom = max(len(ta), len(tb))
    if denom == 0:
        return 1.0
    return 1.0 - levenshtein_ref(ta, tb) / denom


def nearest_label_ref(candidates: list[str], label: str) -> tuple[str, float]:
    """Exhaustive argmax with lexicographic tie-break."""
    best_name = None
    best_score = -1.0
    for name in sorted(candidates):
        score = similarity_ref(label, name)
        if score > best_score:
            best_name, best_score = name, score
    assert best_name is not None
    return best_name, best_score


def weighted_metrics_ref(
    predictions: list[str], golds: list[str]
) -> tuple[float, float, float]:
    """Direct per-class formulas, support-weighted."""
    total = len(golds)
    assert total > 0
    precision_sum = recall_sum = f1_sum = 0.0
    for cls in set(golds):
        tp = sum(1 for p, g in zip(predictions, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(predictions, golds) if p == cls and g != cls)
        support = sum(1 for g in golds if g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support
        f1 = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
        precision_sum += support * precision
        recall_sum += support * recall
        f1_sum += support * f1
    return precision_sum / total, recall_sum / total, f1_sum / total


def jaccard_ref(x: set[str], y: set[str]) -> float:
    if not x and not y:
        return 0.0
    return len(x & y) / len(x | y)


def best_jaccard_pair_ref(left, right) -> tuple[str, str]:
    """Exhaustive scan over all column pairs on distinct non-empty values."""
    def names(table):
        return list(table.headers) if table.headers else [str(i) for i in range(table.arity)]

    def column_values(table, index):
        return {row[index] for row in table.rows if row[index]}

    scored = []
    for i, lname in enumerate(names(left)):
        for j, rname in enumerate(names(right)):
            score = jaccard_ref(column_values(left, i), column_values(right, j))
            scored.append((-score, lname, rname))
    scored.sort()
    return scored[0][1], scored[0][2]


def best_levenshtein_pair_ref(left, right) -> tuple[str, str]:
    """Exhaustive scan over all header pairs on lowercased edit distance."""
    scored = []
    for lname in left.headers:
        for rname in right.headers:
            scored.append((levenshtein_ref(lname.lower(), rname.lower()), lname, rname))
    scored.sort()
    return scored[0][1], scored[0][2]


def read_csv_ref(text: str, name: str, headers: bool):
    """``(headers, rows)`` of the text as :func:`csv.reader` reads it, checked
    row by row against the table invariants; raises ``ValueError`` with the
    message ``read_csv`` must give."""
    try:
        records = [tuple(record) for record in csv.reader(io.StringIO(text, newline=""))]
    except csv.Error as exc:
        raise ValueError(f"{name}: {exc}") from None
    head = None
    if headers:
        if not records:
            raise ValueError(f"{name}: expected a header row, got empty input")
        head, records = records[0], records[1:]
        if not head:
            raise ValueError("header row must have at least one column")
    arity = len(head) if head is not None else None
    for i, row in enumerate(records):
        if arity is None:
            arity = len(row)
            if arity == 0:
                raise ValueError("rows must have at least one cell")
        if len(row) != arity:
            raise ValueError(f"row {i} has {len(row)} cells, expected {arity}")
    return head, tuple(records)


def fit_ref(build, headers, samples):
    """What ``prompt._fit`` returns, by trying every row count.

    Every sampled row is written by its own ``csv.writer`` with a CRLF
    terminator, which quotes a cell holding either line break, cells over
    ``MAX_CELL_CHARS`` cut to one less and the marker.  First, while the
    prompt of the first row record of each table, cut to 8 characters, is
    too long, every header record is cut to a cap that starts at the
    longest header record and halves, down to 8.  Then each table keeps
    its first n rows (all, if it has fewer) for the largest n >= 1 whose
    prompt fits ``CHAR_BUDGET``, or one row if none does; then, while the
    prompt is too long, every kept row record is cut to a cap that starts
    at the longest one and halves, down to 8.  A record is cut whole, line
    breaks and all.  A prompt holds each body whole, so no n whose bodies
    alone pass the budget is tried.
    """
    from tabnotate import prompt

    def cut(text: str, limit: int) -> str:
        return text if len(text) <= limit else text[: limit - 1] + prompt.TRUNCATION_MARKER

    def capped(texts, cap: int) -> str:
        return "\n".join(cut(text, cap) for text in texts)

    def longest(texts) -> int:
        return max((len(text) for text in texts if text), default=0)

    def record(row) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([cut(c, prompt.MAX_CELL_CHARS) for c in row])
        return buf.getvalue().removesuffix("\r\n")

    def fits(components) -> bool:
        return len(prompt.assemble(components)) <= prompt.CHAR_BUDGET

    records = [[record(row) for row in sample.rows] for sample in samples]
    least = [capped(kept[:1], 8) for kept in records]
    full, cap = headers, longest(headers)
    while not fits(build(headers, least)) and cap > 8:
        cap = max(8, cap // 2)
        headers = [header and cut(header, cap) for header in full]
    fitting = [1]
    for n in range(1, max(map(len, records)) + 1):
        bodies = ["\n".join(kept[:n]) for kept in records]
        if sum(map(len, bodies)) > prompt.CHAR_BUDGET:
            break
        if fits(build(headers, bodies)):
            fitting.append(n)
    records = [kept[: max(fitting)] for kept in records]
    components = build(headers, ["\n".join(kept) for kept in records])
    cap = longest(text for kept in records for text in kept)
    while not fits(components) and cap > 8:
        cap = max(8, cap // 2)
        components = build(headers, [capped(kept, cap) for kept in records])
    return components
