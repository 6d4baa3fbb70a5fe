"""Seeded input generator for the tabnotate benchmark.

``generate(workload, seed, out_dir)`` writes everything one workload needs:
a synthetic ontology, CSV tables, a manifest, the stand-in model's answer
table and each item's expected prediction.  Equal seeds give byte-identical
files.  The program under test only ever sees the ontology, manifest and
tables; answers and expectations are read by the benchmark alone.

Expected predictions come from the independent oracles in
``tests/reference.py`` and are computed here, outside any timed region:
``nearest_label_ref`` for repaired labels, ``best_jaccard_pair_ref`` and
``best_levenshtein_pair_ref`` for the join baselines.  Exact answers,
pad/truncate and re-ask outcomes follow by construction.

Work per round is held steady across seeds by fixed quotas rather than
random draws: the number of misspelt labels, their length band, table
widths and row counts are constants; the seed picks which labels, which
values and in what order.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import random
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IRI = "https://dbpedia.org/ontology/"

# Workload name -> why it exists, as stated in BENCHMARK.json.
WORKLOADS = {
    w["name"]: w["why"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
}

N_CLASSES = 800
N_PROPERTIES = 2500

# annotate-repair: 3 table-class and 5 column-type items of 8 columns (a key
# column plus 7 typed ones).  7 of the 35 typed labels and 1 of the 3 class
# labels are misspelt (21%).  The 7 misspelt property occurrences are drawn
# from 4 distinct misspellings with Zipf-like counts 3, 2, 1, 1, so 3 of 7
# occurrences repeat an earlier one: the share a per-label memo could hit.
REPAIR_COLUMNS = 8
REPAIR_ROWS = 10
REPAIR_MISSPELLING_COUNTS = (3, 2, 1, 1)
# Misspelt labels all have this tokenized length, so the cost of a
# nearest-term scan does not swing with the seed.
REPAIR_LABEL_LENGTH = 13

# wide-sample: column-type tables of these widths and join pairs of these
# widths, all with WIDE_ROWS rows, sampled WIDE_SAMPLE_ROWS at a time by a
# seeded draw; every prompt overflows the 16,384-character budget.
WIDE_ROWS = 3000
WIDE_COLUMN_WIDTHS = (30, 40, 50, 60)
WIDE_JOIN_WIDTHS = ((30, 40), (50, 60))
WIDE_SAMPLE_ROWS = 500

# join-baselines: table pairs of these widths, BASELINE_ROWS rows each.
BASELINE_ROWS = 3000
BASELINE_WIDTHS = ((30, 24), (26, 28), (28, 26))

# live-http: small items; 2 of 10 per task force a re-ask (a clarification
# for unparsable answers, a violation re-ask for a nonexistent join column).
LIVE_ITEMS_PER_TASK = 10
LIVE_REASKS_PER_TASK = 2
LIVE_COLUMNS = 6
LIVE_ROWS = 20
STUB_DELAY_S = 0.020

_WORDS = (
    "abbey account actor address age agency aircraft album alias altitude anthem "
    "area army artist award band bank basin battle bay beach bird birth board "
    "body book border bridge budget building canal capital captain car castle "
    "cave chain channel chart church city class climate club coach coast code "
    "college colour comic company country county course court crew crop cup "
    "dam dance date death debut degree depth design director district dome "
    "draft drug editor election engine episode era event family farm fashion "
    "festival field film flag fleet flower food forest fort founder fuel game "
    "garden gender genre glacier goal grape group guard habitat harbour height "
    "hill history horse hospital hotel house island journal judge lake language "
    "launch law league length library licence lighthouse line list lock lord "
    "magazine manager map market mass mayor medal member metro mine minister "
    "mission model monarch motto mountain museum music name nation network "
    "number ocean office opera orbit order organ owner painting palace park "
    "party peak people period person place planet plant player poem police "
    "port position prize producer program province publisher race radio rank "
    "record region religion reserve river road rocket route royal ruler saint "
    "school sea season senator series ship shrine singer site size song source "
    "species sport squad stadium star state station status street studio style "
    "summit team temple term territory theatre title tower town track trade "
    "train tribe type university valley vehicle venue village volcano volume "
    "war weapon width wine winner writer year zone"
).split()

_PROSE_LABEL = "This table seems to list several related records."
_PROSE_LIST = "These columns describe a mix of records."


def _load_reference():
    path = ROOT / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("tabnotate_reference", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(f"reference oracles not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Frame:
    """The table shape the reference oracles read: headers, rows, arity."""

    def __init__(self, headers, rows):
        self.headers = tuple(headers)
        self.rows = tuple(rows)
        self.arity = len(self.headers)


def _camel(words, upper_first):
    head = words[0].capitalize() if upper_first else words[0]
    return head + "".join(w.capitalize() for w in words[1:])


def make_ontology(rng):
    """(class names, property names, word lists by name) for a synthetic ontology."""
    words_of: dict[str, tuple[str, ...]] = {}

    def draw(count, sizes, upper_first):
        names: list[str] = []
        seen: set[str] = set()
        while len(names) < count:
            words = tuple(rng.sample(_WORDS, rng.choice(sizes)))
            name = _camel(words, upper_first)
            if name.lower() not in seen:
                seen.add(name.lower())
                names.append(name)
                words_of[name] = words
        return names

    classes = draw(N_CLASSES, (1, 2, 2, 2), upper_first=True)
    properties = draw(N_PROPERTIES, (1, 2, 2, 2, 2, 2, 3, 3, 3), upper_first=False)
    return classes, properties, words_of


def ontology_text(classes, properties):
    return "".join(f"C\t{IRI}{c}\n" for c in classes) + "".join(
        f"P\t{IRI}{p}\n" for p in properties
    )


def misspell(rng, name, taken):
    """One or two letter edits of ``name`` that land outside ``taken``.

    Edits substitute or swap lower-case letters inside a word, so the
    tokenized length (and with it the cost of scoring the label) is kept.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        text = list(name)
        for _ in range(rng.choice((1, 2))):
            pos = rng.randrange(1, len(text) - 1)
            if not (text[pos].islower() and text[pos + 1].islower()):
                continue
            if rng.random() < 0.5:
                text[pos], text[pos + 1] = text[pos + 1], text[pos]
            else:
                text[pos] = rng.choice(letters.replace(text[pos], ""))
        word = "".join(text)
        if word.lower() not in taken and word.lower() != "unknown":
            return word


class NearestOracle:
    """``nearest_label_ref`` over one candidate list, with an exact pre-filter.

    The full reference scan costs about a second per label, so candidates
    that cannot reach the score of the label's known source term are
    dropped first.  Edit distance is at least ``max(|a|, |b|) - m``, with
    ``m`` the size of the multiset intersection of the two tokenized
    strings, so similarity is at most ``m / max(|a|, |b|)``.  A candidate
    below the source's score can neither win nor tie, so the reference
    argmax (and its lexicographic tie-break) over the rest is unchanged.
    """

    def __init__(self, reference, names):
        self._ref = reference
        self._names = list(names)
        self._tokens = [reference.tokenize_ref(n) for n in self._names]
        self._counts = [Counter(t) for t in self._tokens]
        self._memo: dict[str, str] = {}

    def nearest(self, label, source):
        if label not in self._memo:
            floor = self._ref.similarity_ref(label, source) - 1e-9
            tokens = self._ref.tokenize_ref(label)
            counts = Counter(tokens)
            subset = [source]
            for name, tok, cnt in zip(self._names, self._tokens, self._counts):
                longest = max(len(tokens), len(tok))
                shared = sum((counts & cnt).values())
                if name != source and (longest == 0 or shared / longest >= floor):
                    subset.append(name)
            self._memo[label] = self._ref.nearest_label_ref(subset, label)[0]
        return self._memo[label]


_KINDS = ("id", "category", "number", "text")


def _cells(rng, kind, rows, pool_size):
    if kind == "id":
        start = rng.randrange(10_000, 90_000)
        values = [f"i{start + i}" for i in range(rows)]
        rng.shuffle(values)
        return values
    if kind == "category":
        pool = rng.sample(_WORDS, min(pool_size, len(_WORDS)))
        return rng.choices(pool, k=rows)
    if kind == "number":
        return [str(v) for v in rng.choices(range(1, 100_000), k=rows)]
    pool = [f"{a} {b}" for a, b in zip(rng.choices(_WORDS, k=64), rng.choices(_WORDS, k=64))]
    return rng.choices(pool, k=rows)


def _random_columns(rng, count, rows):
    """Columns with equal shares of each value kind, so row width and set
    sizes (and with them the work per table) do not swing with the seed."""
    kinds = [_KINDS[i % len(_KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    return [_cells(rng, kind, rows, rng.randrange(3, 12)) for kind in kinds]


def _header_names(rng, count, taken):
    names = []
    while len(names) < count:
        name = "_".join(rng.sample(_WORDS, rng.choice((1, 2))))
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def _write_table(out_dir, rel, headers, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(zip(*columns))
    path = out_dir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(buf.getvalue().encode("utf-8"))


def _keyed_table(rng, out_dir, item_id, width, rows):
    """Table whose first header carries the item key the stand-in looks for."""
    headers = [f"ref_{item_id}"] + _header_names(rng, width - 1, set())
    columns = [[f"r{i}" for i in range(rows)]] + _random_columns(rng, width - 1, rows)
    rel = f"tables/{item_id}.csv"
    _write_table(out_dir, rel, headers, columns)
    return rel


def _type_list(labels):
    return "`" + ", ".join(labels) + "`"


def _dbo(label):
    return label if label == "Unknown" else f"dbo:{label}"


def _join_answer(left, right):
    return f"'{left}', right_on='{right}')"


def _join_pair(rng, out_dir, item_id, widths, rows, keyed):
    """Two tables with a planted high-cardinality key and a near-miss header."""
    left_w, right_w = widths
    extra = 1 if keyed else 0
    taken: set[str] = set()
    left_headers = _header_names(rng, left_w - 1 - extra, taken)
    right_headers = _header_names(rng, right_w - 1, taken)
    left_cols = _random_columns(rng, left_w - 1 - extra, rows)
    right_cols = _random_columns(rng, right_w - 1, rows)

    # Planted key: distinct ids with a seeded overlap between the sides.
    base = rng.randrange(100_000, 900_000)
    overlap = int(rows * rng.uniform(0.4, 0.8))
    left_ids = [f"k{base + i}" for i in range(rows)]
    right_ids = left_ids[:overlap] + [f"k{base + rows + i}" for i in range(rows - overlap)]
    rng.shuffle(left_ids)
    rng.shuffle(right_ids)
    key_left = rng.choice(_WORDS) + "_id"
    key_right = key_left[:3] + "_key"
    left_pos = rng.randrange(len(left_headers) + 1)
    right_pos = rng.randrange(len(right_headers) + 1)
    left_headers.insert(left_pos, key_left)
    left_cols.insert(left_pos, left_ids)
    right_headers.insert(right_pos, key_right)
    right_cols.insert(right_pos, right_ids)

    # Near-miss header: one right column renamed to an edit-1 variant of a
    # left header, so the edit-distance baseline has a tempting wrong pair.
    while True:
        victim = rng.choice([h for h in left_headers if h != key_left])
        near = victim[:-1] + ("x" if victim[-1] != "x" else "y")
        if near not in left_headers and near not in right_headers:
            break
    slot = rng.choice([i for i, h in enumerate(right_headers) if h != key_right])
    right_headers[slot] = near

    # Low-cardinality decoys sharing some values across the sides.
    shared = rng.sample(_WORDS, 6)
    decoy_left = rng.choice([i for i, h in enumerate(left_headers) if h != key_left])
    decoy_right = rng.choice([i for i, h in enumerate(right_headers) if h not in (key_right, near)])
    left_cols[decoy_left] = rng.choices(shared[: rng.randrange(2, 6)], k=rows)
    right_cols[decoy_right] = rng.choices(shared[rng.randrange(0, 4) :], k=rows)

    if keyed:
        left_headers.insert(0, f"ref_{item_id}")
        left_cols.insert(0, [f"r{i}" for i in range(rows)])
    left_rel, right_rel = f"tables/{item_id}-left.csv", f"tables/{item_id}-right.csv"
    _write_table(out_dir, left_rel, left_headers, left_cols)
    _write_table(out_dir, right_rel, right_headers, right_cols)
    left = _Frame(left_headers, zip(*left_cols))
    right = _Frame(right_headers, zip(*right_cols))
    return left_rel, right_rel, (key_left, key_right), left, right


def _annotate_repair(rng, out_dir, reference, onto):
    classes, properties, words_of = onto
    class_keys = {c.lower() for c in classes}
    prop_keys = {p.lower() for p in properties}
    in_band = lambda n: len(" ".join(words_of[n])) == REPAIR_LABEL_LENGTH
    prop_oracle = NearestOracle(reference, properties)
    class_oracle = NearestOracle(reference, classes)
    items, answers, expected = [], {}, {}

    # Table-class items: one clean, one misspelt (anchored), one unparsable (re-ask).
    for index, mode in enumerate(rng.sample(["clean", "misspelt", "unparsable"], 3)):
        item_id = f"ar{index:05d}"
        gold = rng.choice([c for c in classes if in_band(c)] if mode == "misspelt" else classes)
        rel = _keyed_table(rng, out_dir, item_id, REPAIR_COLUMNS, REPAIR_ROWS)
        clean = f"`{IRI}{gold}`"
        if mode == "misspelt":
            wrong = misspell(rng, gold, class_keys)
            answers[item_id] = {"first": f"`{IRI}{wrong}`", "reask": None}
            expected[item_id] = class_oracle.nearest(wrong, gold)
        elif mode == "unparsable":
            answers[item_id] = {"first": _PROSE_LABEL, "reask": clean}
            expected[item_id] = gold
        else:
            answers[item_id] = {"first": clean, "reask": None}
            expected[item_id] = gold
        items.append({"id": item_id, "task": "table-class", "table": rel, "gold": gold})

    # Column-type items: two plain, one unparsable (re-ask), one short list
    # (padded with Unknown), one long list (truncated).
    modes = rng.sample(["plain", "plain", "unparsable", "pad", "truncate"], 5)
    typed = REPAIR_COLUMNS - 1
    golds = [[rng.choice(properties) for _ in range(typed)] for _ in modes]
    # Slots that survive pad/truncate and so reach the repair path.
    slots = [(i, j) for i, mode in enumerate(modes) for j in range(typed - (mode == "pad"))]
    chosen = rng.sample(slots, sum(REPAIR_MISSPELLING_COUNTS))
    band = [p for p in properties if in_band(p)]
    occurrences = []
    for count in REPAIR_MISSPELLING_COUNTS:
        source = rng.choice(band)
        occurrences += [(source, misspell(rng, source, prop_keys))] * count
    labels = [["Unknown"] + list(g) for g in golds]
    predicted = [["Unknown"] + list(g) for g in golds]
    for (i, j), (source, wrong) in zip(chosen, occurrences):
        golds[i][j] = source
        labels[i][j + 1] = wrong
        predicted[i][j + 1] = prop_oracle.nearest(wrong, source)
    for index, mode in enumerate(modes):
        item_id = f"ar{index + 3:05d}"
        rel = _keyed_table(rng, out_dir, item_id, REPAIR_COLUMNS, REPAIR_ROWS)
        answer = [_dbo(x) for x in labels[index]]
        prediction = predicted[index]
        if mode == "pad":
            answer, prediction = answer[:-1], prediction[:-1] + ["Unknown"]
        elif mode == "truncate":
            answer = answer + [_dbo(rng.choice(properties))]
        if mode == "unparsable":
            answers[item_id] = {"first": _PROSE_LIST, "reask": _type_list(answer)}
        else:
            answers[item_id] = {"first": _type_list(answer), "reask": None}
        expected[item_id] = prediction
        gold = ["Unknown"] + golds[index]
        items.append({"id": item_id, "task": "column-type", "table": rel, "gold": gold})

    distinct = len(REPAIR_MISSPELLING_COUNTS)
    total = sum(REPAIR_MISSPELLING_COUNTS)
    params = {
        "classes": N_CLASSES,
        "properties": N_PROPERTIES,
        "columns": REPAIR_COLUMNS,
        "rows": REPAIR_ROWS,
        "misspelt_labels": total + 1,
        "labels": 3 + typed * len(modes),
        "misspelling_counts": list(REPAIR_MISSPELLING_COUNTS),
        "recurrence_share": (total - distinct) / total,
        "jobs": 1,
    }
    return items, answers, {"model": expected}, params


def _wide_sample(rng, out_dir, onto):
    _, properties, _ = onto
    items, answers, expected = [], {}, {}
    for index, width in enumerate(WIDE_COLUMN_WIDTHS):
        item_id = f"ws{index:05d}"
        rel = _keyed_table(rng, out_dir, item_id, width, WIDE_ROWS)
        gold = ["Unknown"] + [rng.choice(properties) for _ in range(width - 1)]
        answers[item_id] = {"first": _type_list([_dbo(g) for g in gold]), "reask": None}
        expected[item_id] = gold
        items.append({"id": item_id, "task": "column-type", "table": rel, "gold": gold})
    for index, widths in enumerate(WIDE_JOIN_WIDTHS, start=len(WIDE_COLUMN_WIDTHS)):
        item_id = f"ws{index:05d}"
        left, right, key, _, _ = _join_pair(rng, out_dir, item_id, widths, WIDE_ROWS, keyed=True)
        answers[item_id] = {"first": _join_answer(*key), "reask": None}
        expected[item_id] = [list(key)]
        items.append({"id": item_id, "task": "join", "left": left, "right": right, "gold": [list(key)]})
    params = {
        "rows": WIDE_ROWS,
        "column_type_widths": list(WIDE_COLUMN_WIDTHS),
        "join_widths": [list(w) for w in WIDE_JOIN_WIDTHS],
        "sample_rows": WIDE_SAMPLE_ROWS,
        "sampling": "seeded-random",
        "jobs": 1,
    }
    return items, answers, {"model": expected}, params


def _join_baselines(rng, out_dir, reference):
    items, by_system = [], {"jaccard": {}, "levenshtein": {}}
    for index, widths in enumerate(BASELINE_WIDTHS):
        item_id = f"jb{index:05d}"
        left_rel, right_rel, key, left, right = _join_pair(
            rng, out_dir, item_id, widths, BASELINE_ROWS, keyed=False
        )
        by_system["jaccard"][item_id] = [list(reference.best_jaccard_pair_ref(left, right))]
        by_system["levenshtein"][item_id] = [list(reference.best_levenshtein_pair_ref(left, right))]
        items.append(
            {"id": item_id, "task": "join", "left": left_rel, "right": right_rel, "gold": [list(key)]}
        )
    params = {"rows": BASELINE_ROWS, "widths": [list(w) for w in BASELINE_WIDTHS]}
    return items, {}, by_system, params


def _live_http(rng, out_dir, onto):
    classes, properties, _ = onto
    items, answers, expected = [], {}, {}
    n = LIVE_ITEMS_PER_TASK
    reask = lambda: set(rng.sample(range(n), LIVE_REASKS_PER_TASK))
    tc_reask, ct_reask, join_reask = reask(), reask(), reask()
    for index in range(n):
        item_id = f"lh{index:05d}"
        rel = _keyed_table(rng, out_dir, item_id, LIVE_COLUMNS, LIVE_ROWS)
        gold = rng.choice(classes)
        clean = f"`{IRI}{gold}`"
        first = _PROSE_LABEL if index in tc_reask else clean
        answers[item_id] = {"first": first, "reask": clean}
        expected[item_id] = gold
        items.append({"id": item_id, "task": "table-class", "table": rel, "gold": gold})
    for index in range(n):
        item_id = f"lh{n + index:05d}"
        rel = _keyed_table(rng, out_dir, item_id, LIVE_COLUMNS, LIVE_ROWS)
        gold = ["Unknown"] + [rng.choice(properties) for _ in range(LIVE_COLUMNS - 1)]
        clean = _type_list([_dbo(g) for g in gold])
        first = _PROSE_LIST if index in ct_reask else clean
        answers[item_id] = {"first": first, "reask": clean}
        expected[item_id] = gold
        items.append({"id": item_id, "task": "column-type", "table": rel, "gold": gold})
    for index in range(n):
        item_id = f"lh{2 * n + index:05d}"
        left, right, key, _, _ = _join_pair(
            rng, out_dir, item_id, (LIVE_COLUMNS, LIVE_COLUMNS), LIVE_ROWS, keyed=True
        )
        clean = _join_answer(*key)
        first = _join_answer(key[0] + "_x", key[1]) if index in join_reask else clean
        answers[item_id] = {"first": first, "reask": clean}
        expected[item_id] = [list(key)]
        items.append({"id": item_id, "task": "join", "left": left, "right": right, "gold": [list(key)]})
    params = {
        "items_per_task": n,
        "reasks_per_task": LIVE_REASKS_PER_TASK,
        "columns": LIVE_COLUMNS,
        "rows": LIVE_ROWS,
        "stub_delay_s": STUB_DELAY_S,
        "jobs": "nproc",
    }
    return items, answers, {"model": expected}, params


def _dump(path, obj):
    path.write_bytes((json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8"))


def generate(workload, seed, out_dir):
    """Write the inputs for ``workload`` under ``out_dir``; return its description."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    reference = _load_reference()
    if workload == "join-baselines":
        items, answers, expected, params = _join_baselines(rng, out_dir, reference)
    else:
        onto = make_ontology(rng)
        (out_dir / "ontology.tsv").write_bytes(ontology_text(*onto[:2]).encode("utf-8"))
        if workload == "annotate-repair":
            items, answers, expected, params = _annotate_repair(rng, out_dir, reference, onto)
        elif workload == "wide-sample":
            items, answers, expected, params = _wide_sample(rng, out_dir, onto)
        else:
            items, answers, expected, params = _live_http(rng, out_dir, onto)
    manifest = "".join(
        json.dumps({"headers": True, **item}, sort_keys=True) + "\n" for item in items
    )
    (out_dir / "manifest.jsonl").write_bytes(manifest.encode("utf-8"))
    _dump(out_dir / "answers.json", answers)
    _dump(out_dir / "expected.json", expected)
    description = {"workload": workload, "seed": seed, "why": WORKLOADS[workload], **params}
    _dump(out_dir / "workload.json", description)
    return description
