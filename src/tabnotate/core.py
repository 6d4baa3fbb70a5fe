"""Tabular data model, ontology vocabulary, row sampling, and label matching.

Everything in this module is immutable after construction and side-effect
free, so values can be shared freely across worker threads.  The exceptions
are derived and change no answer: :func:`nearest_term` keeps one name index
per kind on the :class:`Ontology` it searches, and a :class:`Table` keeps
the rows it splits when :attr:`Table.rows` is first read;
:meth:`Table.column_sets`, which gives each column's distinct cells, splits
no row and keeps nothing.  The index tokenizes a kind's names in one pass,
groups them by tokenized length, packs a group into one int the first time
a query visits it, and memoizes each label's answer; a packed group builds
a character's mask the first time a scan reads that character, and a scan
scores every name of the group at once.
That scan, :class:`_Packed`, is the package's one edit-distance recurrence:
:func:`edit_distance` runs it on a single name, and the ``levenshtein``
join baseline on the right table's headers.
"""

from __future__ import annotations

import csv
import io
import random
import re
import struct
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

DBPEDIA_ONTOLOGY_IRI = "https://dbpedia.org/ontology/"
DBPEDIA_PREFIX = "dbo:"


class MalformedIri(ValueError):
    """An ontology line does not contain a usable IRI."""


class DuplicateTerm(ValueError):
    """Two terms of the same kind collide on case-insensitive local name."""


class EmptyLabel(ValueError):
    """Nothing remains of a label after stripping decoration."""


class EmptyOntologyKind(ValueError):
    """The requested term kind has no entries to match against."""


class EmptyTable(ValueError):
    """The table has neither rows nor headers to work with."""


class MissingHeaders(ValueError):
    """The operation needs named columns but the table has no header row."""


class TermKind(Enum):
    CLASS = "class"
    PROPERTY = "property"


@dataclass(frozen=True)
class OntologyTerm:
    """One vocabulary entry: a table class or a column property.

    ``local_name`` is derived, not passed: the IRI segment after the last
    ``/``, which must not be empty.
    """

    iri: str
    local_name: str = field(init=False)
    kind: TermKind

    def __post_init__(self) -> None:
        if not self.iri.startswith(("http://", "https://")):
            raise MalformedIri(f"IRI lacks an http(s) scheme: {self.iri!r}")
        object.__setattr__(self, "local_name", self.iri.rsplit("/", 1)[-1])
        if not self.local_name:
            raise MalformedIri(f"IRI has an empty local name: {self.iri!r}")


@dataclass(frozen=True)
class Ontology:
    """Reference vocabulary of table classes and column properties.

    ``classes`` and ``properties`` map case-folded local names to terms;
    collisions within a kind are rejected at construction.  The terms never
    change; :func:`nearest_term` keeps a kind's :class:`_NameIndex` in
    ``_indexes``, a cache that lives and dies with the instance and takes
    no part in equality or ``repr``.
    """

    classes: Mapping[str, OntologyTerm] = field(default_factory=dict)
    properties: Mapping[str, OntologyTerm] = field(default_factory=dict)
    _indexes: dict[TermKind, _NameIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for kind, bucket in ((TermKind.CLASS, self.classes), (TermKind.PROPERTY, self.properties)):
            for key, term in bucket.items():
                if term.kind is not kind or key != term.local_name.lower():
                    raise ValueError(f"misfiled {kind.value} entry: {key!r} -> {term}")

    @classmethod
    def from_terms(cls, terms: Iterable[OntologyTerm]) -> Ontology:
        classes: dict[str, OntologyTerm] = {}
        properties: dict[str, OntologyTerm] = {}
        for term in terms:
            bucket = classes if term.kind is TermKind.CLASS else properties
            key = term.local_name.lower()
            if key in bucket:
                raise DuplicateTerm(
                    f"duplicate {term.kind.value} local name (case-insensitive): "
                    f"{term.local_name!r}"
                )
            bucket[key] = term
        return cls(classes=classes, properties=properties)

    def terms(self, kind: TermKind) -> tuple[OntologyTerm, ...]:
        bucket = self.classes if kind is TermKind.CLASS else self.properties
        return tuple(bucket.values())


class OntologyFormat(Enum):
    LINE_DELIMITED_IRI = "line-delimited-iri"
    TAB_SEPARATED_KIND_IRI = "tab-separated-kind-iri"


_KIND_TAGS = {"C": TermKind.CLASS, "P": TermKind.PROPERTY}


def _lines(source: str) -> list[str]:
    """``source`` cut only at ``\\n``, ``\\r\\n`` and ``\\r`` (by one split
    if it holds no ``\\r``), so a form feed, U+0085 or U+2028 stays inside."""
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.split("\n")


def _content_lines(source: str, comments: bool = False) -> Iterator[tuple[int, str]]:
    """Each nonblank line of ``source`` by :func:`_lines`, stripped, with its
    1-based number, and with ``comments`` no line that starts with ``#``."""
    for lineno, raw_line in enumerate(_lines(source), start=1):
        line = raw_line.strip()
        if line and not (comments and line.startswith("#")):
            yield lineno, line


def detect_ontology_format(source: str) -> OntologyFormat:
    """Tab-separated when any content line carries a kind tag, else plain."""
    if any("\t" in line for _, line in _content_lines(source, comments=True)):
        return OntologyFormat.TAB_SEPARATED_KIND_IRI
    return OntologyFormat.LINE_DELIMITED_IRI


def load_ontology(
    source: str,
    format: OntologyFormat = OntologyFormat.LINE_DELIMITED_IRI,
) -> Ontology:
    """Parse newline-delimited ontology text into an :class:`Ontology`.

    Blank lines and ``#`` comments are skipped.  In the line-delimited
    format every line is a class IRI; the tab-separated format prefixes
    each IRI with ``C\\t`` or ``P\\t`` to pick the term kind.
    """
    terms: list[OntologyTerm] = []
    for lineno, line in _content_lines(source, comments=True):
        if format is OntologyFormat.TAB_SEPARATED_KIND_IRI:
            tag, _, rest = line.partition("\t")
            kind = _KIND_TAGS.get(tag.strip())
            if kind is None or not rest.strip():
                raw_line = _lines(source)[lineno - 1]
                raise MalformedIri(
                    f"line {lineno}: expected 'C<TAB>iri' or 'P<TAB>iri', got {raw_line!r}"
                )
            iri = rest.strip()
        else:
            kind = TermKind.CLASS
            iri = line
        try:
            terms.append(OntologyTerm(iri, kind))
        except MalformedIri as exc:
            raise MalformedIri(f"line {lineno}: {exc}") from None
    return Ontology.from_terms(terms)


_WRAPPER_CHARS = "`'\""
_TRAILING_PUNCT = (".", ",")


def normalize_label(raw: str) -> str:
    """Reduce a model-emitted fragment to a bare ontology label.

    Each pass strips surrounding whitespace, quotes and backticks, one
    trailing ``.`` or ``,``, then, ignoring case, the ``dbo:`` prefix or the
    ``https://dbpedia.org/ontology/`` stem; any other ``http(s)`` IRI is cut
    to its segment after the last ``/``.  Passes repeat until nothing
    changes, and :class:`EmptyLabel` is raised when nothing survives.
    """
    text = raw
    previous = None
    while text != previous:
        previous = text
        text = text.strip().strip(_WRAPPER_CHARS).strip()
        if text.endswith(_TRAILING_PUNCT):
            text = text[:-1].rstrip()
        lowered = text.lower()
        if lowered.startswith(DBPEDIA_PREFIX):
            text = text[len(DBPEDIA_PREFIX):]
        elif lowered.startswith(DBPEDIA_ONTOLOGY_IRI):
            text = text[len(DBPEDIA_ONTOLOGY_IRI):]
        elif lowered.startswith(("http://", "https://")):
            text = text.rsplit("/", 1)[-1]
    if not text:
        raise EmptyLabel(f"nothing left after normalizing {raw!r}")
    return text


def lookup(ontology: Ontology, kind: TermKind, canonical: str) -> OntologyTerm | None:
    """Case-insensitive exact match on local name; absence is ``None``."""
    bucket = ontology.classes if kind is TermKind.CLASS else ontology.properties
    return bucket.get(canonical.lower())


# Before an upper-case letter that follows a lower-case letter or a digit, or
# follows a capital and precedes a lower-case letter.  The capital is tested
# first, since most positions fail it.
_CASE_BOUNDARY_RE = re.compile(r"(?=[A-Z])(?:(?<=[a-z0-9])|(?<=[A-Z])(?=.[a-z]))", re.S)


def _splits_before(text: str, i: int) -> bool:
    """:data:`_CASE_BOUNDARY_RE` for any script, through ``str`` case tests."""
    prev, char, nxt = text[i - 1], text[i], text[i + 1 : i + 2]
    return char.isupper() and (
        prev.islower() or prev.isdigit() or (prev.isupper() and nxt.islower())
    )


def _split_cases(text: str) -> str:
    """``text`` with a space inserted at every case boundary."""
    if text.isascii():
        return _CASE_BOUNDARY_RE.sub(" ", text)
    return "".join(
        " " + char if i and _splits_before(text, i) else char
        for i, char in enumerate(text)
    )


def tokenize_label(label: str) -> str:
    """Lowercased words of a label, joined by single spaces.

    Words split on whitespace and ``_``, before an upper-case letter that
    follows a lower-case letter or a digit, and before the last capital of
    an acronym that precedes a lower-case letter, so ``IUCNStatus`` gives
    ``iucn status`` and ``ISO3166Code`` gives ``iso3166 code``.  Every
    other character is kept.  The work is done by :func:`_tokenize_names`.
    """
    return _tokenize_names([label])[0]


def _tokenize_names(names: list[str]) -> list[str]:
    """:func:`tokenize_label` of each name, in one pass.

    Each name's ``_`` and whitespace runs become single spaces, trimmed at
    its ends, and the names are then split at case boundaries and
    lowercased as one text, a name a line.  Whitespace is uncased, not
    case-ignorable and never beside a case boundary, so collapsing it first
    moves no boundary and changes no lowercasing (final sigma included).
    An empty list joins to one empty line, which the slice drops.
    """
    text = "\n".join([" ".join(name.replace("_", " ").split()) for name in names])
    return _split_cases(text).lower().split("\n")[: len(names)]


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit-cost insert, delete, and substitute."""
    return _Packed([(b, b)]).nearest(a)[0]


def label_similarity(a: str, b: str) -> float:
    """Label similarity in [0, 1]: 1 - edit distance / the longer length.

    Labels are compared in their tokenized forms, so ``iucnStatus`` and
    ``IUCN_status`` are treated as equal; two empty forms score 1.0.
    """
    return nearest_name((b,), a)[1]


_POPCOUNT = bytes(bin(byte).count("1") for byte in range(256))


class _Packed:
    """Names whose tokenized forms all have one length, ``length`` (read
    from the first), packed for a scan of every name at once.

    Name ``i``, in name order, takes slot ``i``: the ``width = 8 * (length
    // 8 + 1)`` bits from bit ``i * width``.  Its characters fill the low
    ``length`` bits, so a slot is byte-aligned and keeps at least one spare
    bit above them.  Bit ``j`` of slot ``i`` is set in ``masks[c]`` where
    character ``j`` of name ``i`` is ``c``; a character's mask is built the
    first time a scan reads it, and is 0 for a character no name holds.
    ``full`` holds every character bit and ``lows`` every slot's bit 0.
    """

    __slots__ = ("names", "length", "masks", "full", "lows", "_text", "_zeros")

    def __init__(self, group: list[tuple[str, str]]) -> None:
        self.length = length = len(group[0][1])
        width = 8 * (length // 8 + 1)
        self.names = tuple(name for name, _ in group)
        self.lows = ((1 << width * len(group)) - 1) // ((1 << width) - 1)
        self.full = self.lows * ((1 << length) - 1)
        # Most significant bit first, as ``int(..., 2)`` reads it.  The
        # padding is "\0", and ``& full`` keeps it out of a name's "\0" mask;
        # the last slot's padding would be leading zeros, so it is left out.
        padding = "\0" * (width - length)
        self._text = padding.join(tokens for _, tokens in group)[::-1]
        self._zeros = dict.fromkeys(map(ord, set(self._text)), "0")
        self.masks: dict[str, int] = {}

    def _mask(self, char: str) -> int:
        """Build ``masks[char]`` and publish it by one dict assignment, so
        threads sharing the group at worst build the same int twice."""
        mask = 0
        if ord(char) in self._zeros:
            bits = self._text.translate({**self._zeros, ord(char): "1"})
            mask = int(bits, 2) & self.full
        self.masks[char] = mask
        return mask

    def nearest(self, query: str) -> tuple[int, str]:
        """Least edit distance from ``query`` to a packed name, and the
        first name at that distance.

        Each slot runs Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's
        (2003) form, with its name as pattern and ``query`` as text, and all
        slots run in one int: the multiple-pattern packing of Hyyrö,
        Fredriksson and Navarro ("Increased bit-parallelism for approximate
        and multiple string matching", ACM JEA 10, 2005).  A carry out of a
        slot stops in its spare bit, which ``& full`` clears; the shift sets
        each slot's bit 0, the +1 of the first row.  Complements are taken
        by ``^ full``: the bits it leaves outside ``full`` reach no character
        bit but a slot's bit 0, which the shift sets anyway.  A slot's
        distance is
        ``len(query) + P - M`` for ``P`` and ``M`` the popcounts of its
        ``pv`` and ``mv``.
        """
        masks, full, lows, length = self.masks, self.full, self.lows, self.length
        pv, mv = full, 0
        for char in query:
            eq = masks[char] if char in masks else self._mask(char)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (xh | pv) ^ full
            mh = pv & xh
            ph = ph << 1 | lows
            pv = (mh << 1 | (xv | ph) ^ full) & full
            mv = ph & xv
        # Each byte of ``pv`` and of ``full ^ mv`` becomes its popcount, and
        # the bytes of a slot are summed into its lowest field, which then
        # holds ``length + P - M``.  Any ``slot`` consecutive bytes hold at
        # most ``length`` character bits, so no sum carries while a field
        # holds ``2 * length``: a byte below length 128, else eight.
        slot = length // 8 + 1
        size = slot * len(self.names)
        counts = sum(
            int.from_bytes(bits.to_bytes(size, "little").translate(_POPCOUNT), "little")
            for bits in (pv, full ^ mv)
        )
        field = 1 if 2 * length < 256 else 8
        if field == 8:
            wide = bytearray(8 * size)
            wide[::8] = counts.to_bytes(size, "little")
            counts = int.from_bytes(wide, "little")
        total = counts
        for j in range(1, slot):
            total += counts >> 8 * field * j
        data = total.to_bytes(field * size, "little")
        lanes = data[::slot] if field == 1 else struct.unpack(f"<{size}Q", data)[::slot]
        low = min(lanes)
        return len(query) - length + low, self.names[lanes.index(low)]


class _NameIndex:
    """Candidate names, tokenized in one pass (see :func:`_tokenize_names`)
    and grouped by tokenized length in name order; a group is packed into a
    :class:`_Packed` the first time a query visits it, and each label's
    answer is memoized.

    A packed group, each of its masks and each answer are published by one
    dict assignment, so threads sharing an index never read half of one.
    """

    def __init__(self, names: Iterable[str]) -> None:
        groups: dict[int, list[tuple[str, str]]] = {}
        ordered = sorted(names)
        for name, tokens in zip(ordered, _tokenize_names(ordered)):
            groups.setdefault(len(tokens), []).append((name, tokens))
        self.groups = groups
        self.packed: dict[int, _Packed] = {}
        self.memo: dict[str, tuple[str, float]] = {}

    def nearest(self, label: str) -> tuple[str, float]:
        """:func:`nearest_name` over the indexed names, memoized by label."""
        if label in self.memo:
            return self.memo[label]
        query = tokenize_label(label)
        la = len(query)
        best_name, best = "", -1.0
        for lb in sorted(self.groups, key=lambda lb: (abs(la - lb), lb)):
            denom = max(la, lb) or 1
            # The score at the least possible distance, |la - lb|, in the
            # same float arithmetic: a group it cannot lift above ``best``,
            # nor to ``best`` with a smaller first name, loses.
            bound = 1.0 - abs(la - lb) / denom
            if bound < best or bound == best and self.groups[lb][0][0] >= best_name:
                continue
            packed = self.packed.get(lb)
            if packed is None:
                packed = self.packed[lb] = _Packed(self.groups[lb])
            distance, name = packed.nearest(query)
            score = 1.0 - distance / denom
            if score > best or score == best and name < best_name:
                best_name, best = name, score
        if best < 0.0:
            raise ValueError("no names to match against")
        self.memo[label] = best_name, best
        return best_name, best


def nearest_name(names: Iterable[str], label: str) -> tuple[str, float]:
    """Best-scoring name under :func:`label_similarity` and its score.

    Ties break toward the lexicographically smallest name.  Raises
    :class:`ValueError` when ``names`` is empty.
    """
    return _NameIndex(names).nearest(label)


def nearest_term(
    ontology: Ontology, kind: TermKind, canonical: str
) -> tuple[OntologyTerm, float]:
    """Term of the requested kind whose local name is :func:`nearest_name`.

    The kind's names are indexed on the ontology at the first call, and the
    index packs its groups, builds its masks and memoizes its answers as
    queries need them (see :class:`_NameIndex`).
    """
    index = ontology._indexes.get(kind)
    if index is None:
        index = ontology._indexes[kind] = _NameIndex(t.local_name for t in ontology.terms(kind))
    if not index.groups:
        raise EmptyOntologyKind(f"ontology has no {kind.value} terms")
    name, score = index.nearest(canonical)
    return lookup(ontology, kind, name), score


class _Lines(list):
    """Quote-free CSV lines that a :class:`Table` keeps as its rows."""


# Rows that :meth:`Table.column_sets` reads at a time: enough that one split
# and one stride slice per column serve many rows, few enough that the cells
# of a chunk stay a small list.
_CHUNK_ROWS = 256


def _row(record: str | tuple[str, ...]) -> tuple[str, ...]:
    """A row's cells: a line is split now, and a blank line is ``()``."""
    if isinstance(record, tuple):
        return record
    return tuple(record.split(",")) if record else ()


class Table:
    """A named relation of text cells with an optional header row.

    All rows share one arity; when headers are present they share it too.
    A table may be header-only (no rows).  Tables are immutable and compare,
    hash and print as ``(name, headers, rows)``.  Rows that :func:`read_csv`
    keeps as lines are split only when read: :attr:`row_count` and
    :meth:`row` split no other line, :meth:`column_sets` splits none, and
    :attr:`rows` splits them all.
    """

    def __init__(
        self, name: str, headers: Iterable[str] | None, rows: Iterable[Iterable[str]]
    ) -> None:
        lines = rows if isinstance(rows, _Lines) else None
        rows = tuple(map(tuple, rows)) if lines is None else lines
        headers = None if headers is None else tuple(headers)
        vars(self).update(name=name, headers=headers, _rows=rows)
        if headers == ():
            raise ValueError("header row must have at least one column")
        if headers is None and rows and not self.row(0):
            raise ValueError("rows must have at least one cell")
        arity = self.arity
        if lines is None:
            widths = list(map(len, rows))
        else:  # a line has one cell more than it has commas, and a blank line none
            widths = [line.count(",") + 1 if line else 0 for line in lines]
        if set(widths) - {arity}:
            i = next(i for i, n in enumerate(widths) if n != arity)
            raise ValueError(f"row {i} has {widths[i]} cells, expected {arity}")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.headers, self.rows) == (other.name, other.headers, other.rows)

    def __hash__(self) -> int:
        return hash((self.name, self.headers, self.rows))

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, headers={self.headers!r}, rows={self.rows!r})"

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """Every row, split at the first read and then kept."""
        if isinstance(self._rows, _Lines):
            vars(self)["_rows"] = tuple(map(_row, self._rows))
        return self._rows  # type: ignore[return-value]

    def column_sets(self) -> list[set[str]]:
        """Each column's distinct cells, ``""`` included, in column order.

        Rows are read :data:`_CHUNK_ROWS` at a time as one flat list of
        cells, of which column ``i`` is every ``arity``-th cell from cell
        ``i``.  Kept lines give that list by one split of the chunk joined
        with ``","``, since each line holds exactly ``arity - 1`` commas and
        no quote; no row is split and nothing is kept on the table.
        """
        arity, records = self.arity, self._rows
        sets: list[set[str]] = [set() for _ in range(arity)]
        for start in range(0, len(records), _CHUNK_ROWS):
            chunk = records[start : start + _CHUNK_ROWS]
            if isinstance(records, _Lines):
                cells = ",".join(chunk).split(",")
            else:
                cells = [cell for row in chunk for cell in row]
            for i, values in enumerate(sets):
                values.update(cells[i::arity])
        return sets

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def row(self, i: int) -> tuple[str, ...]:
        return _row(self._rows[i])

    @property
    def arity(self) -> int:
        if self.headers is not None:
            return len(self.headers)
        return len(self.row(0)) if self._rows else 0

    @property
    def is_empty(self) -> bool:
        return self.headers is None and not self._rows


class SamplingMode(Enum):
    HEAD = "head"
    SEEDED_RANDOM = "seeded-random"


@dataclass(frozen=True)
class SamplingStrategy:
    """How to pick rows for serialization: a prefix or a seeded draw."""

    mode: SamplingMode = SamplingMode.HEAD
    seed: int | None = None

    def __post_init__(self) -> None:
        if (self.mode is SamplingMode.SEEDED_RANDOM) != (self.seed is not None):
            raise ValueError("seed is required exactly when mode is seeded-random")


HEAD_SAMPLING = SamplingStrategy(SamplingMode.HEAD)


def sample_rows(table: Table, k: int, strategy: SamplingStrategy = HEAD_SAMPLING) -> Table:
    """Table with the same name/headers and min(k, row_count) rows.

    Head sampling takes the leading rows; seeded-random sampling draws
    distinct indices with a dedicated generator and keeps original order,
    so equal seeds give equal samples.  Sampled lines of a table that
    :func:`read_csv` kept as lines stay unsplit until the sample's rows
    are read, and no sampled row is checked again, since the table's own
    check covered every row.
    """
    if k < 1:
        raise ValueError("sample size must be >= 1")
    n = table.row_count
    if strategy.mode is SamplingMode.HEAD or n <= k:
        indices = range(min(k, n))
    else:
        indices = sorted(random.Random(strategy.seed).sample(range(n), k))
    picked = map(table._rows.__getitem__, indices)
    rows = _Lines(picked) if isinstance(table._rows, _Lines) else tuple(picked)
    sample = object.__new__(Table)
    vars(sample).update(name=table.name, headers=table.headers, _rows=rows)
    return sample


class _Line:
    """A file object whose ``write`` returns the line it is given, so that
    ``csv.writer(_Line, ...).writerow`` returns the record it wrote."""

    write = staticmethod(str)


def csv_record(cells: Iterable[str]) -> str:
    r"""One RFC 4180 record without its line terminator.

    The writer is made per call, so threads never share one.  Its
    terminator is ``"\r\n"`` (and then dropped) because the writer quotes
    a cell that holds a character of its terminator, so a cell holding
    either line-break character is quoted and reads back whole.
    """
    return csv.writer(_Line, lineterminator="\r\n").writerow(cells)[:-2]


def to_csv(table: Table) -> str:
    """RFC 4180 serialization: the :func:`csv_record` of the header and of
    each row, one a line, with no trailing newline."""
    rows = table.rows if table.headers is None else (table.headers, *table.rows)
    return "\n".join(map(csv_record, rows))


def _records(text: str) -> list[tuple[str, ...]] | _Lines:
    """The records of RFC 4180 text as :func:`csv.reader` reads it untranslated:
    outside quotes each :func:`_lines` line break ends a record, and a quoted
    cell keeps its line breaks.  Quote-free text with no line over the field
    size limit keeps its lines, less the empty piece after a final line
    break, and :class:`Table` splits each only when its row is read; a blank
    line is the empty record."""
    if '"' not in text:
        lines = _lines(text)
        if not lines[-1]:
            lines.pop()
        if max(map(len, lines), default=0) <= csv.field_size_limit():
            return _Lines(lines)
    return [tuple(record) for record in csv.reader(io.StringIO(text, newline=""))]


def read_csv(text: str, name: str, headers: bool) -> Table:
    """Parse RFC 4180 text into a :class:`Table`: outside quotes CR, LF and
    CRLF each end a record, and a quoted cell keeps its line breaks.

    When ``headers`` is true the first record becomes the header row.
    Ragged records are rejected by the Table invariants; a kept line's
    cells are counted by its commas (see :func:`_records`).  Text the CSV
    reader rejects, such as an over-long field, raises ``ValueError`` naming the table.
    """
    try:
        records = _records(text)
    except csv.Error as exc:
        raise ValueError(f"{name}: {exc}") from None
    if headers:
        if not records:
            raise ValueError(f"{name}: expected a header row, got empty input")
        return Table(name=name, headers=_row(records.pop(0)), rows=records)
    return Table(name=name, headers=None, rows=records)
