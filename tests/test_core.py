from __future__ import annotations

import copy
import csv
import io
import pickle
import random
import re
import string
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabnotate.core
from tabnotate.core import (
    HEAD_SAMPLING,
    DuplicateTerm,
    EmptyLabel,
    EmptyOntologyKind,
    MalformedIri,
    Ontology,
    OntologyFormat,
    OntologyTerm,
    SamplingMode,
    SamplingStrategy,
    Table,
    TermKind,
    detect_ontology_format,
    edit_distance,
    label_similarity,
    load_ontology,
    lookup,
    nearest_name,
    nearest_term,
    normalize_label,
    read_csv,
    sample_rows,
    to_csv,
    tokenize_label,
)
from tabnotate.evaluate import _read_table

from reference import (
    levenshtein_ref,
    nearest_label_ref,
    normalize_ref,
    read_csv_ref,
    similarity_ref,
    tokenize_ref,
)


def make_ontology(classes=(), properties=()):
    terms = [
        OntologyTerm(f"https://dbpedia.org/ontology/{name}", TermKind.CLASS)
        for name in classes
    ]
    terms += [
        OntologyTerm(f"https://dbpedia.org/ontology/{name}", TermKind.PROPERTY)
        for name in properties
    ]
    return Ontology.from_terms(terms)


# ---------------------------------------------------------------- ontology


def test_load_single_class_line():
    onto = load_ontology("https://dbpedia.org/ontology/Hospital\n")
    assert len(onto.classes) == 1
    assert len(onto.properties) == 0
    term = next(iter(onto.classes.values()))
    assert term.local_name == "Hospital"
    assert term.kind is TermKind.CLASS


def test_load_empty_text():
    onto = load_ontology("")
    assert len(onto.classes) == 0 and len(onto.properties) == 0


def test_load_case_insensitive_duplicate_rejected():
    text = "https://dbpedia.org/ontology/Airport\nhttps://dbpedia.org/ontology/airport\n"
    with pytest.raises(DuplicateTerm):
        load_ontology(text)


def test_load_skips_blanks_and_comments():
    text = "# vocabulary\n\nhttps://dbpedia.org/ontology/City\n   \n"
    onto = load_ontology(text)
    assert list(onto.classes) == ["city"]


def test_load_tab_separated_kinds():
    text = (
        "C\thttps://dbpedia.org/ontology/Animal\n"
        "P\thttps://dbpedia.org/ontology/binomial\n"
    )
    onto = load_ontology(text, OntologyFormat.TAB_SEPARATED_KIND_IRI)
    assert list(onto.classes) == ["animal"]
    assert list(onto.properties) == ["binomial"]


def test_load_reports_line_numbers():
    with pytest.raises(MalformedIri, match="line 2"):
        load_ontology("https://dbpedia.org/ontology/Ok\nnot-an-iri\n")
    with pytest.raises(MalformedIri, match="line 1"):
        load_ontology("https://dbpedia.org/ontology/\n")
    with pytest.raises(MalformedIri, match="line 1"):
        load_ontology(
            "X\thttps://dbpedia.org/ontology/Ok\n",
            OntologyFormat.TAB_SEPARATED_KIND_IRI,
        )
    # An IRI that holds whitespace, such as a third tab-separated column.
    for text, format in (
        ("C\thttps://x.org/Ok\nC\thttps://x.org/Hospital\tHospital\n",
         OntologyFormat.TAB_SEPARATED_KIND_IRI),
        ("https://x.org/Ok\nhttps://x.org/Hospital Hospital\n", OntologyFormat.LINE_DELIMITED_IRI),
        ("https://x.org/Ok\nhttps://x.org/\u00a0Hospital\n", OntologyFormat.LINE_DELIMITED_IRI),
    ):
        with pytest.raises(MalformedIri, match=r"^line 2: IRI holds whitespace: 'https://x\.org/"):
            load_ontology(text, format)


@pytest.mark.parametrize(
    "classes, properties, message",
    [
        ({"animal": OntologyTerm("https://dbpedia.org/ontology/Animal", TermKind.PROPERTY)}, {},
         "misfiled class entry"),
        ({"beast": OntologyTerm("https://dbpedia.org/ontology/Animal", TermKind.CLASS)}, {},
         "misfiled class entry"),
        ({}, {"city": OntologyTerm("https://dbpedia.org/ontology/City", TermKind.CLASS)},
         "misfiled property entry"),
        ({}, {"name": OntologyTerm("https://dbpedia.org/ontology/label", TermKind.PROPERTY)},
         "misfiled property entry"),
    ],
)
def test_ontology_rejects_a_misfiled_entry(classes, properties, message):
    with pytest.raises(ValueError, match=f"^{message}: "):
        Ontology(classes=classes, properties=properties)


def test_only_cr_and_lf_end_an_ontology_line():
    # CRLF, lone CR, blank and comment lines; a comment holding U+2028 or a
    # form feed stays one comment, so nothing after either is read.
    text = (
        "# vocabulary\u2028https://dbpedia.org/ontology/Ghost\r\n"
        "https://dbpedia.org/ontology/City\r\r"
        "  https://dbpedia.org/ontology/Animal  \r"
        "   \n"
        "# old\x0cC\thttps://dbpedia.org/ontology/Phantom\n"
        "https://dbpedia.org/ontology/River\r\n"
    )
    assert detect_ontology_format(text) is OntologyFormat.LINE_DELIMITED_IRI
    assert list(load_ontology(text).classes) == ["city", "animal", "river"]
    with pytest.raises(MalformedIri, match="line 4: "):
        load_ontology("# a\x85b\rhttps://dbpedia.org/ontology/Ok\r\n\rnot-an-iri\n")
    with pytest.raises(MalformedIri, match=r"line 3: .*got ' X\\thttps://x\.org/A '$"):
        load_ontology(
            "\u2028# c\r\n\r X\thttps://x.org/A \n", OntologyFormat.TAB_SEPARATED_KIND_IRI
        )


def test_detect_format():
    assert detect_ontology_format("https://x.org/A\n") is OntologyFormat.LINE_DELIMITED_IRI
    assert (
        detect_ontology_format("# c\nC\thttps://x.org/A\n")
        is OntologyFormat.TAB_SEPARATED_KIND_IRI
    )


def test_same_local_name_allowed_across_kinds():
    onto = make_ontology(classes=["Work"], properties=["work"])
    assert lookup(onto, TermKind.CLASS, "work").local_name == "Work"
    assert lookup(onto, TermKind.PROPERTY, "Work").local_name == "work"


# ------------------------------------------------------------- normalize


def test_normalize_backticked_iri():
    assert normalize_label("`https://dbpedia.org/ontology/Hospital`") == "Hospital"


def test_normalize_short_prefix():
    assert normalize_label("dbo:author") == "author"


def test_normalize_whitespace_and_punctuation():
    assert normalize_label("   Airport.  ") == "Airport"
    assert normalize_label("'City',") == "City"


def test_normalize_unregistered_iri_falls_back_to_tail():
    assert normalize_label("http://example.org/vocab/Thing") == "Thing"


def test_normalize_repeated_prefix_reaches_fixpoint():
    assert normalize_label("dbo:dbo:author") == "author"


def test_normalize_empty_label():
    with pytest.raises(EmptyLabel):
        normalize_label(" `` ")


def test_normalize_idempotent_on_random_decorations():
    rng = random.Random(41)
    cores = ["Hospital", "iucnStatus", "VIN_prefix", "release Date", "x"]
    wrappers = ["`{}`", "'{}'", '"{}"', "  {}  ", "{}.", "{},", "dbo:{}",
                "https://dbpedia.org/ontology/{}"]
    for _ in range(300):
        text = rng.choice(cores)
        for _ in range(rng.randint(0, 3)):
            text = rng.choice(wrappers).format(text)
        once = normalize_label(text)
        assert normalize_label(once) == once


_LABEL_PIECES = st.sampled_from([
    "`", "'", '"', "<", ">", ".", ",", " ", "\t", "\n", "/", ":", "dbo:", "DBO:",
    "https://dbpedia.org/ontology/", "HTTPS://DBPEDIA.ORG/Ontology/",
    "http://example.org/vocab/", "https://", "Hospital", "iucnStatus", "x",
])


def _normalized(normalize, text: str) -> str | type[EmptyLabel]:
    try:
        return normalize(text)
    except EmptyLabel:
        return EmptyLabel


@settings(max_examples=2000, deadline=None)
@given(pieces=st.lists(_LABEL_PIECES, max_size=12))
def test_normalize_agrees_with_the_two_loop_reference(pieces):
    text = "".join(pieces)
    assert _normalized(normalize_label, text) == _normalized(normalize_ref, text)


# ---------------------------------------------------------------- lookup


def test_lookup_case_insensitive():
    onto = make_ontology(classes=["Hospital"])
    assert lookup(onto, TermKind.CLASS, "hospital").local_name == "Hospital"


def test_lookup_absent_is_none():
    onto = make_ontology(classes=["Animal"])
    assert lookup(onto, TermKind.CLASS, "iucnStatus") is None


def test_lookup_empty_ontology():
    assert lookup(make_ontology(), TermKind.PROPERTY, "x") is None


# ---------------------------------------------------------- nearest term


def test_nearest_term_animal_name():
    onto = make_ontology(classes=["Animal", "Airport"])
    expected, _ = nearest_label_ref(["Animal", "Airport"], "animalName")
    term, score = nearest_term(onto, TermKind.CLASS, "animalName")
    assert term.local_name == expected == "Animal"
    assert 0.0 < score < 1.0


def test_nearest_term_exact_match_scores_one():
    onto = make_ontology(classes=["Hospital"])
    term, score = nearest_term(onto, TermKind.CLASS, "Hospital")
    assert term.local_name == "Hospital"
    assert score == 1.0


def test_nearest_term_iucn_status():
    onto = make_ontology(properties=["conservationStatus", "binomial"])
    expected, _ = nearest_label_ref(["conservationStatus", "binomial"], "iucnStatus")
    term, _ = nearest_term(onto, TermKind.PROPERTY, "iucnStatus")
    assert term.local_name == expected == "conservationStatus"


def test_nearest_term_matches_reference_on_random_labels(ontology):
    rng = random.Random(17)
    class_names = [t.local_name for t in ontology.terms(TermKind.CLASS)]
    for _ in range(100):
        label = "".join(
            rng.choice(string.ascii_letters + "_") for _ in range(rng.randint(1, 12))
        )
        expected, expected_score = nearest_label_ref(class_names, label)
        term, score = nearest_term(ontology, TermKind.CLASS, label)
        assert term.local_name == expected
        assert score == pytest.approx(expected_score, abs=1e-12)
        assert lookup(ontology, TermKind.CLASS, term.local_name) is term


def test_nearest_term_empty_kind():
    with pytest.raises(EmptyOntologyKind):
        nearest_term(make_ontology(classes=["A"]), TermKind.PROPERTY, "x")


def test_similarity_symmetric_and_exact_iff_token_equal():
    rng = random.Random(99)
    pool = ["iucnStatus", "IUCN_status", "conservation status", "VIN", "vin_prefix",
            "ZIP", "zip", "Model3", "releaseDate", "release_date"]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        s_ab, s_ba = label_similarity(a, b), label_similarity(b, a)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0
        assert (s_ab == 1.0) == (tokenize_label(a) == tokenize_label(b))
        assert s_ab == pytest.approx(similarity_ref(a, b), abs=1e-12)


def test_tokenizer_matches_reference():
    cases = ["iucnStatus", "IUCNStatus", "VIN_prefix", "release Date", "Model3",
             "ABCDef", "snake_case_name", "", "  spaced  out  "]
    for case in cases:
        assert tokenize_label(case) == tokenize_ref(case)


def test_tokenizer_keeps_every_character_and_acronym_digits():
    cases = {"ISO3166Code": "iso3166 code", "AB1": "ab1", "Zürich": "zürich",
             "élan": "élan", "birth-date": "birth-date", "ÉtatCivil": "état civil",
             "naïveÜber": "naïve über"}
    for case, expected in cases.items():
        assert tokenize_label(case) == tokenize_ref(case) == expected


# Letters on both sides of every case rule, digits, separators, punctuation,
# non-ASCII cases and a titlecase letter (neither upper nor lower).
_CASE_SOUP = st.text(alphabet="aBcD1_ -.ÉéÜüΣσǅ\t")


@settings(max_examples=500, deadline=None)
@given(label=st.one_of(st.text(), _CASE_SOUP, st.text(alphabet=string.printable)))
def test_tokenizer_equals_reference_on_any_text(label):
    assert tokenize_label(label) == tokenize_ref(label)


_LONG = st.text(alphabet="abé ", min_size=60, max_size=140)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.text(), _LONG), b=st.one_of(st.text(), _LONG))
def test_edit_distance_equals_full_matrix_on_any_text(a, b):
    # _LONG crosses the 64-bit word size; st.text() brings non-ASCII and "".
    assert edit_distance(a, b) == levenshtein_ref(a, b)
    assert label_similarity(a, b) == similarity_ref(a, b)


# A small alphabet makes scores and tokenizations tie (``abC`` and ``ab_c``).
_TIED = st.text(alphabet="abC_ ", max_size=6)


# Up to ~150 characters: slots past one 64-bit word, tokenized lengths on
# both sides of the one-byte lane limit at 128, names that tokenize to "",
# and "\0", the character the scan pads its slots with.
_LONG_TIED = st.one_of(
    st.text(alphabet="abC_ é\0", max_size=8),
    st.text(alphabet="abC_ é\0", min_size=100, max_size=150),
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.one_of(
        st.lists(_TIED, min_size=1, max_size=8), st.lists(_LONG_TIED, min_size=1, max_size=4)
    ),
    label=st.one_of(_TIED, _LONG_TIED),
)
def test_nearest_name_equals_reference(names, label):
    assert nearest_name(names, label) == nearest_label_ref(names, label)


def test_nearest_name_ties_across_length_groups():
    # "abc" ties "abce" at 0.75 from the shorter group, which is visited
    # second with a length bound equal to the best score so far.
    assert nearest_name(["abce", "abc"], "abcd") == ("abc", 0.75)
    # "_" tokenizes to "", at distance 1 from "x" like "b", and sorts first.
    assert nearest_name(["_", "b"], "x") == ("_", 0.0)


def test_nearest_term_reads_names_past_the_one_byte_lane_limit():
    # Against a short label, a name of tokenized length 140 reaches lane
    # values over 255 (2 * 140 - 2 at most), and 128 is the first wide length.
    names = ["a" * 140, "ab" * 70, "b" * 139 + "x", "b" * 127 + "x", "b" * 128, "cat"]
    ontology = make_ontology(properties=names)
    for label in ["bx", "x", "", "b" * 128, "ab" * 64 + "x"]:
        term, score = nearest_term(ontology, TermKind.PROPERTY, label)
        assert (term.local_name, score) == nearest_label_ref(names, label)


def test_nearest_name_rejects_no_names():
    with pytest.raises(ValueError):
        nearest_name([], "x")


_LOCAL_NAME = st.from_regex(r"[abC][abC_]{0,20}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(_LOCAL_NAME, min_size=1, max_size=8, unique_by=str.lower), label=_TIED)
def test_nearest_term_is_exact_repeatable_and_per_ontology(names, label):
    text = "".join(f"P\thttps://dbpedia.org/ontology/{name}\n" for name in names)
    ontology = load_ontology(text, OntologyFormat.TAB_SEPARATED_KIND_IRI)
    term, score = nearest_term(ontology, TermKind.PROPERTY, label)
    assert (term.local_name, score) == nearest_label_ref(names, label)
    assert lookup(ontology, TermKind.PROPERTY, term.local_name) is term
    assert nearest_term(ontology, TermKind.PROPERTY, label) == (term, score)
    fresh = load_ontology(text, OntologyFormat.TAB_SEPARATED_KIND_IRI)
    assert nearest_term(fresh, TermKind.PROPERTY, label) == (term, score)


def test_nearest_term_shared_by_threads_gives_sequential_answers(ontology):
    names = [t.local_name for t in ontology.terms(TermKind.PROPERTY)]
    labels = ["iucnStatus", "vin", "modelYear", "AuthorName", "iucnStatus", "ZIP"] * 5
    expected = [nearest_label_ref(names, label) for label in labels]
    fresh = Ontology.from_terms([*ontology.terms(TermKind.CLASS), *ontology.terms(TermKind.PROPERTY)])
    results: list[list[tuple[str, float]]] = []

    def work() -> None:
        found = []
        for label in labels:
            term, score = nearest_term(fresh, TermKind.PROPERTY, label)
            found.append((term.local_name, score))
        results.append(found)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8


# Every separator ``tokenize_label`` knows, "\n" (which joins the names of a
# batch), both cases, digits, and letters outside ASCII: ``"İ".lower()`` is
# two characters, ``ǅ`` is titlecase, and ``Σ`` lowercases by its context,
# which the case-ignorable ``'``, ``.``, soft hyphen and combining acute
# extend across, up to whitespace that is collapsed before lowercasing.
_NAME_SOUP = "aBc1_ \t\x1c\néİǅΣ'.\u00ad\u0301"


@settings(max_examples=300, deadline=None)
@given(
    names=st.one_of(
        st.lists(st.text(alphabet="aBcD01", min_size=1, max_size=12), max_size=12),
        st.lists(st.text(alphabet="aBcD01_ \t\x1c", max_size=12), max_size=12),
        st.lists(st.text(alphabet=_NAME_SOUP, max_size=12), max_size=12),
        st.lists(st.text(alphabet="aBc_ \n", max_size=12), min_size=1, max_size=12),
    )
)
def test_name_index_stores_each_names_tokenize_label(names):
    # ASCII lists take the batch through the regex, lists with a non-ASCII
    # name the batch through ``str`` case tests, and a "\n" inside a name
    # is read as a space; the manual scan of ``tokenize_ref`` is the oracle.
    index = tabnotate.core._NameIndex(names)
    stored = [pair for group in index.groups.values() for pair in group]
    assert sorted(stored) == sorted((name, tokenize_ref(name)) for name in names)
    assert all(len(tokens) == lb for lb, group in index.groups.items() for _, tokens in group)


def test_packed_groups_build_masks_only_for_query_characters(ontology):
    fresh = Ontology.from_terms([*ontology.terms(TermKind.CLASS), *ontology.terms(TermKind.PROPERTY)])
    asked: set[str] = set()
    for label in ["vin", "iucnStatus", "ZIP", "modelYear"]:
        nearest_term(fresh, TermKind.PROPERTY, label)
        asked |= set(tokenize_label(label))
        index = fresh._indexes[TermKind.PROPERTY]
        assert index.packed
        for packed in index.packed.values():
            assert set(packed.masks) <= asked
    # An eager group would hold a mask for every character of its names.
    assert any(
        set("".join(tokens for _, tokens in index.groups[lb])) - set(packed.masks)
        for lb, packed in index.packed.items()
    )


@settings(max_examples=100, deadline=None)
@given(
    names=st.lists(_LOCAL_NAME, min_size=1, max_size=12, unique_by=str.lower),
    labels=st.lists(_TIED, min_size=2, max_size=8),
)
def test_nearest_term_answers_do_not_depend_on_query_order(names, labels):
    # Masks built for earlier queries must not change a later answer.
    text = "".join(f"P\thttps://dbpedia.org/ontology/{name}\n" for name in names)
    forward, backward = (load_ontology(text, OntologyFormat.TAB_SEPARATED_KIND_IRI) for _ in "ab")
    ahead = {label: nearest_term(forward, TermKind.PROPERTY, label) for label in labels}
    behind = {label: nearest_term(backward, TermKind.PROPERTY, label) for label in labels[::-1]}
    assert {label: (term.local_name, score) for label, (term, score) in ahead.items()} == {
        label: (term.local_name, score) for label, (term, score) in behind.items()
    }
    for label, (term, score) in ahead.items():
        assert (term.local_name, score) == nearest_label_ref(names, label)


def test_ontology_cache_takes_no_part_in_equality_or_repr(ontology):
    terms = [*ontology.terms(TermKind.CLASS), *ontology.terms(TermKind.PROPERTY)]
    used, fresh = Ontology.from_terms(terms), Ontology.from_terms(terms)
    nearest_term(used, TermKind.CLASS, "animl")
    nearest_term(used, TermKind.PROPERTY, "iucnStatus")
    assert used._indexes and not fresh._indexes
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_nearest_term_memo_is_kept_per_kind():
    onto = make_ontology(classes=["Animal"], properties=["animalName"])
    assert nearest_term(onto, TermKind.CLASS, "animal")[0].kind is TermKind.CLASS
    assert nearest_term(onto, TermKind.PROPERTY, "animal")[0].kind is TermKind.PROPERTY
    assert nearest_term(onto, TermKind.CLASS, "animal")[0].local_name == "Animal"


def test_edit_distance_against_full_matrix():
    rng = random.Random(3)
    for _ in range(200):
        a = "".join(rng.choice("abcdef ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcdef ") for _ in range(rng.randint(0, 12)))
        assert edit_distance(a, b) == levenshtein_ref(a, b)


# -------------------------------------------------------------- sampling


def test_sample_head_prefix():
    table = Table("t", None, tuple((str(i),) for i in range(10)))
    sampled = sample_rows(table, 5)
    assert sampled.rows == tuple((str(i),) for i in range(5))
    assert sampled.name == "t" and sampled.headers is None


def test_sample_k_exceeds_size():
    table = Table("t", None, (("a",), ("b",), ("c",)))
    for mode in (SamplingStrategy(SamplingMode.HEAD), SamplingStrategy(SamplingMode.SEEDED_RANDOM, 1)):
        assert sample_rows(table, 5, mode).rows == table.rows


def test_sample_seeded_deterministic():
    table = Table("t", None, tuple((str(i),) for i in range(10)))
    strategy = SamplingStrategy(SamplingMode.SEEDED_RANDOM, 7)
    first = sample_rows(table, 5, strategy)
    second = sample_rows(table, 5, strategy)
    assert first.rows == second.rows
    assert len(first.rows) == 5
    indices = [int(r[0]) for r in first.rows]
    assert indices == sorted(indices)


@pytest.mark.parametrize("k", [0, -1])
def test_sample_size_below_one_is_rejected(k):
    with pytest.raises(ValueError, match=r"^sample size must be >= 1$"):
        sample_rows(Table("t", None, (("a",),)), k)


def test_sample_head_idempotent():
    rng = random.Random(5)
    rows = tuple((str(rng.random()),) for _ in range(20))
    table = Table("t", None, rows)
    for k in (1, 3, 20, 50):
        once = sample_rows(table, k)
        assert sample_rows(once, k).rows == once.rows


def test_sampling_strategy_invariant():
    with pytest.raises(ValueError):
        SamplingStrategy(SamplingMode.SEEDED_RANDOM)
    with pytest.raises(ValueError):
        SamplingStrategy(SamplingMode.HEAD, seed=3)


# ------------------------------------------------------------------- csv


def test_to_csv_with_headers():
    table = Table("cars", ("Brand", "Model"), (("Nissan", "Leaf"),))
    assert to_csv(table) == "Brand,Model\nNissan,Leaf"


def test_to_csv_single_cell():
    assert to_csv(Table("t", None, (("a",),))) == "a"


def test_to_csv_quotes_commas():
    assert to_csv(Table("t", None, (("a,b",),))) == '"a,b"'


_WRITTEN_CELL = st.text(alphabet='ab ,"\n\ré', max_size=6)


@st.composite
def _csv_tables(draw) -> Table:
    arity = draw(st.integers(1, 4))
    row = st.lists(_WRITTEN_CELL, min_size=arity, max_size=arity).map(tuple)
    return Table("t", draw(st.none() | row), tuple(draw(st.lists(row, max_size=5))))


@settings(max_examples=300, deadline=None)
@example(table=Table("t", None, (("",),)))
@example(table=Table("t", ("",), (("",), ("\r",))))
@given(table=_csv_tables())
def test_to_csv_is_the_csv_writer_text_less_its_final_newline(table):
    # A "\r\n" writer quotes a cell holding either line-break character.
    def record(row) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        return buf.getvalue().removesuffix("\r\n")

    rows = table.rows if table.headers is None else (table.headers, *table.rows)
    assert to_csv(table) == "\n".join(map(record, rows))


@settings(max_examples=300, deadline=None)
@example(table=Table("t", ("a", "b"), (("x\ry", "z"),)))
@example(table=Table("t", None, (("\r",), ("\r\n",))))
@given(table=_csv_tables())
def test_read_csv_reads_back_what_to_csv_writes(table):
    assert read_csv(to_csv(table), table.name, table.headers is not None) == table


@pytest.fixture(scope="module")
def read_file(tmp_path_factory):
    """:func:`read_csv` of ``text`` by way of a table file that holds it."""
    path = tmp_path_factory.mktemp("csv") / "t.csv"

    def read(text: str, name: str, headers: bool) -> Table:
        path.write_bytes(text.encode("utf-8"))
        return _read_table(path, headers, name)

    return read


@settings(max_examples=300, deadline=None)
@example(table=Table("t", ("a", "b"), (("x\r\ny", "p\rq"),)))
@example(table=Table("t", None, (("\r",), ("\n",), ("\r\n",))))
@given(table=_csv_tables())
def test_a_table_file_reads_back_what_to_csv_writes(table, read_file):
    assert read_file(to_csv(table), table.name, table.headers is not None) == table


def test_csv_round_trip_on_nasty_cells():
    rng = random.Random(11)
    alphabet = string.ascii_letters + string.digits + ' ,"\n☃é'
    for _ in range(100):
        arity = rng.randint(1, 5)
        headers = (
            tuple("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(arity))
            if rng.random() < 0.7
            else None
        )
        rows = tuple(
            tuple("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(arity))
            for _ in range(rng.randint(0, 6))
        )
        if headers is None and not rows:
            continue
        table = Table("t", headers, rows)
        parsed = [tuple(r) for r in csv.reader(io.StringIO(to_csv(table)))]
        expected = ([headers] if headers else []) + list(rows)
        assert parsed == expected


def test_read_csv_headers_flag():
    text = "a,b\n1,2\n3,4"
    with_headers = read_csv(text, "t", headers=True)
    assert with_headers.headers == ("a", "b")
    assert with_headers.rows == (("1", "2"), ("3", "4"))
    without = read_csv(text, "t", headers=False)
    assert without.headers is None
    assert len(without.rows) == 3


def test_read_csv_ragged_rejected():
    with pytest.raises(ValueError):
        read_csv("a,b\n1\n", "t", headers=True)


def _read_outcome(read, text: str, headers: bool):
    """``(headers, rows)`` read from ``text``, or the type and message of
    the error raised instead."""
    try:
        table = read(text, "t", headers)
    except ValueError as exc:
        return type(exc), str(exc)
    return table if isinstance(table, tuple) else (table.headers, table.rows)


_CSV_CHARS = ',"\n\r éa1'
_CSV_CELL = st.text(alphabet=_CSV_CHARS, max_size=4)  # often empty
# Mostly quote-free rows of one width, so valid tables and the split path
# come up often; any cell may still hold a quote, a CR or a line break.
_CSV_ROWS = st.builds(
    lambda rows, end, trailing: end.join(",".join(row) for row in rows) + trailing,
    st.lists(
        st.one_of(
            st.lists(st.sampled_from(["", "a", " b ", "é", "1"]), min_size=2, max_size=2),
            st.lists(_CSV_CELL, max_size=4),
        ),
        max_size=8,
    ),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
    st.sampled_from(["", "\n", "\n\n", "\r\n"]),
)


@settings(max_examples=1000, deadline=None)
@given(
    text=st.one_of(st.text(alphabet=_CSV_CHARS, max_size=40), _CSV_ROWS),
    headers=st.booleans(),
)
def test_read_csv_equals_csv_reader_with_table_invariants(text, headers):
    assert _read_outcome(read_csv, text, headers) == _read_outcome(read_csv_ref, text, headers)


@settings(max_examples=500, deadline=None)
@example(text="a,b\r1,2\r3,4\r", headers=True)
@example(text='a\r\n"x\r\ny"\r"p\rq"\n', headers=True)
@given(
    text=st.one_of(st.text(alphabet=_CSV_CHARS, max_size=40), _CSV_ROWS),
    headers=st.booleans(),
)
def test_a_table_file_reads_as_read_csv_reads_its_text(text, headers, read_file):
    assert _read_outcome(read_file, text, headers) == _read_outcome(read_csv, text, headers)


@settings(max_examples=500, deadline=None)
@given(
    text=st.one_of(st.text(alphabet=_CSV_CHARS, max_size=40), _CSV_ROWS),
    headers=st.booleans(),
    k=st.integers(1, 10),
    seed=st.integers(0, 2**32),
)
def test_read_csv_table_equals_the_eagerly_built_table(text, headers, k, seed):
    try:
        head, rows = read_csv_ref(text, "t", headers)
    except ValueError:
        return  # the property above pins every error
    eager = Table("t", head, rows)

    def read():
        return read_csv(text, "t", headers)

    table = read()
    assert table.row_count == eager.row_count == len(rows)
    assert [table.row(i) for i in range(table.row_count)] == list(rows)
    columns = [{row[i] for row in rows} for i in range(eager.arity)]
    assert table.column_sets() == eager.column_sets() == columns
    for strategy in (HEAD_SAMPLING, SamplingStrategy(SamplingMode.SEEDED_RANDOM, seed)):
        assert sample_rows(read(), k, strategy) == sample_rows(eager, k, strategy)
    assert table.rows == eager.rows == rows
    assert read() == eager and eager == read() and read() != Table("u", head, rows)
    assert hash(read()) == hash(eager)
    assert repr(read()) == repr(eager)
    assert pickle.loads(pickle.dumps(read())) == copy.deepcopy(read()) == eager


@pytest.mark.parametrize("text, headers", [("1\n\n2", False), ("h\n1\n\n2", True)])
def test_blank_line_in_a_one_column_table_is_a_row_of_no_cells(text, headers):
    for source in (text, text.replace("1", '"1"')):  # split and csv.reader paths
        with pytest.raises(ValueError, match=r"^t: row 1 has 0 cells, expected 1$"):
            read_csv(source, "t", headers=headers)


def test_sampling_a_read_table_splits_only_the_sampled_lines(monkeypatch):
    original, split = tabnotate.core._row, []

    def counting(record):  # a line is a row kept unsplit; a tuple is already split
        if isinstance(record, str):
            split.append(record)
        return original(record)

    monkeypatch.setattr(tabnotate.core, "_row", counting)
    for end in ("\n", "\r\n", "\r"):  # LF, CRLF and lone-CR tables are all kept as lines
        text = "a,b" + end + end.join(f"{i},x{i}" for i in range(1000))
        table = read_csv(text, "t", headers=True)
        split.clear()  # the header row is split when read
        sample = sample_rows(table, 5, SamplingStrategy(SamplingMode.SEEDED_RANDOM, 3))
        assert table.row_count == 1000 and table.arity == 2 and not table.is_empty
        assert sample.row_count == 5 and split == []
        assert sample.rows == tuple(map(original, split)) and len(split) == 5


def test_sampling_kept_lines_counts_no_line_again():
    counted = []

    class Line(str):  # a kept line that records each count of its commas
        def count(self, *args):
            counted.append(str(self))
            return str.count(self, *args)

    lines = [f"{i},x{i}," for i in range(1000)]
    for headers in (("a", "b", "c"), None):
        split = Table("t", headers, [line.split(",") for line in lines])
        counted.clear()
        table = Table("t", headers, tabnotate.core._Lines(map(Line, lines)))
        assert len(counted) == 1000  # the table's own check counts each line once
        for k, strategy in [
            (500, HEAD_SAMPLING),
            (500, SamplingStrategy(SamplingMode.SEEDED_RANDOM, 3)),
            (2000, SamplingStrategy(SamplingMode.SEEDED_RANDOM, 3)),
        ]:
            counted.clear()
            sample = sample_rows(table, k, strategy)
            assert counted == []
            checked = Table("t", headers, tabnotate.core._Lines(sample._rows))
            assert vars(sample) == vars(checked)
            assert sample.arity == 3 and sample == sample_rows(split, k, strategy)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n" + "x" * 140_000 + ",y\n1,2\n",
        "a,b\n" + "x" * csv.field_size_limit() + ",y\n",
        "," * 140_000 + "\n",
    ],
    ids=["field-over-limit", "line-over-limit-field-at-limit", "line-over-limit-fields-empty"],
)
def test_read_csv_past_the_field_size_limit_equals_csv_reader(text):
    for headers in (True, False):
        assert _read_outcome(read_csv, text, headers) == _read_outcome(read_csv_ref, text, headers)


def test_oversized_field_is_a_value_error_naming_the_table():
    limit = csv.field_size_limit()
    with pytest.raises(ValueError, match=f"^big: field larger than field limit \\({limit}\\)$"):
        read_csv("a\n" + "x" * (limit + 1) + "\n", "big", headers=True)
    assert read_csv("x" * limit, "big", headers=False).rows == (("x" * limit,),)


@pytest.mark.parametrize(
    "headers, rows, message",
    [
        (("a", "b"), (("1", "2"), ("3",), ("4", "5", "6"), ("7", "8")), "row 1 has 1 cells, expected 2"),
        (("a", "b"), (("1", "2"), ("3", "4"), ("5", "6", "7")), "row 2 has 3 cells, expected 2"),
        (None, (("1", "2"), ("3", "4"), (), ("5",)), "row 2 has 0 cells, expected 2"),
        (None, (("1",),) * 4 + (("2", "3"),), "row 4 has 2 cells, expected 1"),
    ],
)
def test_ragged_row_error_names_the_first_bad_row(headers, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Table("t", headers, rows)
    text = "\n".join(",".join(row) for row in ((headers,) if headers else ()) + rows)
    for source in (text, text.replace("1", '"1"')):  # split and csv.reader paths
        with pytest.raises(ValueError, match=f"^t: {re.escape(message)}$"):
            read_csv(source, "t", headers=headers is not None)


def test_a_table_is_frozen_and_equals_only_tables():
    table = Table("t", ("h",), (("a",),))
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'name'"):
        table.name = "u"
    assert table.name == "t"
    assert table.__eq__(1) is NotImplemented
    assert table != 1 and table != ("t", ("h",), (("a",),))


def test_table_invariants():
    with pytest.raises(ValueError):
        Table("t", ("h",), (("a", "b"),))
    with pytest.raises(ValueError):
        Table("t", (), ())
    header_only = Table("t", ("h1", "h2"), ())
    assert header_only.arity == 2 and not header_only.is_empty
