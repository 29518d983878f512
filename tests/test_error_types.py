"""Parsers and readers raise only their own error type on arbitrary input.

Each property feeds generated input to one reader and accepts success or the
reader's documented error; an IndexError, KeyError, TypeError or any other
exception fails the property. The annotation reader also gives what its
reference in `oracle.py` gives: an equal document or the same error message.
"""

import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makan.annotator import AnnotationFormatError, annotate, read_annotations
from makan.engine import GrammarError, compile
from makan.lexicon import LexiconError, load, load_variant_table, read_resource, seed_lexicon_path
from makan.rulepack import load_resources, rule_pack_path, variants_path
from makan.textnorm import tokenize
from oracle import reference_read_annotations

_DSL_WORDS = [
    "RULE", "PRIO", ":", "=>", "GUARD", ",", "[", "]", "|", "(", ")?", "=", "GAP", "SENSE", "FLAG",
    "LIT", "trigger", "site", "verb", "other", "PREP", "NOUN_SITE", "DIRECTIONAL.GOAL", "TOPOLOGICAL",
    "BOGUS.PATH", "PLURAL", "NEG_SCOPE", "NOPE", "r", "q", "0", "1", "9", "على", "#", "\n", "\t",
]

# Lexicon and variant lines are built from their own separators, classes,
# senses, flags and attribute JSON, plus a few Arabic letters and diacritics;
# one piece opens a valid line up to its attributes column.
_TSV_PIECES = st.sampled_from(
    ["\t", "\n", " ", ";", ",", "#", "PREP", "NOUN_SITE", "PREP_LOCUTION", "TOPOLOGICAL.SUPPORT",
     "DIRECTIONAL", "BOGUS", "AMBIGUOUS_DUAL", "PRONOUN_SUFFIXABLE", "على", "ة", "ب", "َ", "ـ",
     "{", "}", '"', ":", "[", "true", "NaN", "\nب\tNOUN_SITE\t\t\t"]
)
_TSV = st.lists(_TSV_PIECES | st.text(max_size=3), max_size=30).map("".join)

_JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 12) | st.text(max_size=4) | st.sampled_from(
    ["TOPOLOGICAL.SUPPORT", "DIRECTIONAL.GOAL", "NOT.A.PATH"]
)
_SPAN = st.fixed_dictionaries({}, optional={"start": _JSON_SCALARS, "end": _JSON_SCALARS})
_ANN_VALUES = _JSON_SCALARS | _SPAN | st.lists(_JSON_SCALARS, max_size=3) | st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2)
_ANNOTATION = st.fixed_dictionaries(
    {},
    optional={
        key: _ANN_VALUES
        for key in ("start", "end", "category", "trigger", "site", "target", "attributes", "alternates", "rule")
    },
)
_DOCUMENT = st.fixed_dictionaries(
    {},
    optional={
        "doc_id": _JSON_SCALARS,
        "text": st.sampled_from(["", "نص", "جلست المرأة على المقعد."]) | _JSON_SCALARS,
        "annotations": _JSON_SCALARS | st.lists(_ANNOTATION | _JSON_SCALARS, max_size=3),
    },
)


def _raises_only(error, fn, *args):
    try:
        fn(*args)
    except error:
        pass


def _with_file(content, fn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resource.tsv"
        path.write_text(content, encoding="utf-8")
        fn(path)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_DSL_WORDS), max_size=25))
def test_compile_raises_only_grammar_error(bundle, words):
    _raises_only(GrammarError, compile, " ".join(words), bundle[1])


def test_compile_refuses_a_source_that_is_not_a_str_or_a_lexicon_that_is_not_a_lexicon(bundle):
    with pytest.raises(TypeError, match="^compile's source must be a str, not NoneType$"):
        compile(None, bundle[1])
    with pytest.raises(TypeError, match="^compile's lexicon must be a Lexicon, not NoneType$"):
        compile(rule_pack_path().read_text(encoding="utf-8"), None)
    with pytest.raises(TypeError, match="^compile's lexicon must be a Lexicon, not list$"):
        compile("", list(bundle[1].entries))


@pytest.mark.parametrize("text", [3, b"\xd8\xb9\xd9\x84\xd9\x89", None])
def test_tokenize_and_annotate_refuse_a_text_that_is_not_a_str_before_any_work(bundle, text):
    smap, lex, grammar, variants = bundle
    message = f"^text must be a str, not {type(text).__name__}$"
    runs = dict(lex.tokenize_memos[0])
    for lexicon in (None, lex):
        with pytest.raises(TypeError, match=message):
            tokenize(text, lexicon, variants)
    with pytest.raises(TypeError, match=message):
        annotate(text, lex, grammar, smap, variants)
    with pytest.raises(TypeError, match=message):  # ahead of the map check, so before any work
        annotate(text, lex, grammar, {"SPATIAL": None}, variants)
    assert lex.tokenize_memos[0] == runs


@pytest.mark.parametrize("variants", [["x"], [], ("x",), "x", 0])
def test_tokenize_and_annotate_refuse_variants_that_are_not_a_dict_before_any_work(bundle, variants):
    smap, lex, grammar, _ = bundle
    message = f"^variants must be a dict, not {type(variants).__name__}$"
    memos = tuple(map(dict, lex.tokenize_memos))
    for text in ("", "x جلست على المقعد"):  # a listed word or none: refused at the call either way
        for lexicon in (None, lex):
            with pytest.raises(TypeError, match=message):
                tokenize(text, lexicon, variants)
        with pytest.raises(TypeError, match=message):
            annotate(text, lex, grammar, smap, variants)
    assert tuple(map(dict, lex.tokenize_memos)) == memos


@settings(max_examples=60, deadline=None)
@given(_TSV)
def test_lexicon_load_raises_only_lexicon_error(content):
    _with_file(content, lambda path: _raises_only(LexiconError, load, path))


@settings(max_examples=60, deadline=None)
@given(_TSV)
def test_variant_table_raises_only_lexicon_error(content):
    _with_file(content, lambda path: _raises_only(LexiconError, load_variant_table, path))


# Each shipped resource file: how `load_resources` takes it in place of the shipped one, and how its faults name a line.
_RESOURCES = {
    "lexicon.tsv": (seed_lexicon_path(), lambda path: {"lexicon_paths": [path]}, "{path}:{line}"),
    "spatial.rules": (rule_pack_path(), lambda path: {"rule_paths": [path]}, "({path}, line {line}, col"),
    "variants.tsv": (variants_path(), lambda path: {"variants_file": path}, "{path}:{line}"),
}


@st.composite
def _mutated_resource(draw):
    """(file name, its text with one row mutated, the mutated row's line): the row duplicated, a column padded,
    a tab dropped, a column added or a stray character put in."""
    name = draw(st.sampled_from(sorted(_RESOURCES)))
    lines = read_resource(_RESOURCES[name][0]).split("\n")
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")]))
    row, tabs = lines[i], [j for j, c in enumerate(lines[i]) if c == "\t"]
    mutation = draw(st.sampled_from(["duplicate", "pad", "add column", "stray"] + ["drop tab"] * bool(tabs)))
    if mutation == "duplicate":
        lines.insert(i, row)
        i += 1
    elif mutation == "pad":
        j = draw(st.sampled_from([0, len(row), *tabs, *(j + 1 for j in tabs)]))
        lines[i] = row[:j] + draw(st.sampled_from([" ", "  "])) + row[j:]
    elif mutation == "add column":
        lines[i] = row + "\t" + draw(st.sampled_from(["", "x", "PREP", "TOPOLOGICAL.SUPPORT", "PLURAL", "{}"]))
    elif mutation == "drop tab":
        j = draw(st.sampled_from(tabs))
        lines[i] = row[:j] + row[j + 1 :]
    else:
        j = draw(st.integers(0, len(row)))
        lines[i] = row[:j] + draw(st.sampled_from("!xبَ ;,{\"#(:=]")) + row[j:]
    return name, "\n".join(lines), i + 1


@settings(max_examples=200, deadline=None)
@given(_mutated_resource())
def test_a_mutated_resource_row_loads_or_its_fault_names_the_file_and_the_row(mutated):
    name, text, line = mutated
    _, argument, location = _RESOURCES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        try:
            load_resources(**argument(path))
        except (LexiconError, GrammarError) as exc:  # a repeat names its first row too, after the line's own
            assert re.search(re.escape(location.format(path=path, line=line)) + r"(?!\d)", str(exc)), str(exc)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENT | st.lists(_JSON_SCALARS, max_size=2))
def test_read_annotations_raises_only_format_error(document):
    data = json.dumps(document, ensure_ascii=False)
    _raises_only(AnnotationFormatError, read_annotations, io.StringIO(data))



@pytest.mark.parametrize(
    "source, message",
    [
        (lambda tmp: tmp / "missing.json", r"missing\.json: cannot read: No such file"),
        (lambda tmp: tmp, r": cannot read: Is a directory"),
        (lambda tmp: io.BytesIO(b"\x80{}"), r"^<stream>: not UTF-8: "),  # `json.loads` decodes a stream's bytes
    ],
    ids=["missing-path", "directory", "undecodable-bytes"],
)
def test_read_annotations_raises_only_format_error_on_unreadable_sources(tmp_path, source, message):
    with pytest.raises(AnnotationFormatError, match=message):
        read_annotations(source(tmp_path))


_TEXTS = ["نص", "جلست المرأة على المقعد."]
_PATHS = ["TOPOLOGICAL", "TOPOLOGICAL.SUPPORT", "DIRECTIONAL.GOAL", "PROJECTIVE.ORIENTATIONAL.FRONTAL"]
_FIELDS = ["start", "end", "category", "trigger", "site", "target", "attributes", "alternates", "rule"]
_INT_SPAN = st.fixed_dictionaries({"start": st.integers(-1, 25), "end": st.integers(-1, 25)})
# Values that break a field in its own way; any field may also take any of `_ANN_VALUES`.
_BROKEN = {
    "trigger": _INT_SPAN,
    "site": _INT_SPAN,
    "target": _INT_SPAN,
    "alternates": st.tuples(st.lists(st.sampled_from(_PATHS), max_size=2), _JSON_SCALARS).map(lambda t: [*t[0], t[1]]),
}


@st.composite
def _document(draw, field):
    """A document the reader accepts, but with `field` of one of its annotations, if any, dropped or replaced;
    the field "annotation" replaces the annotation itself."""
    text = draw(st.sampled_from(_TEXTS))
    span = st.integers(0, len(text) - 1).flatmap(
        lambda start: st.fixed_dictionaries({"start": st.just(start), "end": st.integers(start + 1, len(text))})
    )
    annotation = st.fixed_dictionaries(
        {"start": st.just(0), "end": st.just(len(text)), "category": st.sampled_from(_PATHS), "trigger": span},
        optional={
            "site": span,
            "target": span,
            "attributes": st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
            "alternates": st.lists(st.sampled_from(_PATHS), max_size=2),
            "rule": st.text(max_size=3),
        },
    )
    anns = draw(st.lists(annotation, max_size=4))
    if field is not None and anns:
        idx = draw(st.integers(0, len(anns) - 1))
        ann = anns[idx]
        if field == "annotation":
            anns[idx] = draw(_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=2))
        elif draw(st.booleans()):
            ann.pop(field, None)
        else:
            ann[field] = draw(_BROKEN.get(field, st.integers(-1, len(text) + 1)) | _ANN_VALUES)
    return {"doc_id": draw(st.text(max_size=3)), "text": text, "annotations": anns}


def _outcome(read, data):
    try:
        return read(io.StringIO(data))
    except AnnotationFormatError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", [None, "annotation", *_FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_read_annotations_equals_reference_reader(field, data):
    document = data.draw(_DOCUMENT | _document(None) if field is None else _document(field))
    serialized = json.dumps(document, ensure_ascii=False)
    assert _outcome(read_annotations, serialized) == _outcome(reference_read_annotations, serialized)
