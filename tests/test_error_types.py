"""Parsers and readers raise only their own error type on arbitrary input.

Each property feeds generated input to one reader and accepts success or the
reader's documented error; an IndexError, KeyError, TypeError or any other
exception fails the property.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from makan.annotator import AnnotationFormatError, read_annotations
from makan.engine import GrammarError, compile
from makan.lexicon import LexiconError, load
from makan.textnorm import load_variant_table

_DSL_WORDS = [
    "RULE", "PRIO", ":", "=>", "GUARD", ",", "[", "]", "|", "(", ")?", "=", "GAP", "SENSE", "FLAG",
    "LIT", "trigger", "site", "verb", "other", "PREP", "NOUN_SITE", "DIRECTIONAL.GOAL", "TOPOLOGICAL",
    "BOGUS.PATH", "CONTACT_IMPLIED", "NEG_SCOPE", "NOPE", "r", "q", "0", "1", "9", "على", "#", "\n", "\t",
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
    smap, lex, _, _ = bundle
    _raises_only(GrammarError, compile, " ".join(words), lex, smap)


@settings(max_examples=60, deadline=None)
@given(_TSV)
def test_lexicon_load_raises_only_lexicon_error(content):
    _with_file(content, lambda path: _raises_only(LexiconError, load, path))


@settings(max_examples=60, deadline=None)
@given(_TSV)
def test_variant_table_raises_only_value_error(content):
    _with_file(content, lambda path: _raises_only(ValueError, load_variant_table, path))


@settings(max_examples=150, deadline=None)
@given(_DOCUMENT | st.lists(_JSON_SCALARS, max_size=2))
def test_read_annotations_raises_only_format_error(document):
    data = json.dumps(document, ensure_ascii=False)
    _raises_only(AnnotationFormatError, read_annotations, io.StringIO(data))
