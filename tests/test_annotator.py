import copy
import errno
import gc
import io
import json
import os
import pickle
import re
import secrets
import stat
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan import annotate, guards, read_annotations, write_annotations
from makan.annotator import AnnotatedDocument, AnnotationFormatError, SpatialAnnotation, document_to_json
from makan.engine import RawMatch, apply, compile
from makan.lexicon import PRONOUN_SUFFIXES, Lexicon, seed_lexicon_path
from makan.rulepack import load_resources
from makan.semmap import PARENT, ROOT, TOP_LEVEL, top_level
from makan.textnorm import _WORD_RE, OffsetSpan, normalize, tokenize
from oracle import reference_document_json
from strategies import edited_sentences, word_texts


def test_support_example(run):
    doc = run("جلست المرأة على المقعد.")
    assert len(doc.annotations) == 1
    ann = doc.annotations[0]
    assert ann.category == "TOPOLOGICAL.SUPPORT"
    assert ann.trigger.slice(doc.text) == "على"
    assert ann.site.slice(doc.text) == "المقعد"
    assert ann.span.slice(doc.text) == "على المقعد"


def test_a_target_capture_is_reported_and_widens_the_span(bundle):
    # no shipped rule captures a target; this one takes the noun before the trigger
    smap, lex, _, _ = bundle
    grammar = compile(
        "RULE t PRIO 50: target=[NOUN_TARGET] trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE] => TOPOLOGICAL.SUPPORT",
        lex,
    )
    doc = annotate("وضعت الكتاب على المقعد.", lex, grammar, smap)
    assert [(a.span, a.trigger, a.site, a.target) for a in doc.annotations] == [
        (OffsetSpan(5, 22), OffsetSpan(12, 15), OffsetSpan(16, 22), OffsetSpan(5, 11))
    ]


def test_empty_text_yields_empty_document(run):
    doc = run("")
    assert doc.annotations == ()


def test_periphery_locution_beats_generic_support(run):
    doc = run("سرت طويلاً على ضفة اللواريه")
    assert [a.category for a in doc.annotations] == ["TOPOLOGICAL.PERIPHERY"]
    assert doc.annotations[0].trigger.slice(doc.text) == "على ضفة"


@pytest.mark.parametrize("template", ["سرت على ضفة {}", "عاد إلى {}"])
@pytest.mark.parametrize(
    "variant, canonical",
    [("سين", "سان"), ("السين", "السان"), ("لواريه", "لوار"), ("اللواريه", "اللوار"), ("لوارية", "لوار"),
     ("اللوارية", "اللوار"), ("واللواريه", "واللوار")],
)
def test_a_spelling_variant_gets_the_annotations_of_its_canonical_spelling(run, template, variant, canonical):
    # each spelling is a lexicon row, so a proclitic may come before it too; the site ends on its own word
    got, want = run(template.format(variant)), run(template.format(canonical))
    assert want.annotations and got.text.endswith(variant)
    assert [(a.category, a.trigger, a.site.start, a.site.end, a.rule) for a in got.annotations] == [
        (a.category, a.trigger, a.site.start, len(got.text), a.rule) for a in want.annotations
    ]


def test_a_variant_behind_a_proclitic_is_annotated(run):
    # the one output change from making variants lexicon rows: a whole-word table missed واللواريه
    doc = run("سرت على ضفة واللواريه")
    assert [(a.rule, a.category, a.trigger, a.site) for a in doc.annotations] == [
        ("topo_periph", "TOPOLOGICAL.PERIPHERY", OffsetSpan(4, 11), OffsetSpan(12, 21))
    ]


def test_medium_annotation_splits_token(run):
    doc = run("غادر أخي رامي بالباخرة، لكنه عاد بالطائرة بعد نحو أسبوعين")
    assert [a.category for a in doc.annotations] == ["DIRECTIONAL.PATH", "DIRECTIONAL.PATH"]
    first = doc.annotations[0]
    assert first.trigger.slice(doc.text) == "ب"
    assert first.site.slice(doc.text) == "باخرة"
    assert first.attributes == {"medium": True}


def test_mirror_trigger_attribute(run):
    doc = run("وقفت مقابل الباب")
    assert len(doc.annotations) == 1
    ann = doc.annotations[0]
    assert ann.category == "PROJECTIVE.ORIENTATIONAL.FRONTAL"
    assert ann.attributes == {"orientation": "mirror"}


def test_custom_lexicon_attributes_reach_only_the_annotations_they_trigger(tmp_path):
    seed = seed_lexicon_path().read_text(encoding="utf-8")
    row = "فوق\tPREP\tPROJECTIVE.ORIENTATIONAL.VERTICAL\tPRONOUN_SUFFIXABLE"
    assert seed.count(row + "\n") == 1
    lexicon = tmp_path / "lexicon.tsv"
    attributes = '{"axis": "up", "rank": 2, "weight": 0.5, "note": null}'
    lexicon.write_text(seed.replace(row, f"{row}\t{attributes}"), encoding="utf-8")
    smap, lex, grammar, _ = load_resources([lexicon])
    doc = annotate("جلست المرأة على المقعد والكتاب فوق المقعد", lex, grammar, smap)
    by_trigger = {a.trigger.slice(doc.text): a.attributes for a in doc.annotations}
    assert by_trigger == {"على": {}, "فوق": {"axis": "up", "rank": 2, "weight": 0.5, "note": None}}
    assert [a.get("attributes") for a in json.loads(document_to_json(doc))["annotations"]] == [None, by_trigger["فوق"]]


def test_no_attribute_comes_from_a_rule_name(tmp_path):
    rules = tmp_path / "named.rules"
    rules.write_text("RULE dir_medium PRIO 1: trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE] => TOPOLOGICAL.SUPPORT")
    smap, lex, grammar, _ = load_resources(rule_paths=[rules])
    (ann,) = annotate("جلست على المقعد", lex, grammar, smap).annotations
    assert (ann.rule, ann.attributes) == ("dir_medium", {})


@pytest.mark.parametrize("form", ["مطل", "نظر"] + ["نظر" + suffix for suffix in PRONOUN_SUFFIXES])
def test_every_gaze_lexeme_form_opens_the_gaze_rule(run, form):
    doc = run(f"{form} على المدينة")
    assert [(a.rule, a.trigger.slice(doc.text), a.site.slice(doc.text)) for a in doc.annotations] == [
        ("dir_gaze", "على", "المدينة")
    ]


def test_round_trip_identity(run, tmp_path):
    doc = run("جلست المرأة على المقعد.")
    path = tmp_path / "doc.json"
    write_annotations(doc, path)
    loaded = read_annotations(path)
    assert loaded == doc
    # byte-stable serialization
    write_annotations(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_round_trip_via_stream(run):
    doc = run("أفقت عائداً في اتجاه الشاطئ.")
    buf = io.StringIO()
    write_annotations(doc, buf)
    assert read_annotations(io.StringIO(buf.getvalue())) == doc


# Characters JSON escapes or that need care: quotes, backslashes, controls, line separators, lone surrogates.
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\u2029\ud800\udfffé😀على') | st.characters(), max_size=12
)
_SPAN = st.builds(lambda start, length: OffsetSpan(start, start + length), st.integers(0, 10**12), st.integers(1, 9))


# The values an annotation's attributes can hold: the writer refuses NaN and infinities, which are not JSON
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)
_SPATIAL_ANNOTATION = st.builds(
    SpatialAnnotation,
    span=_SPAN,
    category=st.sampled_from(TOP_LEVEL) | _TEXT,
    trigger=_SPAN,
    site=st.none() | _SPAN,
    target=st.none() | _SPAN,
    attributes=st.dictionaries(_TEXT, _JSON_VALUE, max_size=2),
    alternates=st.lists(_TEXT, max_size=2).map(tuple),
    rule=st.none() | _TEXT,
)


_DOCUMENT = st.builds(
    AnnotatedDocument, doc_id=_TEXT, text=_TEXT, annotations=st.lists(_SPATIAL_ANNOTATION, max_size=3).map(tuple)
)


@settings(max_examples=100, deadline=None)
@given(_DOCUMENT)
def test_document_json_equals_json_dumps_byte_for_byte(doc):
    assert document_to_json(doc) == reference_document_json(doc)


_PATHS = sorted(PARENT.keys() - {ROOT})  # the root is no annotation's category, but may be an alternate


@st.composite
def _readable_document(draw):
    """A document `read_annotations` accepts: map categories and alternates, in-bounds spans, finite JSON."""
    text = draw(_TEXT)
    n = len(text)
    span = st.integers(0, n - 1).flatmap(lambda s: st.integers(s + 1, n).map(lambda e: OffsetSpan(s, e)))
    annotation = st.builds(
        SpatialAnnotation,
        span=span,
        category=st.sampled_from(_PATHS),
        trigger=span,
        site=st.none() | span,
        target=st.none() | span,
        attributes=st.dictionaries(_TEXT, _JSON_VALUE, max_size=2),
        alternates=st.lists(st.sampled_from([ROOT, *_PATHS]), max_size=2).map(tuple),
        rule=st.none() | _TEXT,
    )
    annotations = draw(st.lists(annotation, max_size=3)) if n else []
    return AnnotatedDocument(doc_id=draw(_TEXT), text=text, annotations=tuple(annotations))


@settings(max_examples=100, deadline=None)
@given(_readable_document())
def test_every_written_document_reads_back_equal(doc):
    assert read_annotations(io.StringIO(document_to_json(doc))) == doc


@pytest.mark.parametrize("value", [5, b"x"])
@pytest.mark.parametrize("field", ["doc_id", "text", "category", "rule", "alternates"])
def test_document_json_refuses_a_string_field_that_is_not_a_str(field, value):
    ann = SpatialAnnotation(span=OffsetSpan(0, 2), category="TOPOLOGICAL", trigger=OffsetSpan(0, 2), rule="r")
    if field in ("doc_id", "text"):
        doc = AnnotatedDocument(**{"doc_id": "d", "text": "في", field: value}, annotations=(ann,))
    else:
        fields = dict(zip(ann.__match_args__, ann), **{field: (value,) if field == "alternates" else value})
        doc = AnnotatedDocument(doc_id="d", text="في", annotations=(SpatialAnnotation(**fields),))
    with pytest.raises(TypeError):
        document_to_json(doc)


@pytest.mark.parametrize(
    "attributes",
    [
        {1: "x"},
        {None: "x"},
        {True: "x"},
        {"n": {2.5: "x"}},
        {"n": (True,)},
        {"n": [1, {"m": ()}]},
        {"n": float("nan")},
        {"n": float("inf")},
        {"n": [-float("inf")]},
        ["n", 1],
    ],
)
def test_document_json_refuses_attributes_that_would_not_read_back_equal(attributes):
    ann = SpatialAnnotation(OffsetSpan(0, 2), "TOPOLOGICAL", OffsetSpan(0, 2), attributes=attributes)
    with pytest.raises(TypeError):
        document_to_json(AnnotatedDocument("d", "في", (ann,)))


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


def test_document_json_writes_subclasses_of_str_int_and_float_as_json_dumps_does():
    # `re.I` is an `IntFlag`, whose own repr is not its number
    attributes = {_Str("n"): [_Int(3), _Float(0.5), _Str("x"), re.I]}
    ann = SpatialAnnotation(OffsetSpan(0, 2), "TOPOLOGICAL", OffsetSpan(0, 2), attributes=attributes)
    doc = AnnotatedDocument("d", "في", (ann,))
    assert document_to_json(doc) == reference_document_json(doc)


def test_document_json_refuses_attributes_that_hold_themselves_as_json_dumps_does():
    looped, shared = {}, [1]
    looped["n"] = [looped]
    for attributes, error in (({"n": looped}, ValueError), ({"a": shared, "b": [shared]}, None)):
        ann = SpatialAnnotation(OffsetSpan(0, 2), "TOPOLOGICAL", OffsetSpan(0, 2), attributes=attributes)
        doc = AnnotatedDocument("d", "في", (ann,))
        if error is None:  # a value held twice, not inside itself, is written each time
            assert document_to_json(doc) == reference_document_json(doc)
        else:
            with pytest.raises(error, match="Circular reference"):
                document_to_json(doc)
            with pytest.raises(error, match="Circular reference"):
                reference_document_json(doc)


def test_write_annotations_that_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("old contents", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_annotations(AnnotatedDocument("d", "ab\ud800", ()), path)
    assert path.read_text(encoding="utf-8") == "old contents"


def test_write_annotations_that_fails_part_way_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "d.json"
    path.write_text("old contents", encoding="utf-8")
    fdopen = os.fdopen

    class HalfWriter:  # writes half of what it is given, then fails as a full disk does
        def __init__(self, fd, *args, **kwargs):
            self.fh = fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fdopen", HalfWriter)
    with pytest.raises(OSError, match="No space left"):
        write_annotations(AnnotatedDocument("d", "جلست المرأة على المقعد.", ()), path)
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]  # and no temporary file is left


def test_write_annotations_gives_a_new_file_the_umask_mode_and_keeps_an_old_files_mode(tmp_path, umask_022):
    doc = AnnotatedDocument("d", "في", ())
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("old contents", encoding="utf-8")
    old.chmod(0o640)
    write_annotations(doc, new)
    write_annotations(doc, old)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert old.read_text(encoding="utf-8") == new.read_text(encoding="utf-8") == document_to_json(doc)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.json"]


def test_write_annotations_draws_another_temporary_name_when_one_is_taken(tmp_path, monkeypatch):
    names = iter(["taken", "free"])
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: next(names))
    taken = tmp_path / ".tmp-taken.json"
    taken.write_text("another writer's", encoding="utf-8")
    write_annotations(AnnotatedDocument("d", "في", ()), tmp_path / "d.json")
    assert taken.read_text(encoding="utf-8") == "another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".tmp-taken.json", "d.json"]


# Each record's fields in order, then how many of them have no default.
_RECORDS = [
    (RawMatch, ("r", (0, 2), {"trigger": (0, 1)}, "TOPOLOGICAL", ("NEG_SCOPE",), {"trigger": None}, ()), 5),
    (
        SpatialAnnotation,
        (OffsetSpan(0, 2), "TOPOLOGICAL", OffsetSpan(0, 1), OffsetSpan(1, 2), None, {"n": 1}, ("DIRECTIONAL",), "r"),
        3,
    ),
]


@pytest.mark.parametrize("cls,values,required", _RECORDS, ids=["RawMatch", "SpatialAnnotation"])
def test_match_and_annotation_records_are_immutable_and_equal_only_their_own_type(cls, values, required):
    record = cls(*values)
    assert record == cls(**dict(zip(cls.__match_args__, values)))
    assert record != tuple(record) and tuple(record) != record and not record == tuple(record)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(cls.__match_args__, values))})"
    moved = record._replace(rule="other")
    assert type(moved) is cls and moved == cls(**dict(zip(cls.__match_args__, values), rule="other")) != record
    assert repr(moved).startswith(f"{cls.__name__}(")
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        hash(record)
    assert copy.deepcopy(record) == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    first, second = cls(*values[:required]), cls(*values[:required])
    defaults = ({}, ()) if cls is RawMatch else (None, None, {}, (), None)
    assert tuple(first) == (*values[:required], *defaults)
    name = "evidence" if cls is RawMatch else "attributes"
    assert getattr(first, name) is not getattr(second, name)


def test_read_rejects_out_of_bounds_span(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "doc_id": "x",
                "text": "قصير",
                "annotations": [
                    {"start": 0, "end": 99, "category": "TOPOLOGICAL.SUPPORT", "trigger": {"start": 0, "end": 99}}
                ],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    with pytest.raises(AnnotationFormatError, match="out of bounds"):
        read_annotations(path)


def test_read_rejects_unknown_category(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "doc_id": "x",
                "text": "نص",
                "annotations": [
                    {"start": 0, "end": 2, "category": "TOPOLOGICAL.BOGUS", "trigger": {"start": 0, "end": 2}}
                ],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    with pytest.raises(AnnotationFormatError, match="TOPOLOGICAL.BOGUS"):
        read_annotations(path)


def test_read_rejects_the_root_as_a_category():
    ann = {"start": 0, "end": 2, "category": "TOPOLOGICAL.SUPPORT", "trigger": {"start": 0, "end": 2}}
    data = json.dumps({"doc_id": "x", "text": "نص", "annotations": [ann, {**ann, "category": ROOT}]})
    source = io.StringIO(data)
    source.name = "root.json"
    with pytest.raises(AnnotationFormatError, match=r"^root\.json: annotation 1: category 'SPATIAL' is the root"):
        read_annotations(source)


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(AnnotationFormatError, match="invalid JSON"):
        read_annotations(path)


def test_read_rejects_json_nested_too_deep():
    data = '{"doc_id": "x", "text": "", "annotations": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(AnnotationFormatError, match="invalid JSON"):
        read_annotations(io.StringIO(data))


def test_read_rejects_non_document_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(AnnotationFormatError, match="doc_id"):
        read_annotations(path)


def test_read_rejects_missing_trigger(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "doc_id": "x",
                "text": "نص",
                "annotations": [{"start": 0, "end": 2, "category": "TOPOLOGICAL.SUPPORT"}],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    with pytest.raises(AnnotationFormatError, match="missing trigger"):
        read_annotations(path)


def test_read_rejects_unknown_alternate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "doc_id": "x",
                "text": "نص",
                "annotations": [
                    {
                        "start": 0,
                        "end": 2,
                        "category": "TOPOLOGICAL.SUPPORT",
                        "trigger": {"start": 0, "end": 2},
                        "alternates": ["NOT.A.PATH"],
                    }
                ],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    with pytest.raises(AnnotationFormatError, match="NOT.A.PATH"):
        read_annotations(path)


@pytest.mark.parametrize("annotations", [5, None], ids=["number", "null"])
def test_read_rejects_non_list_annotations(annotations):
    data = json.dumps({"doc_id": "x", "text": "نص", "annotations": annotations})
    with pytest.raises(AnnotationFormatError, match="annotations must be a list"):
        read_annotations(io.StringIO(data))


@pytest.mark.parametrize(
    "field, value",
    [
        ("alternates", 5),
        ("alternates", [[1]]),
        ("attributes", [1]),
        ("rule", 5),
        ("start", True),
        ("trigger", {"start": 0, "end": True}),
    ],
    ids=["alternates-number", "alternates-nested", "attributes-list", "rule-number", "start-bool", "trigger-end-bool"],
)
def test_read_rejects_mistyped_annotation_field(field, value):
    good = {"start": 0, "end": 2, "category": "TOPOLOGICAL.SUPPORT", "trigger": {"start": 0, "end": 2}}
    data = json.dumps({"doc_id": "x", "text": "نص", "annotations": [good, {**good, field: value}]})
    with pytest.raises(AnnotationFormatError, match="annotation 1"):
        read_annotations(io.StringIO(data))


def test_annotate_never_crashes_on_arbitrary_text(run, bundle, suite_gold):
    # Suite sentences with words marked (harakat, tatweel) or swapped for lexicon and suite words behind proclitics
    # make annotations: `_convert` builds their spans without `OffsetSpan`'s check, so each must still pass it.
    lex = bundle[1]
    suite_words = {w for d in suite_gold for w in _WORD_RE.findall(normalize(d.text)[0])}
    vocabulary = sorted(lex._forms | suite_words)
    sentences = [d.text for d in suite_gold]

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80) | word_texts(vocabulary) | edited_sentences(sentences, vocabulary))
    @example("غادَرَ أخي رامي بِالباخِرةِ، لكنه عـاد بالطّائرة")  # two media: a proclitic trigger, a stem site
    def _fuzz(text):
        doc = run(text)
        for ann in doc.annotations:
            for span in (ann.span, ann.trigger, ann.site, ann.target):
                if span is not None:
                    assert type(span) is OffsetSpan and OffsetSpan(*span) == span
                    assert 0 <= span.start < span.end <= len(text)

    _fuzz()


def test_multi_sentence_document(run, suite_gold):
    # the pipeline is sentence-agnostic: on the concatenated corpus the
    # match windows happen not to cross sentence boundaries, so the count
    # equals the per-document sum
    text = "\n".join(d.text for d in suite_gold)
    doc = run(text)
    assert len(doc.annotations) == sum(len(d.annotations) for d in suite_gold)
    for ann in doc.annotations:
        assert 0 <= ann.span.start < ann.span.end <= len(text)
    triggers = [a.trigger for a in doc.annotations]
    for a, b in zip(triggers, triggers[1:]):
        assert a.end <= b.start
    starts = [a.span.start for a in doc.annotations]  # as `annotate` emits them: it does not sort
    assert all(a < b for a, b in zip(starts, starts[1:]))


# `tokenize` drops sentence punctuation, so e24's trailing optional site runs
# on into the first word of s06 and of s07 (ROADMAP: sentence-bounded matching)
KNOWN_JOINS_THAT_CHANGE_ANNOTATIONS = {("e24", "s06"), ("e24", "s07")}


def _shifted(ann, by):
    def move(span):
        return None if span is None else OffsetSpan(span.start + by, span.end + by)

    span, category, trigger, site, target, attributes, alternates, rule = ann
    return SpatialAnnotation(move(span), category, move(trigger), move(site), move(target), attributes, alternates, rule)


def test_joining_two_suite_documents_changes_no_annotation(run, suite_system):
    changed = set()
    for a in suite_system:
        shift = len(a.text) + 1
        for b in suite_system:
            joined = run(a.text + "\n" + b.text).annotations
            if joined != a.annotations + tuple(_shifted(ann, shift) for ann in b.annotations):
                changed.add((a.doc_id, b.doc_id))
    assert changed == KNOWN_JOINS_THAT_CHANGE_ANNOTATIONS


def test_parallel_annotation_matches_serial(bundle, suite_gold):
    # lexicon, grammar and map are immutable; annotate is pure
    from concurrent.futures import ThreadPoolExecutor

    from makan import annotate

    smap, lex, grammar, _ = bundle

    def work(doc):
        return annotate(doc.text, lex, grammar, smap, doc_id=doc.doc_id)

    jobs = list(suite_gold) * 3
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(work, jobs))
    assert parallel == [work(d) for d in jobs]


def test_annotate_rejects_mismatched_map(bundle):
    from makan import annotate

    smap, lex, grammar, _ = bundle
    tiny = {"SPATIAL": None}
    with pytest.raises(ValueError, match="does not resolve"):
        annotate("جلست المرأة على المقعد.", lex, grammar, tiny)


def test_annotate_rejects_mismatched_map_on_text_without_a_match(bundle):
    from makan import annotate

    smap, lex, grammar, _ = bundle
    tiny = {"SPATIAL": None}
    with pytest.raises(ValueError, match="does not resolve"):
        annotate("", lex, grammar, tiny)


@pytest.mark.parametrize("doc_id", [3, None, b"d"])
def test_annotate_refuses_a_doc_id_that_is_not_a_str_before_any_work(bundle, doc_id):
    from makan import annotate

    smap, lex, grammar, _ = bundle
    message = f"^doc_id must be a str, not {type(doc_id).__name__}$"
    with pytest.raises(TypeError, match=message):
        annotate("جلست المرأة على المقعد.", lex, grammar, smap, doc_id=doc_id)
    with pytest.raises(TypeError, match=message):  # ahead of the map check, so before any work
        annotate("", lex, grammar, {"SPATIAL": None}, doc_id=doc_id)


def test_annotate_leaves_no_cyclic_garbage(run, suite_gold):
    gc.collect()
    gc.disable()
    try:
        for doc in suite_gold:
            run(doc.text)
        run("\n".join(doc.text for doc in suite_gold))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_annotate_runs_with_the_collector_paused_and_leaves_it_as_it_was(monkeypatch, run, suite_gold, enabled):
    during = []
    run_guards = guards.run_guards

    def spy(tokens, match):
        during.append(gc.isenabled())
        return run_guards(tokens, match)

    monkeypatch.setattr(guards, "run_guards", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        run(suite_gold[0].text)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)
    assert after is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fault", ["variant", "lexicon"])
def test_annotate_that_raises_leaves_the_collector_as_it_was(bundle, enabled, fault):
    smap, lex, grammar, _ = bundle
    if fault == "variant":  # a variant table, no longer read: raised by `tokenize`, inside the pause
        lexicon, variants = lex, {"سين": "سان"}
        message = "give each spelling its own lexicon row"
    else:  # an equal copy is another lexicon, refused before the pause
        lexicon, variants = Lexicon(list(lex.entries)), None
        message = "lexicon other than the one it was compiled for"
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match=re.escape(message)):
            annotate("عاد إلى سين", lexicon, grammar, smap, variants)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled


def test_two_threads_annotating_at_once_leave_the_collector_on(run, suite_gold):
    # whichever call finishes last, the one that turned the collector off turns it back on
    from concurrent.futures import ThreadPoolExecutor

    both = threading.Barrier(2)

    def work(_):
        both.wait(timeout=10)
        return [run(doc.text) for doc in suite_gold]

    was, interval = gc.isenabled(), sys.getswitchinterval()
    try:
        gc.enable()
        sys.setswitchinterval(1e-6)  # switch threads often, so that one call's pause overlaps the other's
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(work, range(2))
        after = gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()
    assert after
    assert first == second


def test_annotating_with_two_lexicons_in_turn_leaves_no_cyclic_garbage(bundle, suite_gold):
    smap, lex, grammar, _ = bundle
    _, other, other_grammar, _ = load_resources()  # a second lexicon and its own grammar: a second set of memo tables
    gone = weakref.ref(other)
    gc.collect()
    gc.disable()
    try:
        for doc in suite_gold:
            for lexicon, g in ((lex, grammar), (other, other_grammar), (lex, grammar)):
                annotate(doc.text, lexicon, g, smap)
        del other, other_grammar
        assert gone() is None  # no cycle holds the lexicon: it went with its grammar, and the tables of both
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_annotate_is_deterministic_and_idempotent(run, suite_gold):
    for doc in suite_gold[:10]:
        once = run(doc.text)
        twice = run(doc.text)
        assert once.annotations == twice.annotations


def test_category_projection_is_top_level_total(suite_system):
    seen = set()
    for doc in suite_system:
        for ann in doc.annotations:
            seen.add(top_level(ann.category))
    assert seen <= set(TOP_LEVEL)
    assert seen == set(TOP_LEVEL)  # the suite exercises all three branches


def test_trigger_spans_pairwise_disjoint_and_sorted(suite_system):
    for doc in suite_system:
        triggers = [a.trigger for a in doc.annotations]
        for a, b in zip(triggers, triggers[1:]):
            assert a.end <= b.start
        starts = [a.span.start for a in doc.annotations]
        assert starts == sorted(starts)


def test_annotation_spans_cover_captures(suite_system):
    for doc in suite_system:
        for ann in doc.annotations:
            assert ann.span.start <= ann.trigger.start <= ann.trigger.end <= ann.span.end
            if ann.site is not None:
                assert ann.span.start <= ann.site.start <= ann.site.end <= ann.span.end


def test_no_annotation_survives_inside_vetoed_scope(bundle, suite_system, suite_gold):
    # post-condition audit: re-run the raw cascade and re-check every
    # emitted annotation against its rule's guards
    smap, lex, grammar, _ = bundle
    for doc in suite_gold:
        tokens = tokenize(doc.text, lex)
        for match in apply(grammar, tokens):
            vetoed, _ = guards.run_guards(tokens, match)
            emitted = [
                a
                for a in dict(zip([d.doc_id for d in suite_gold], suite_system))[doc.doc_id].annotations
                if a.rule == match.rule and a.category == match.output
            ]
            if vetoed:
                trig = match.captures["trigger"]
                trig_span = (tokens[trig[0]].stem_span.start, tokens[trig[1] - 1].span.end)
                assert all(
                    (a.trigger.start, a.trigger.end) != trig_span for a in emitted
                ), f"vetoed match leaked into {doc.doc_id}"


def test_document_json_shape(run):
    doc = run("جلست المرأة على المقعد.")
    obj = json.loads(document_to_json(doc))
    assert set(obj) == {"doc_id", "text", "annotations"}
    ann = obj["annotations"][0]
    assert ann["category"] == "TOPOLOGICAL.SUPPORT"
    assert set(ann) >= {"start", "end", "category", "trigger", "site", "rule"}


def test_trigger_text_normalizes_to_a_lexicon_form(bundle, suite_system):
    # offset fidelity: the covered original substring, once normalized, is a
    # lemma of the lexicon, a pronoun-suffixed variant of one, or the ب
    # proclitic itself
    from makan.lexicon import PRONOUN_SUFFIXES
    from makan.textnorm import normalize

    lex = bundle[1]
    lemmas = {e.lemma for e in lex.entries}
    acceptable = set(lemmas) | {"ب"}
    for lemma in lemmas:
        base = lemma[:-1] + "ت" if lemma.endswith("ة") else lemma
        acceptable.update(base + s for s in PRONOUN_SUFFIXES)
    for doc in suite_system:
        for ann in doc.annotations:
            surface = normalize(ann.trigger.slice(doc.text))[0]
            assert surface in acceptable, (doc.doc_id, surface)
