"""End-to-end pipeline: normalize, tokenize, match, guard, emit standoff annotations.

Annotation files are JSON, one document per file; all offsets are Unicode
scalar indices into the original text. Gold files use the same schema
without the `rule` field.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from operator import itemgetter

from . import engine, guards, semmap
from .lexicon import Lexicon
from .textnorm import OffsetSpan, Record, tokenize


class AnnotationFormatError(ValueError):
    pass


class SpatialAnnotation(Record):
    """One standoff annotation: an immutable record (see `textnorm.Record`)."""

    __slots__ = ()
    __match_args__ = ("span", "category", "trigger", "site", "target", "attributes", "alternates", "rule")
    span = property(itemgetter(0))        # hull of the trigger, site and target spans
    category = property(itemgetter(1))
    trigger = property(itemgetter(2))
    site = property(itemgetter(3))
    target = property(itemgetter(4))
    attributes = property(itemgetter(5))
    alternates = property(itemgetter(6))
    rule = property(itemgetter(7))

    def __new__(cls, span: OffsetSpan, category: str, trigger: OffsetSpan, site: OffsetSpan | None = None,
                target: OffsetSpan | None = None, attributes: dict | None = None, alternates: tuple[str, ...] = (),
                rule: str | None = None):
        attributes = {} if attributes is None else attributes  # a default is a new dict, never a shared one
        return tuple.__new__(cls, (span, category, trigger, site, target, attributes, alternates, rule))


@dataclass(frozen=True)
class AnnotatedDocument:
    doc_id: str
    text: str
    annotations: tuple[SpatialAnnotation, ...]


def _token_hull(tokens, rng: tuple[int, int]) -> OffsetSpan:
    starts, words = tokens.starts, tokens.words
    return OffsetSpan(starts[rng[0]] + words[rng[0]][0], starts[rng[1] - 1] + words[rng[1] - 1][1])


def _convert(match: engine.RawMatch, tokens, alternates: list[str]) -> SpatialAnnotation:
    """The annotation of a match that passed its guards, read off the stream's run starts and word records."""
    starts, words = tokens.starts, tokens.words  # a record: (start, end, surface, cuts, stem start, stem, key)
    rule, _, captures, output, _, evidence, _ = match
    first, last = captures["trigger"]
    trig_ev = evidence.get("trigger")
    r0, word = starts[first], words[first]
    site = target = None
    if trig_ev is not None and trig_ev.via_proclitic:
        # الباء medium: the proclitic is the trigger, the stem is the site.
        _, cs, ce, _ = next(cut for cut in word[3] if cut[0] == "preposition")
        lo, hi = r0 + cs, r0 + ce
        site = OffsetSpan(r0 + word[4], r0 + word[1])
    else:
        # The trigger is the licensing lexeme: detached proclitics (وعن ...)
        # stay outside its span.
        lo, hi = r0 + word[4], starts[last - 1] + words[last - 1][1]
    trigger = OffsetSpan(lo, hi)
    if "site" in captures:
        site = _token_hull(tokens, captures["site"])
    if "target" in captures:
        target = _token_hull(tokens, captures["target"])
    for start, end in filter(None, (site, target)):  # the hull, from the bounds in hand
        lo, hi = min(lo, start), max(hi, end)
    attributes = dict(trig_ev.entry.attributes) if trig_ev is not None else {}
    return SpatialAnnotation(OffsetSpan(lo, hi), output, trigger, site, target, attributes, tuple(alternates), rule)


def annotate(
    text: str,
    lexicon: Lexicon,
    grammar: engine.CompiledGrammar,
    smap: semmap.SpatialityMap,
    variants: dict[str, str] | None = None,
    doc_id: str = "",
) -> AnnotatedDocument:
    """Run the full cascade over `text`, with the lexicon `grammar` was compiled for, into standoff annotations.

    They come out in strictly increasing `span.start`, since `engine.apply` resumes after each trigger."""
    # The grammar was validated against its own map; another map must hold every rule output.
    unresolved = [] if smap is grammar.smap else [r.output for r in grammar.rules if r.output not in smap]
    if unresolved:
        raise ValueError(f"category {unresolved[0]} does not resolve in the given map")
    tokens = tokenize(text, lexicon, variants)
    annotations = []
    for match in engine.apply(grammar, tokens, lexicon):
        vetoed, alternates = guards.run_guards(match.guards, tokens, match)
        if vetoed:
            continue
        annotations.append(_convert(match, tokens, alternates))
    return AnnotatedDocument(doc_id=doc_id, text=text, annotations=tuple(annotations))


# ---------------------------------------------------------------------------
# serialization
#
# `document_to_json` lays out by hand the bytes of `json.dumps(schema dict, ensure_ascii=False, indent=2)`, whose
# `indent` sends it down the pure-Python encoder. Each field has one path, which refuses a value of a type that
# `read_annotations` refuses: strings (`doc_id`, `text`, `category`, `rule`, each alternate) go through that
# encoder's own string function, which raises `TypeError` for a value that is not a `str`; span bounds, `int`s as
# `OffsetSpan` holds them, through `%d`; `attributes` through `json.dumps` itself, re-indented to its depth, and
# `_check_attributes` refuses what would not read back equal.

_encode_str = json.encoder.encode_basestring
_SPAN = '{\n        "start": %d,\n        "end": %d\n      }'
_HEAD = '{\n      "start": %d,\n      "end": %d,\n      "category": %s,\n      "trigger": ' + _SPAN
_SITE = ',\n      "site": ' + _SPAN
_TARGET = ',\n      "target": ' + _SPAN
_ITEM = ",\n        "  # between the items of an annotation's list


def _check_attributes(attributes) -> None:
    """TypeError unless `attributes`, which `json.dumps` has written, reads back equal: a dict, each dict in it
    keyed by `str`s, with no tuple (it reads back as a list) and no NaN or infinity (not JSON) at any depth."""
    if not isinstance(attributes, dict):
        raise TypeError(f"attributes must be a dict, not {type(attributes).__name__}")
    values = [attributes]
    for value in values:  # grows as it is read, to every nested value; `json.dumps` has refused a cycle
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"attribute key {key!r} is not a str")
            values += value.values()
        elif isinstance(value, list):
            values += value
        elif isinstance(value, tuple) or isinstance(value, float) and not math.isfinite(value):
            raise TypeError(f"attribute value {value!r} would not read back equal from JSON")


def _ann_json(a: SpatialAnnotation) -> str:
    span, category, trigger, site, target, attributes, alternates, rule = a
    parts = [_HEAD % (*span, _encode_str(category), *trigger)]
    if site is not None:
        parts.append(_SITE % site)
    if target is not None:
        parts.append(_TARGET % target)
    if attributes:
        written = json.dumps(attributes, ensure_ascii=False, indent=2)
        _check_attributes(attributes)
        parts += (',\n      "attributes": ', written.replace("\n", "\n      "))
    if alternates:
        parts += (',\n      "alternates": [\n        ', _ITEM.join(map(_encode_str, alternates)), "\n      ]")
    if rule is not None:
        parts += (',\n      "rule": ', _encode_str(rule))
    parts.append("\n    }")
    return "".join(parts)


def document_to_json(doc: AnnotatedDocument) -> str:
    """`json.dumps` of the schema dict with `ensure_ascii=False` and `indent=2`, plus a newline, byte for byte."""
    anns = [_ann_json(a) for a in doc.annotations]
    head = _encode_str(doc.doc_id), _encode_str(doc.text)
    if not anns:
        return '{\n  "doc_id": %s,\n  "text": %s,\n  "annotations": []\n}\n' % head
    # the joined annotations, most of the document, go straight into the format: a `+` would copy them again
    return '{\n  "doc_id": %s,\n  "text": %s,\n  "annotations": [\n    %s\n  ]\n}\n' % (*head, ",\n    ".join(anns))


def write_annotations(doc: AnnotatedDocument, sink) -> None:
    """Write a document; `sink` is a path or a writable text file object.

    A path is opened, and so emptied, only once the document has encoded: one that cannot leaves the file as it
    was."""
    data = document_to_json(doc)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        data = data.encode("utf-8")  # a lone surrogate in the text raises here
        with open(sink, "wb") as fh:
            fh.write(data)


def _parse_span(obj, text_len: int, where: str) -> OffsetSpan:
    # JSON true/false load as bool, a subclass of int: not a span bound.
    if not isinstance(obj, dict) or type(obj.get("start")) is not int or type(obj.get("end")) is not int:
        raise AnnotationFormatError(f"{where}: span must be an object with integer start/end")
    start, end = obj["start"], obj["end"]
    if not (0 <= start < end <= text_len):
        raise AnnotationFormatError(f"{where}: span [{start}, {end}) out of bounds for text of length {text_len}")
    return OffsetSpan(start, end)


_SPAN_KEYS = ("trigger", "site", "target")


def read_annotations(source, smap: semmap.SpatialityMap | None = None) -> AnnotatedDocument:
    """Read and validate an annotation document; raises AnnotationFormatError."""
    if smap is None:
        smap = semmap.default_map()
    if hasattr(source, "read"):
        data, name = source.read(), getattr(source, "name", "<stream>")
    else:
        name = str(source)
        try:
            with open(source, encoding="utf-8") as fh:
                data = fh.read()
        except UnicodeDecodeError as exc:
            raise AnnotationFormatError(f"{name}: not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise AnnotationFormatError(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("doc_id"), str) or not isinstance(obj.get("text"), str):
        raise AnnotationFormatError(f"{name}: document must have string doc_id and text")
    text, raw_anns = obj["text"], obj.get("annotations", [])
    if not isinstance(raw_anns, list):
        raise AnnotationFormatError(f"{name}: annotations must be a list")
    n, anns = len(text), []
    resolves = functools.cache(lambda path: semmap.resolve(smap, path) is not None)  # each distinct path once a call
    # A span that is well formed is built here; `_parse_span` sees only one that fails, and words the error.
    for idx, raw in enumerate(raw_anns):
        if not isinstance(raw, dict):
            raise AnnotationFormatError(f"{name}: annotation {idx}: must be an object")
        category = raw.get("category")
        if not isinstance(category, str) or not resolves(category):
            raise AnnotationFormatError(f"{name}: annotation {idx}: unknown category path {category!r}")
        start, end = raw.get("start"), raw.get("end")
        if type(start) is int and type(end) is int and 0 <= start < end <= n:
            span = OffsetSpan(start, end)
        else:
            span = _parse_span({"start": start, "end": end}, n, f"{name}: annotation {idx}")
        if "trigger" not in raw:
            raise AnnotationFormatError(f"{name}: annotation {idx}: missing trigger span")
        spans = []
        for key in _SPAN_KEYS:
            value = raw.get(key)
            if type(value) is dict:
                s, e = value.get("start"), value.get("end")
                if type(s) is int and type(e) is int and 0 <= s < e <= n:
                    spans.append(OffsetSpan(s, e))
                    continue
            spans.append(_parse_span(value, n, f"{name}: annotation {idx} ({key})") if key in raw else None)
        trigger, site, target = spans
        alternates = raw.get("alternates", [])
        if not isinstance(alternates, list):
            raise AnnotationFormatError(f"{name}: annotation {idx}: alternates must be a list")
        for alt in alternates:
            if not isinstance(alt, str) or not resolves(alt):
                raise AnnotationFormatError(f"{name}: annotation {idx}: unknown alternate category {alt!r}")
        attributes, rule = raw.get("attributes", {}), raw.get("rule")
        if not isinstance(attributes, dict):
            raise AnnotationFormatError(f"{name}: annotation {idx}: attributes must be an object")
        if rule is not None and not isinstance(rule, str):
            raise AnnotationFormatError(f"{name}: annotation {idx}: rule must be a string")
        anns.append(SpatialAnnotation(span, category, trigger, site, target, attributes, tuple(alternates), rule))
    return AnnotatedDocument(doc_id=obj["doc_id"], text=text, annotations=tuple(anns))
