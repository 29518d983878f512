"""End-to-end pipeline: normalize, tokenize, match, guard, emit standoff annotations.

Annotation files are JSON, one document per file; all offsets are Unicode
scalar indices into the original text. Gold files use the same schema
without the `rule` field.
"""

from __future__ import annotations

import gc
import json
import math
import os
import secrets
import stat
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from . import engine, guards, semmap
from .lexicon import Lexicon
from .textnorm import OffsetSpan, Record, tokenize


class AnnotationFormatError(ValueError):
    pass


class SpatialAnnotation(
    Record, namedtuple("SpatialAnnotation", "span category trigger site target attributes alternates rule")
):
    """One standoff annotation, an immutable record (see `textnorm.Record`); `span` hulls trigger, site and target."""

    __slots__ = ()

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


def _convert(match: engine.RawMatch, tokens, alternates: list[str]) -> SpatialAnnotation:
    """The annotation of a match that passed its guards, read off the stream's run starts and word records.

    `tokenize` makes each record with 0 <= start < end, cuts and a stem start inside the word at rising offsets, and a
    stream's words in order, so each span is valid as built and skips `OffsetSpan`'s check."""
    starts, words = tokens.starts, tokens.words  # each a `textnorm.Word`
    rule, _, captures, output, _, evidence, _ = match
    first, last = captures["trigger"]
    trig_ev = evidence.get("trigger")
    r0, word = starts[first], words[first]
    site = target = None
    if trig_ev is not None and trig_ev.via_proclitic:
        # الباء medium: the proclitic is the trigger, the stem is the site.
        cut = next(cut for cut in word.cuts if cut.kind == "preposition")
        trigger = tuple.__new__(OffsetSpan, (r0 + cut.start, r0 + cut.end))
        site = tuple.__new__(OffsetSpan, (r0 + word.stem_start, r0 + word.end))
    else:
        # The trigger is the licensing lexeme: detached proclitics (وعن ...)
        # stay outside its span.
        trigger = tuple.__new__(OffsetSpan, (r0 + word.stem_start, starts[last - 1] + words[last - 1].end))
    lo, hi = trigger
    if "site" in captures:
        a, b = captures["site"]
        site = tuple.__new__(OffsetSpan, (starts[a] + words[a].start, starts[b - 1] + words[b - 1].end))
    if "target" in captures:
        a, b = captures["target"]
        target = tuple.__new__(OffsetSpan, (starts[a] + words[a].start, starts[b - 1] + words[b - 1].end))
    if site is not None:  # the hull, from the bounds in hand
        lo, hi = min(lo, site[0]), max(hi, site[1])
    if target is not None:
        lo, hi = min(lo, target[0]), max(hi, target[1])
    attributes = dict(trig_ev.entry.attributes) if trig_ev is not None else {}
    hull = tuple.__new__(OffsetSpan, (lo, hi))
    return tuple.__new__(SpatialAnnotation, (hull, output, trigger, site, target, attributes, tuple(alternates), rule))


def annotate(
    text: str,
    lexicon: Lexicon,
    grammar: engine.CompiledGrammar,
    smap: Mapping[str, str | None],
    variants: dict[str, str] | None = None,
    doc_id: str = "",
) -> AnnotatedDocument:
    """Run the full cascade over `text`, with the lexicon `grammar` was compiled for, into standoff annotations.

    They come out in strictly increasing `span.start`, since `engine.apply` resumes after each trigger.

    The cyclic garbage collector is paused for the call, as `cli.main` pauses it for a command: the call builds no
    reference cycle, so reference counting frees all it drops. On the way out, by a return or an exception, it is
    turned back on only if it was on. Calls in several threads leave it as it was before the first: the call that
    turned it off turns it back on. A thread that turns it off while a call runs may find it on when the call
    returns."""
    for name, value in (("text", text), ("doc_id", doc_id)):  # else doc_id fails only when the document is written
        if not isinstance(value, str):
            raise TypeError(f"{name} must be a str, not {type(value).__name__}")
    if lexicon is not grammar.lexicon:
        raise ValueError("the grammar is applied with a lexicon other than the one it was compiled for")
    # The grammar was validated against the one map; another map must hold every rule output.
    unresolved = [] if smap is semmap.PARENT else [r.output for r in grammar.rules if r.output not in smap]
    if unresolved:
        raise ValueError(f"category {unresolved[0]} does not resolve in the given map")
    enabled = gc.isenabled()
    gc.disable()
    try:
        tokens = tokenize(text, lexicon, variants)
        annotations = []
        for match in engine.apply(grammar, tokens):
            vetoed, alternates = guards.run_guards(tokens, match)
            if vetoed:
                continue
            annotations.append(_convert(match, tokens, alternates))
    finally:
        if enabled:
            gc.enable()
    return AnnotatedDocument(doc_id, text, tuple(annotations))


# ---------------------------------------------------------------------------
# serialization
#
# `document_to_json` lays out by hand the bytes of `json.dumps(schema dict, ensure_ascii=False, indent=2)`, whose
# `indent` sends it down the pure-Python encoder. Each field has one path, which refuses a value of a type that
# `read_annotations` refuses: strings (`doc_id`, `text`, `category`, `rule`, each alternate) go through that
# encoder's own string function, which raises `TypeError` for a value that is not a `str`; span bounds, `int`s as
# `OffsetSpan` holds them, through `%d`; `attributes` through `_attribute_json`, which lays them out at their depth
# and refuses in the same walk what would not read back equal.

_encode_str = json.encoder.encode_basestring
_SPAN = '{\n        "start": %d,\n        "end": %d\n      }'
_HEAD = '{\n      "start": %d,\n      "end": %d,\n      "category": %s,\n      "trigger": ' + _SPAN
_SITE = ',\n      "site": ' + _SPAN
_TARGET = ',\n      "target": ' + _SPAN
_ITEM = ",\n        "  # between the items of an annotation's list


def _attribute_json(value, pad: str, containers: tuple = ()) -> str:
    """`value` as `json.dumps(value, ensure_ascii=False, indent=2)` lays it out, each line after the first indented
    by `pad`; TypeError unless it reads back equal: each dict keyed by `str`s, no tuple (it reads back as a list),
    no NaN or infinity (not JSON) and nothing else JSON cannot hold. A container that holds itself is a ValueError,
    as it is to `json.dumps`; `containers` holds the ids of those the value lies in."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, list)):
        raise TypeError(f"attribute value {value!r} would not read back equal from JSON")
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    if id(value) in containers:
        raise ValueError("Circular reference detected")
    containers, inner = (*containers, id(value)), pad + "  "
    if is_dict:
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"attribute key {key!r} is not a str")
        items = [_encode_str(key) + ": " + _attribute_json(item, inner, containers) for key, item in value.items()]
    else:
        items = [_attribute_json(item, inner, containers) for item in value]
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _ann_json(a: SpatialAnnotation) -> str:
    span, category, trigger, site, target, attributes, alternates, rule = a
    parts = [_HEAD % (*span, _encode_str(category), *trigger)]
    if site is not None:
        parts.append(_SITE % site)
    if target is not None:
        parts.append(_TARGET % target)
    if attributes:
        if not isinstance(attributes, dict):
            raise TypeError(f"attributes must be a dict, not {type(attributes).__name__}")
        parts += (',\n      "attributes": ', _attribute_json(attributes, "      "))
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


def _atomic_write(path, data: str) -> None:
    """Write `data` to `path` as UTF-8 through a temporary file beside it and a rename: a failure leaves `path` as
    it was, whether `data` cannot encode (a lone surrogate) or the write stops part-way. A new file takes the mode
    the umask gives; a file written over keeps its own."""
    data = data.encode("utf-8")  # before the temporary file is made
    path = Path(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    while True:  # a random name beside the target, made only if no file has it
        tmp = path.with_name(f".tmp-{secrets.token_hex(8)}{path.suffix}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.chmod(tmp, mode)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_annotations(doc: AnnotatedDocument, sink) -> None:
    """Write a document; `sink` is a path, written whole or not at all (see `_atomic_write`), or a writable text
    file object."""
    data = document_to_json(doc)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        _atomic_write(sink, data)


def _span(obj, n: int, name: str, idx: int, key: str = "") -> OffsetSpan:
    """The span of `obj`'s start and end, checked once here: `OffsetSpan`'s own check would repeat a weaker one."""
    start = end = None
    if isinstance(obj, dict):
        start, end = obj.get("start"), obj.get("end")
    # JSON true/false load as bool, a subclass of int: not a span bound.
    if type(start) is int and type(end) is int and 0 <= start < end <= n:
        return tuple.__new__(OffsetSpan, (start, end))
    where = f"{name}: annotation {idx}" + (f" ({key})" if key else "")
    if type(start) is not int or type(end) is not int:
        raise AnnotationFormatError(f"{where}: span must be an object with integer start/end")
    raise AnnotationFormatError(f"{where}: span [{start}, {end}) out of bounds for text of length {n}")


def read_annotations(source) -> AnnotatedDocument:
    """Read and validate an annotation document from a path or a readable file object; every fault, a path that
    cannot be opened or bytes that do not decode included, is an AnnotationFormatError naming the source."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else str(source)
    try:
        if stream:
            data = source.read()
        else:
            with open(source, encoding="utf-8") as fh:
                data = fh.read()
        obj = json.loads(data)
    except OSError as exc:
        raise AnnotationFormatError(f"{name}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # from the file, or from `json.loads` of a stream's bytes
        raise AnnotationFormatError(f"{name}: not UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise AnnotationFormatError(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("doc_id"), str) or not isinstance(obj.get("text"), str):
        raise AnnotationFormatError(f"{name}: document must have string doc_id and text")
    text, raw_anns = obj["text"], obj.get("annotations", [])
    if not isinstance(raw_anns, list):
        raise AnnotationFormatError(f"{name}: annotations must be a list")
    n, anns = len(text), []
    categories = semmap.PARENT
    for idx, raw in enumerate(raw_anns):
        if not isinstance(raw, dict):
            raise AnnotationFormatError(f"{name}: annotation {idx}: must be an object")
        category = raw.get("category")
        if not isinstance(category, str) or category not in categories:
            raise AnnotationFormatError(f"{name}: annotation {idx}: unknown category path {category!r}")
        if category == semmap.ROOT:  # scoring counts by top-level category, which the root lies above
            raise AnnotationFormatError(f"{name}: annotation {idx}: category {category!r} is the root, not a category")
        span = _span(raw, n, name, idx)
        if "trigger" not in raw:
            raise AnnotationFormatError(f"{name}: annotation {idx}: missing trigger span")
        trigger = _span(raw["trigger"], n, name, idx, "trigger")
        site = _span(raw["site"], n, name, idx, "site") if "site" in raw else None
        target = _span(raw["target"], n, name, idx, "target") if "target" in raw else None
        alternates = raw.get("alternates", [])
        if not isinstance(alternates, list):
            raise AnnotationFormatError(f"{name}: annotation {idx}: alternates must be a list")
        for alt in alternates:
            if not isinstance(alt, str) or alt not in categories:
                raise AnnotationFormatError(f"{name}: annotation {idx}: unknown alternate category {alt!r}")
        attributes, rule = raw.get("attributes", {}), raw.get("rule")
        if not isinstance(attributes, dict):
            raise AnnotationFormatError(f"{name}: annotation {idx}: attributes must be an object")
        if rule is not None and not isinstance(rule, str):
            raise AnnotationFormatError(f"{name}: annotation {idx}: rule must be a string")
        fields = span, category, trigger, site, target, attributes, tuple(alternates), rule  # each checked above
        anns.append(tuple.__new__(SpatialAnnotation, fields))
    return AnnotatedDocument(doc_id=obj["doc_id"], text=text, annotations=tuple(anns))
