"""End-to-end pipeline: normalize, tokenize, match, guard, emit standoff annotations.

Annotation files are JSON, one document per file; all offsets are Unicode
scalar indices into the original text. Gold files use the same schema
without the `rule` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import engine, guards, semmap
from .lexicon import Lexicon
from .textnorm import OffsetSpan, tokenize


class AnnotationFormatError(ValueError):
    pass


@dataclass(frozen=True)
class SpatialAnnotation:
    span: OffsetSpan                 # trigger-to-site hull
    category: str
    trigger: OffsetSpan
    site: OffsetSpan | None = None
    target: OffsetSpan | None = None
    attributes: dict = field(default_factory=dict)
    alternates: tuple[str, ...] = ()
    rule: str | None = None


@dataclass(frozen=True)
class AnnotatedDocument:
    doc_id: str
    text: str
    annotations: tuple[SpatialAnnotation, ...]


# Spans built from valid token spans skip `OffsetSpan`'s check here and in `_convert`, as in `textnorm.tokenize`.
def _hull(spans: list[OffsetSpan]) -> OffsetSpan:
    return tuple.__new__(OffsetSpan, (min(s.start for s in spans), max(s.end for s in spans)))


def _token_hull(tokens, rng: tuple[int, int]) -> OffsetSpan:
    return tuple.__new__(OffsetSpan, (tokens[rng[0]].span.start, tokens[rng[1] - 1].span.end))


def _convert(match: engine.RawMatch, tokens, alternates: list[str]) -> SpatialAnnotation:
    trig_rng = match.captures["trigger"]
    trig_ev = match.evidence.get("trigger")
    site_span = None
    if trig_ev is not None and trig_ev.via_proclitic:
        # الباء medium: the proclitic is the trigger, the stem is the site.
        tok = tokens[trig_rng[0]]
        trigger_span = next(p.span for p in tok.proclitics if p.kind == "preposition")
        site_span = tok.stem_span
    else:
        # The trigger is the licensing lexeme: detached proclitics (وعن ...)
        # stay outside its span.
        trigger_span = tuple.__new__(OffsetSpan, (tokens[trig_rng[0]].stem_span.start, tokens[trig_rng[1] - 1].span.end))
    if "site" in match.captures:
        site_span = _token_hull(tokens, match.captures["site"])
    target_span = _token_hull(tokens, match.captures["target"]) if "target" in match.captures else None

    spans = [trigger_span] + [s for s in (site_span, target_span) if s is not None]
    return SpatialAnnotation(
        span=_hull(spans),
        category=match.output,
        trigger=trigger_span,
        site=site_span,
        target=target_span,
        attributes=dict(trig_ev.entry.attributes) if trig_ev is not None else {},
        alternates=tuple(alternates),
        rule=match.rule,
    )


def annotate(
    text: str,
    lexicon: Lexicon,
    grammar: engine.CompiledGrammar,
    smap: semmap.SpatialityMap,
    variants: dict[str, str] | None = None,
    doc_id: str = "",
) -> AnnotatedDocument:
    """Run the full cascade over `text`, with the lexicon `grammar` was compiled for, into standoff annotations."""
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
    annotations.sort(key=lambda a: (a.span.start, a.trigger.start))
    return AnnotatedDocument(doc_id=doc_id, text=text, annotations=tuple(annotations))


# ---------------------------------------------------------------------------
# serialization

def _span_json(span: OffsetSpan) -> dict:
    return {"start": span.start, "end": span.end}


def _ann_json(a: SpatialAnnotation) -> dict:
    obj = {
        "start": a.span.start,
        "end": a.span.end,
        "category": a.category,
        "trigger": _span_json(a.trigger),
    }
    if a.site is not None:
        obj["site"] = _span_json(a.site)
    if a.target is not None:
        obj["target"] = _span_json(a.target)
    if a.attributes:
        obj["attributes"] = a.attributes
    if a.alternates:
        obj["alternates"] = list(a.alternates)
    if a.rule is not None:
        obj["rule"] = a.rule
    return obj


def document_to_json(doc: AnnotatedDocument) -> str:
    obj = {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "annotations": [_ann_json(a) for a in doc.annotations],
    }
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def write_annotations(doc: AnnotatedDocument, sink) -> None:
    """Write a document; `sink` is a path or a writable text file object."""
    data = document_to_json(doc)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(data)


def _parse_span(obj, text_len: int, where: str) -> OffsetSpan:
    # JSON true/false load as bool, a subclass of int: not a span bound.
    if not isinstance(obj, dict) or type(obj.get("start")) is not int or type(obj.get("end")) is not int:
        raise AnnotationFormatError(f"{where}: span must be an object with integer start/end")
    start, end = obj["start"], obj["end"]
    if not (0 <= start < end <= text_len):
        raise AnnotationFormatError(f"{where}: span [{start}, {end}) out of bounds for text of length {text_len}")
    return OffsetSpan(start, end)


def read_annotations(source, smap: semmap.SpatialityMap | None = None) -> AnnotatedDocument:
    """Read and validate an annotation document; raises AnnotationFormatError."""
    smap = smap or semmap.default_map()
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
    anns = []
    for idx, raw in enumerate(raw_anns):
        where = f"{name}: annotation {idx}"
        if not isinstance(raw, dict):
            raise AnnotationFormatError(f"{where}: must be an object")
        category = raw.get("category")
        if not isinstance(category, str) or semmap.resolve(smap, category) is None:
            raise AnnotationFormatError(f"{where}: unknown category path {category!r}")
        span = _parse_span({"start": raw.get("start"), "end": raw.get("end")}, len(text), where)
        if "trigger" not in raw:
            raise AnnotationFormatError(f"{where}: missing trigger span")
        trigger = _parse_span(raw["trigger"], len(text), where + " (trigger)")
        site = _parse_span(raw["site"], len(text), where + " (site)") if "site" in raw else None
        target = _parse_span(raw["target"], len(text), where + " (target)") if "target" in raw else None
        alternates = raw.get("alternates", [])
        if not isinstance(alternates, list):
            raise AnnotationFormatError(f"{where}: alternates must be a list")
        for alt in alternates:
            if not isinstance(alt, str) or semmap.resolve(smap, alt) is None:
                raise AnnotationFormatError(f"{where}: unknown alternate category {alt!r}")
        attributes, rule = raw.get("attributes", {}), raw.get("rule")
        if not isinstance(attributes, dict):
            raise AnnotationFormatError(f"{where}: attributes must be an object")
        if rule is not None and not isinstance(rule, str):
            raise AnnotationFormatError(f"{where}: rule must be a string")
        anns.append(
            SpatialAnnotation(
                span=span,
                category=category,
                trigger=trigger,
                site=site,
                target=target,
                attributes=attributes,
                alternates=tuple(alternates),
                rule=rule,
            )
        )
    return AnnotatedDocument(doc_id=obj["doc_id"], text=text, annotations=tuple(anns))
