"""Output checks against the suite gold and against properties of the method.

A check returns (checked, failed, errors). `failed` counts sentences hit by
the cross-sentence capture fault: an annotation whose span runs past the end
of its sentence. Any other difference from gold is an error, and an error
makes the run incorrect.
"""

from __future__ import annotations

import bisect

from corpus import Document, VocalizedText, canonical


def annotation_json(a) -> dict:
    """A SpatialAnnotation as the document JSON holds it, read field by field."""

    def span(s):
        return None if s is None else {"start": s.start, "end": s.end}

    obj = {"start": a.span.start, "end": a.span.end, "category": a.category, "trigger": span(a.trigger)}
    for key in ("site", "target"):
        if getattr(a, key) is not None:
            obj[key] = span(getattr(a, key))
    obj["attributes"] = a.attributes
    obj["alternates"] = list(a.alternates)
    return obj


def check_sentences(doc: Document, system: list[dict]) -> tuple[int, int, list[str]]:
    """Each placed sentence's annotations against its own gold, shifted.

    A system annotation belongs to the sentence its trigger starts in.
    """
    starts = [off for _, off in doc.pieces]
    got: list[list[tuple]] = [[] for _ in doc.pieces]
    ends: list[list[int]] = [[] for _ in doc.pieces]
    errors = []
    for ann in system:
        i = bisect.bisect_right(starts, ann["trigger"]["start"]) - 1
        if i < 0:
            errors.append(f"{doc.doc_id}: annotation before the first sentence: {ann}")
            continue
        got[i].append(canonical(ann))
        ends[i].append(ann["end"])
    failed = 0
    for (sentence, off), found, found_ends in zip(doc.pieces, got, ends):
        expected = sorted(canonical(a, off) for a in sentence.gold)
        if sorted(found) == expected:
            continue
        if any(end > off + len(sentence.text) for end in found_ends):
            failed += 1
        else:
            errors.append(
                f"{doc.doc_id}: sentence {sentence.doc_id} at {off}: expected {expected}, got {sorted(found)}"
            )
    return len(doc.pieces), failed, errors


def check_vocalized(doc: VocalizedText, annotations, tokens) -> tuple[int, int, list[str]]:
    """No annotations, and one token per placed word, from its first letter to its last.

    The tokenizer ends a span on the word's last letter, so the haraka
    placed after that letter lies outside the span.
    """
    errors = [f"{doc.doc_id}: unexpected annotation {annotation_json(a)}" for a in annotations]
    if len(tokens) != len(doc.words):
        errors.append(f"{doc.doc_id}: {len(tokens)} tokens for {len(doc.words)} words")
        return len(doc.words), 0, errors
    for tok, (off, word) in zip(tokens, doc.words):
        if (tok.span.start, tok.span.end) != (off, off + len(word) - 1):
            errors.append(f"{doc.doc_id}: token {tok.span} {tok.surface!r} for word {word!r} at {off}")
    return len(doc.words), 0, errors


def check_report(report: dict, docs: list[Document]) -> list[str]:
    """`makan eval` report: every placed gold annotation is a true positive."""
    expected: dict[str, int] = {}
    for doc in docs:
        for ann in doc.gold():
            top = ann["category"].split(".")[0]
            expected[top] = expected.get(top, 0) + 1
    errors = []
    for top, counts in report["categories"].items():
        want = (expected.get(top, 0), 0, 0)
        if (counts["tp"], counts["fp"], counts["fn"]) != want:
            errors.append(f"eval report {top}: tp/fp/fn {counts['tp']}/{counts['fp']}/{counts['fn']}, want {want}")
    if set(expected) - set(report["categories"]):
        errors.append(f"eval report lacks categories {sorted(set(expected) - set(report['categories']))}")
    return errors
