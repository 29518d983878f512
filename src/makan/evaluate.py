"""Scoring against gold: precision/recall/F per top-level category, bruit/silence
error lists, and a deterministic 75/25 corpus split.

Metrics are kept as exact rationals; printing rounds half-up to 2 decimals.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import semmap
from .annotator import SpatialAnnotation
from .textnorm import OffsetSpan, normalize

TOP = semmap.TOP_LEVEL


class MatchMode(str, enum.Enum):
    TRIGGER_EXACT = "trigger-exact"   # trigger spans equal + top-level category equal
    SPAN_OVERLAP = "span-overlap"     # spans overlap + top-level category equal


@dataclass
class CategoryCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fp) if self.tp + self.fp else Fraction(0)

    @property
    def recall(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fn) if self.tp + self.fn else Fraction(0)

    @property
    def f_measure(self) -> Fraction:
        return f_measure(self.precision, self.recall)


@dataclass(frozen=True)
class BruitRecord:
    doc_id: str
    annotation: SpatialAnnotation
    trigger_text: str
    rule: str | None
    reason: str | None = None


@dataclass(frozen=True)
class SilenceRecord:
    doc_id: str
    annotation: SpatialAnnotation
    trigger_text: str


@dataclass
class EvalReport:
    mode: MatchMode
    categories: dict[str, CategoryCounts] = field(default_factory=dict)
    bruit: list[BruitRecord] = field(default_factory=list)
    silence: list[SilenceRecord] = field(default_factory=list)

    def totals(self) -> CategoryCounts:
        cats = self.categories.values()
        return CategoryCounts(sum(c.tp for c in cats), sum(c.fp for c in cats), sum(c.fn for c in cats))


def f_measure(p, r) -> Fraction:
    """Harmonic mean 2pr/(p+r); 0 when p+r = 0."""
    p, r = Fraction(p), Fraction(r)
    if not 0 <= p <= 1 or not 0 <= r <= 1:
        raise ValueError("precision and recall must lie in [0, 1]")
    if p + r == 0:
        return Fraction(0)
    return 2 * p * r / (p + r)


def round2(x) -> str:
    """Round half-up to two decimals, printed as 0.XX."""
    scaled = Fraction(x) * 100 + Fraction(1, 2)
    q = scaled.numerator // scaled.denominator
    return f"{q // 100}.{q % 100:02d}"


def _by_id(docs, side: str) -> dict:
    by_id = {}
    for doc in docs:
        if doc.doc_id in by_id:
            raise ValueError(f"{side} documents share doc_id {doc.doc_id!r}")
        by_id[doc.doc_id] = doc
    return by_id


def score(gold_docs, system_docs, mode: MatchMode) -> EvalReport:
    """Greedy one-to-one system-to-gold alignment per document.

    Matching compares top-level categories: the annotation layer keeps leaf
    categories, but scoring happens at topological/projective/directional
    granularity. Unmatched system annotations are bruit (fp), unmatched gold
    annotations are silence (fn).
    """
    mode = MatchMode(mode)
    exact = mode is MatchMode.TRIGGER_EXACT
    reason = (
        "no unmatched gold annotation with this trigger and category" if exact
        else "no unmatched gold annotation overlapping this span with this category"
    )
    top_level = functools.cache(semmap.top_level)  # each category once a call
    gold_by_id, sys_by_id = _by_id(gold_docs, "gold"), _by_id(system_docs, "system")
    if set(gold_by_id) != set(sys_by_id):
        missing = sorted(set(gold_by_id) ^ set(sys_by_id))
        raise ValueError(f"document sets differ; unmatched ids: {', '.join(missing)}")
    report = EvalReport(mode=mode, categories={c: CategoryCounts() for c in TOP})
    for doc_id in sorted(gold_by_id):
        gold_doc, sys_doc = gold_by_id[doc_id], sys_by_id[doc_id]
        if gold_doc.text != sys_doc.text:
            raise ValueError(f"document {doc_id}: gold and system texts differ")
        sys_anns = sorted(sys_doc.annotations, key=lambda a: (a.trigger.start, a.span.start))
        gold_anns = list(gold_doc.annotations)
        gold_cats = [top_level(g.category) for g in gold_anns]
        # (category, trigger, or None when spans are compared) -> its untaken gold in candidate order, by span
        # start: a system annotation takes the first one it matches
        untaken: dict[tuple[str, OffsetSpan | None], list[int]] = {}
        order = sorted(range(len(gold_anns)), key=lambda k: (gold_anns[k].span.start, gold_anns[k].trigger.start, k))
        for idx in order:
            untaken.setdefault((gold_cats[idx], gold_anns[idx].trigger if exact else None), []).append(idx)
        for ann in sys_anns:
            cat = top_level(ann.category)
            hit, (start, end), candidates = None, ann.span, untaken.get((cat, ann.trigger if exact else None), [])
            for pos, idx in enumerate(candidates):
                g_start, g_end = gold_anns[idx].span
                if exact or g_start < end and g_end > start:
                    hit = candidates.pop(pos)
                    break
                if g_start >= end:  # neither this gold nor any after it overlaps
                    break
            if hit is not None:
                report.categories[cat].tp += 1
            else:
                report.categories[cat].fp += 1
                report.bruit.append(
                    BruitRecord(
                        doc_id=doc_id,
                        annotation=ann,
                        trigger_text=normalize(ann.trigger.slice(sys_doc.text))[0],
                        rule=ann.rule,
                        reason=reason,
                    )
                )
        for idx in sorted(i for candidates in untaken.values() for i in candidates):  # gold left untaken
            g = gold_anns[idx]
            report.categories[gold_cats[idx]].fn += 1
            report.silence.append(
                SilenceRecord(
                    doc_id=doc_id,
                    annotation=g,
                    trigger_text=normalize(g.trigger.slice(gold_doc.text))[0],
                )
            )
    return report


def split(doc_ids, seed: int) -> tuple[list, list]:
    """Deterministic shuffle by seed; first ceil(0.75*n) to work, rest to eval. Ids must be distinct."""
    ids = list(doc_ids)
    if not ids:
        raise ValueError("cannot split an empty document list")
    if len(set(ids)) < len(ids):  # else one document could land in both sets
        raise ValueError(f"document {next(i for i, n in Counter(ids).items() if n > 1)!r} is listed more than once")
    rng = random.Random(seed)
    rng.shuffle(ids)
    k = math.ceil(0.75 * len(ids))
    return ids[:k], ids[k:]


def error_report(report: EvalReport) -> dict:
    """Bruit grouped by (rule, trigger lemma); silence grouped by gold category."""
    bruit_groups = Counter((rec.rule or "?", rec.trigger_text) for rec in report.bruit)
    silence_groups = Counter(semmap.top_level(rec.annotation.category) for rec in report.silence)
    return {
        "bruit": [
            {"rule": rule, "lemma": lemma, "count": count}
            for (rule, lemma), count in sorted(bruit_groups.items())
        ],
        "silence": [
            {"category": cat, "count": count} for cat, count in sorted(silence_groups.items())
        ],
    }


def format_table(report: EvalReport) -> str:
    """Human-readable table: category, R, P, F to two decimals."""
    lines = [f"{'':<14}{'R':>8}{'P':>8}{'F':>8}"]
    for cat in TOP:
        c = report.categories[cat]
        lines.append(f"{cat:<14}{round2(c.recall):>8}{round2(c.precision):>8}{round2(c.f_measure):>8}")
    t = report.totals()
    lines.append(f"{'OVERALL':<14}{round2(t.recall):>8}{round2(t.precision):>8}{round2(t.f_measure):>8}")
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> dict:
    """Machine-readable report with raw counts and error lists."""
    return {
        "mode": report.mode.value,
        "categories": {
            cat: {
                "tp": c.tp,
                "fp": c.fp,
                "fn": c.fn,
                "precision": round2(c.precision),
                "recall": round2(c.recall),
                "f_measure": round2(c.f_measure),
            }
            for cat, c in report.categories.items()
        },
        "bruit": [
            {
                "doc_id": r.doc_id,
                "trigger": r.trigger_text,
                "category": r.annotation.category,
                "rule": r.rule,
                "reason": r.reason,
                "start": r.annotation.span.start,
                "end": r.annotation.span.end,
            }
            for r in report.bruit
        ],
        "silence": [
            {
                "doc_id": r.doc_id,
                "trigger": r.trigger_text,
                "category": r.annotation.category,
                "start": r.annotation.span.start,
                "end": r.annotation.span.end,
            }
            for r in report.silence
        ],
        "error_groups": error_report(report),
    }
