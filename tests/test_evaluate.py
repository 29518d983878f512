from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makan.annotator import AnnotatedDocument, SpatialAnnotation
from makan.evaluate import (
    MatchMode,
    error_report,
    f_measure,
    format_table,
    round2,
    score,
    split,
)
from makan.textnorm import OffsetSpan
from oracle import reference_score

CATEGORY_FOR = {
    "TOPOLOGICAL": "TOPOLOGICAL.SUPPORT",
    "PROJECTIVE": "PROJECTIVE.DISTANCE.PROXIMITY",
    "DIRECTIONAL": "DIRECTIONAL.GOAL",
}


def _ann(start, category, rule=None):
    span = OffsetSpan(start, start + 1)
    return SpatialAnnotation(span=span, category=category, trigger=span, rule=rule)


def _doc(doc_id, text, anns):
    return AnnotatedDocument(doc_id=doc_id, text=text, annotations=tuple(anns))


def _counts_doc(top, tp, fp, fn):
    """One document engineered to produce exactly (tp, fp, fn) for `top`."""
    n = tp + fn + fp + 1
    text = "ا" * (2 * n + 2)
    category = CATEGORY_FOR[top]
    gold = [_ann(2 * i, category) for i in range(tp + fn)]
    system = [_ann(2 * i, category, rule="r") for i in range(tp)]
    system += [_ann(2 * (tp + fn + j), category, rule="r") for j in range(fp)]
    return _doc(top.lower(), text, gold), _doc(top.lower(), text, system)


@pytest.mark.parametrize(
    "top,tp,fp,fn,expect_r,expect_p,expect_f",
    [
        ("TOPOLOGICAL", 81, 24, 19, "0.81", "0.77", "0.79"),
        ("PROJECTIVE", 89, 28, 11, "0.89", "0.76", "0.82"),
        ("DIRECTIONAL", 83, 28, 17, "0.83", "0.75", "0.79"),
    ],
)
def test_score_reproduces_reference_rows(top, tp, fp, fn, expect_r, expect_p, expect_f):
    gold, system = _counts_doc(top, tp, fp, fn)
    report = score([gold], [system], MatchMode.TRIGGER_EXACT)
    counts = report.categories[top]
    assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
    assert round2(counts.recall) == expect_r
    assert round2(counts.precision) == expect_p
    assert round2(counts.f_measure) == expect_f
    row = next(line for line in format_table(report).splitlines() if line.startswith(top))
    assert row.split() == [top, expect_r, expect_p, expect_f]


def test_f_measure_examples():
    assert round2(f_measure(Fraction(77, 100), Fraction(81, 100))) == "0.79"
    assert round2(f_measure(Fraction(76, 100), Fraction(89, 100))) == "0.82"
    assert f_measure(1, 1) == 1
    assert f_measure(0, Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        f_measure(2, 0)


def test_perfect_system_scores_one(suite_gold):
    report = score(suite_gold, suite_gold, MatchMode.TRIGGER_EXACT)
    for counts in report.categories.values():
        assert counts.fp == 0 and counts.fn == 0
    assert report.bruit == [] and report.silence == []
    total = report.totals()
    assert total.precision == 1 and total.recall == 1 and total.f_measure == 1


def test_empty_system_vs_nonempty_gold():
    gold, _ = _counts_doc("TOPOLOGICAL", 3, 0, 0)
    empty = _doc(gold.doc_id, gold.text, [])
    report = score([gold], [empty], MatchMode.TRIGGER_EXACT)
    counts = report.categories["TOPOLOGICAL"]
    assert counts.precision == 0 and counts.recall == 0
    assert len(report.silence) == 3 and report.bruit == []


def test_span_overlap_mode_matches_crossing_spans():
    text = "ا" * 10
    gold = _doc("d", text, [SpatialAnnotation(span=OffsetSpan(0, 4), category="DIRECTIONAL.GOAL", trigger=OffsetSpan(0, 1))])
    system = _doc("d", text, [SpatialAnnotation(span=OffsetSpan(2, 6), category="DIRECTIONAL.SOURCE", trigger=OffsetSpan(2, 3), rule="r")])
    exact = score([gold], [system], MatchMode.TRIGGER_EXACT)
    overlap = score([gold], [system], MatchMode.SPAN_OVERLAP)
    assert exact.categories["DIRECTIONAL"].tp == 0
    assert overlap.categories["DIRECTIONAL"].tp == 1  # same top-level, spans overlap


def test_bruit_reason_names_what_each_mode_compares():
    text = "ا" * 10
    gold = _doc("d", text, [_ann(0, "DIRECTIONAL.GOAL")])
    system = _doc("d", text, [_ann(4, "DIRECTIONAL.GOAL", rule="r")])
    reasons = {mode: [rec.reason for rec in score([gold], [system], mode).bruit] for mode in MatchMode}
    assert reasons == {
        MatchMode.TRIGGER_EXACT: ["no unmatched gold annotation with this trigger and category"],
        MatchMode.SPAN_OVERLAP: ["no unmatched gold annotation overlapping this span with this category"],
    }


@pytest.mark.parametrize("side", ["gold", "system"])
def test_score_rejects_two_documents_sharing_a_doc_id(side):
    # kept as one they scored tp 0/fp 1 or tp 1/fp 0 by list order
    text = "ا" * 4
    hit = _doc("d", text, [_ann(0, "DIRECTIONAL.GOAL", rule="r")])
    miss = _doc("d", text, [_ann(2, "DIRECTIONAL.GOAL", rule="r")])
    for pair in ([hit, miss], [miss, hit]):
        gold, system = (pair, [hit]) if side == "gold" else ([hit], pair)
        with pytest.raises(ValueError, match=f"{side} documents share doc_id 'd'"):
            score(gold, system, MatchMode.TRIGGER_EXACT)


def test_score_rejects_doc_id_mismatch():
    gold, system = _counts_doc("TOPOLOGICAL", 1, 0, 0)
    renamed = _doc("other", system.text, system.annotations)
    with pytest.raises(ValueError, match="unmatched ids"):
        score([gold], [renamed], MatchMode.TRIGGER_EXACT)


def test_score_rejects_text_mismatch():
    gold, system = _counts_doc("TOPOLOGICAL", 1, 0, 0)
    altered = _doc(system.doc_id, system.text + "ب", system.annotations)
    with pytest.raises(ValueError, match="texts differ"):
        score([gold], [altered], MatchMode.TRIGGER_EXACT)


def test_conservation(suite_gold, suite_system):
    report = score(suite_gold, suite_system, MatchMode.TRIGGER_EXACT)
    from makan.semmap import top_level

    for top, counts in report.categories.items():
        n_sys = sum(
            1 for d in suite_system for a in d.annotations if top_level(a.category) == top
        )
        n_gold = sum(
            1 for d in suite_gold for a in d.annotations if top_level(a.category) == top
        )
        assert counts.tp + counts.fp == n_sys
        assert counts.tp + counts.fn == n_gold


@st.composite
def _random_doc_pair(draw):
    text = "ا" * 24
    positions = list(range(0, 23, 2))
    tops = list(CATEGORY_FOR)
    gold = [
        _ann(p, CATEGORY_FOR[draw(st.sampled_from(tops))])
        for p in draw(st.lists(st.sampled_from(positions), unique=True, max_size=8))
    ]
    system = [
        _ann(p, CATEGORY_FOR[draw(st.sampled_from(tops))], rule="r")
        for p in draw(st.lists(st.sampled_from(positions), max_size=8))
    ]
    return _doc("d", text, gold), _doc("d", text, system)


@settings(max_examples=150)
@given(_random_doc_pair(), st.integers(min_value=0, max_value=7))
def test_removal_monotonicity_and_bounds(pair, drop_index):
    gold, system = pair
    report = score([gold], [system], MatchMode.TRIGGER_EXACT)
    total = report.totals()
    # conservation
    assert total.tp + total.fp == len(system.annotations)
    assert total.tp + total.fn == len(gold.annotations)
    # harmonic-mean bounds
    p, r, f = total.precision, total.recall, total.f_measure
    if p + r > 0:
        assert min(p, r) <= f <= max(p, r)
    if system.annotations:
        idx = drop_index % len(system.annotations)
        smaller = _doc("d", system.text, system.annotations[:idx] + system.annotations[idx + 1 :])
        after = score([gold], [smaller], MatchMode.TRIGGER_EXACT).totals()
        assert after.tp <= total.tp
        assert after.fp <= total.fp


def test_split_proportions_and_determinism():
    four = split(["a", "b", "c", "d"], seed=7)
    assert len(four[0]) == 3 and len(four[1]) == 1
    hundred = split([str(i) for i in range(100)], seed=3)
    assert len(hundred[0]) == 75 and len(hundred[1]) == 25
    assert split(list("abcdefgh"), seed=1) == split(list("abcdefgh"), seed=1)
    with pytest.raises(ValueError):
        split([], seed=0)


def test_split_rejects_a_repeated_id():
    # else the one document could land in both the work and the eval set
    with pytest.raises(ValueError, match="document 'a' is listed more than once"):
        split(["a", "a", "b", "c"], 1)


def test_split_partition_many_sizes_and_seeds():
    import math

    for n in range(1, 51):
        ids = [f"doc{i}" for i in range(n)]
        for seed in range(10):
            work, evalset = split(ids, seed)
            assert len(work) == math.ceil(0.75 * n)
            assert sorted(work + evalset) == sorted(ids)
            assert not (set(work) & set(evalset))


def test_error_report_groups_bruit_by_rule_and_lemma():
    text = "رجع من المدينة"
    i = text.index("من")
    ann = SpatialAnnotation(
        span=OffsetSpan(i, i + 2),
        category="DIRECTIONAL.SOURCE",
        trigger=OffsetSpan(i, i + 2),
        rule="src_generic",
    )
    gold = _doc("d", text, [])
    system = _doc("d", text, [ann])
    report = score([gold], [system], MatchMode.TRIGGER_EXACT)
    groups = error_report(report)
    assert groups["bruit"] == [{"rule": "src_generic", "lemma": "من", "count": 1}]
    assert groups["silence"] == []


def test_error_report_groups_silence_by_category():
    text = "ا" * 10
    gold = _doc("d", text, [_ann(0, "DIRECTIONAL.GOAL"), _ann(4, "DIRECTIONAL.SOURCE")])
    system = _doc("d", text, [])
    report = score([gold], [system], MatchMode.TRIGGER_EXACT)
    groups = error_report(report)
    assert groups["silence"] == [{"category": "DIRECTIONAL", "count": 2}]


def test_error_report_empty():
    gold, _ = _counts_doc("TOPOLOGICAL", 1, 0, 0)
    report = score([gold], [gold], MatchMode.TRIGGER_EXACT)
    assert error_report(report) == {"bruit": [], "silence": []}


def _assert_scores_as_reference(gold, system, mode):
    report = score(gold, system, mode)
    counts, bruit, silence = reference_score(gold, system, mode is MatchMode.TRIGGER_EXACT)
    assert {cat: [c.tp, c.fp, c.fn] for cat, c in report.categories.items()} == counts
    assert [r.annotation for r in report.bruit] == bruit
    assert [r.annotation for r in report.silence] == silence


# trigger spans that collide, hulls that overlap, leaves that share a top-level category
_SPAN_PAIRS = [
    ((t, t + w), (t, t + w + x)) for t, w, x in ((0, 1, 0), (0, 1, 3), (0, 2, 1), (2, 1, 0), (2, 2, 2), (5, 1, 1))
]
_CATEGORIES = ("TOPOLOGICAL.SUPPORT", "TOPOLOGICAL.INCLUSION", "DIRECTIONAL.GOAL", "PROJECTIVE.DISTANCE")
_ANNS = st.builds(
    lambda spans, category: SpatialAnnotation(
        span=OffsetSpan(*spans[1]), category=category, trigger=OffsetSpan(*spans[0]), rule="r"
    ),
    st.sampled_from(_SPAN_PAIRS),
    st.sampled_from(_CATEGORIES),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(_ANNS, max_size=8), st.lists(_ANNS, max_size=8)), min_size=1, max_size=3))
def test_score_equals_reference_scan(docs):
    text = "ا" * 10
    gold = [_doc(f"d{i}", text, g) for i, (g, _) in enumerate(docs)]
    system = [_doc(f"d{i}", text, s) for i, (_, s) in enumerate(docs)]
    for mode in MatchMode:
        _assert_scores_as_reference(gold, system, mode)


_SPANS = st.tuples(st.integers(0, 28), st.integers(1, 4)).map(lambda sw: OffsetSpan(sw[0], min(sw[0] + sw[1], 30)))
_LABELED = st.lists(st.tuples(_SPANS, st.sampled_from(_CATEGORIES)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_LABELED, _LABELED)
def test_span_overlap_scan_that_stops_at_the_first_gold_past_the_end_equals_a_full_scan(gold_pairs, system_pairs):
    """Spans over a whole text, adjacent ones included: the scan may stop early only where no later gold overlaps."""
    text = "ا" * 30
    gold = [_doc("d", text, [SpatialAnnotation(span=s, category=c, trigger=s) for s, c in gold_pairs])]
    system = [_doc("d", text, [SpatialAnnotation(span=s, category=c, trigger=s, rule="r") for s, c in system_pairs])]
    _assert_scores_as_reference(gold, system, MatchMode.SPAN_OVERLAP)


@st.composite
def _nested_fields(draw):
    """(span, trigger inside it, category) on a text of 6 characters, where equal and nested spans are common."""
    start = draw(st.integers(0, 5))
    end = draw(st.integers(start + 1, 6))
    trigger_start = draw(st.integers(start, end - 1))
    trigger = OffsetSpan(trigger_start, draw(st.integers(trigger_start + 1, end)))
    return OffsetSpan(start, end), trigger, draw(st.sampled_from(_CATEGORIES))


@settings(max_examples=300, deadline=None)
@given(st.lists(_nested_fields(), max_size=10), st.lists(st.integers(0, 9), max_size=4), st.lists(_nested_fields(), max_size=10))
def test_score_takes_the_reference_greedy_choice_among_equal_nested_and_repeated_gold(gold_fields, repeats, system_fields):
    """Some gold is given twice; each gold annotation's rule names its index, so the silence shows which copy was taken."""
    gold_fields += [gold_fields[k] for k in repeats if k < len(gold_fields)]
    text = "ا" * 6
    gold_anns = [SpatialAnnotation(span=s, category=c, trigger=t, rule=f"g{i}") for i, (s, t, c) in enumerate(gold_fields)]
    gold = [_doc("d", text, gold_anns)]
    system = [_doc("d", text, [SpatialAnnotation(span=s, category=c, trigger=t, rule="r") for s, t, c in system_fields])]
    for mode in MatchMode:
        _assert_scores_as_reference(gold, system, mode)
