"""Structural validation of the shipped gold suite."""

from importlib import resources

from makan.semmap import resolve


def test_gold_files_are_named_after_their_doc_ids(suite_gold):
    suite = resources.files("makan").joinpath("resources/suite")
    names = sorted(p.name for p in suite.iterdir())
    assert names == sorted(f"{d.doc_id}.json" for d in suite_gold)


def test_gold_annotations_are_sorted_with_disjoint_triggers(suite_gold):
    for doc in suite_gold:
        starts = [a.span.start for a in doc.annotations]
        assert starts == sorted(starts), doc.doc_id
        triggers = sorted((a.trigger.start, a.trigger.end) for a in doc.annotations)
        for (s1, e1), (s2, e2) in zip(triggers, triggers[1:]):
            assert e1 <= s2, doc.doc_id


def test_gold_spans_are_capture_hulls(suite_gold):
    for doc in suite_gold:
        for ann in doc.annotations:
            parts = [ann.trigger] + [s for s in (ann.site, ann.target) if s is not None]
            assert ann.span.start == min(p.start for p in parts), doc.doc_id
            assert ann.span.end == max(p.end for p in parts), doc.doc_id


def test_gold_categories_and_alternates_resolve(suite_gold):
    for doc in suite_gold:
        for ann in doc.annotations:
            assert resolve(ann.category) is not None
            for alt in ann.alternates:
                assert resolve(alt) is not None
            assert ann.rule is None  # gold carries no rule field


def test_gold_suite_covers_all_three_branches_and_empties(suite_gold):
    cats = {a.category.split(".")[0] for d in suite_gold for a in d.annotations}
    assert cats == {"TOPOLOGICAL", "PROJECTIVE", "DIRECTIONAL"}
    assert any(not d.annotations for d in suite_gold)  # veto cases ship too
