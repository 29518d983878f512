"""The benchmark's own tests: seeded inputs are reproducible and every checker rejects bad output.

    python -m pytest -q bench
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import makan  # noqa: E402


@pytest.fixture(scope="module")
def suite():
    return corpus.load_suite()


@pytest.fixture(scope="module")
def res():
    return makan.load_default_resources()


@pytest.fixture(scope="module")
def multi(suite):
    """A generated multi-sentence document and its gold."""
    doc = next(d for d in corpus.cli_chapters(3, suite) if len(d.pieces) > 40)
    return doc, doc.gold()


def test_generators_are_deterministic_per_seed(suite, res):
    smap, lex, grammar, variants = res
    vocab = corpus.control_vocabulary(suite, lex, grammar, variants)
    for make in (
        lambda seed: corpus.suite_docs(seed, suite),
        lambda seed: corpus.novel_long(seed, suite),
        lambda seed: corpus.cli_chapters(seed, suite),
        lambda seed: corpus.control_vocalized(seed, vocab, 500),
    ):
        assert make(7) == make(7)
        assert [d.text for d in make(7)] != [d.text for d in make(8)]


def test_inputs_have_the_documented_make_up(suite, res):
    assert len(suite) == 47
    assert sum(s.tokens for s in suite) == 515
    assert sum(len(s.gold) for s in suite) == 55
    (chapter,) = corpus.novel_long(1, suite)
    assert chapter.tokens == corpus.PERMS_PER_CHAPTER * 515
    assert len(chapter.gold()) == corpus.PERMS_PER_CHAPTER * 55
    files = corpus.cli_chapters(1, suite)
    assert sorted(len(d.pieces) for d in files)[-1] > 2000
    assert sum(d.tokens for d in files) == 64 * 515
    ids = [s.doc_id for d in files for s, _ in d.pieces]
    pair = list(corpus.CROSS_SENTENCE_PAIR)
    assert sum(ids[i : i + 2] == pair for i in range(len(ids))) == 64 == ids.count(pair[0])
    smap, lex, grammar, variants = res
    (control,) = corpus.control_vocalized(1, corpus.control_vocabulary(suite, lex, grammar, variants), 300)
    assert control.tokens == len(control.words) == 300
    for off, word in control.words:
        assert control.text[off : off + len(word)] == word
        assert all(word[i + 1] in corpus.HARAKAT for i in range(0, len(word), 2))


def test_gold_passes_the_sentence_check(multi):
    doc, gold = multi
    assert checks.check_sentences(doc, gold) == (len(doc.pieces), 0, [])


def _recategorize(a):
    return {**a, "category": "TOPOLOGICAL.SUPPORT" if a["category"] != "TOPOLOGICAL.SUPPORT" else "DIRECTIONAL.GOAL"}


def _shift_trigger(a):
    return {**a, "trigger": {"start": a["trigger"]["start"] + 1, "end": a["trigger"]["end"] + 1}}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda g: [_shift_trigger(g[0])] + g[1:], id="trigger-shifted"),
        pytest.param(lambda g: g[1:], id="annotation-dropped"),
        pytest.param(lambda g: g + [{**g[0], "alternates": ["DIRECTIONAL.GOAL"]}], id="annotation-added"),
        pytest.param(lambda g: [_recategorize(g[0])] + g[1:], id="wrong-category"),
    ],
)
def test_sentence_check_rejects_corrupted_output(multi, corrupt):
    doc, gold = multi
    checked, failed, errors = checks.check_sentences(doc, corrupt(list(gold)))
    assert failed == 0 and len(errors) == 1


def test_capture_past_the_sentence_end_counts_as_failed(multi):
    doc, gold = multi[0], list(multi[1])
    sentence, off = next((s, off) for s, off in doc.pieces[:-1] if s.gold)
    first = next(i for i, a in enumerate(gold) if a["trigger"]["start"] >= off)
    end = off + len(sentence.text) + 3
    gold[first] = {**gold[first], "end": end, "site": {"start": end - 2, "end": end}}
    assert checks.check_sentences(doc, gold)[1:] == (1, [])


def test_vocalized_check_rejects_annotations_and_shifted_tokens(suite, res):
    smap, lex, grammar, variants = res
    (doc,) = corpus.control_vocalized(2, corpus.control_vocabulary(suite, lex, grammar, variants), 40)
    out = makan.annotate(doc.text, lex, grammar, smap, variants=variants)
    tokens = makan.tokenize(doc.text, lex, variants)
    assert checks.check_vocalized(doc, out.annotations, tokens) == (40, 0, [])
    stray = makan.annotate("جلست المرأة على المقعد.", lex, grammar, smap).annotations
    assert len(checks.check_vocalized(doc, stray, tokens)[2]) == 1
    span = tokens[3].span
    moved = tokens[:3] + [dataclasses.replace(tokens[3], span=type(span)(span.start + 1, span.end))] + tokens[4:]
    assert len(checks.check_vocalized(doc, (), moved)[2]) == 1
    assert checks.check_vocalized(doc, (), tokens[1:])[2]


def test_report_check_wants_every_placed_annotation_as_true_positive(multi):
    doc, gold = multi
    counts = {}
    for a in gold:
        top = a["category"].split(".")[0]
        counts[top] = counts.get(top, 0) + 1
    report = {"categories": {top: {"tp": n, "fp": 0, "fn": 0} for top, n in counts.items()}}
    assert checks.check_report(report, [doc]) == []
    top = next(iter(counts))
    report["categories"][top] = {"tp": counts[top] - 1, "fp": 0, "fn": 1}
    assert len(checks.check_report(report, [doc])) == 1


def test_tracer_counts_spans_and_restores_the_program(suite, res):
    smap, lex, grammar, variants = res
    original = makan.annotate, makan.Lexicon.lookup, makan.semmap.subsumes
    sentence = next(s for s in suite if s.doc_id == "e01")
    plain = makan.annotate(sentence.text, lex, grammar, smap, variants=variants)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = makan.annotate(sentence.text, lex, grammar, smap, variants=variants)
        stats, counts = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (makan.annotate, makan.Lexicon.lookup, makan.semmap.subsumes) == original
    assert stats["annotator.annotate"][0] == 1
    assert stats["lexicon.lookup"][0] == sentence.tokens
    assert counts["annotator.annotations"] == len(sentence.gold)
    n, total, own = stats["annotator.annotate"]
    assert 0 < own < total


def test_host_probe_scales_each_call_by_the_probes_around_it():
    assert hostspeed.reference_task() == hostspeed.reference_task() > 0
    probe = hostspeed.HostProbe()
    nominal = hostspeed.NOMINAL_PROBE_S
    probe.mids, probe.times = [0.0, 10.0, 20.0], [nominal, 2 * nominal, 4 * nominal]
    assert probe.normalized((1.0, 4.0)) == pytest.approx(3.0 / 1.5)
    assert probe.normalized((12.0, 18.0)) == pytest.approx(6.0 / 3.0)
    assert probe.normalized((21.0, 22.0)) == pytest.approx(1.0 / 4.0)
