"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import itertools
import math
import time
from fractions import Fraction

from makan.engine import apply, compile
from makan.evaluate import MatchMode, f_measure, round2, score, split
from makan.lexicon import Lexicon, _parse_line
from makan.textnorm import normalize, token_stream, tokenize
from oracle import as_tuples, oracle_apply


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_gold_suite_scores_one_in_trigger_exact_mode(bundle, suite_gold, suite_system):
    started = time.perf_counter()
    report = score(suite_gold, suite_system, MatchMode.TRIGGER_EXACT)
    elapsed = time.perf_counter() - started
    for top, counts in report.categories.items():
        assert counts.fp == 0, (top, report.bruit)
        assert counts.fn == 0, (top, report.silence)
        assert counts.precision == 1 and counts.recall == 1 and counts.f_measure == 1
    assert report.bruit == [] and report.silence == []
    assert len(suite_gold) >= 40  # every quoted sentence and fragment ships
    assert elapsed < 1.0, f"scoring took {elapsed:.2f}s"
    _report("gold-suite P=R=F=1.00 (trigger-exact)")


def test_metric_arithmetic_oracle():
    expected = {
        (81, 24, 19): ("0.81", "0.77", "0.79"),
        (89, 28, 11): ("0.89", "0.76", "0.82"),
        (83, 28, 17): ("0.83", "0.75", "0.79"),
    }
    for (tp, fp, fn), (r2, p2, f2) in expected.items():
        p = Fraction(tp, tp + fp)
        r = Fraction(tp, tp + fn)
        assert round2(r) == r2
        assert round2(p) == p2
        assert round2(f_measure(p, r)) == f2
    _report("metric arithmetic reproduces reference rows at 2 decimals")


_BF_TSV = """alpha\tVERB_MOTION
beta\tPREP\tTOPOLOGICAL.SUPPORT;DIRECTIONAL.GOAL
gamma\tNOUN_SITE\t\tINTRINSIC_ORIENTATION
delta\tPREP\tTOPOLOGICAL.SUPPORT
delta gamma\tPREP_LOCUTION\tTOPOLOGICAL.PERIPHERY
epsilon\tPLACE_NAME"""

_BF_RULES = """
RULE periph PRIO 50: trigger=[SENSE TOPOLOGICAL.PERIPHERY] site=[NOUN_SITE|PLACE_NAME] => TOPOLOGICAL.PERIPHERY
RULE support PRIO 40: trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE|PLACE_NAME] => TOPOLOGICAL.SUPPORT
RULE goal PRIO 40: verb=[VERB_MOTION] GAP 2 trigger=[SENSE DIRECTIONAL.GOAL] site=[NOUN_SITE|PLACE_NAME] => DIRECTIONAL.GOAL
RULE flagged PRIO 40: trigger=[LIT delta] ([LIT epsilon])? site=[FLAG INTRINSIC_ORIENTATION] => TOPOLOGICAL.SUPPORT
RULE prep PRIO 20: trigger=[PREP] => DIRECTIONAL.GOAL
"""


def test_engine_equals_brute_force_oracle_exhaustively():
    lexicon = Lexicon([_parse_line(line.split("\t"), f"<bf>:{i}") for i, line in enumerate(_BF_TSV.splitlines(), start=1)])
    grammar = compile(_BF_RULES, lexicon)
    assert len(grammar) == 5
    words = ("alpha", "beta", "gamma", "delta", "epsilon")
    word_tokens = {w: tokenize(w, lexicon)[0] for w in words}
    started = time.perf_counter()
    checked = 0
    for length in range(0, 7):
        for seq in itertools.product(words, repeat=length):
            tokens = [word_tokens[w] for w in seq]
            assert as_tuples(apply(grammar, token_stream(tokens))) == oracle_apply(
                grammar, tokens, lexicon
            ), seq
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == sum(5**k for k in range(7))
    assert elapsed < 10.0, f"exhaustive comparison took {elapsed:.2f}s"
    _report(f"engine equals brute-force oracle on {checked} sequences")


def test_guard_suite(run):
    assert run("لم يحضر هنري مارتني إلى هنا أثناء غيابي").annotations == ()
    assert run("تمالكت نفسي كي لا أقع على الأريكة").annotations == ()
    assert run("مقيم في ردهة نفسي").annotations == ()
    assert run("بين ساعة الغروب ومنتصف الليل").annotations == ()
    lateral = run("ظهرت فجأة عن يميني")
    assert [a.category for a in lateral.annotations] == ["PROJECTIVE.ORIENTATIONAL.LATERAL"]
    assert run("يمين").annotations == ()
    _report("guard suite (negation, abstract, temporal, possessive)")


def test_property_suites(bundle, suite_gold, suite_system, run):
    smap, lex, grammar, variants = bundle

    # normalization idempotence and offset round-trip over the shipped suite
    for doc in suite_gold:
        once, omap = normalize(doc.text)
        assert normalize(once)[0] == once
        assert len(omap) == len(once)
        pos = 0
        for tok in tokenize(doc.text, lex, variants):
            assert doc.text[tok.span.start : tok.span.end] == tok.surface
            assert tok.span.start >= pos
            pos = tok.span.end
            cursor = tok.span.start
            for proc in tok.proclitics:
                assert proc.span.start == cursor
                cursor = proc.span.end
            assert (tok.stem_span.start, tok.stem_span.end) == (cursor, tok.span.end)

    # semantic-map partial order, exhaustive over all node pairs
    from makan.semmap import subsumes

    nodes = sorted(smap)
    for a, b in itertools.product(nodes, nodes):
        if subsumes(a, b) and subsumes(b, a):
            assert a == b
    for a, b, c in itertools.product(nodes, repeat=3):
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)

    # eval conservation and harmonic-mean bounds on the suite score
    report = score(suite_gold, suite_system, MatchMode.TRIGGER_EXACT)
    for counts in report.categories.values():
        p, r, f = counts.precision, counts.recall, counts.f_measure
        if p + r > 0:
            assert min(p, r) <= f <= max(p, r)
    total_sys = sum(len(d.annotations) for d in suite_system)
    total_gold = sum(len(d.annotations) for d in suite_gold)
    totals = report.totals()
    assert totals.tp + totals.fp == total_sys
    assert totals.tp + totals.fn == total_gold

    # split determinism and partition for sizes 1..50 x 10 seeds
    for n in range(1, 51):
        ids = [f"doc{i}" for i in range(n)]
        for seed in range(10):
            work, evalset = split(ids, seed)
            assert (work, evalset) == split(ids, seed)
            assert len(work) == math.ceil(0.75 * n)
            assert sorted(work + evalset) == sorted(ids)

    _report("property suites (normalization, offsets, map order, eval, split)")
