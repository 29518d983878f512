from collections.abc import Sequence

import pytest

from makan import guards
from makan.engine import GrammarError, apply, compile
from makan.textnorm import tokenize


def _raw_matches(bundle, text):
    smap, lex, grammar, variants = bundle
    tokens = tokenize(text, lex, variants)
    return tokens, apply(grammar, tokens, lex)


def test_negated_goal_is_vetoed(bundle, run):
    text = "لم يحضر هنري مارتني إلى هنا أثناء غيابي"
    tokens, raw = _raw_matches(bundle, text)
    assert raw, "the goal pattern itself must match before the guard vetoes it"
    assert guards.guard_neg_scope(tokens, raw[0]) is True
    assert run(text).annotations == ()


def test_negated_support_is_vetoed(bundle, run):
    text = "تمالكت نفسي كي لا أقع على الأريكة"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_neg_scope(tokens, raw[0]) is True
    assert run(text).annotations == ()


def test_unnegated_goal_passes(bundle):
    text = "اتجهت نحو بلدة مرسى"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_neg_scope(tokens, raw[0]) is False


def test_abstract_site_is_vetoed(bundle, run):
    text = "مقيم في ردهة نفسي"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_abstract_site(tokens, raw[0]) is True
    assert run(text).annotations == ()


def test_concrete_site_passes(bundle, run):
    text = "جلست في المقهى"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_abstract_site(tokens, raw[0]) is False
    assert len(run(text).annotations) == 1


def test_abstract_sea_of_sorrows_is_vetoed(run):
    assert run("وسط بحر من أشجان الروح").annotations == ()


def test_temporal_site_is_vetoed(bundle, run):
    text = "عند منتصف الليل"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_temporal_site(tokens, raw[0]) is True
    assert run(text).annotations == ()


def test_coordinated_temporal_distribution_is_vetoed(bundle, run):
    text = "بين ساعة الغروب ومنتصف الليل"
    tokens, raw = _raw_matches(bundle, text)
    assert raw, "the distribution pattern must form before the temporal veto"
    assert run(text).annotations == ()


def test_possessive_suffix_licenses_lateral(run):
    doc = run("ظهرت فجأة عن يميني")
    assert [a.category for a in doc.annotations] == ["PROJECTIVE.ORIENTATIONAL.LATERAL"]
    assert doc.annotations[0].trigger.slice(doc.text) == "عن يميني"


def test_bare_lateral_noun_without_suffix_or_complement_is_vetoed(run):
    assert run("يمين").annotations == ()
    assert run("ظهرت فجأة عن يمين").annotations == ()


def test_lateral_with_noun_complement_passes(run):
    doc = run("عن يمين المدخل")
    assert [a.category for a in doc.annotations] == ["PROJECTIVE.ORIENTATIONAL.LATERAL"]


def test_dual_sense_attaches_alternate_without_veto(run):
    doc = run("في محيط هذه الشقة")
    assert len(doc.annotations) == 1
    ann = doc.annotations[0]
    assert ann.category == "PROJECTIVE.DISTANCE.PROXIMITY"
    assert ann.alternates == ("PROJECTIVE.ORIENTATIONAL.LATERAL",)


def test_plural_site_guard_blocks_singular(bundle, run):
    # بين + singular concrete site forms a candidate match but is not a
    # distribution reading
    text = "بين باب"
    tokens, raw = _raw_matches(bundle, text)
    assert raw
    assert guards.guard_plural_site(tokens, raw[0]) is True
    assert run(text).annotations == ()


def test_plural_site_guard_accepts_possessive_dual(run):
    doc = run("ارتمت بين ذراعي.")
    assert [a.category for a in doc.annotations] == ["TOPOLOGICAL.INCLUSION.DISTRIBUTION"]


def test_source_requires_nearby_motion_verb(run):
    # من without a motion verb in window never yields a source reading
    assert run("كاميليا بونار بطاقة من").annotations == ()
    assert run("هطل الثلج من جديد أياماً أواسط شباط.").annotations == ()
    with_verb = run("كان الرجل يأتي كل يوم من المدينة المجاورة")
    assert [a.category for a in with_verb.annotations] == ["DIRECTIONAL.SOURCE"]


def test_guards_are_pure(bundle):
    text = "لم يحضر هنري مارتني إلى هنا أثناء غيابي"
    tokens, raw = _raw_matches(bundle, text)
    first = guards.guard_neg_scope(tokens, raw[0])
    again = guards.guard_neg_scope(tokens, raw[0])
    assert first == again
    assert tokenize(text, bundle[1], bundle[3]) == tokens


def test_unknown_guard_name_raises(bundle):
    smap, lex, _, _ = bundle
    source = "RULE r PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL GUARD NOPE"
    with pytest.raises(GrammarError, match=r"rule r: unknown guard NOPE \(line 1, col 1\)"):
        compile(source, lex, smap)


class _CountedTokens(Sequence):
    """A sequence of `Token`s that counts the items read from it."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += len(range(len(self.items))[i]) if type(i) is slice else 1
        return self.items[i]


def test_lookup_and_guards_on_a_token_list_read_only_the_tokens_they_reach(bundle, suite_gold):
    smap, lex, grammar, variants = bundle
    stream = tokenize("\n".join(d.text for d in suite_gold * 4), lex, variants)
    assert len(stream) > 2000
    counted = _CountedTokens(list(stream))
    for i in range(0, len(stream), 7):
        counted.reads = 0
        assert lex.lookup(counted, i) == lex.lookup(stream, i)
        assert counted.reads <= lex.longest
    verdicts = set()
    for match in apply(grammar, stream, lex):
        counted.reads = 0
        verdict = guards.run_guards(match.guards, counted, match)
        assert verdict == guards.run_guards(match.guards, stream, match)
        assert counted.reads <= guards.NEG_WINDOW + match.span[1] - match.span[0] + 2
        verdicts.add(verdict[0])
    assert verdicts == {True, False}
