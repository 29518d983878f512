from collections import Counter

import pytest

from makan import annotate, guards
from makan.engine import GrammarError, apply, compile
from makan.textnorm import OffsetSpan, tokenize


def _raw_matches(bundle, text):
    smap, lex, grammar, variants = bundle
    tokens = tokenize(text, lex, variants)
    return tokens, apply(grammar, tokens)


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


def test_plural_site_guard_vetoes_a_missing_site_and_passes_a_plural_site(bundle):
    smap, lex, _, variants = bundle
    source = "RULE d PRIO 1: trigger=[LIT بين] (site=[NOUN_SITE])? => TOPOLOGICAL.INCLUSION.DISTRIBUTION GUARD PLURAL_SITE"
    grammar = compile(source, lex)
    tokens = tokenize("بين", lex, variants)
    (alone,) = apply(grammar, tokens)
    assert alone.captures.get("site") is None and guards.guard_plural_site(tokens, alone) is True
    assert annotate("بين", lex, grammar, smap, variants).annotations == ()
    doc = annotate("بين المشيعين", lex, grammar, smap, variants)  # the site's entry is flagged PLURAL
    assert [a.span for a in doc.annotations] == [OffsetSpan(0, 12)]


def test_plural_site_guard_accepts_possessive_dual(run):
    doc = run("ارتمت بين ذراعي.")
    assert [a.category for a in doc.annotations] == ["TOPOLOGICAL.INCLUSION.DISTRIBUTION"]


def test_source_requires_nearby_motion_verb(run):
    # من without a motion verb in window never yields a source reading
    assert run("كاميليا بونار بطاقة من").annotations == ()
    assert run("هطل الثلج من جديد أياماً أواسط شباط.").annotations == ()
    with_verb = run("كان الرجل يأتي كل يوم من المدينة المجاورة")
    assert [a.category for a in with_verb.annotations] == ["DIRECTIONAL.SOURCE"]


def test_the_suite_gives_the_match_and_veto_counts_a_stats_report_is_to_print(bundle, suite_gold):
    """Raw matches, and the vetoed ones counted by the first blocking guard that vetoes, in each rule's guard order."""
    raw, by_guard, by_rule = 0, Counter(), Counter()
    for doc in suite_gold:
        tokens, matches = _raw_matches(bundle, doc.text)
        for match in matches:
            raw += 1
            blocking = (name for name in match.guards if name in guards.BLOCKING_GUARDS)
            first = next((name for name in blocking if guards.BLOCKING_GUARDS[name](tokens, match)), None)
            assert (first is not None) == guards.run_guards(tokens, match)[0]
            if first is not None:
                by_guard[first] += 1
                by_rule[match.rule] += 1
    kept = raw - by_guard.total()
    assert (raw, kept) == (65, 55) and kept == sum(len(doc.annotations) for doc in suite_gold)
    assert by_guard == {"ABSTRACT_SITE": 5, "TEMPORAL_SITE": 2, "NEG_SCOPE": 2, "POSSESSIVE_REQUIRED": 1}
    assert by_rule == {
        "topo_contain": 5, "topo_dist": 1, "proj_prox": 1, "proj_vert_pron": 1, "topo_support": 1, "dir_goal_verb": 1
    }


def test_guards_are_pure(bundle):
    text = "لم يحضر هنري مارتني إلى هنا أثناء غيابي"
    tokens, raw = _raw_matches(bundle, text)
    first = guards.guard_neg_scope(tokens, raw[0])
    again = guards.guard_neg_scope(tokens, raw[0])
    assert first == again
    assert tokenize(text, bundle[1], bundle[3]) == tokens


def test_unknown_guard_name_raises(bundle):
    lex = bundle[1]
    source = "RULE r PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL GUARD NOPE"
    with pytest.raises(GrammarError, match=r"rule r: unknown guard NOPE \(line 1, col 1\)"):
        compile(source, lex)


@pytest.mark.parametrize("entry", ["apply", "lookup", "lookup_keys", "run_guards"])
@pytest.mark.parametrize("container", [list, tuple])
def test_matcher_entry_points_refuse_a_plain_sequence_of_tokens(bundle, entry, container):
    smap, lex, grammar, variants = bundle
    stream = tokenize("ذهبت إلى البيت", lex, variants)
    match = apply(grammar, stream)[0]
    tokens = container(stream)
    call = {
        "apply": lambda: apply(grammar, tokens),
        "lookup": lambda: lex.lookup(tokens, 0),
        "lookup_keys": lambda: lex.lookup_keys(tokens),
        "run_guards": lambda: guards.run_guards(tokens, match),
    }[entry]
    with pytest.raises(TypeError, match=rf"{entry} takes a TokenStream, not {container.__name__}: .*token_stream"):
        call()
