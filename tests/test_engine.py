import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan.annotator import annotate
from makan.engine import GrammarError, _type_records, apply, compile
from makan.lexicon import Lexicon, _parse_line
from makan.semmap import PARENT
from makan.textnorm import token_stream, tokenize
from oracle import as_tuples, oracle_apply

SMAP = PARENT


def _lexicon(tsv: str) -> Lexicon:
    entries = [
        _parse_line(line.split("\t"), f"<test>:{i}")
        for i, line in enumerate(tsv.strip().splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]
    return Lexicon(entries)


GOAL_LEX = _lexicon(
    """
اتجهت	VERB_MOTION
نحو	PREP	DIRECTIONAL.GOAL
بلدة مرسى	NOUN_SITE
"""
)

GOAL_RULE = "RULE dir_goal PRIO 40: (verb=[VERB_MOTION])? trigger=[SENSE DIRECTIONAL.GOAL] site=[NOUN_SITE|PLACE_NAME] => DIRECTIONAL.GOAL"


def test_compile_single_rule():
    grammar = compile(GOAL_RULE, GOAL_LEX)
    assert len(grammar) == 1
    rule = grammar.rules[0]
    assert rule.name == "dir_goal"
    assert rule.priority == 40
    assert rule.output == "DIRECTIONAL.GOAL"
    assert len(rule.atoms) == 3
    assert rule.atoms[0].optional and rule.atoms[0].capture == "verb"


def test_compile_empty_source_is_valid():
    grammar = compile("# nothing\n\n", GOAL_LEX)
    assert len(grammar) == 0
    assert apply(grammar, tokenize("نحو", GOAL_LEX)) == []


def test_compile_rejects_two_trigger_captures():
    src = "RULE bad PRIO 1: trigger=[PREP] trigger=[NOUN_SITE] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="exactly one trigger"):
        compile(src, GOAL_LEX)


def test_compile_rejects_a_capture_used_twice():
    # else the second site would replace the first in the captures and the hull
    src = "RULE r PRIO 1: site=[NOUN_SITE] trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE] => TOPOLOGICAL.SUPPORT"
    with pytest.raises(GrammarError, match=r"^rule r: capture site is used more than once \(line 1, col 1\)$"):
        compile(src, GOAL_LEX)


@pytest.mark.parametrize(
    "pattern, literal, col",
    [
        ("trigger=[LIT ـــ]", "ـــ", 29),  # normalizes to nothing
        ("trigger=[LIT ً]", "ً", 29),
        ("trigger=[LIT a-b]", "a-b", 29),  # two words
        ("trigger=[LIT a.b]", "a.b", 29),
        ("trigger=[PREP] a-b", "a-b", 31),  # a bareword literal
        ("trigger=x =", "=", 26),  # a stray `=` read as a bareword
    ],
)
def test_compile_rejects_a_literal_that_is_not_one_word(pattern, literal, col):
    src = f"# a literal no token can equal\nRULE r PRIO 1: {pattern} => TOPOLOGICAL.SUPPORT"
    with pytest.raises(GrammarError, match=f"^literal {re.escape(repr(literal))} is not one word \\(line 2, col {col}\\)$"):
        compile(src, GOAL_LEX)


@pytest.mark.parametrize(
    "first, message",
    [
        ("RULE a PRIO 1: trigger=[PREP]", r"rule is missing `=>` \(line 1, col 1\)"),
        (
            "RULE a PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL GUARD NEG_SCOPE,",  # a guard name missing
            r"unexpected end of rule, expected token \(line 1, col 66\)",
        ),
        ("RULE a PRIO", r"unexpected end of rule, expected token \(line 1, col 8\)"),
    ],
)
def test_a_rule_cut_short_is_reported_on_its_own_line(first, message):
    # `RULE` starts the next rule, so a rule never runs on into it: else the fault would name the next rule's line
    src = f"{first}\nRULE b PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match=f"^{message}$"):
        compile(src, GOAL_LEX)


@pytest.mark.parametrize("name, literal", [("RULE", "trigger=[PREP]"), ("a", "trigger=[PREP] RULE")])
def test_rule_is_a_reserved_word(name, literal):
    with pytest.raises(GrammarError, match=r"^(unexpected end of rule|rule is missing)"):
        compile(f"RULE {name} PRIO 1: {literal} => DIRECTIONAL.GOAL", GOAL_LEX)


def test_compile_rejects_the_root_as_an_output():
    # scoring counts annotations by top-level category, and the root lies above them all
    src = "# the root\n  RULE r PRIO 1: trigger=[PREP] => SPATIAL"
    with pytest.raises(GrammarError, match=r"^rule r: output path SPATIAL is the root, not a category \(line 2, col 3\)$"):
        compile(src, GOAL_LEX)


def test_compile_rejects_missing_trigger():
    src = "RULE bad PRIO 1: site=[NOUN_SITE] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="exactly one trigger"):
        compile(src, GOAL_LEX)


def test_compile_rejects_unknown_class():
    src = "RULE bad PRIO 1: trigger=[NOUN_PLACE] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="unknown test"):
        compile(src, GOAL_LEX)


def test_compile_rejects_unknown_flag():
    src = "RULE bad PRIO 1: trigger=[FLAG SHINY] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="SHINY"):
        compile(src, GOAL_LEX)


def test_compile_rejects_unresolved_paths():
    with pytest.raises(GrammarError, match="TEMPORAL.NOW"):
        compile("RULE bad PRIO 1: trigger=[SENSE TEMPORAL.NOW] => DIRECTIONAL.GOAL", GOAL_LEX)
    with pytest.raises(GrammarError, match="DIRECTIONAL.UP"):
        compile("RULE bad PRIO 1: trigger=[PREP] => DIRECTIONAL.UP", GOAL_LEX)


def test_compile_rejects_duplicate_rule_names():
    src = "RULE r PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL\nRULE r PRIO 2: trigger=[PREP] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="duplicate"):
        compile(src, GOAL_LEX)


def test_compile_rejects_oversized_gap():
    src = "RULE r PRIO 1: trigger=[PREP] GAP 9 site=[NOUN_SITE] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="GAP"):
        compile(src, GOAL_LEX)


def test_compile_error_carries_location():
    src = "# comment\nRULE r PRIO x: trigger=[PREP] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="line 2"):
        compile(src, GOAL_LEX)


def test_compile_rejects_stray_character():
    src = "RULE r PRIO 1: (trigger=[PREP] ) => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="unexpected character"):
        compile(src, GOAL_LEX)


@pytest.mark.parametrize(
    "src, message",
    [
        ("RULE r PRIO 1: trigger=[PREP] => TOPOLOGICAL)", "unexpected character ')' (line 1, col 45)"),
        ("RULE r PRIO 1: trigger=[PREP] => TOPOLOGICAL   )", "unexpected character ')' (line 1, col 48)"),
        ("RULE r PRIO 1: (trigger=[PREP] ) => TOPOLOGICAL", "unexpected character ')' (line 1, col 32)"),
        ("RULE r PRIO 1: => TOPOLOGICAL", "rule r: empty pattern (line 1, col 1)"),
        ("RULE r PRIO 1: (trigger=[PREP])? => TOPOLOGICAL", "rule r: trigger capture may not be optional (line 1, col 1)"),
        # a `#` after a token would silently drop what follows it, the guards here
        ("RULE r PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL #GUARD NEG_SCOPE", "unexpected character '#' (line 1, col 51)"),
    ],
)
def test_compile_error_message(src, message):
    with pytest.raises(GrammarError, match=f"^{re.escape(message)}$"):
        compile(src, GOAL_LEX)


def test_a_comment_is_a_line_whose_first_non_blank_character_is_a_hash():
    src = "# a rule over three lines\nRULE r PRIO 1: trigger=[PREP]\n    # its output\n=> DIRECTIONAL.GOAL GUARD NEG_SCOPE"
    (rule,) = compile(src, GOAL_LEX).rules
    assert (rule.output, rule.guards) == ("DIRECTIONAL.GOAL", ("NEG_SCOPE",))


def test_compile_rejects_truncated_rule():
    with pytest.raises(GrammarError, match="unexpected end"):
        compile("RULE r PRIO 1: trigger=[PREP", GOAL_LEX)
    with pytest.raises(GrammarError, match="missing"):
        compile("RULE r PRIO 1: trigger=[PREP]", GOAL_LEX)


def test_compile_rejects_unknown_capture_name():
    src = "RULE r PRIO 1: head=[PREP] trigger=[PREP] => DIRECTIONAL.GOAL"
    with pytest.raises(GrammarError, match="head"):
        compile(src, GOAL_LEX)


def test_apply_goal_example():
    grammar = compile(GOAL_RULE, GOAL_LEX)
    tokens = tokenize("اتجهت نحو بلدة مرسى", GOAL_LEX)
    matches = apply(grammar, tokens)
    assert len(matches) == 1
    m = matches[0]
    assert m.rule == "dir_goal"
    assert m.captures["verb"] == (0, 1)
    assert m.captures["trigger"] == (1, 2)
    assert m.captures["site"] == (2, 4)  # the multiword site covers two tokens
    assert m.span == (0, 4)


def test_apply_empty_token_list():
    grammar = compile(GOAL_RULE, GOAL_LEX)
    assert apply(grammar, token_stream([])) == []


def test_bareword_literal_atom():
    src = "RULE bare PRIO 5: trigger=[PREP] مرسى => DIRECTIONAL.GOAL"
    grammar = compile(src, GOAL_LEX)
    tokens = tokenize("نحو مرسى", GOAL_LEX)
    matches = apply(grammar, tokens)
    assert len(matches) == 1 and matches[0].span == (0, 2)
    # the bareword is normalized at compile time, so it matches folded text
    assert apply(grammar, tokenize("نحو مرسي", GOAL_LEX))


def test_apply_is_deterministic():
    grammar = compile(GOAL_RULE, GOAL_LEX)
    tokens = tokenize("اتجهت نحو بلدة مرسى", GOAL_LEX)
    assert apply(grammar, tokens) == apply(grammar, tokens)


LL_LEX = _lexicon(
    """
اب	PREP	DIRECTIONAL.GOAL
جد	NOUN_SITE
هو	PLACE_NAME
"""
)

LL_RULES = """
RULE long PRIO 10: trigger=[PREP] [NOUN_SITE] [PLACE_NAME] => DIRECTIONAL.GOAL
RULE short PRIO 10: trigger=[PREP] [NOUN_SITE] => DIRECTIONAL.SOURCE
"""


def test_equal_priority_longer_match_wins():
    grammar = compile(LL_RULES, LL_LEX)
    tokens = tokenize("اب جد هو", LL_LEX)
    matches = apply(grammar, tokens)
    assert [m.rule for m in matches] == ["long"]
    # against the brute-force enumeration as well
    assert as_tuples(matches) == oracle_apply(grammar, tokens, LL_LEX)


def test_a_call_none_of_whose_types_starts_a_rule_returns_at_the_exit(monkeypatch):
    grammar = compile(LL_RULES, LL_LEX)
    tokens = tokenize("جد هو جد كتب هو", LL_LEX)  # lexicon words and noise, none of them a PREP
    looked_up, lookup = [], Lexicon.lookup
    monkeypatch.setattr(Lexicon, "lookup", lambda self, toks, i: looked_up.append(i) or lookup(self, toks, i))
    assert _type_records(grammar, tokens) is None
    looked_up.clear()
    assert apply(grammar, tokens) == []
    keys = LL_LEX.lookup_keys(tokens)
    assert sorted(keys[i] for i in looked_up) == sorted(set(keys))  # each distinct key looked up once
    assert {key: grammar._types[key][1] for key in keys} == dict.fromkeys(keys, ())  # each kept, with no candidate


def test_a_text_whose_only_rule_start_is_its_last_token_still_matches():
    grammar = compile("RULE r PRIO 1: trigger=[PREP] (site=[NOUN_SITE])? => DIRECTIONAL.GOAL", LL_LEX)
    tokens = tokenize("جد هو جد اب", LL_LEX)
    matches = apply(grammar, tokens)
    assert [(m.span, m.captures) for m in matches] == [((3, 4), {"trigger": (3, 4)})]
    assert as_tuples(matches) == oracle_apply(grammar, tokens, LL_LEX)


@pytest.mark.parametrize("first", ["GAP 2", "(site=[NOUN_SITE])?"])
@pytest.mark.parametrize("text", ["جد هو جد", "كتب", "جد اب", "اب جد هو"])
def test_a_rule_that_starts_anywhere_keeps_every_call_past_the_exit(first, text):
    grammar = compile(f"{LL_RULES}RULE any PRIO 20: {first} trigger=[PREP] => DIRECTIONAL.GOAL", LL_LEX)
    assert grammar.always
    tokens = tokenize(text, LL_LEX)
    assert _type_records(grammar, tokens) is not None
    assert as_tuples(apply(grammar, tokens)) == oracle_apply(grammar, tokens, LL_LEX)


def test_one_winner_per_start_and_no_dangling_captures(bundle, suite_gold):
    smap, lex, grammar, variants = bundle
    for doc in suite_gold:
        tokens = tokenize(doc.text, lex, variants)
        matches = apply(grammar, tokens)
        starts = [m.span[0] for m in matches]
        assert len(starts) == len(set(starts))
        for m in matches:
            for cap_start, cap_end in m.captures.values():
                assert 0 <= cap_start < cap_end <= len(tokens)
                assert m.span[0] <= cap_start and cap_end <= m.span[1]
        trigger_ends = [m.captures["trigger"][1] for m in matches]
        assert trigger_ends == sorted(trigger_ends)


# -- brute-force comparison on a small but adversarial grammar ---------------

BF_LEX = _lexicon(
    """
alpha	VERB_MOTION
beta	PREP	TOPOLOGICAL.SUPPORT;DIRECTIONAL.GOAL
gamma	NOUN_SITE		INTRINSIC_ORIENTATION
delta	PREP	TOPOLOGICAL.SUPPORT
delta gamma	PREP_LOCUTION	TOPOLOGICAL.PERIPHERY
epsilon	PLACE_NAME
"""
)

BF_RULES = """
RULE periph PRIO 50: trigger=[SENSE TOPOLOGICAL.PERIPHERY] site=[NOUN_SITE|PLACE_NAME] => TOPOLOGICAL.PERIPHERY
RULE support PRIO 40: trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE|PLACE_NAME] => TOPOLOGICAL.SUPPORT
RULE goal PRIO 40: verb=[VERB_MOTION] GAP 2 trigger=[SENSE DIRECTIONAL.GOAL] site=[NOUN_SITE|PLACE_NAME] => DIRECTIONAL.GOAL
RULE flagged PRIO 40: trigger=[LIT delta] ([LIT epsilon])? site=[FLAG INTRINSIC_ORIENTATION] => TOPOLOGICAL.SUPPORT
RULE prep PRIO 20: trigger=[PREP] => DIRECTIONAL.GOAL
"""

BF_ALPHABET = ("alpha", "beta", "gamma", "delta", "epsilon")


def test_brute_force_equivalence_sampled():
    grammar = compile(BF_RULES, BF_LEX)
    for length in range(0, 5):
        for seq in itertools.product(BF_ALPHABET, repeat=length):
            tokens = tokenize(" ".join(seq), BF_LEX)
            assert as_tuples(apply(grammar, tokens)) == oracle_apply(
                grammar, tokens, BF_LEX
            ), seq


# dispatch paths the shipped rules never take: a rule opening with an optional
# atom or a gap (tried at every token), an atom mixing literal and class tests,
# and a sense test on a parent path that only a child sense satisfies
DISPATCH_LEX = _lexicon(
    """
alpha	VERB_MOTION
beta	PREP	TOPOLOGICAL.SUPPORT
gamma	NOUN_SITE
delta	PREP	TOPOLOGICAL.INCLUSION.CONTAINMENT
delta gamma	PREP_LOCUTION	TOPOLOGICAL.PERIPHERY
epsilon	PLACE_NAME
"""
)

DISPATCH_RULES = """
RULE opt PRIO 30: (verb=[VERB_MOTION])? trigger=[SENSE TOPOLOGICAL.INCLUSION] site=[NOUN_SITE|PLACE_NAME] => TOPOLOGICAL.INCLUSION.CONTAINMENT
RULE gap PRIO 30: GAP 2 trigger=[LIT epsilon|NOUN_SITE] => TOPOLOGICAL.SUPPORT
RULE mixed PRIO 40: trigger=[LIT gamma|PREP|LIT alpha] (site=[PLACE_NAME|LIT beta])? => TOPOLOGICAL.SUPPORT
RULE parent PRIO 50: trigger=[SENSE TOPOLOGICAL] site=[NOUN_SITE] => TOPOLOGICAL.PERIPHERY
RULE low PRIO 10: verb=[VERB_MOTION] GAP 1 trigger=[LIT delta|SENSE TOPOLOGICAL.PERIPHERY] => DIRECTIONAL.GOAL
"""

DISPATCH_ALPHABET = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def test_dispatch_paths_equal_oracle_exhaustively():
    grammar = compile(DISPATCH_RULES, DISPATCH_LEX)
    for length in range(0, 5):
        for seq in itertools.product(DISPATCH_ALPHABET, repeat=length):
            tokens = tokenize(" ".join(seq), DISPATCH_LEX)
            assert as_tuples(apply(grammar, tokens)) == oracle_apply(
                grammar, tokens, DISPATCH_LEX
            ), seq


# alignments of one rule that tie on total length: a gap, an optional atom or
# a literal listed first offers its shorter option first, yet the alignment
# whose atoms are longer from the left wins
TIE_LEX = _lexicon(
    """
alpha	VERB_MOTION
beta	PREP	DIRECTIONAL.GOAL
beta beta	PREP_LOCUTION	DIRECTIONAL.GOAL
gamma	NOUN_SITE
"""
)

TIE_RULES = """
RULE gap PRIO 10: verb=[VERB_MOTION] GAP 1 trigger=[SENSE DIRECTIONAL.GOAL] => DIRECTIONAL.GOAL
RULE opt PRIO 5: (verb=[VERB_MOTION])? trigger=[VERB_MOTION|PREP] (site=[PREP|NOUN_SITE])? => DIRECTIONAL.SOURCE
RULE lit PRIO 20: trigger=[LIT beta|PREP_LOCUTION] site=[NOUN_SITE|PREP_LOCUTION|PREP] => TOPOLOGICAL.SUPPORT
"""


def test_equal_totals_go_to_the_alignment_longer_from_the_left():
    grammar = compile(TIE_RULES, TIE_LEX)
    for text, captures in (
        ("alpha beta beta", {"verb": (0, 1), "trigger": (2, 3)}),  # GAP 1 before beta, not GAP 0 before beta beta
        ("alpha beta", {"verb": (0, 1), "trigger": (1, 2)}),  # the optional verb, not alpha as trigger and beta as site
        ("beta beta beta", {"trigger": (0, 2), "site": (2, 3)}),  # beta beta as trigger, not LIT beta
    ):
        (match, *_) = apply(grammar, tokenize(text, TIE_LEX))
        assert match.captures == captures, text
    for length in range(0, 6):
        for seq in itertools.product(("alpha", "beta", "gamma"), repeat=length):
            tokens = tokenize(" ".join(seq), TIE_LEX)
            assert as_tuples(apply(grammar, tokens)) == oracle_apply(grammar, tokens, TIE_LEX), seq


def test_site_evidence_is_the_first_lookup_the_first_passing_test_accepts():
    # one lemma, NOUN_TEMPORAL listed before NOUN_SITE: lookups keep that
    # order, but the atom's NOUN_SITE test comes first, so the site evidence
    # is the NOUN_SITE entry and TEMPORAL_SITE lets the match through
    lex = _lexicon(
        """
at	PREP	PROJECTIVE.DISTANCE.PROXIMITY
dusk	NOUN_TEMPORAL
dusk	NOUN_SITE
"""
    )
    lookups = lex.lookup(tokenize("dusk", lex), 0)
    assert [m.entry.cls.value for m in lookups] == ["NOUN_TEMPORAL", "NOUN_SITE"]
    src = (
        "RULE prox PRIO 1: trigger=[LIT at] site=[NOUN_SITE|NOUN_TEMPORAL] "
        "=> PROJECTIVE.DISTANCE.PROXIMITY GUARD TEMPORAL_SITE"
    )
    grammar = compile(src, lex)
    (match,) = apply(grammar, tokenize("at dusk", lex))
    assert match.evidence["site"].entry.cls.value == "NOUN_SITE"
    assert len(annotate("at dusk", lex, grammar, SMAP).annotations) == 1
    # a literal test listed first supplies the one-token option, with no entry
    for site, cls in (("[NOUN_SITE|LIT dusk]", "NOUN_SITE"), ("[LIT dusk|NOUN_SITE]", None)):
        src = f"RULE r PRIO 1: trigger=[LIT at] site={site} => PROJECTIVE.DISTANCE.PROXIMITY"
        grammar = compile(src, lex)
        (match,) = apply(grammar, tokenize("at dusk", lex))
        assert (match.evidence["site"] and match.evidence["site"].entry.cls.value) == cls, site


def test_a_grammar_rejects_a_lexicon_it_was_not_compiled_for():
    box = _parse_line(["box", "NOUN_SITE"], "<test>:2")
    own = Lexicon([_parse_line(["on", "PREP", "TOPOLOGICAL.SUPPORT"], "<test>:1"), box])
    other = Lexicon([_parse_line(["on", "PREP", "DIRECTIONAL.GOAL"], "<test>:1"), box])
    src = "RULE r PRIO 1: trigger=[SENSE TOPOLOGICAL.SUPPORT] site=[NOUN_SITE] => TOPOLOGICAL.SUPPORT"
    grammar = compile(src, own)
    assert grammar.lexicon is own
    assert len(annotate("on box", own, grammar, SMAP).annotations) == 1
    # `apply` looks tokens up in the grammar's lexicon, whichever lexicon split them
    (match,) = apply(grammar, tokenize("on box", other))
    assert match.captures == {"trigger": (0, 1), "site": (1, 2)}
    for foreign in (other, Lexicon(list(own.entries))):  # an equal copy is another lexicon too
        with pytest.raises(ValueError, match="lexicon other than the one it was compiled for"):
            annotate("on box", foreign, grammar, SMAP)


# words covering triggers, locution parts, sites, verbs, demonstratives,
# suffixed forms, proclitic clusters and out-of-vocabulary noise
_POOL = (
    "على فوق تحت في داخل حيث عند بين وسط من إلى عن نحو أمام وراء قرب "
    "اتجاه قلب ضفة صدر محيط جانب محاذاة يمين يساري فوقي نحوي مقدمة "
    "المقعد مدينة شقة باب المشيعين ساعة الغروب بحر باريس شمال بالطائرة "
    "وعن هذا هذه اتجهت عاد غادر يأتي لم لا ما كلام أشياء ذراعي واجهته"
).split()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_POOL), max_size=8))
@example(["الطائرة", "عاد", "بالطائرة"])  # one stem with and without a ب proclitic, in both orders
@example(["بالطائرة", "عاد", "الطائرة"])
def test_shipped_grammar_equals_oracle_on_random_sequences(bundle, words):
    smap, lex, grammar, variants = bundle
    tokens = tokenize(" ".join(words), lex, variants)
    assert as_tuples(apply(grammar, tokens)) == oracle_apply(grammar, tokens, lex)
