"""Word-type memo tables kept across calls give the answers of freshly built resources.

`tokenize` keeps surface run or piece of one run -> record and word -> split
on the lexicon (fresh tables each call without one), `Lexicon.lookup` keeps a
word type's matches, and `apply` keeps a word type's record (lookups,
candidate rules, atom options) on the grammar, which is applied with the one
lexicon it was compiled for; a token where a multiword form can start is keyed
by the stems after it too.
Every output below is compared with the output of resources built afresh
for that one call.
"""

import random
import sys
import threading
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan import engine, textnorm
from makan.annotator import annotate, read_annotations
from makan.engine import compile
from makan.lexicon import Lexicon, load_variant_table, seed_lexicon
from makan.rulepack import rule_pack
from makan.semmap import PARENT
from makan.textnorm import tokenize
from oracle import reference_tokenize
from strategies import EDGES, SEPARATORS

SMAP = PARENT
RULES = rule_pack()
SEED = seed_lexicon()
# Two lexicons, each with its own grammar: the seed and the seed less every third entry, so splits and lookups differ.
ENTRIES = (SEED.entries, tuple(e for n, e in enumerate(SEED.entries) if n % 3))
LEXICONS = tuple(Lexicon(list(entries)) for entries in ENTRIES)
GRAMMARS = tuple(compile(RULES, lex) for lex in LEXICONS)
SHIPPED = load_variant_table(resources.files("makan").joinpath("resources/variants.tsv"))
LIMIT = 16  # low, so that the tables fill past it and are emptied again and again

_SUITE = resources.files("makan").joinpath("resources/suite")
_WORDS = sorted({w for p in _SUITE.iterdir() for w in read_annotations(p).text.split()})
# suite words, some vocalized, and variant-table words bare, vocalized and with proclitics
_POOL = _WORDS + [w + "ِ" for w in _WORDS[::7]] + ["سين", "سِين", "اللواريه", "واللواريه", "وبالبيتِ", "ـ", "َ"]
# words split differently by the two lexicons or without one, and locution words (whose rules depend on the next word)
_TRICKY = ["واجهته", "فوقي", "فوق", "وسط", "بيد", "الليل", "منتصف", "على", "ضفة", "عن", "يمين", "في", "قلب", "المقعد"]
# words, each behind a separator, so that pieces of several runs, empty pieces and run-less pieces recur too
_WORD = st.sampled_from(_POOL) | st.sampled_from(_TRICKY)
_TEXTS = st.builds(
    lambda edge, words: edge + "".join(map("".join, words)),
    st.sampled_from(EDGES),
    st.lists(st.tuples(_WORD, st.sampled_from(SEPARATORS + (". ", " . "))), min_size=1, max_size=12),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("annotate"), _TEXTS, st.sampled_from([0, 1]), st.sampled_from([None, 0, 1, 2])),
        st.tuples(st.just("tokenize"), _TEXTS, st.sampled_from([None, 0, 1]), st.sampled_from([None, 0, 1, 2])),
        st.tuples(st.just("mutate"), st.sampled_from(_POOL), st.sampled_from([None, *_POOL[:20]]), st.just(None)),
    ),
    max_size=10,
)


def _tables():
    out = []
    for lex, grammar in zip(LEXICONS, GRAMMARS):
        out += [*lex.tokenize_memos, lex._lookups, grammar._types]
    return out


def _outcome(call, *args):
    """What a call gives: its value, or the ValueError of a variant its text meets that the rule refuses."""
    try:
        return call(*args)
    except ValueError as exc:
        assert str(exc).startswith("canonical form ")
        return ValueError, str(exc)


def _run(ops) -> list:
    """Each call's outcome, with the long-lived tables and with resources built afresh, required equal."""
    live = {"اللواريه": "اللوار"}  # a variant table the caller changes between calls
    tables = (SHIPPED, {"سين": "سان", "المقعد": "الكرسي"}, live)
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textnorm, "MEMO_LIMIT", LIMIT)
        for kind, text, which, v in ops:
            if kind == "mutate":
                if which is None:
                    live.pop(text, None)
                else:
                    live[textnorm.normalize(text)[0]] = which
                continue
            variants = None if v is None else tables[v]
            snapshot = None if variants is None else dict(variants)
            if kind == "annotate":
                got = _outcome(annotate, text, LEXICONS[which], GRAMMARS[which], SMAP, variants)
                fresh_lex = Lexicon(list(ENTRIES[which]))
                assert got == _outcome(annotate, text, fresh_lex, compile(RULES, fresh_lex), SMAP, snapshot)
            elif which is None:
                got = _outcome(tokenize, text, None, variants)
                assert got == _outcome(tokenize, text, None, snapshot)
            else:
                got = _outcome(tokenize, text, LEXICONS[which], variants)
                assert got == _outcome(tokenize, text, Lexicon(list(ENTRIES[which])), snapshot)
            outcomes.append(got)
            assert all(len(table) <= LIMIT for table in _tables())
    return outcomes


@settings(max_examples=100, deadline=None)
@given(_OPS)
@example([("tokenize", "سين", 0, None), ("mutate", "سين", "سان", None), ("tokenize", "سين", 0, 2)])
@example([("annotate", "في المقعد", 0, 2), ("mutate", "المقعد", "البيت", None), ("annotate", "في المقعد", 0, 2)])
@example([("annotate", "جلست على المقعد", 0, None), ("annotate", "جلست على المقعد", 1, None)])
@example([("annotate", "جلس على المقعد", 0, None), ("annotate", "جلس على ضفة النهر", 0, None)])
@example([("annotate", "في قلب البيت في البيت", 0, None), ("annotate", "في البيت", 0, None)])
@example([("tokenize", "واجهته فوقي", 0, None), ("tokenize", "واجهته فوقي", 1, None), ("tokenize", "فوقي", None, None)])
def test_long_lived_tables_equal_fresh_ones(ops):
    _run(ops)


def test_a_lengthening_variant_is_refused_alike_by_long_lived_and_fresh_tables():
    # البيت read as المقعد, one letter longer: its last two letters would map onto the one source letter ت
    ops = [("annotate", "في البيت", 0, 2), ("mutate", "البيت", "المقعد", None), ("annotate", "في البيت", 0, 2)]
    message = "canonical form 'المقعد' of variant 'البيت' is not one word no longer than it"
    assert _run(ops)[1] == (ValueError, message)


def _generated_words(n: int) -> list[str]:
    """`n` distinct words of seeded letters behind a seeded proclitic, some vocalized, some a mark alone."""
    rng = random.Random(7)
    words = {"ـ", "َ"}
    while len(words) < n:
        word = rng.choice(("", "و", "ب", "ال", "وال")) + "".join(rng.choices("ابتجدرسعفقلمنهوية", k=rng.randint(1, 6)))
        words.add(word if rng.random() < 0.7 else "".join(ch + rng.choice("َُِّْـ") for ch in word))
    return sorted(words)


@pytest.mark.parametrize("separator", ["\t", "،", " "])
def test_the_run_table_keeps_one_run_a_key(separator):
    # Joined by a tab or a comma the text is one piece of 2,000 runs, by a space 2,000 pieces of one run each
    words = _generated_words(2_000)
    text = separator.join(words) + ". المقعد. (المقعد\n"
    lex = Lexicon(list(SEED.entries))
    assert tokenize(text, lex, SHIPPED) == reference_tokenize(text, lex, SHIPPED)
    runs = lex.tokenize_memos[0]
    keys = [key for key in runs if type(key) is str]
    assert all(len(textnorm._RUN_RE.findall(key)) == 1 for key in keys)
    one_run_pieces = {p for p in text.replace("\n", " ").split(" ") if len(textnorm._RUN_RE.findall(p)) == 1}
    assert len(keys) <= len(set(textnorm._RUN_RE.findall(text)) | one_run_pieces)
    assert runs["المقعد."] == runs["المقعد"] and runs["(المقعد"] == (1, *runs["المقعد"][1:])


def test_a_full_table_is_emptied_and_answers_stay_the_same(monkeypatch):
    assert textnorm.MEMO_LIMIT > 20_149  # the runs and one-run pieces of a 25k-word vocalized text stay within a call
    monkeypatch.setattr(textnorm, "MEMO_LIMIT", 3)
    lex = Lexicon(list(SEED.entries))
    grammar = compile(RULES, lex)
    for text in ["جلست المرأة على المقعد", "وبالبيتِ سين", "الكتاب فوق المقعد", "نظر نحو البحر"] * 2:
        fresh = Lexicon(list(SEED.entries))
        assert annotate(text, lex, grammar, SMAP, SHIPPED) == annotate(
            text, fresh, compile(RULES, fresh), SMAP, SHIPPED
        )
        assert all(len(table) <= 3 for table in (*lex.tokenize_memos, lex._lookups, grammar._types))


def test_a_warm_grammar_works_out_no_atom_options_again(monkeypatch):
    # the options of an atom one past the last token included: the grammar keeps that record too
    texts = [read_annotations(p).text for p in sorted(_SUITE.iterdir(), key=lambda p: p.name)]
    lex = Lexicon(list(SEED.entries))
    grammar = compile(RULES, lex)
    for text in texts:
        annotate(text, lex, grammar, SMAP, SHIPPED)
    calls = []
    options = engine._atom_options
    monkeypatch.setattr(engine, "_atom_options", lambda *args: calls.append(args) or options(*args))
    warm = [annotate(text, lex, grammar, SMAP, SHIPPED) for text in texts]
    assert calls == []
    fresh = Lexicon(list(SEED.entries))
    assert warm == [annotate(text, fresh, compile(RULES, fresh), SMAP, SHIPPED) for text in texts]


def test_threads_sharing_the_tables_get_the_answers_of_one_thread(monkeypatch):
    monkeypatch.setattr(textnorm, "MEMO_LIMIT", 8)  # so that threads empty the tables under each other
    texts = [read_annotations(p).text for p in sorted(_SUITE.iterdir(), key=lambda p: p.name)]
    lex = Lexicon(list(SEED.entries))
    grammar = compile(RULES, lex)
    seed_grammar = compile(RULES, SEED)
    expected = [annotate(text, SEED, seed_grammar, SMAP, SHIPPED) for text in texts]
    results = {}

    def work(n):
        results[n] = [annotate(text, lex, grammar, SMAP, SHIPPED) for text in texts[n:] + texts[:n]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in range(6):
        assert results[n] == expected[n:] + expected[:n]
