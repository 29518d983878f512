import copy
import dataclasses
import gc
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan import textnorm
from makan.annotator import annotate
from makan.engine import apply
from makan.guards import run_guards
from makan.lexicon import Lexicon, LexiconError, load_variant_table
from makan.textnorm import (
    _WORD_RE,
    OffsetSpan,
    Proclitic,
    Token,
    TokenStream,
    normalize,
    token_stream,
    tokenize,
)
from oracle import reference_normalize, reference_tokenize
from strategies import word_texts

# letters, diacritics, proclitic letters, punctuation and digits mixed in
_ARABIC_SOUP = st.text(
    alphabet=st.sampled_from(
        "ابتثجحخدذرزسشصضطظعغفقكلمنهوية" "أإآءؤئى" "ًٌٍَُِّْ" "ـ" "والفبك" " .،؟!\"()12"
    ),
    max_size=60,
)


def test_normalize_fixed_point():
    assert normalize("على")[0] == normalize(normalize("على")[0])[0]


def test_normalize_folds_alef_and_maps_offsets():
    norm, omap = normalize("أمام")
    assert norm == "امام"
    assert omap == [0, 1, 2, 3]


def test_normalize_removes_diacritics_and_tatweel():
    norm, omap = normalize("جَلَسَـتْ")
    assert norm == "جلست"
    assert [c for c in norm] == ["ج", "ل", "س", "ت"]
    assert omap == [0, 2, 4, 7]


def test_normalize_preserves_ta_marbuta():
    assert normalize("طائرة")[0].endswith("ة")


def _words(tokens):
    return ["".join(p.text for p in t.proclitics) + t.stem for t in tokens]


def test_transliteration_variants_fold_to_one_form(bundle):
    lex, variants = bundle[1], bundle[3]
    assert _words(tokenize("سين جيرمان", lex, variants)) == _words(tokenize("سان جيرمان", lex, variants))
    assert tokenize("سِين جيرمان", lex, variants) == reference_tokenize("سِين جيرمان", lex, variants)


def test_variant_replacement_keeps_token_spans_on_the_source_word():
    # a shorter canonical form's last letter maps onto the variant's last letter, the rest onto its first letters
    variants = {"اللواريه": normalize("اللوار")[0]}
    text = "ضفة اللواريه هنا"
    tokens = tokenize(text, None, variants)
    assert tokens == reference_tokenize(text, None, variants)
    assert [(t.span, t.surface, t.stem, t.stem_span) for t in tokens][1] == (
        OffsetSpan(4, 12), "اللواريه", "لوار", OffsetSpan(6, 12)
    )


def test_a_variant_run_is_worked_out_once_for_each_canonical_form(bundle, monkeypatch):
    lex = Lexicon(list(bundle[1].entries))
    variants = {"اللواريه": normalize("اللوار")[0]}
    text = "ضفة اللواريه هنا"
    worked_out = []
    real = textnorm._normalized_word
    monkeypatch.setattr(textnorm, "_normalized_word", lambda run, *rest: worked_out.append(run) or real(run, *rest))
    first = tokenize(text, lex, variants)
    worked_out.clear()
    assert tokenize(text, lex, variants) == first and worked_out == []
    variants["اللواريه"] = normalize("لوار")[0]  # the caller changes the canonical form between calls
    changed = tokenize(text, lex, variants)
    assert changed == reference_tokenize(text, lex, variants) and changed != first
    assert worked_out == ["اللواريه"]
    variants["اللواريه"] = normalize("اللوار")[0]  # and back: the first form's record is still kept
    assert tokenize(text, lex, variants) == first and worked_out == ["اللواريه"]


def test_a_refused_variant_raises_on_every_call_and_is_not_kept(bundle):
    lex = Lexicon(list(bundle[1].entries))
    variants = {"البيت": "المقعد"}  # one letter longer than its variant
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape(_REFUSED.format("البيت", "المقعد"))):
            tokenize("في البيت", lex, variants)
    assert ("البيت", "المقعد") not in lex.tokenize_memos[0]
    variants["البيت"] = "بيت"
    assert tokenize("في البيت", lex, variants) == reference_tokenize("في البيت", lex, variants)


def test_variant_table_rejects_non_idempotent(tmp_path):
    path = tmp_path / "variants.tsv"
    path.write_text("اب\tجد\nجد\tهو\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=re.escape(f"{path}:1: variant table is not idempotent: 'جد' is also a variant, on line 2")):
        load_variant_table(path)


def test_variant_table_loads_a_padded_column_as_the_bare_column(tmp_path):
    path = tmp_path / "variants.tsv"
    path.write_text("سين \tسان\n لوارية\t لوار \n", encoding="utf-8")
    assert load_variant_table(path) == {"سين": "سان", "لوارية": "لوار"}


def test_variant_table_reports_line_numbers(tmp_path):
    path = tmp_path / "variants.tsv"
    path.write_text("# comment\nbroken-line\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=":2"):
        load_variant_table(path)


@pytest.mark.parametrize("row", ["سين\tَ", "ـ\tسان", "ًٌ\tّ"])
def test_variant_table_rejects_forms_that_normalize_to_nothing(tmp_path, row):
    path = tmp_path / "variants.tsv"
    path.write_text(f"# comment\n{row}\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=re.escape(f"{path}:2: ") + ".* normalizes to nothing"):
        load_variant_table(path)


@pytest.mark.parametrize(
    "variant, canonical, what",
    [
        pytest.param("سانجيرمان", "سان جيرمان", "canonical form", id="سان جيرمان"),
        pytest.param("سانجيرمان", "سان-جيرمان", "canonical form", id="سان-جيرمان"),
        pytest.param("سان جيرمان", "سانجيرمان", "variant", id="variant-سان جيرمان"),
    ],
)
def test_variant_table_rejects_a_canonical_form_of_more_than_one_word(tmp_path, variant, canonical, what):
    path = tmp_path / "variants.tsv"
    path.write_text(f"سين\tسان\n{variant}\t{canonical}\n", encoding="utf-8")
    form = variant if what == "variant" else canonical
    with pytest.raises(LexiconError, match=re.escape(f"{path}:2: {what} {form!r} is not one word")):
        load_variant_table(path)


def test_variant_table_rejects_a_canonical_form_with_more_letters_than_its_variant(tmp_path):
    # its extra letters would map onto the variant's last letter: the article of بالطائرة onto no letter at all
    path = tmp_path / "variants.tsv"
    path.write_text("سين\tسان\nطا\tبالطائرة\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=re.escape(f"{path}:2: canonical form 'بالطائرة' has more letters than")):
        load_variant_table(path)


@settings(max_examples=200)
@given(_ARABIC_SOUP)
@example("ﻻَ x 𝒜ّ ۀ")  # characters past the table's end map to themselves
@example("اَبّ أ سِين")  # marked words that the variant tables below replace
def test_normalize_equals_reference_normalize(text):
    assert normalize(text) == reference_normalize(text)


_REFUSED = "canonical form {1!r} of variant {0!r} is not one word no longer than it"


@settings(max_examples=200)
@given(_ARABIC_SOUP)
@example("اَبّ أ سِين")  # marked words that the variant tables below replace
@example("اَبّ سِين")
def test_tokenize_with_variants_equals_reference_tokenize(bundle, text):
    # the shipped table, a word that shortens and one that would lengthen, which is refused where it is met
    for variants in (bundle[3], {"اب": "ب", "ا": "اا"}):
        words = _WORD_RE.findall(normalize(text)[0])
        refused = [(w, variants[w]) for w in words if w in variants and len(variants[w]) > len(w)]
        if refused:
            with pytest.raises(ValueError, match=re.escape(_REFUSED.format(*refused[0]))):
                tokenize(text, bundle[1], variants)
        else:
            assert tokenize(text, bundle[1], variants) == reference_tokenize(text, bundle[1], variants)


@settings(max_examples=200)
@given(_ARABIC_SOUP)
def test_normalize_idempotent(text):
    once, _ = normalize(text)
    twice, _ = normalize(once)
    assert once == twice


@settings(max_examples=200)
@given(_ARABIC_SOUP)
def test_tokenize_idempotent_with_variants(bundle, text):
    # a table's canonical forms are no variants, so the words of its tokens tokenize to themselves
    variants = bundle[3]
    once = _words(tokenize(text, None, variants))
    assert _words(tokenize(" ".join(once), None, variants)) == once


def test_tokenize_detaches_prep_and_article(bundle):
    lex = bundle[1]
    tokens = tokenize("بالطائرة", lex)
    assert len(tokens) == 1
    tok = tokens[0]
    assert [(p.kind, p.text) for p in tok.proclitics] == [
        ("preposition", "ب"),
        ("article", "ال"),
    ]
    assert tok.stem == "طائرة"


def test_tokenize_detaches_coordination(bundle):
    lex = bundle[1]
    tokens = tokenize("وعن بيت اللواريه", lex, bundle[3])
    assert tokens[0].proclitics[0].kind == "coordination"
    assert tokens[0].proclitics[0].text == "و"
    assert tokens[0].stem == "عن"


def test_tokenize_hand_segmented_example(bundle):
    lex = bundle[1]
    tokens = tokenize("على المقعد", lex)
    assert [t.stem for t in tokens] == ["علي", "مقعد"]
    assert tokens[0].proclitics == ()
    assert [p.kind for p in tokens[1].proclitics] == ["article"]


def test_tokenize_never_segments_lexical_words(bundle):
    lex = bundle[1]
    for word, stem in [("فوق", "فوق"), ("بين", "بين"), ("وراء", "وراء"), ("فوقي", "فوقي")]:
        tokens = tokenize(word, lex)
        assert tokens[0].stem == normalize(stem)[0]
        assert tokens[0].proclitics == ()


def test_tokenize_unsegmentable_word_is_single_stem(bundle):
    tokens = tokenize("لي", bundle[1])
    assert tokens[0].proclitics == ()
    assert tokens[0].stem == "لي"


def _assert_round_trip(text, tokens):
    pos = 0
    rebuilt = []
    for tok in tokens:
        assert text[tok.span.start : tok.span.end] == tok.surface
        rebuilt.append(text[pos : tok.span.start])
        rebuilt.append(tok.surface)
        pos = tok.span.end
    rebuilt.append(text[pos:])
    assert "".join(rebuilt) == text


def _assert_partition(tok):
    cursor = tok.span.start
    for proc in tok.proclitics:
        assert proc.span.start == cursor
        cursor = proc.span.end
    assert tok.stem_span.start == cursor
    assert tok.stem_span.end == tok.span.end


@settings(max_examples=200)
@given(_ARABIC_SOUP)
def test_tokenize_offset_round_trip_and_partition(bundle, text):
    lex, variants = bundle[1], bundle[3]
    tokens = tokenize(text, lex, variants)
    _assert_round_trip(text, tokens)
    for tok in tokens:
        _assert_partition(tok)
    starts = [t.span.start for t in tokens]
    assert starts == sorted(starts)
    for a, b in zip(tokens, tokens[1:]):
        assert a.span.end <= b.span.start


@settings(max_examples=100)
@given(_ARABIC_SOUP)
def test_tokenize_deterministic(bundle, text):
    lex, variants = bundle[1], bundle[3]
    assert tokenize(text, lex, variants) == tokenize(text, lex, variants)


def test_offset_span_rejects_empty():
    with pytest.raises(ValueError):
        OffsetSpan(3, 3)


# Bounds are ints only: a bool (JSON `true`), a float or a str would write a file `read_annotations` refuses.
@pytest.mark.parametrize(
    "start,end", [(-1, 2), (4, 2), (True, 2), (0, True), (False, True), (0.5, 2.0), (0, 2.0), ("a", 2), (0, "b")]
)
def test_offset_span_rejects_a_negative_start_or_a_reversed_span(start, end):
    message = re.escape(f"invalid span [{start}, {end})")
    with pytest.raises(ValueError, match=message):
        OffsetSpan(start, end)
    with pytest.raises(ValueError, match=message):  # `_make`, and so `_replace`, check as the constructor does
        OffsetSpan._make((start, end))
    with pytest.raises(ValueError, match=message):
        OffsetSpan(0, 5)._replace(start=start, end=end)


def _records():
    span, proclitic = OffsetSpan(0, 3), Proclitic(OffsetSpan(0, 1), "coordination", "و")
    return span, proclitic, Token(span, "وفي", (proclitic,), OffsetSpan(1, 3), "في")


def test_records_are_immutable():
    span, proclitic, token = _records()
    for obj in (span, proclitic, token):
        for name in obj.__match_args__:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        span.extra = 1


def test_records_equal_and_hash_only_as_their_own_type():
    span, proclitic, _ = _records()
    assert span != (0, 3) and (0, 3) != span and not span == (0, 3)
    assert proclitic != (OffsetSpan(0, 1), "coordination", "و")
    twin = Proclitic(OffsetSpan(0, 1), "coordination", "و")
    assert twin == proclitic and hash(twin) == hash(proclitic)
    assert OffsetSpan(0, 3) == span and hash(OffsetSpan(0, 3)) == hash(span)
    assert len({span, OffsetSpan(0, 3), (0, 3)}) == 2
    moved = span._replace(start=1)
    assert type(moved) is OffsetSpan and moved == OffsetSpan(1, 3) and repr(moved) == "OffsetSpan(start=1, end=3)"
    for build in (lambda: OffsetSpan(0, 2)._replace(start=3), lambda: OffsetSpan._make((3, 2))):
        with pytest.raises(ValueError, match=re.escape("invalid span [3, 2)")):
            build()
    with pytest.raises(ValueError, match=re.escape("invalid span [True, 2)")):
        OffsetSpan._make((True, 2))
    assert repr(proclitic) == "Proclitic(span=OffsetSpan(start=0, end=1), kind='coordination', text='و')"


def test_replace_gives_a_token_with_the_new_span_and_its_other_fields(bundle):
    (token,) = tokenize("وبالبيتِ", bundle[1])
    span = OffsetSpan(1, token.span.end)
    moved = dataclasses.replace(token, span=span)
    assert type(moved) is Token
    assert moved == Token(span, token.surface, token.proclitics, token.stem_span, token.stem) != token


def test_span_and_proclitic_survive_pickle_and_deepcopy():
    span, proclitic, _ = _records()
    for obj in (span, proclitic):
        assert copy.deepcopy(obj) == obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) == obj


@pytest.mark.parametrize("with_lexicon,with_variants", [(False, False), (True, False), (False, True), (True, True)])
def test_tokenize_equals_reference_tokenizer(bundle, with_lexicon, with_variants):
    lex = bundle[1] if with_lexicon else None
    variants = bundle[3] if with_variants else None

    @settings(max_examples=150, deadline=None)
    @given(word_texts(sorted(bundle[1]._forms | bundle[3].keys())))
    @example("a ـ َ b")  # mark-only runs
    @example("وَبِالبَيْتِ")  # a marked word with three proclitics
    @example("عادَ إلى اللُّوارِيه و سِين")  # vocalized variant-table forms
    @example("دَرَسَ دُرِسَ درس")  # one word in two vocalizations and bare
    def check(text):
        assert tokenize(text, lex, variants) == reference_tokenize(text, lex, variants)

    check()


@pytest.mark.parametrize(
    "text, variants",
    [
        pytest.param("عاد ط", {"ط": "بالطائرة"}, id="longer-medium"),
        pytest.param("عاد طا", {"طا": "بالطائرة"}, id="longer-article"),
        pytest.param("قال سانجيرمان هنا", {"سانجيرمان": "سان جيرمان"}, id="two-words"),
        pytest.param("قال سَانْجِيرمان", {"سانجيرمان": "سان-جيرمان"}, id="joined-words"),
        pytest.param("قال ابجد هنا", {"ابجد": ""}, id="empty"),
        pytest.param("قال ـ ابجد", {"ابجد": "ابجدِ"}, id="a-mark"),
    ],
)
def test_a_variant_whose_canonical_form_is_not_one_word_with_no_more_letters_is_refused(bundle, text, variants):
    # else its letters could not each map onto a letter of the source word: each dict above once gave an empty or
    # misplaced span, or dropped the word
    smap, lex, grammar, _ = bundle
    ((variant, canonical),) = variants.items()
    for run in (lambda: tokenize(text, lex, variants), lambda: annotate(text, lex, grammar, smap, variants=variants)):
        with pytest.raises(ValueError, match=re.escape(_REFUSED.format(variant, canonical))):
            run()
    unmet = "قال هنا بالطائرة"  # a variant is checked where its word is met
    assert tokenize(unmet, lex, variants) == reference_tokenize(unmet, lex, variants)


_LETTERS = "ابتسلمنيوف"
_DRAWN_WORDS = st.text(alphabet=_LETTERS, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_DRAWN_WORDS, _DRAWN_WORDS | st.text(alphabet=_LETTERS + " -َ", max_size=5), max_size=4),
    st.lists(_DRAWN_WORDS | st.sampled_from(["ـ", "َ", "."]), max_size=8),
    st.data(),
)
def test_tokenize_with_any_variant_dict_raises_the_refusal_or_equals_reference_tokenize(bundle, variants, words, data):
    # drawn texts hold drawn variants, bare, marked and behind proclitics
    words += [data.draw(st.sampled_from(["", "و", "ب", "وبال"])) + v + data.draw(st.sampled_from(["", "َ"]))
              for v in variants]
    text = " ".join(data.draw(st.permutations(words)))
    met = [w for w in _WORD_RE.findall(normalize(text)[0]) if w in variants]
    refused = [(w, variants[w]) for w in met if not (_WORD_RE.fullmatch(variants[w]) and len(variants[w]) <= len(w))]
    for lex in (None, bundle[1]):
        if refused:
            with pytest.raises(ValueError, match=re.escape(_REFUSED.format(*refused[0]))):
                tokenize(text, lex, variants)
        else:
            assert tokenize(text, lex, variants) == reference_tokenize(text, lex, variants)


def test_token_and_lex_match_survive_pickle_and_deepcopy(bundle):
    lex = bundle[1]
    (token,) = tokenize("وبالبيتِ", lex)
    assert [p.kind for p in token.proclitics] == ["coordination", "preposition", "article"]
    matches = lex.lookup(tokenize("بالبيت", lex), 0)
    assert any(m.via_proclitic for m in matches)
    for obj in (token, *matches):
        assert copy.deepcopy(obj) == obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) == obj


def test_token_stream_indexes_like_a_list(bundle):
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1], bundle[3])
    as_list = list(tokens)
    assert isinstance(tokens, TokenStream) and len(tokens) == len(as_list) == 4
    assert all(type(tok) is Token for tok in as_list)
    for i in range(-len(tokens), len(tokens)):
        assert tokens[i] == as_list[i]
    for i in (len(tokens), -len(tokens) - 1):
        with pytest.raises(IndexError):
            tokens[i]
    assert tokens[-1].stem == "طائرة" and [p.text for p in tokens[-1].proclitics] == ["ب", "ال"]
    assert repr(tokenize("على", bundle[1])).startswith("TokenStream([Token(span=OffsetSpan(start=0, end=3)")


@settings(max_examples=100)
@given(st.integers(-6, 6) | st.none(), st.integers(-6, 6) | st.none(), st.sampled_from([None, 1, 2, -1, -2]))
def test_token_stream_slices_like_a_list(bundle, a, b, step):
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1], bundle[3])
    assert tokens[a:b:step] == list(tokens)[a:b:step]
    assert type(tokens[a:b:step]) is list


def test_token_stream_equals_a_sequence_of_equal_tokens_either_way(bundle):
    tokens = tokenize("على المقعد وبالبيت", bundle[1])
    as_list = list(tokens)
    assert tokens == as_list and as_list == tokens and not tokens != as_list
    assert tokens == tuple(as_list) and tokens == tokenize("على المقعد وبالبيت", bundle[1])
    assert tokens != as_list[::-1] and as_list[::-1] != tokens
    assert tokens != as_list[:-1] and as_list[:-1] != tokens
    assert tokens != "على" and tokenize("", bundle[1]) != "" and tokens != [(t.span, t.stem) for t in as_list]
    assert tokenize("", bundle[1]) == []
    assert token_stream(as_list) == tokens and token_stream(tokens) is tokens


def test_token_stream_columns_are_tuples(bundle):
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1], bundle[3])
    for stream in (tokens, TokenStream(list(tokens.starts), list(tokens.words)), token_stream(list(tokens))):
        assert [type(getattr(stream, name)) for name in TokenStream.__slots__] == [tuple] * 3
        assert stream.stems == tuple(word.stem for word in stream.words)


def test_token_stream_is_immutable_and_unhashable(bundle):
    tokens = tokenize("على المقعد", bundle[1])
    with pytest.raises(AttributeError):
        tokens.stems = ()
    with pytest.raises(TypeError):
        hash(tokens)


def test_stream_tokens_survive_pickle_and_deepcopy(bundle):
    tokens = tokenize("وبالبيتِ على المقعد", bundle[1])
    for obj in (tokens[0], list(tokens), tokens):
        assert copy.deepcopy(obj) == obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) == obj


def test_apply_gives_equal_matches_on_a_stream_and_on_its_list(bundle, suite_gold):
    smap, lex, grammar, variants = bundle
    vetoes = 0
    for doc in suite_gold:
        tokens = tokenize(doc.text, lex, variants)
        matches = apply(grammar, tokens)
        assert matches == apply(grammar, token_stream(list(tokens)))
        for match in matches:
            verdict = run_guards(tokens, match)
            assert verdict == run_guards(token_stream(list(tokens)), match)
            vetoes += verdict[0]
        for i in range(len(tokens)):
            assert lex.lookup(tokens, i) == lex.lookup(token_stream(list(tokens)), i)
    assert vetoes == 10  # the suite's vetoed raw matches: the guards are compared on both verdicts


def test_tokenize_leaves_fewer_tracked_objects_than_one_per_ten_tokens(bundle, suite_gold):
    lex, variants = bundle[1], bundle[3]
    text = "\n".join(doc.text for doc in suite_gold)
    tokenize(text, lex, variants)  # the run and split tables filled: only the call's own objects remain
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tokens = tokenize(text, lex, variants)
        left = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tokens) > 500
    assert left < len(tokens) / 10, f"{left} tracked objects for {len(tokens)} tokens"
