import copy
import dataclasses
import gc
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan.engine import apply
from makan.guards import run_guards
from makan.textnorm import (
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


def test_a_spelling_variant_is_a_token_of_its_own_spelling(bundle):
    # سين, لواريه and لوارية are lexicon rows of their own: a variant's stem is its own spelling, its spans its own
    lex = bundle[1]
    assert _words(tokenize("سين جيرمان", lex)) == ["سين", "جيرمان"]
    text = "ضفة اللواريه وسِين"
    tokens = tokenize(text, lex)
    assert tokens == reference_tokenize(text, lex)
    assert [(t.span, t.surface, t.stem, t.stem_span) for t in tokens][1:] == [
        (OffsetSpan(4, 12), "اللواريه", "لواريه", OffsetSpan(6, 12)),
        (OffsetSpan(13, 18), "وسِين", "سين", OffsetSpan(14, 18)),
    ]


@settings(max_examples=200)
@given(_ARABIC_SOUP)
@example("ﻻَ x 𝒜ّ ۀ")  # characters past the table's end map to themselves
@example("اَبّ أ سِين")  # marked words
def test_normalize_equals_reference_normalize(text):
    assert normalize(text) == reference_normalize(text)


@settings(max_examples=200)
@given(_ARABIC_SOUP)
def test_normalize_idempotent(text):
    once, _ = normalize(text)
    twice, _ = normalize(once)
    assert once == twice


@settings(max_examples=200)
@given(_ARABIC_SOUP)
def test_tokenize_idempotent(text):
    # the words of its tokens tokenize to themselves
    once = _words(tokenize(text))
    assert _words(tokenize(" ".join(once))) == once


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
    tokens = tokenize("وعن بيت اللواريه", lex)
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
    lex = bundle[1]
    tokens = tokenize(text, lex)
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
    lex = bundle[1]
    assert tokenize(text, lex) == tokenize(text, lex)


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


@pytest.mark.parametrize("with_lexicon", [False, True])
def test_tokenize_equals_reference_tokenizer(bundle, with_lexicon):
    lex = bundle[1] if with_lexicon else None

    @settings(max_examples=150, deadline=None)
    @given(word_texts(sorted(bundle[1]._forms)))
    @example("a ـ َ b")  # mark-only runs
    @example("وَبِالبَيْتِ")  # a marked word with three proclitics
    @example("عادَ إلى اللُّوارِيه و سِين")  # vocalized spelling variants, lexicon rows of their own
    @example("دَرَسَ دُرِسَ درس")  # one word in two vocalizations and bare
    def check(text):
        assert tokenize(text, lex) == reference_tokenize(text, lex)

    check()


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
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1])
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
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1])
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
    tokens = tokenize("وعن بيت اللواريه بالطائرة", bundle[1])
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
    smap, lex, grammar, _ = bundle
    vetoes = 0
    for doc in suite_gold:
        tokens = tokenize(doc.text, lex)
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
    lex = bundle[1]
    text = "\n".join(doc.text for doc in suite_gold)
    tokenize(text, lex)  # the run and split tables filled: only the call's own objects remain
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tokens = tokenize(text, lex)
        left = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tokens) > 500
    assert left < len(tokens) / 10, f"{left} tracked objects for {len(tokens)} tokens"
