import json
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makan.annotator import annotate, document_to_json
from makan.engine import compile
from makan.lexicon import LexClass, Lexicon, LexiconError, LexMatch, _parse_line, load, seed_lexicon
from makan.rulepack import rule_pack
from makan.textnorm import normalize, tokenize
from oracle import reference_lookup, reference_lookup_keys


def _write(tmp_path, content):
    path = tmp_path / "lex.tsv"
    path.write_text(content, encoding="utf-8")
    return path


def test_load_single_entry(tmp_path):
    path = _write(tmp_path, "على\tPREP\tTOPOLOGICAL.SUPPORT;DIRECTIONAL.GAZE\tPLURAL\n")
    lex = load(path)
    assert len(lex.entries) == 1
    entry = lex.entries[0]
    assert entry.cls is LexClass.PREP
    assert entry.senses == {"TOPOLOGICAL.SUPPORT", "DIRECTIONAL.GAZE"}
    assert "PLURAL" in entry.flags


def test_load_empty_file_is_valid(tmp_path):
    path = _write(tmp_path, "# nothing here\n\n")
    lex = load(path)
    assert lex.entries == ()
    assert not lex.has_word("على")


def test_load_rejects_bogus_sense_path(tmp_path):
    path = _write(tmp_path, "على\tPREP\tTOPOLOGICAL.BOGUS\n")
    with pytest.raises(LexiconError, match="TOPOLOGICAL.BOGUS"):
        load(path)


def test_load_rejects_unknown_class_with_line_number(tmp_path):
    path = _write(tmp_path, "# header\nعلى\tPREPO\n")
    with pytest.raises(LexiconError, match=":2"):
        load(path)


def test_load_rejects_duplicate_lemma_class(tmp_path):
    path = _write(tmp_path, "على\tPREP\tTOPOLOGICAL.SUPPORT\n# c\nعلى\tPREP\tDIRECTIONAL.GAZE\n")
    with pytest.raises(LexiconError, match=re.escape(f"{path}:3: duplicate entry (علي, PREP), first at {path}:1")):
        load(path)
    path = _write(tmp_path, "على\tPREP\tTOPOLOGICAL.SUPPORT\n")  # also when the rows are in different files
    other = tmp_path / "other.tsv"
    other.write_text("في\tPREP\tTOPOLOGICAL.INCLUSION\nعلي\tPREP\tDIRECTIONAL.GOAL\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=re.escape(f"{other}:2: duplicate entry (علي, PREP), first at {path}:1")):
        load([path, other])


def test_a_padded_column_loads_as_the_bare_column(tmp_path):
    bare = load(_write(tmp_path, "على\tPREP\tTOPOLOGICAL.SUPPORT\tPLURAL\t{\"a\": 1}\n")).entries
    padded = load(_write(tmp_path, " على \tPREP \t TOPOLOGICAL.SUPPORT\tPLURAL \t {\"a\": 1}\n")).entries
    assert padded == bare and padded[0].source == f"{tmp_path / 'lex.tsv'}:1"


def test_prep_requires_sense(tmp_path):
    path = _write(tmp_path, "على\tPREP\n")
    with pytest.raises(LexiconError, match="sense"):
        load(path)


def test_lookup_multiword_longest_first(bundle):
    lex = bundle[1]
    tokens = tokenize("في اتجاه الشاطئ", lex)
    matches = lex.lookup(tokens, 0)
    assert [(m.entry.lemma, m.length) for m in matches[:2]] == [
        (normalize("في اتجاه")[0], 2),
        (normalize("في")[0], 1),
    ]
    assert matches[0].entry.cls is LexClass.PREP_LOCUTION
    lengths = [m.length for m in matches]
    assert lengths == sorted(lengths, reverse=True)


def test_lookup_site_noun_after_article(bundle):
    lex = bundle[1]
    tokens = tokenize("المقعد", lex)
    matches = lex.lookup(tokens, 0)
    assert matches and matches[0].entry.cls is LexClass.NOUN_SITE
    assert matches[0].entry.lemma == normalize("مقعد")[0]


def test_lookup_out_of_vocabulary_is_empty(bundle):
    lex = bundle[1]
    tokens = tokenize("سرعان", lex)
    assert lex.lookup(tokens, 0) == []


def test_lookup_index_bounds(bundle):
    lex = bundle[1]
    tokens = tokenize("على", lex)
    with pytest.raises(IndexError):
        lex.lookup(tokens, 5)
    for i in (-1, len(tokens)):  # no index from the end either
        with pytest.raises(IndexError, match=f"token index {i} out of range"):
            lex.lookup(tokens, i)
    with pytest.raises(TypeError, match="lookup takes a TokenStream, not list"):
        lex.lookup(list(tokens), 0)


def test_lookup_pronoun_suffixed_form(bundle):
    lex = bundle[1]
    tokens = tokenize("يميني", lex)
    matches = [m for m in lex.lookup(tokens, 0) if m.entry.lemma == normalize("يمين")[0]]
    assert matches and matches[0].suffixed


def test_suffix_expansion_rewrites_ta_marbuta(bundle):
    lex = bundle[1]
    tokens = tokenize("واجهته", lex)
    matches = lex.lookup(tokens, 0)
    assert any(m.entry.lemma == normalize("واجهة")[0] and m.suffixed for m in matches)


def test_baa_proclitic_counts_as_prep_match(bundle):
    lex = bundle[1]
    tokens = tokenize("بالطائرة", lex)
    matches = lex.lookup(tokens, 0)
    via = [m for m in matches if m.via_proclitic]
    assert via and via[0].entry.lemma == "ب" and via[0].entry.cls is LexClass.PREP
    # the stem still matches as a noun
    assert any(m.entry.lemma == normalize("طائرة")[0] for m in matches)


def test_seed_lexicon_core_entries():
    lex = seed_lexicon()

    def entry(lemma, cls):
        lemma = normalize(lemma)[0]
        found = [e for e in lex.entries if e.lemma == lemma and e.cls is cls]
        assert found, f"missing {lemma} ({cls})"
        return found[0]

    assert "DIRECTIONAL.GOAL" in entry("نحو", LexClass.PREP).senses
    bain = entry("بين", LexClass.PREP)
    assert "TOPOLOGICAL.INCLUSION.DISTRIBUTION" in bain.senses
    assert "PLURAL" in entry("أشجار", LexClass.NOUN_SITE).flags
    fawq = entry("فوق", LexClass.PREP)
    assert "PRONOUN_SUFFIXABLE" in fawq.flags
    assert "PROJECTIVE.ORIENTATIONAL.VERTICAL" in fawq.senses
    assert "TOPOLOGICAL.SUPPORT" in entry("على", LexClass.PREP).senses
    assert "DIRECTIONAL.SOURCE" in entry("من", LexClass.PREP).senses
    assert "AMBIGUOUS_DUAL" in entry("في محيط", LexClass.PREP_LOCUTION).flags
    assert "PRONOUN_SUFFIXABLE" in entry("يمين", LexClass.NOUN_SITE).flags
    assert "INTRINSIC_ORIENTATION" in entry("مقدمة", LexClass.NOUN_TARGET).flags
    assert entry("ساعة", LexClass.NOUN_TEMPORAL)
    assert entry("بحر", LexClass.NOUN_ABSTRACT_SITE)
    for verb in ("اتجه", "تحرك", "انتقل", "تجولت", "يقود", "تنساب", "صعد", "سار", "عاد", "غادر"):
        entry(verb, LexClass.VERB_MOTION)
    for place in ("أمريكا", "لوار", "باريس"):
        entry(place, LexClass.PLACE_NAME)
    for cible in ("مهرج", "حبيب", "كتاب", "أخي"):
        entry(cible, LexClass.NOUN_TARGET)


def test_constructed_lexicon_rejects_unknown_flag():
    from makan.lexicon import LexEntry

    entry = LexEntry(
        lemma="س", words=("س",), cls=LexClass.NOUN_SITE, senses=frozenset(), flags=frozenset({"NOPE"})
    )
    with pytest.raises(LexiconError, match="^entry س: unknown flag NOPE$"):
        Lexicon([entry])
    with pytest.raises(LexiconError, match=re.escape("entry س: duplicate entry (س, NOUN_SITE), first at entry س")):
        Lexicon([replace(entry, flags=frozenset()), replace(entry, flags=frozenset())])


def test_constructed_lexicon_rejects_a_sense_outside_the_map():
    from makan.lexicon import LexEntry

    entry = LexEntry(
        lemma="على", words=("على",), cls=LexClass.PREP, senses=frozenset({"TOPOLOGICAL.BOGUS"}), flags=frozenset()
    )
    with pytest.raises(LexiconError, match="^entry على: unresolved sense path TOPOLOGICAL.BOGUS$"):
        Lexicon([entry])


def test_constructed_lexicon_rejects_a_word_that_is_not_one_word():
    from makan.lexicon import LexEntry

    for word in ("علي-ظهر", "\ufeffفوق"):  # no token's stem can equal either
        entry = LexEntry(word, (word,), LexClass.PREP, frozenset({"TOPOLOGICAL.SUPPORT"}), frozenset())
        with pytest.raises(LexiconError, match=re.escape(f"entry {word}: its words have {word!r}, which is not one")):
            Lexicon([entry])


def test_constructed_lexicon_rejects_words_that_are_not_a_non_empty_tuple():
    from makan.lexicon import LexEntry

    # () would be indexed under the pair key (), and a str read as its letters: the locution ف و ق
    for words in ((), "فوق", ["فوق"]):
        entry = LexEntry("فوق", words, LexClass.PREP, frozenset({"PROJECTIVE.ORIENTATIONAL.VERTICAL"}), frozenset())
        with pytest.raises(LexiconError, match=re.escape(f"entry فوق: its words must be a non-empty tuple, not {words!r}")):
            Lexicon([entry])


@pytest.mark.parametrize("lemma", ["َّ", "ــ", "في َ"], ids=["diacritics", "tatweel", "empty-word"])
def test_load_rejects_lemma_that_normalizes_to_nothing(tmp_path, lemma):
    path = _write(tmp_path, f"# header\n{lemma}\tNOUN_SITE\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:2: .*normalizes to nothing"):
        load(path)


@pytest.mark.parametrize("lemma, word", [("\ufeffفوق", "\ufeffفوق"), ("على-ظهر", "علي-ظهر"), ("في a.b", "a.b")])
def test_load_rejects_a_lemma_word_that_is_not_one_word(tmp_path, lemma, word):
    # a BOM left by an editor, or a word joined by punctuation: no token's stem can equal it
    path = _write(tmp_path, f"# header\n{lemma}\tPREP\tTOPOLOGICAL.SUPPORT\n")
    with pytest.raises(LexiconError, match=re.escape(f"lex.tsv:2: its words have {word!r}, which is not one word")):
        load(path)


def test_load_rejects_a_column_past_the_attributes(tmp_path):
    path = _write(tmp_path, "# header\nx\tNOUN_SITE\t\t\t{}\tmore\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:2: expected `lemma<TAB>class"):
        load(path)


def test_attributes_column_loads_as_pairs_in_file_order(tmp_path):
    path = _write(tmp_path, 'x\tNOUN_SITE\t\t\t{"b": 1.5, "a": null, "c": "s", "d": false}\ny\tNOUN_SITE\t\t\t \n')
    x, y = load(path).entries
    assert x.attributes == (("b", 1.5), ("a", None), ("c", "s"), ("d", False))
    assert y.attributes == ()


def test_seed_lexicon_carries_the_shipped_attributes_and_gaze_flags():
    by_lemma = {e.lemma: e for e in seed_lexicon().entries}
    assert by_lemma["ب"].attributes == (("medium", True),)
    for lemma in ("قبالة", "مقابل"):
        assert by_lemma[normalize(lemma)[0]].attributes == (("orientation", "mirror"),)
    assert {e.lemma for e in by_lemma.values() if e.attributes} == {"ب", "قبالة", "مقابل"}
    assert {e.lemma for e in by_lemma.values() if "GAZE_LEXEME" in e.flags} == {"نظر", "مطل"}


@pytest.mark.parametrize(
    "column",
    ['{"medium": tru}', "[1]", '"medium"', '{"a": [1]}', '{"a": {"b": 1}}', '{"a": NaN}', '{"a": -Infinity}',
     '{"a": 1e400}', "[" * 100_000, '{"a": "\\ud800"}', '{"\\udfff": 1}', '{"medium": true, "medium": false}'],
    ids=["malformed", "list", "string", "list-value", "object-value", "nan", "infinity", "overflow", "nested-deep",
         "surrogate-value", "surrogate-name", "name-twice"],
)
def test_load_rejects_bad_attributes_with_file_and_line(tmp_path, column):
    path = _write(tmp_path, f"# header\nx\tNOUN_SITE\t\t\t{column}\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:2: .*attribute"):
        load(path)


@pytest.mark.parametrize(
    "attributes",
    [{"a": 1}, (("a",),), ((1, "x"),), (("a", [1]),), (("a", (1,)),), (("a", float("nan")),), (("a", float("inf")),),
     (("a", "\ud800"),), (("a", 1), ("b", 2), ("a", 1))],
    ids=["dict", "one-tuple", "int-name", "list-value", "tuple-value", "nan", "infinity", "surrogate", "name-twice"],
)
def test_constructed_lexicon_rejects_attributes_that_are_not_name_scalar_pairs(attributes):
    from makan.lexicon import LexEntry

    entry = LexEntry("س", ("س",), LexClass.NOUN_SITE, frozenset(), frozenset(), attributes)
    with pytest.raises(LexiconError, match="entry س: attribute"):
        Lexicon([entry])


# 1-, 2- and 3-word forms sharing first words, one lemma under two classes,
# suffixable entries (one of them three words long) and the ب preposition
_SHARED_TSV = """ب\tPREP\tTOPOLOGICAL.SUPPORT
في\tPREP\tTOPOLOGICAL.INCLUSION
في وسط\tPREP_LOCUTION\tTOPOLOGICAL.INCLUSION
في وسط\tNOUN_SITE
في وسط دار\tPREP_LOCUTION\tTOPOLOGICAL.INCLUSION.CONTAINMENT
وسط\tNOUN_SITE
دار\tNOUN_SITE
دار\tPLACE_NAME
عن\tPREP\tDIRECTIONAL.SOURCE
عن يمين\tPREP_LOCUTION\tPROJECTIVE.ORIENTATIONAL.LATERAL\tPRONOUN_SUFFIXABLE
عن يمين واجهة\tNOUN_SITE\t\tPRONOUN_SUFFIXABLE
يمين\tNOUN_SITE\t\tPRONOUN_SUFFIXABLE
واجهة\tNOUN_SITE\t\tPRONOUN_SUFFIXABLE"""

_SHARED_WORDS = (
    "في وسط دار عن يمين واجهة ب قال "  # entry words and noise
    "يميني يمينها واجهته "  # suffixed forms
    "بدار بالدار بوسط بيمين بواجهته وبدار"  # ب proclitics
).split()
_SHARED_LEXICON = Lexicon([_parse_line(line.split("\t"), f"<shared>:{n}") for n, line in enumerate(_SHARED_TSV.splitlines(), 1)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SHARED_WORDS), max_size=10))
@example(["في", "وسط", "قال"])
@example(["في", "وسط"])
@example(["عن", "يمين", "واجهته", "في", "وسط", "بدار"])
@example(["عن", "يمين", "واجهة", "عن", "يمين", "دار"])  # one key only with all three stems from عن on
def test_lookup_equals_reference_lookup(words):
    lex = _SHARED_LEXICON
    tokens = tokenize(" ".join(words), lex)
    by_key = {}  # tokens of one lookup key have one reference lookup
    for i, key in enumerate(lex.lookup_keys(tokens)):
        expected = reference_lookup(lex, tokens, i)
        assert lex.lookup(tokens, i) == expected, (words, i)
        assert by_key.setdefault(key, expected) == expected, (words, i, key)


_SEED_LEXICON = seed_lexicon()
_SEED_WORDS = (
    "في اتجاه قلب وسط على ضفة عن يمين يسار إلى جانب بلدة مرسى منتصف الليل "  # locution words
    "يمينها يساري قال البيت "  # suffixed forms and noise
    "بالبيت بوسط بجانب"  # ب proclitics
).split()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SHARED_WORDS + _SEED_WORDS), max_size=10))
@example(["قال", "في"])  # a first stem as the last token
@example(["في", "قال", "عن", "البيت", "عن"])  # first stems not followed by their second words
@example(["بوسط", "بدار", "في", "بالبيت"])  # ب proclitics, one of them on a second word
@example(["عن", "يمينها", "عن", "يمين", "واجهته"])  # suffixed locutions, of two words and of three
def test_lookup_keys_equal_reference_lookup_keys(words):
    for lex in (_SHARED_LEXICON, _SEED_LEXICON):
        tokens = tokenize(" ".join(words), lex)
        assert lex.lookup_keys(tokens) == reference_lookup_keys(lex, tokens), words


def test_a_lookup_at_a_locution_start_is_worked_out_once(monkeypatch):
    built = []
    monkeypatch.setattr("makan.lexicon.LexMatch", lambda *args, **kw: built.append(args) or LexMatch(*args, **kw))
    lex = seed_lexicon()
    first = lex.lookup(tokenize("جلس عن يمين البيت", lex), 1)
    assert built and [m.entry.lemma for m in first] == ["عن يمين", "عن"]
    built.clear()  # the same stems from the locution start on, another word after them: one key
    assert lex.lookup(tokenize("وقف عن يمين المقعد", lex), 1) == first and not built
    assert [m.entry.lemma for m in lex.lookup(tokenize("ابتعد عن البيت", lex), 1)] == ["عن"]


def test_an_attribute_the_annotation_writer_cannot_write_is_rejected_at_construction(bundle):
    # An int past the interpreter's digit limit for str conversion (Python 3.11+) cannot be written; 3.10 has no limit.
    smap, lex, grammar, variants = bundle
    entries = [replace(e, attributes=(("n", 10**5000),)) if e.lemma == "فوق" else e for e in lex.entries]
    try:
        big = Lexicon(entries)
    except LexiconError as exc:  # an entry replaced from a loaded one keeps the row it was first read from
        (source,) = {e.source for e in lex.entries if e.lemma == "فوق"}
        assert re.fullmatch(r".*lexicon\.tsv:\d+", source) and str(exc).startswith(f"{source}: attribute 'n'")
        return
    doc = annotate("الكتاب فوق المقعد", big, compile(rule_pack(), big), smap, variants)
    assert json.loads(document_to_json(doc))["annotations"][0]["attributes"] == {"n": 10**5000}
