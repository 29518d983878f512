"""Hypothesis strategies for Arabic text built from the program's own vocabulary, shared by the tests."""

from hypothesis import strategies as st

_LETTERS = "ءابتثجحخدذرزسشصضطظعغفقكلمنهويةؤئ" "أإآى"
_MARKS = "ًٌٍَُِّْٰ" "ـ"
_PREFIXES = ("", "و", "ف", "ب", "ل", "ك", "ال", "وال", "بال", "فبال", "ولل", "وب", "كال")
# What stands between words, and before the first or after the last. `tokenize` cuts the text on " " and "\n"
# alone: a tab, a CR, a no-break space or a comma leaves several runs in one piece, and a double, leading or
# trailing space leaves an empty piece.
SEPARATORS = (" ", " ", "\n", "\t", "\r\n", "\u00a0", "  ", "،")
EDGES = ("", "", " ", "  ", "\n")


@st.composite
def marked(draw, letters):
    """`letters` with marks scattered in: harakat, shadda, tatweel, one maybe before the first letter."""
    mark = st.sampled_from(("",) * 4 + tuple(_MARKS) + ("َّ",))
    marks = draw(st.lists(mark, min_size=len(letters), max_size=len(letters)))
    return draw(st.sampled_from(("",) * 6 + tuple(_MARKS))) + "".join(map("".join, zip(letters, marks)))


@st.composite
def arabic_word(draw, lexical_words):
    """An Arabic word (random letters or one of `lexical_words`) behind proclitic letters, marks scattered in."""
    stem = draw(st.sampled_from(lexical_words) | st.text(alphabet=_LETTERS, min_size=1, max_size=6))
    return draw(marked(draw(st.sampled_from(_PREFIXES)) + stem))


@st.composite
def word_texts(draw, lexical_words):
    """Words from a small drawn vocabulary, so they recur, between punctuation, Latin and digits."""
    vocabulary = draw(st.lists(arabic_word(lexical_words), min_size=1, max_size=4))
    piece = (
        st.sampled_from(vocabulary)
        | st.sampled_from(SEPARATORS + (".", "؟", "!", "\"", "(", ") ", " - "))
        | st.text(alphabet="abcXYZ0129", min_size=1, max_size=4)
    )
    return draw(st.sampled_from(EDGES)) + "".join(draw(st.lists(piece, max_size=12))) + draw(st.sampled_from(EDGES))


@st.composite
def edited_sentences(draw, sentences, lexical_words):
    """One drawn sentence's words, a few marked or swapped for an `arabic_word`, each followed by a separator or
    punctuation: most of the sentence's own annotations stay, so the edits land in and around them."""
    edit = st.sampled_from(("keep",) * 6 + ("mark", "swap"))
    out = [draw(st.sampled_from(EDGES))]
    for word in draw(st.sampled_from(sentences)).split():
        how = draw(edit)
        out.append(word if how == "keep" else draw(marked(word) if how == "mark" else arabic_word(lexical_words)))
        out.append(draw(st.sampled_from((" ",) * 6 + SEPARATORS + (".", "؟", "!", " - ", "ـ"))))
    return "".join(out)
