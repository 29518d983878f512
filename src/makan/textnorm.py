"""Arabic text normalization and tokenization with exact original-text offsets.

All spans index Unicode scalar values of the ORIGINAL text, so standoff
annotations stay valid regardless of how the text is later re-encoded.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

# Diacritics (تشكيل: tanween, harakat, shadda, sukun, combining hamza/madda,
# dagger alef) and tatweel (تطويل) are dropped before matching.
_REMOVED = frozenset(
    "ًٌٍَُِّْ"
    "ٰٕٓٔـ"
)

# Hamza-carrying alef variants (أ/إ/آ) fold to bare alef, alef maqsura (ى)
# folds to ya. Ta marbuta (ة) is deliberately preserved.
_FOLD = {"أ": "ا", "إ": "ا", "آ": "ا", "ى": "ي"}

# `normalize`'s text: a list, not a dict, so `str.translate` finds each letter by index.
_TABLE = [None if ch in _REMOVED else ord(_FOLD.get(ch, ch)) for ch in map(chr, range(0x700))]
_MARKS = "".join(sorted(_REMOVED))

# A token is a maximal run of Arabic letters, Latin letters or digits;
# everything else (whitespace, punctuation, quotes) separates.
_WORD_RE = re.compile(r"[ء-يA-Za-z0-9]+")
# In the original text a normalized word is a maximal run of word characters and dropped marks.
_RUN_RE = re.compile("[" + _WORD_RE.pattern[1:-2] + _MARKS + "]+")

COORD_PROCLITICS = ("و", "ف")
PREP_PROCLITICS = ("ب", "ل", "ك")
ARTICLE = "ال"

# Entries a word-type memo table holds before it is emptied: above the 20,149
# distinct surface runs and one-run pieces of a 25k-word fully vocalized text,
# so that reuse within a call survives on such a text.
MEMO_LIMIT = 1 << 15


class Record(tuple):
    """Base of the immutable tuple-backed records; each also derives from a `collections.namedtuple` of its fields.

    A record equals only a record of its own type, so it never equals its plain tuple. It is unhashable unless
    a subclass restores `tuple.__hash__`.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)


class OffsetSpan(Record, namedtuple("OffsetSpan", "start end")):
    """Half-open [start, end) span of Unicode scalar indices into the original text.

    An immutable pair of `int`s (a bool is refused), equal only to an `OffsetSpan`.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__  # a `Record` is unhashable; a span holds only ints

    def __new__(cls, start: int, end: int):
        if type(start) is not int or type(end) is not int or start < 0 or end <= start:
            raise ValueError(f"invalid span [{start}, {end})")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable):  # through the check, and so `_replace` too
        return cls(*iterable)

    def slice(self, text: str) -> str:
        return text[self.start : self.end]

    def overlaps(self, other: "OffsetSpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class Proclitic:
    span: OffsetSpan
    kind: str                 # coordination | preposition | article
    text: str                 # normalized form


@dataclass(frozen=True, slots=True)
class Token:
    span: OffsetSpan          # whole word in the original text
    surface: str              # original text of `span`: a mark after the last letter lies outside it
    proclitics: tuple[Proclitic, ...]
    stem_span: OffsetSpan     # residue after proclitic detachment
    stem: str                 # normalized residue


# A surface run's word record, its offsets into the run: the stem runs from `stem_start` to `end`, `key` is the
# word's type (see `_type_key`) and each proclitic cut is a `Cut`.
Word = namedtuple("Word", "start end surface cuts stem_start stem key")
Cut = namedtuple("Cut", "kind start end text")


def _token(r0: int, word: Word) -> Token:
    """The token of a word record (see `_normalized_word`) in the surface run at `r0`."""
    ws, we, surface, cuts, stem_start, stem, _ = word
    span = OffsetSpan(r0 + ws, r0 + we)
    proclitics = tuple([Proclitic(OffsetSpan(r0 + cs, r0 + ce), kind, ctext) for kind, cs, ce, ctext in cuts])
    return Token(span, surface, proclitics, OffsetSpan(r0 + stem_start, r0 + we) if cuts else span, stem)


class TokenStream(Sequence):
    """`tokenize`'s immutable sequence of `Token`s as columns; it equals any sequence of equal `Token`s.

    `starts[i]` is the offset of token i's surface run and `words[i]` its `Word`, shared by every token of
    that run; `stems` is read off the records. An index builds a `Token`, a slice a list.
    """

    __slots__ = ("starts", "words", "stems")

    def __init__(self, starts, words):  # each column a tuple of a list: `tuple(map(...))` holds more memory
        _set_starts(self, tuple(starts))
        _set_words(self, tuple(words))
        _set_stems(self, tuple(list(map(_STEM, words))))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if type(i) is slice:
            return list(map(_token, self.starts[i], self.words[i]))
        return _token(self.starts[i], self.words[i])

    def __iter__(self):
        return map(_token, self.starts, self.words)

    def __eq__(self, other):
        if isinstance(other, (str, bytes)) or not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return TokenStream, (self.starts, self.words)

    def __repr__(self):
        return f"TokenStream({list(self)!r})"


# `TokenStream`'s slot setters, which its own `__setattr__` refuses, and the `Word` field it reads
_set_starts, _set_words, _set_stems = (getattr(TokenStream, name).__set__ for name in TokenStream.__slots__)
_STEM = itemgetter(Word._fields.index("stem"))


def _type_key(stem: str, cuts):
    """A word's type, its stem or ("ب", stem) with a ب proclitic: it fixes the matches where no locution starts."""
    return ("ب", stem) if any(kind == "preposition" and text == "ب" for kind, _, _, text in cuts) else stem


def token_stream(tokens) -> TokenStream:
    """`tokens` as a stream: a stream as it is, a sequence of `Token`s as one surface run a token.

    A token without proclitics reads back with its word span as stem span, as `tokenize` makes it.
    """
    if type(tokens) is TokenStream:
        return tokens
    cuts = [tuple([Cut(p.kind, *p.span, p.text) for p in t.proclitics]) for t in tokens]
    words = [
        Word(t.span.start, t.span.end, t.surface, c, t.stem_span.start, t.stem, _type_key(t.stem, c))
        for t, c in zip(tokens, cuts)
    ]
    return TokenStream([0] * len(words), words)


def normalize(text: str) -> tuple[str, list[int]]:
    """Normalize text and return (normalized, offset map).

    The offset map has one entry per output character giving the index of the
    original character it came from; it is total over output indices.
    """
    norm = text.translate(_TABLE)
    omap = list(range(len(text))) if len(norm) == len(text) else [i for i, ch in enumerate(text) if ch not in _REMOVED]
    return norm, omap


def _split_clitics(word: str, lexicon) -> tuple[list[tuple[str, int, int]], int]:
    """Split a normalized word into proclitic cuts and a stem start.

    Returns ([(kind, start, end)], stem_start), offsets relative to the word.
    Detachment is greedy (coordination, then preposition, then article) and
    lexicon-validated: a word known to the lexicon is never segmented, and
    ب/ل/ك come off only when the residue is lexical or carries the article.
    """
    known = lexicon.has_word if lexicon is not None else frozenset().__contains__
    cuts: list[tuple[str, int, int]] = []
    if len(word) < 2 or known(word):
        return cuts, 0
    pos = 0
    rest = word
    if rest[0] in COORD_PROCLITICS and (len(rest[1:]) >= 2 or known(rest[1:])):
        cuts.append(("coordination", pos, pos + 1))
        pos += 1
        rest = rest[1:]
        if known(rest):
            return cuts, pos
    if rest and rest[0] in PREP_PROCLITICS:
        residue = rest[1:]
        if known(residue) or (residue.startswith(ARTICLE) and len(residue) >= 4):
            cuts.append(("preposition", pos, pos + 1))
            pos += 1
            rest = residue
            if known(rest):
                return cuts, pos
    if rest.startswith(ARTICLE) and len(rest) >= 4:
        cuts.append(("article", pos, pos + 2))
        pos += 2
    return cuts, pos


def tokenize(text: str, lexicon=None, variants: dict[str, str] | None = None) -> TokenStream:
    """Segment text into a stream of tokens with clitic decomposition; no `Token` is built until one is read.

    Proclitic spans and the stem span partition each token span left to
    right; unsegmentable words become single-stem tokens. The text is cut
    into pieces on " " and "\n". Each surface run and each word is worked out
    once and kept in the lexicon's memo tables (`Lexicon.tokenize_memos`;
    without a lexicon, fresh tables each call), as is each piece of one run,
    so a piece met before costs one table read and no key spans two runs; a
    run whose word is in `variants` is kept in the run table under (run,
    canonical form), all that its record depends on, so a caller who changes
    that table between calls gets the answer for the table as it stands. A
    run meeting a variant whose canonical form is not one word with no more
    letters, as a table file (`lexicon.load_variant_table`) requires, raises
    ValueError before anything is stored, so on every call that meets it.
    """
    if not isinstance(text, str):  # else it fails inside a `str` method
        raise TypeError(f"text must be a str, not {type(text).__name__}")
    runs, splits = ({}, {}) if lexicon is None else lexicon.tokenize_memos
    starts, words, at = [], [], 0  # `at`: where the piece starts in the text
    for piece in text.replace("\n", " ").split(" "):
        record = runs.get(piece)
        if record is None:  # a piece first met, or one never kept: it holds several runs or none
            for start, word, w in _piece_records(piece, lexicon, runs, splits):
                if variants and word in variants:
                    w = _run_record(_RUN_RE.match(piece, start)[0], variants[word], lexicon, runs, splits)[2]
                if w is not None:
                    starts.append(at + start)
                    words.append(w)
        else:  # a piece of one run met before: the same steps unrolled, as a loop over one record costs a fifth
            start, word, w = record
            if variants and word in variants:
                w = _run_record(_RUN_RE.match(piece, start)[0], variants[word], lexicon, runs, splits)[2]
            if w is not None:
                starts.append(at + start)
                words.append(w)
        at += len(piece) + 1
    return TokenStream(starts, words)


def _piece_records(piece: str, lexicon, runs: dict, splits: dict) -> list:
    """The records of a piece the run table does not hold, each (start of a run in the piece, word, `Word`), kept
    under each run and, for a piece of one run, under the piece too."""
    records = [(m.start(), *_run_record(m[0], None, lexicon, runs, splits)[1:]) for m in _RUN_RE.finditer(piece)]
    if len(records) == 1:
        remember(runs, piece, records[0])
    return records


def _run_record(run: str, canonical: str | None, lexicon, runs: dict, splits: dict) -> tuple:
    """The record (0, word, `Word`) of a run, kept under the run, or of a run read as `canonical` under the pair."""
    key = run if canonical is None else (run, canonical)
    record = runs.get(key)
    if record is None:
        record = remember(runs, key, (0, *_normalized_word(run, lexicon, canonical, splits)))
    return record


def remember(table: dict, key, value):
    """Store `value` under `key` and return it, first emptying `table` if it holds `MEMO_LIMIT` entries."""
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


def _normalized_word(run: str, lexicon, canonical: str | None, splits: dict[str, tuple]) -> tuple:
    """(word, record) of a surface run through `normalize`'s offset map: `word` is the one word the run normalizes
    to, as the split table keeps it so that equal words share one string, and its record a `Word`; ("", None) for
    a run of marks alone. Given a `canonical` form, the run's word, a variant, is replaced by it, its last letter
    mapped onto the word's last letter."""
    word, omap = normalize(run)
    if not word:
        return word, None
    if canonical is not None:
        if not (_WORD_RE.fullmatch(canonical) and len(canonical) <= len(word)):  # else two letters share one
            raise ValueError(f"canonical form {canonical!r} of variant {word!r} is not one word no longer than it")
        word, omap = canonical, omap[: len(canonical) - 1] + omap[-1:]
    split = splits.get(word)  # (word, cuts as (kind, start, end, text), stem start, stem, type key)
    if split is None:  # equal words share one split, so one word and one stem string
        cuts, stem_start = _split_clitics(word, lexicon)
        cuts = tuple((kind, cs, ce, word[cs:ce]) for kind, cs, ce in cuts)
        stem = word[stem_start:]
        split = remember(splits, word, (word, cuts, stem_start, stem, _type_key(stem, cuts)))
    word, cuts, stem_start, stem, key = split
    ws, we = omap[0], omap[-1] + 1  # cuts and the stem start lie inside the word: only the end needs `+ 1`
    cuts = tuple([Cut(kind, omap[cs], omap[ce], ctext) for kind, cs, ce, ctext in cuts])
    return word, Word(ws, we, run[ws:we], cuts, omap[stem_start], stem, key)
