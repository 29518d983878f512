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

# Entries a word-type memo table holds before it is emptied: above the 20,037
# to 20,171 distinct surface runs and one-run pieces of a 25k-word fully
# vocalized text (the benchmark's at seeds 1, 3 and 17), so that reuse within
# a call survives on such a text.
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


# The word record of a surface run, its offsets counted from the start of the run or of a piece that holds it: the
# stem runs from `stem_start` to `end`, `key` is the word's type (see `_type_key`) and each proclitic cut is a `Cut`.
Word = namedtuple("Word", "start end surface cuts stem_start stem key")
Cut = namedtuple("Cut", "kind start end text")


def _token(r0: int, word: Word) -> Token:
    """The token of a word record (see `_normalized_word`) whose offsets count from `r0`."""
    ws, we, surface, cuts, stem_start, stem, _ = word
    span = OffsetSpan(r0 + ws, r0 + we)
    proclitics = tuple([Proclitic(OffsetSpan(r0 + cs, r0 + ce), kind, ctext) for kind, cs, ce, ctext in cuts])
    return Token(span, surface, proclitics, OffsetSpan(r0 + stem_start, r0 + we) if cuts else span, stem)


class TokenStream(Sequence):
    """`tokenize`'s immutable sequence of `Token`s as columns; it equals any sequence of equal `Token`s.

    `words[i]` is token i's `Word` and `starts[i]` the offset its offsets count from: the start of its piece, or of
    its run in a piece of several runs. Tokens of one run, or of one piece, share one `Word`; `stems` is read off
    the records. An index builds a `Token`, a slice a list.
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
    if not isinstance(text, str):  # else it fails inside `translate`, naming no argument
        raise TypeError(f"text must be a str, not {type(text).__name__}")
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


def tokenize(text: str, lexicon=None, variants: dict | None = None) -> TokenStream:
    """Segment text into a stream of tokens with clitic decomposition; no `Token` is built until one is read.

    Proclitic spans and the stem span partition each token span left to
    right; unsegmentable words become single-stem tokens. The text is cut
    into pieces on " " and "\n". Each surface run and each word is worked out
    once and kept in the lexicon's memo tables (`Lexicon.tokenize_memos`;
    without a lexicon, fresh tables each call), as is each piece of one run:
    the run table maps each to its `Word`, counted from the key's start, or
    to () for marks alone. So a piece met before costs one table read, its
    token starts at the piece, and no key spans two runs.
    A spelling variant is a lexicon row of its own, so a token's stem is
    always its own spelling.
    """
    if not isinstance(text, str):  # else it fails inside a `str` method
        raise TypeError(f"text must be a str, not {type(text).__name__}")
    memos = ({}, {}) if lexicon is None else getattr(lexicon, "tokenize_memos", None)
    if memos is None:  # `lexicon` imports this module, so a `Lexicon` is known here by the tables it owns
        raise TypeError(f"lexicon must be a Lexicon or None, not {type(lexicon).__name__}")
    # `variants` stays only for the call shape of the benchmark harness, which passes the empty dict that
    # `rulepack.load_resources` returns; it goes with `annotate`'s `smap` once one resource bundle replaces both.
    if variants is not None and not isinstance(variants, dict):  # a wrong type, not a table: named as such
        raise TypeError(f"variants must be a dict, not {type(variants).__name__}")
    if variants:
        raise ValueError("a variant table is no longer read: give each spelling its own lexicon row")
    runs, splits = memos
    starts, words, at = [], [], 0  # `at`: where the piece starts in the text
    for piece in text.replace("\n", " ").split(" "):
        w = runs.get(piece)
        if w:  # a piece of one run met before, its `Word` counted from the piece's start
            starts.append(at)
            words.append(w)
        elif w is None:  # a piece first met, or one never kept: it holds several runs or none
            for start, w in _piece_records(piece, lexicon, runs, splits):
                starts.append(at + start)
                words.append(w)
        at += len(piece) + 1
    return TokenStream(starts, words)


def _piece_records(piece: str, lexicon, runs: dict, splits: dict) -> list:
    """The records of a piece the run table does not hold, each (an offset in the piece, a `Word` counted from it),
    none for a run of marks alone. A piece of one run is kept with its run's `Word` counted from the piece's start,
    and gives that as its one record; a piece of several runs gives each run's start and `Word`."""
    records = [(m.start(), _run_word(m[0], lexicon, runs, splits)) for m in _RUN_RE.finditer(piece)]
    if len(records) != 1:
        return [record for record in records if record[1]]
    start, w = records[0]
    if start and w:  # the run lies inside the piece: every offset moves by its start
        ws, we, surface, cuts, stem_start, stem, key = w
        cuts = tuple([Cut(kind, cs + start, ce + start, ctext) for kind, cs, ce, ctext in cuts])
        w = Word(ws + start, we + start, surface, cuts, stem_start + start, stem, key)
    remember(runs, piece, w)
    return [(0, w)] if w else []


def _run_word(run: str, lexicon, runs: dict, splits: dict):
    """The `Word` of a run, counted from its start, or () for marks alone; kept under the run."""
    w = runs.get(run)
    if w is None:
        w = remember(runs, run, _normalized_word(run, lexicon, splits) or ())
    return w


def remember(table: dict, key, value):
    """Store `value` under `key` and return it, first emptying `table` if it holds `MEMO_LIMIT` entries."""
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


def _normalized_word(run: str, lexicon, splits: dict[str, tuple]):
    """The `Word` of a surface run through `normalize`'s offset map, None for a run of marks alone. The split table
    keeps each word's split, so that equal words share one stem string."""
    word, omap = normalize(run)
    if not word:
        return None
    split = splits.get(word)  # (cuts as (kind, start, end, text), stem start, stem, type key)
    if split is None:
        cuts, stem_start = _split_clitics(word, lexicon)
        cuts = tuple((kind, cs, ce, word[cs:ce]) for kind, cs, ce in cuts)
        stem = word[stem_start:]
        split = remember(splits, word, (cuts, stem_start, stem, _type_key(stem, cuts)))
    cuts, stem_start, stem, key = split
    ws, we = omap[0], omap[-1] + 1  # cuts and the stem start lie inside the word: only the end needs `+ 1`
    cuts = tuple([Cut(kind, omap[cs], omap[ce], ctext) for kind, cs, ce, ctext in cuts])
    return Word(ws, we, run[ws:we], cuts, omap[stem_start], stem, key)
