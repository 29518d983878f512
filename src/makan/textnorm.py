"""Arabic text normalization and tokenization with exact original-text offsets.

All spans index Unicode scalar values of the ORIGINAL text, so standoff
annotations stay valid regardless of how the text is later re-encoded.
"""

from __future__ import annotations

import re
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
_FOLD = {
    "أ": "ا",  # أ
    "إ": "ا",  # إ
    "آ": "ا",  # آ
    "ى": "ي",  # ى
}

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

# Entries a word-type memo table holds before it is emptied: above the 18,182
# distinct surface runs of a 25k-word fully vocalized text, so that reuse
# within a call survives on such a text.
MEMO_LIMIT = 1 << 15

# `tokenize`'s memo tables without a lexicon: surface run -> (word, words), word -> split.
_MEMOS: tuple[dict, dict] = ({}, {})


class _Record(tuple):
    """An immutable tuple with the fields `__match_args__` names, equal only to a record of its own type."""

    __slots__ = ()
    __hash__ = tuple.__hash__  # else defining `__eq__` drops it

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.__match_args__, self))})"


class OffsetSpan(_Record):
    """Half-open [start, end) span of Unicode scalar indices into the original text."""

    __slots__ = ()
    __match_args__ = ("start", "end")
    start = property(itemgetter(0))
    end = property(itemgetter(1))

    def __new__(cls, start: int, end: int):
        if start < 0 or end <= start:
            raise ValueError(f"invalid span [{start}, {end})")
        return tuple.__new__(cls, (start, end))

    def slice(self, text: str) -> str:
        return text[self.start : self.end]

    def overlaps(self, other: "OffsetSpan") -> bool:
        return self.start < other.end and other.start < self.end


class Proclitic(_Record):
    __slots__ = ()
    __match_args__ = ("span", "kind", "text")
    span = property(itemgetter(0))  # OffsetSpan
    kind = property(itemgetter(1))  # coordination | preposition | article
    text = property(itemgetter(2))  # normalized form

    def __new__(cls, span: OffsetSpan, kind: str, text: str):
        return tuple.__new__(cls, (span, kind, text))


@dataclass(frozen=True, slots=True, init=False)
class Token:
    span: OffsetSpan          # whole word in the original text
    surface: str              # original substring, diacritics and all
    proclitics: tuple[Proclitic, ...]
    stem_span: OffsetSpan     # residue after proclitic detachment
    stem: str                 # normalized residue

    def __init__(self, span, surface, proclitics, stem_span, stem):
        # Each slot filled through its descriptor: the frozen `__setattr__` path costs twice as much.
        _set_span(self, span)
        _set_surface(self, surface)
        _set_proclitics(self, proclitics)
        _set_stem_span(self, stem_span)
        _set_stem(self, stem)


_set_span, _set_surface, _set_proclitics, _set_stem_span, _set_stem = (vars(Token)[f].__set__ for f in Token.__match_args__)


def normalize(text: str, variants: dict[str, str] | None = None) -> tuple[str, list[int]]:
    """Normalize text and return (normalized, offset map).

    The offset map has one entry per output character giving the index of the
    original character it came from; it is total over output indices.
    """
    norm = text.translate(_TABLE)
    omap = list(range(len(text))) if len(norm) == len(text) else [i for i, ch in enumerate(text) if ch not in _REMOVED]
    if variants:
        norm, omap = _apply_variants(norm, omap, variants)
    return norm, omap


def _apply_variants(norm: str, omap: list[int], variants: dict[str, str]) -> tuple[str, list[int]]:
    # Whole-word replacement only: transliteration variants are listed as
    # standalone words in the variant table.
    out: list[str] = []
    nmap: list[int] = []
    last = 0
    for m in _WORD_RE.finditer(norm):
        repl = variants.get(m.group())
        if repl is None:
            continue
        out.append(norm[last : m.start()])
        nmap.extend(omap[last : m.start()])
        wlen = m.end() - m.start()
        for j, ch in enumerate(repl):
            if j == len(repl) - 1:
                src = m.end() - 1  # keep the span end on the last original char
            else:
                src = m.start() + min(j, wlen - 1)
            out.append(ch)
            nmap.append(omap[src])
        last = m.end()
    out.append(norm[last:])
    nmap.extend(omap[last:])
    return "".join(out), nmap


def load_variant_table(path) -> dict[str, str]:
    """Load a TSV variant table: `variant<TAB>canonical`, `#` comments.

    Both columns are normalized on load, may not normalize to nothing and
    are each one word (one `_WORD_RE` match); a canonical form may not itself
    be listed as a variant (the table must be idempotent). Every failure, a
    missing or undecodable file included, is a ValueError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read variant table {path}: {exc}") from None
    table: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: expected `variant<TAB>canonical`")
        variant, _ = normalize(parts[0])
        canonical, _ = normalize(parts[1])
        if not (variant and canonical):
            raise ValueError(f"{path}:{lineno}: {parts[1 if variant else 0]!r} normalizes to nothing")
        if not _WORD_RE.fullmatch(variant):  # else it never applies: variants replace single words
            raise ValueError(f"{path}:{lineno}: variant {parts[0]!r} is not one word")
        if not _WORD_RE.fullmatch(canonical):  # else one source word would become several tokens
            raise ValueError(f"{path}:{lineno}: canonical form {parts[1]!r} is not one word")
        table[variant] = canonical
    for canonical in table.values():
        if canonical in table:
            raise ValueError(f"{path}: variant table is not idempotent: {canonical!r} is also a variant")
    return table


def _in_lexicon(lexicon, word: str) -> bool:
    return lexicon is not None and lexicon.has_word(word)


def _split_clitics(word: str, lexicon) -> tuple[list[tuple[str, int, int]], int]:
    """Split a normalized word into proclitic cuts and a stem start.

    Returns ([(kind, start, end)], stem_start), offsets relative to the word.
    Detachment is greedy (coordination, then preposition, then article) and
    lexicon-validated: a word known to the lexicon is never segmented, and
    ب/ل/ك come off only when the residue is lexical or carries the article.
    """
    cuts: list[tuple[str, int, int]] = []
    if len(word) < 2 or _in_lexicon(lexicon, word):
        return cuts, 0
    pos = 0
    rest = word
    if rest[0] in COORD_PROCLITICS and (len(rest[1:]) >= 2 or _in_lexicon(lexicon, rest[1:])):
        cuts.append(("coordination", pos, pos + 1))
        pos += 1
        rest = rest[1:]
        if _in_lexicon(lexicon, rest):
            return cuts, pos
    if rest and rest[0] in PREP_PROCLITICS:
        residue = rest[1:]
        if _in_lexicon(lexicon, residue) or (residue.startswith(ARTICLE) and len(residue) >= 4):
            cuts.append(("preposition", pos, pos + 1))
            pos += 1
            rest = residue
            if _in_lexicon(lexicon, rest):
                return cuts, pos
    if rest.startswith(ARTICLE) and len(rest) >= 4:
        cuts.append(("article", pos, pos + 2))
        pos += 2
    return cuts, pos


def tokenize(text: str, lexicon=None, variants: dict[str, str] | None = None) -> list[Token]:
    """Segment text into tokens with clitic decomposition.

    Proclitic spans and the stem span partition each token span left to
    right; unsegmentable words become single-stem tokens. Its spans skip
    `OffsetSpan`'s check: run offsets shifted by the run's start are valid.
    Each surface run and each word is worked out once and kept in the
    lexicon's memo tables (`Lexicon.tokenize_memos`, module ones without a
    lexicon); a run whose word is in `variants` is worked out on each call,
    since the caller may change that table between calls.
    """
    runs, splits = _MEMOS if lexicon is None else lexicon.tokenize_memos
    tokens: list[Token] = []
    new = tuple.__new__
    for rmatch in _RUN_RE.finditer(text):
        run = rmatch.group()
        record = runs.get(run)
        if record is None:
            record = remember(runs, run, _normalized_words(run, lexicon, None, splits))
        word, words = record
        if variants and word in variants:
            words = _normalized_words(run, lexicon, variants, splits)[1]
        r0 = rmatch.start()
        for ws, we, surface, cuts, stem_start, stem in words:
            end = r0 + we
            span = new(OffsetSpan, (r0 + ws, end))
            if cuts:
                proclitics = tuple(
                    [new(Proclitic, (new(OffsetSpan, (r0 + cs, r0 + ce)), kind, ctext)) for kind, cs, ce, ctext in cuts]
                )
                stem_span = new(OffsetSpan, (r0 + stem_start, end))
            else:
                proclitics, stem_span = (), span
            tokens.append(Token(span, surface, proclitics, stem_span, stem))
    return tokens


def remember(table: dict, key, value):
    """Store `value` under `key` and return it, first emptying `table` if it holds `MEMO_LIMIT` entries."""
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


def _split(word: str, lexicon, splits: dict[str, tuple]) -> tuple:
    """(word, proclitic cuts as (kind, start, end, text), stem start, stem); the word is the table's own key."""
    split = splits.get(word)
    if split is None:
        cuts, stem_start = _split_clitics(word, lexicon)
        cuts = tuple((kind, cs, ce, word[cs:ce]) for kind, cs, ce in cuts)
        split = remember(splits, word, (word, cuts, stem_start, word[stem_start:]))
    return split


def _normalized_words(run: str, lexicon, variants, splits: dict[str, tuple]) -> tuple:
    """(word, words) of a surface run through `normalize`'s offset map, each of its words (start, end, surface,
    cuts, stem start, stem) as offsets into the run. Without variants a run normalizes to one word, or none:
    `word` is that word as the split table keeps it, so equal words share one string, or "" for none."""
    norm, omap = normalize(run, variants)
    word, out = "", []
    for wmatch in _WORD_RE.finditer(norm):  # a variant's canonical form may hold several words
        word, cuts, stem_start, stem = _split(wmatch.group(), lexicon, splits)
        a, b = wmatch.span()
        ws, we = omap[a], omap[b - 1] + 1  # cuts and the stem start lie inside the word: only the end needs `+ 1`
        cuts = tuple((kind, omap[a + cs], omap[a + ce], ctext) for kind, cs, ce, ctext in cuts)
        out.append((ws, we, run[ws:we], cuts, omap[a + stem_start], stem))
    return word, tuple(out)
