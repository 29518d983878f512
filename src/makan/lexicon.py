"""Trigger vocabulary: prepositions, locutions, site/target nouns, verbs, place names.

Entries are read from a flat TSV (`lemma<TAB>class<TAB>senses<TAB>flags<TAB>attributes`,
the last three optional), validated against the semantic map, and indexed for
longest-first multiword lookup over token stems. A spelling variant is a row
of its own, as in a NooJ dictionary, copying its canonical form's class,
senses, flags and attributes. Every resource file, the rule files included,
is read here (`read_resource`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import compress, count
from operator import itemgetter

from . import semmap
from .textnorm import _WORD_RE, TokenStream, Word, normalize, remember


class LexClass(str, enum.Enum):
    PREP = "PREP"
    PREP_LOCUTION = "PREP_LOCUTION"
    NOUN_SITE = "NOUN_SITE"
    NOUN_TARGET = "NOUN_TARGET"
    NOUN_ABSTRACT_SITE = "NOUN_ABSTRACT_SITE"
    VERB_MOTION = "VERB_MOTION"
    VERB_POSTURE = "VERB_POSTURE"
    PLACE_NAME = "PLACE_NAME"
    NOUN_TEMPORAL = "NOUN_TEMPORAL"


NOUN_CLASSES = frozenset(
    {
        LexClass.NOUN_SITE,
        LexClass.NOUN_TARGET,
        LexClass.NOUN_ABSTRACT_SITE,
        LexClass.PLACE_NAME,
        LexClass.NOUN_TEMPORAL,
    }
)

FLAGS = frozenset(
    {
        "INTRINSIC_ORIENTATION",  # an oriented part: rule proj_front_part
        "AMBIGUOUS_DUAL",  # a trigger of two senses: guard DUAL_SENSE
        "GAZE_LEXEME",  # نظر, مطل: rule dir_gaze
        "PLURAL",  # a plural or dual form, a بين site: guard PLURAL_SITE
        "PRONOUN_SUFFIXABLE",  # also matches with an attached pronoun suffix: the suffixed-form index
    }
)

# Closed set of attached possessive pronouns (يميني، يسارها، فوقي ...).
PRONOUN_SUFFIXES = ("ي", "نا", "ك", "كما", "كم", "كن", "ه", "ها", "هما", "هم", "هن")

# PREP_LOCUTION sorts before PREP at equal covered length.
_CLASS_ORDER = {LexClass.PREP_LOCUTION: 0, LexClass.PREP: 1}

_TYPE = itemgetter(Word._fields.index("key"))  # a word record's type (see `textnorm._type_key`)


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class LexEntry:
    lemma: str                      # normalized lemma (single spaces for locutions)
    words: tuple[str, ...]          # normalized word sequence, no clitics
    cls: LexClass
    senses: frozenset[str]          # category paths into the semantic map
    flags: frozenset[str]
    attributes: tuple[tuple[str, object], ...] = ()  # (name, JSON scalar) pairs copied onto annotations it triggers
    source: str = field(default="", compare=False, repr=False)  # `path:line` of the row `load` first read it from


@dataclass(frozen=True, slots=True)
class LexMatch:
    entry: LexEntry
    length: int                     # tokens covered
    suffixed: bool = False          # matched through a pronoun-suffixed form
    via_proclitic: bool = False     # matched on a ب proclitic, not the stem


def _check_attributes(attributes, where: str) -> None:
    """LexiconError naming `where` unless `attributes` is a tuple of (name, JSON scalar) pairs of distinct names that
    annotations carry.

    Each pair is serialized as an annotation file holds it, so a value that
    `annotator.document_to_json` could not write fails here, naming the entry.
    """
    pairs = attributes if type(attributes) is tuple else (attributes,)
    names = set()
    for pair in pairs:
        name, value = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
        try:  # written as `annotator.document_to_json` writes it, less NaN and infinities, then encoded as UTF-8
            ok = type(name) is str and (value is None or type(value) in (str, bool, int, float))
            ok = ok and json.dumps({name: value}, ensure_ascii=False, allow_nan=False).encode("utf-8")
        except ValueError:  # NaN or an infinity, a lone surrogate, an int past the interpreter's digit limit
            ok = False
        if not ok:
            label = repr(name) if type(name) is str else f"number {pairs.index(pair) + 1}"  # `repr` of a value may fail
            raise LexiconError(
                f"{where}: attribute {label} must be a name and a finite JSON scalar that an annotation file can hold"
            )
        if name in names:  # else an annotation's attributes, a dict, would keep only the last value
            raise LexiconError(f"{where}: attribute {name!r} is given twice")
        names.add(name)


def _word_problem(words) -> str | None:
    """Why a word of `words` is not one `_WORD_RE` word, which no token's stem could equal; None if each is one."""
    bad = next((word for word in words if not _WORD_RE.fullmatch(word)), None)
    return None if bad is None else f"{bad!r}, which is not one word" if bad else "a word that normalizes to nothing"


def _suffixed_variants(word: str) -> list[str]:
    # Ta marbuta surfaces as ت before a suffix: واجهة + ه -> واجهته.
    base = word[:-1] + "ت" if word.endswith("ة") else word
    return [base + s for s in PRONOUN_SUFFIXES]


class Lexicon:
    """Immutable after construction: no answer it gives ever changes.

    It owns memo tables, filled lazily and each emptied when it reaches
    `textnorm.MEMO_LIMIT` entries: `lookup`'s matches of each lookup key
    (see `lookup_keys`); and for `textnorm.tokenize`, surface run or piece
    of one run -> its `Word` counted from the key's start (() for marks
    alone), and word -> clitic split.
    Each follows from the entries alone and holds values only, so threads
    may share a lexicon, tokenizing and annotating at once: a race at worst
    works an entry out twice.
    """

    def __init__(self, entries: list[LexEntry]):
        at: dict[tuple[str, LexClass], str] = {}  # (lemma, class) -> where it is first given
        for e in entries:
            where = e.source or f"entry {e.lemma}"  # what every fault of the entry is reported by
            if (e.lemma, e.cls) in at:
                raise LexiconError(f"{where}: duplicate entry ({e.lemma}, {e.cls.value}), first at {at[e.lemma, e.cls]}")
            at[e.lemma, e.cls] = where
            if type(e.words) is not tuple or not e.words:  # else a str is read as its letters, () as a pair key
                raise LexiconError(f"{where}: its words must be a non-empty tuple, not {e.words!r}")
            if problem := _word_problem(e.words):
                raise LexiconError(f"{where}: its words have {problem}")
            if e.cls in (LexClass.PREP, LexClass.PREP_LOCUTION) and not e.senses:
                raise LexiconError(f"{where}: {e.cls.value} requires at least one sense")
            for sense in e.senses:
                if sense not in semmap.BELOW:  # the paths a rule's SENSE test accepts (`engine._parse_test`)
                    raise LexiconError(f"{where}: unresolved sense path {sense}")
            for flag in e.flags:
                if flag not in FLAGS:
                    raise LexiconError(f"{where}: unknown flag {flag}")
            _check_attributes(e.attributes, where)
        self.entries = tuple(entries)
        # word sequences (with generated suffixed variants): one-word forms by the word, longer by the first two
        self._by_first: dict[str, list[tuple[tuple[str, ...], LexEntry, bool]]] = {}
        self._by_pair: dict[tuple[str, str], list[tuple[tuple[str, ...], LexEntry, bool]]] = {}
        self._forms: set[str] = set()
        for e in entries:
            self._index(e.words, e, suffixed=False)
            if "PRONOUN_SUFFIXABLE" in e.flags:
                for variant in _suffixed_variants(e.words[-1]):
                    self._index(e.words[:-1] + (variant,), e, suffixed=True)
        for alts in (*self._by_first.values(), *self._by_pair.values()):
            alts.sort(key=lambda t: (-len(t[0]), _CLASS_ORDER.get(t[1].cls, 2), t[1].lemma))
        self.longest = max((len(e.words) for e in entries), default=1)  # words in the longest form
        self._starts = frozenset(first for first, _ in self._by_pair)  # stems that begin a multiword form
        self._baa = tuple(  # what a ب proclitic matches: the PREP entries ب
            LexMatch(e, 1, via_proclitic=True) for _, e, _ in self._by_first.get("ب", ()) if e.cls is LexClass.PREP
        )
        self._lookups: dict = {}  # lookup key -> its matches
        self.tokenize_memos: tuple[dict, dict] = ({}, {})  # run table and split table, see `textnorm.tokenize`

    def _index(self, words: tuple[str, ...], entry: LexEntry, suffixed: bool):
        index, key = (self._by_first, words[0]) if len(words) == 1 else (self._by_pair, words[:2])
        index.setdefault(key, []).append((words, entry, suffixed))
        self._forms.update(words)

    def has_word(self, word: str) -> bool:
        """True when `word` is a word form of some entry (used to validate clitic splits)."""
        return word in self._forms

    def lookup_keys(self, tokens: TokenStream) -> list:
        """Each token's lookup key, what its matches depend on: its word type (`textnorm.Word.key`), or, where its
        stem (one of `_starts`) and the next begin a multiword form, (type, the next `longest` - 1 stems). Equal keys
        have equal `lookup`s. It reads the stem and word columns of a `textnorm.TokenStream`, else TypeError."""
        if type(tokens) is not TokenStream:
            raise TypeError(f"lookup_keys takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
        stems, keys = tokens.stems, list(map(_TYPE, tokens.words))
        for i in compress(count(), map(self._starts.__contains__, stems)):  # where a locution may start
            if stems[i : i + 2] in self._by_pair:
                keys[i] = (keys[i], stems[i + 1 : i + self.longest])
        return keys

    def lookup(self, tokens: TokenStream, i: int) -> list[LexMatch]:
        """All entries whose word sequence equals the stems starting at token i.

        Ordered by covered length descending, PREP_LOCUTION before PREP on
        ties. A ب proclitic on the token also yields a one-token PREP match.
        The matches are kept under the token's key (see `lookup_keys`). It
        reads the stem and word columns of a `textnorm.TokenStream`, and
        raises TypeError given any other sequence.
        """
        if type(tokens) is not TokenStream:
            raise TypeError(f"lookup takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
        stems = tokens.stems
        if not 0 <= i < len(stems):
            raise IndexError(f"token index {i} out of range")
        stem, word_type = stems[i], tokens.words[i].key
        forms = self._by_pair.get(stems[i : i + 2], ())
        key = (word_type, stems[i + 1 : i + self.longest]) if forms else word_type  # as `lookup_keys` keys it
        found = self._lookups.get(key)
        if found is None:
            # each list is in the output order already, and every multiword form outranks a one-word form
            found = [LexMatch(e, len(words), suf) for words, e, suf in forms if stems[i : i + len(words)] == words]
            found += [LexMatch(entry, 1, suffixed) for _, entry, suffixed in self._by_first.get(stem, ())]
            if type(word_type) is tuple and self._baa:  # the type ("ب", stem) of a word with a ب proclitic
                found += self._baa
                found.sort(key=lambda m: (-m.length, _CLASS_ORDER.get(m.entry.cls, 2), m.entry.lemma, m.via_proclitic))
            found = remember(self._lookups, key, tuple(found))
        return list(found)


def _parse_line(columns: list[str], where: str) -> LexEntry:
    """The entry of a lexicon row's columns, read from `where` (`path:line`); `Lexicon` checks what it holds."""
    if not 2 <= len(columns) <= 5:
        raise LexiconError(f"{where}: expected `lemma<TAB>class[<TAB>senses[<TAB>flags[<TAB>attributes]]]`")
    raw_lemma, raw_cls, raw_senses, raw_flags, raw_attributes = (*columns, "", "", "")[:5]
    if not raw_lemma:
        raise LexiconError(f"{where}: empty lemma")
    try:
        cls = LexClass(raw_cls)
    except ValueError:
        raise LexiconError(f"{where}: unknown class {raw_cls!r}") from None
    senses = frozenset(s.strip() for s in raw_senses.split(";") if s.strip())
    flags = frozenset(f.strip() for f in raw_flags.split(",") if f.strip())
    words = tuple(normalize(w)[0] for w in raw_lemma.split(" ") if w)
    try:  # a JSON object loads as its (name, value) pairs
        attributes = json.loads(raw_attributes, object_pairs_hook=tuple) if raw_attributes else ()
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise LexiconError(f"{where}: attributes are not valid JSON: {exc}") from None
    return LexEntry(" ".join(words), words, cls, senses, flags, attributes, source=where)


def read_resource(path) -> str:
    """A resource file's UTF-8 text, less any leading byte-order mark; LexiconError naming the file if unreadable."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except FileNotFoundError:
        raise LexiconError(f"resource file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconError(f"cannot read resource file {path}: {exc}") from None


def _rows(path):
    """(line number, its tab-separated columns, each stripped) of each non-blank, non-comment row of a resource file."""
    for lineno, line in enumerate(read_resource(path).split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, [column.strip() for column in line.split("\t")]


def load(paths) -> Lexicon:
    """Load and validate a lexicon TSV, or a list of them as one lexicon; a LexiconError names the file and line."""
    paths = list(paths) if isinstance(paths, (list, tuple)) else [paths]
    return Lexicon([_parse_line(columns, f"{path}:{lineno}") for path in paths for lineno, columns in _rows(path)])


def seed_lexicon() -> Lexicon:
    """The shipped baseline lexicon."""
    return load(seed_lexicon_path())


def seed_lexicon_path():
    return resources.files("makan").joinpath("resources/lexicon.tsv")
