"""Trigger vocabulary: prepositions, locutions, site/target nouns, verbs, place names.

Entries are read from a flat TSV (`lemma<TAB>class<TAB>senses<TAB>flags<TAB>attributes`,
the last three optional), validated against the semantic map, and indexed for
longest-first multiword lookup over token stems.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources

from . import semmap
from .textnorm import TokenStream, normalize, remember


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
        "TEMPORAL_CAPABLE",
        "ABSTRACT_CAPABLE",
        "REQUIRES_POSSESSIVE_DISAMBIG",
        "INTRINSIC_ORIENTATION",
        "CONTACT_IMPLIED",
        "NO_CONTACT_REQUIRED",
        "POLYSEMOUS_SOURCE",
        "AMBIGUOUS_DUAL",
        "GAZE_LEXEME",
        # extension: entry also matches with an attached pronoun suffix
        "PRONOUN_SUFFIXABLE",
    }
)

# Closed set of attached possessive pronouns (يميني، يسارها، فوقي ...).
PRONOUN_SUFFIXES = ("ي", "نا", "ك", "كما", "كم", "كن", "ه", "ها", "هما", "هم", "هن")

_SUFFIX_FLAGS = {"REQUIRES_POSSESSIVE_DISAMBIG", "PRONOUN_SUFFIXABLE"}

# PREP_LOCUTION sorts before PREP at equal covered length.
_CLASS_ORDER = {LexClass.PREP_LOCUTION: 0, LexClass.PREP: 1}


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


@dataclass(frozen=True, slots=True)
class LexMatch:
    entry: LexEntry
    length: int                     # tokens covered
    suffixed: bool = False          # matched through a pronoun-suffixed form
    via_proclitic: bool = False     # matched on a ب proclitic, not the stem


def _check_attributes(attributes, where: str) -> None:
    """LexiconError naming `where` unless `attributes` is a tuple of (name, JSON scalar) pairs that annotations carry.

    Each pair is serialized as an annotation file holds it, so a value that
    `annotator.document_to_json` could not write fails here, naming the entry.
    """
    pairs = attributes if type(attributes) is tuple else (attributes,)
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


def _suffixed_variants(word: str) -> list[str]:
    # Ta marbuta surfaces as ت before a suffix: واجهة + ه -> واجهته.
    base = word[:-1] + "ت" if word.endswith("ة") else word
    return [base + s for s in PRONOUN_SUFFIXES]


class Lexicon:
    """Immutable after construction: no answer it gives ever changes.

    It owns memo tables, filled lazily and each emptied when it reaches
    `textnorm.MEMO_LIMIT` entries: `lookup`'s matches of each word type (a
    token stream's key) where no multiword form starts; and for
    `textnorm.tokenize`, surface run -> words and word -> clitic split.
    Each follows from the entries alone and holds values only, so threads
    may share a lexicon, tokenizing and annotating at once: a race at worst
    works an entry out twice.
    """

    def __init__(self, entries: list[LexEntry]):
        seen: set[tuple[str, LexClass]] = set()
        for e in entries:
            if (e.lemma, e.cls) in seen:
                raise LexiconError(f"duplicate entry ({e.lemma}, {e.cls.value})")
            seen.add((e.lemma, e.cls))
            if e.cls in (LexClass.PREP, LexClass.PREP_LOCUTION) and not e.senses:
                raise LexiconError(f"entry {e.lemma}: {e.cls.value} requires at least one sense")
            for sense in e.senses:
                if semmap.resolve(semmap.default_map(), sense) is None:
                    raise LexiconError(f"entry {e.lemma}: unresolved sense path {sense}")
            for flag in e.flags:
                if flag not in FLAGS:
                    raise LexiconError(f"entry {e.lemma}: unknown flag {flag}")
            _check_attributes(e.attributes, f"entry {e.lemma}")
        self.entries = tuple(entries)
        # word sequences (with generated suffixed variants): one-word forms by the word, longer by the first two
        self._by_first: dict[str, list[tuple[tuple[str, ...], LexEntry, bool]]] = {}
        self._by_pair: dict[tuple[str, str], list[tuple[tuple[str, ...], LexEntry, bool]]] = {}
        self._forms: set[str] = set()
        for e in entries:
            self._index(e.words, e, suffixed=False)
            if e.flags & _SUFFIX_FLAGS:
                for variant in _suffixed_variants(e.words[-1]):
                    self._index(e.words[:-1] + (variant,), e, suffixed=True)
        for alts in (*self._by_first.values(), *self._by_pair.values()):
            alts.sort(key=lambda t: (-len(t[0]), _CLASS_ORDER.get(t[1].cls, 2), t[1].lemma))
        # first two words of multiword forms: only where they start do a word's matches depend on the next tokens
        self.locution_pairs = frozenset(self._by_pair)
        self.longest = max((len(e.words) for e in entries), default=1)  # words in the longest form
        self._baa = tuple(  # what a ب proclitic matches: the PREP entries ب
            LexMatch(e, 1, via_proclitic=True) for _, e, _ in self._by_first.get("ب", ()) if e.cls is LexClass.PREP
        )
        self._lookups: dict = {}  # word type -> its matches
        self.tokenize_memos: tuple[dict, dict] = ({}, {})  # see `textnorm.tokenize`

    def _index(self, words: tuple[str, ...], entry: LexEntry, suffixed: bool):
        index, key = (self._by_first, words[0]) if len(words) == 1 else (self._by_pair, words[:2])
        index.setdefault(key, []).append((words, entry, suffixed))
        self._forms.update(words)

    def has_word(self, word: str) -> bool:
        """True when `word` is a word form of some entry (used to validate clitic splits)."""
        return word in self._forms

    def lookup(self, tokens: TokenStream, i: int) -> list[LexMatch]:
        """All entries whose word sequence equals the stems starting at token i.

        Ordered by covered length descending, PREP_LOCUTION before PREP on
        ties. A ب proclitic on the token also yields a one-token PREP match.
        It reads the stem and key columns of a `textnorm.TokenStream`, and
        raises TypeError given any other sequence.
        """
        if type(tokens) is not TokenStream:
            raise TypeError(f"lookup takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
        if not 0 <= i < len(tokens):
            raise IndexError(f"token index {i} out of range")
        stems, stem, key = tokens.stems, tokens.stems[i], tokens.keys[i]
        forms = self._by_pair.get(stems[i : i + 2], ())  # without any, the matches are the word type's alone
        found = None if forms else self._lookups.get(key)
        if found is None:
            # each list is in the output order already, and every multiword form outranks a one-word form
            found = [LexMatch(e, len(words), suf) for words, e, suf in forms if stems[i : i + len(words)] == words]
            found += [LexMatch(entry, 1, suffixed) for _, entry, suffixed in self._by_first.get(stem, ())]
            if type(key) is tuple and self._baa:  # the key ("ب", stem) of a word with a ب proclitic
                found += self._baa
                found.sort(key=lambda m: (-m.length, _CLASS_ORDER.get(m.entry.cls, 2), m.entry.lemma, m.via_proclitic))
            if not forms:
                remember(self._lookups, key, tuple(found))
        return list(found)


def _parse_line(line: str, lineno: int, source: str) -> LexEntry:
    parts = line.split("\t")
    if not 2 <= len(parts) <= 5:
        raise LexiconError(f"{source}:{lineno}: expected `lemma<TAB>class[<TAB>senses[<TAB>flags[<TAB>attributes]]]`")
    raw_lemma, raw_cls, raw_senses, raw_flags, raw_attributes = map(str.strip, (*parts, "", "", "")[:5])
    if not raw_lemma:
        raise LexiconError(f"{source}:{lineno}: empty lemma")
    try:
        cls = LexClass(raw_cls)
    except ValueError:
        raise LexiconError(f"{source}:{lineno}: unknown class {raw_cls!r}") from None
    senses = frozenset(s.strip() for s in raw_senses.split(";") if s.strip())
    flags = frozenset(f.strip() for f in raw_flags.split(",") if f.strip())
    words = tuple(normalize(w)[0] for w in raw_lemma.split(" ") if w)
    if not all(words):
        raise LexiconError(f"{source}:{lineno}: lemma {raw_lemma!r} has a word that normalizes to nothing")
    try:  # a JSON object loads as its (name, value) pairs
        attributes = json.loads(raw_attributes, object_pairs_hook=tuple) if raw_attributes else ()
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise LexiconError(f"{source}:{lineno}: attributes are not valid JSON: {exc}") from None
    _check_attributes(attributes, f"{source}:{lineno}")
    return LexEntry(lemma=" ".join(words), words=words, cls=cls, senses=senses, flags=flags, attributes=attributes)


def read_resource(path) -> str:
    """A resource file's UTF-8 text; LexiconError naming the file when it is missing or undecodable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise LexiconError(f"resource file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconError(f"cannot read resource file {path}: {exc}") from None


def load(paths) -> Lexicon:
    """Load and validate a lexicon TSV, or a list of them as one lexicon; LexiconError names the file."""
    paths = list(paths) if isinstance(paths, (list, tuple)) else [paths]
    entries: list[LexEntry] = []
    for path in paths:
        for lineno, line in enumerate(read_resource(path).split("\n"), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            entries.append(_parse_line(line, lineno, str(path)))
    try:
        return Lexicon(entries)
    except LexiconError as exc:
        raise LexiconError(f"{', '.join(map(str, paths))}: {exc}") from None


def seed_lexicon() -> Lexicon:
    """The shipped baseline lexicon."""
    return load(seed_lexicon_path())


def seed_lexicon_path():
    return resources.files("makan").joinpath("resources/lexicon.tsv")
