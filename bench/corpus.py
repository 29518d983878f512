"""Seeded benchmark inputs, built only from the shipped gold suite.

Every generator takes a seed and returns the same inputs for the same seed.
Gold for each generated document is the suite gold of the sentences placed
in it, shifted by each sentence's offset; nothing here is derived from the
program's output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE_DIR = ROOT / "src" / "makan" / "resources" / "suite"

# Diacritics and tatweel, the marks the annotator drops before matching.
_MARKS_RE = re.compile("[\u064b-\u0652\u0670\u0653-\u0655\u0640]")
_FOLD = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ى": "ي"})
_WORD_RE = re.compile(r"[ء-يA-Za-z0-9]+")
_ARABIC_WORD_RE = re.compile(r"[ء-ي]+")
HARAKAT = ("\u064e", "\u064f", "\u0650", "\u0652")  # fatha, damma, kasra, sukun

# Suite doc e24 ends on a gaze trigger whose rule takes an optional site, and
# s06 opens with a place name. Joined by a newline, the site capture runs
# across the sentence end (the tokenizer drops punctuation), so e24 always
# reads back wrong in this pair. Chapters carry the pair as one unit, so each
# permutation of the suite holds the fault exactly once, whatever the seed.
CROSS_SENTENCE_PAIR = ("e24", "s06")

PERMS_PER_CHAPTER = 48            # about 25k tokens, the length of a novel chapter
WORDS_PER_LINE = 12               # control text line length
# cli-chapters file sizes in suite units (a unit is a sentence or the pair
# above). They sum to 64 whole permutations: 16 in the small and medium
# files, 48 in the chapter.
CLI_FILE_UNITS = (2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 362, 2208)


def count_tokens(text: str) -> int:
    """Words as the annotator segments them: letter or digit runs once marks are dropped."""
    return len(_WORD_RE.findall(_MARKS_RE.sub("", text)))


def canonical(ann: dict, shift: int = 0) -> tuple:
    """An annotation as a comparable tuple of every field but `rule`."""

    def span(s):
        return None if s is None else (s["start"] + shift, s["end"] + shift)

    return (
        ann["start"] + shift,
        ann["end"] + shift,
        ann["category"],
        span(ann["trigger"]),
        span(ann.get("site")),
        span(ann.get("target")),
        json.dumps(ann.get("attributes", {}), sort_keys=True),
        tuple(ann.get("alternates", ())),
    )


def shifted(ann: dict, shift: int) -> dict:
    out = dict(ann)
    for key in ("start", "end"):
        out[key] = ann[key] + shift
    for key in ("trigger", "site", "target"):
        if key in ann:
            out[key] = {"start": ann[key]["start"] + shift, "end": ann[key]["end"] + shift}
    return out


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    text: str
    gold: tuple[dict, ...]        # suite gold, offsets relative to this sentence
    tokens: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    pieces: tuple[tuple[Sentence, int], ...]   # (sentence, offset in text)
    tokens: int

    def gold(self) -> list[dict]:
        return [shifted(a, off) for s, off in self.pieces for a in s.gold]


@dataclass(frozen=True)
class VocalizedText:
    doc_id: str
    text: str
    words: tuple[tuple[int, str], ...]         # (offset, vocalized word)
    tokens: int


def load_suite(suite_dir: Path = SUITE_DIR) -> list[Sentence]:
    """The gold suite, read straight from its JSON files in name order."""
    paths = sorted(suite_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no gold suite under {suite_dir}")
    out = []
    for path in paths:
        obj = json.loads(path.read_text(encoding="utf-8"))
        out.append(Sentence(obj["doc_id"], obj["text"], tuple(obj["annotations"]), count_tokens(obj["text"])))
    return out


def _document(doc_id: str, sentences: list[Sentence]) -> Document:
    pieces, offset = [], 0
    for s in sentences:
        pieces.append((s, offset))
        offset += len(s.text) + 1
    return Document(
        doc_id=doc_id,
        text="\n".join(s.text for s in sentences),
        pieces=tuple(pieces),
        tokens=sum(s.tokens for s in sentences),
    )


def _units(suite: list[Sentence]) -> list[tuple[Sentence, ...]]:
    by_id = {s.doc_id: s for s in suite}
    units = [(s,) for s in suite if s.doc_id not in CROSS_SENTENCE_PAIR]
    units.append(tuple(by_id[i] for i in CROSS_SENTENCE_PAIR))
    return units


def _unit_stream(rng: random.Random, suite: list[Sentence], perms: int) -> list[tuple[Sentence, ...]]:
    units = _units(suite)
    out = []
    for _ in range(perms):
        order = units[:]
        rng.shuffle(order)
        out.extend(order)
    return out


def suite_docs(seed: int, suite: list[Sentence]) -> list[Document]:
    """Every suite document once, in seeded order."""
    order = suite[:]
    random.Random(seed).shuffle(order)
    return [_document(s.doc_id, [s]) for s in order]


def novel_long(seed: int, suite: list[Sentence]) -> list[Document]:
    """One chapter: PERMS_PER_CHAPTER seeded permutations of the suite, one sentence a line."""
    stream = _unit_stream(random.Random(seed), suite, PERMS_PER_CHAPTER)
    return [_document("chapter", [s for unit in stream for s in unit])]


def cli_chapters(seed: int, suite: list[Sentence]) -> list[Document]:
    """Files of CLI_FILE_UNITS sizes, in seeded order, cut from one seeded unit stream."""
    rng = random.Random(seed)
    total = sum(CLI_FILE_UNITS)
    perms = total // len(_units(suite))
    stream = _unit_stream(rng, suite, perms)
    if len(stream) != total:
        raise ValueError("CLI_FILE_UNITS must sum to whole permutations of the suite")
    sizes = list(CLI_FILE_UNITS)
    rng.shuffle(sizes)
    docs, pos = [], 0
    for i, size in enumerate(sizes, start=1):
        docs.append(_document(f"c{i:02d}", [s for unit in stream[pos : pos + size] for s in unit]))
        pos += size
    return docs


def _plain(word: str) -> str:
    return _MARKS_RE.sub("", word).translate(_FOLD)


def control_vocabulary(suite: list[Sentence], lexicon, grammar, variants: dict[str, str]) -> list[str]:
    """Suite words that no lexicon form, rule literal, variant or proclitic can match.

    Words opening with a proclitic letter (و ف ب ل ك) or the article are left
    out whole, so no segmentation can expose a lexical stem.
    """
    literals = {t.value for rule in grammar.rules for atom in rule.atoms for t in atom.tests if t.kind == "lit"}
    banned = literals | set(variants) | set(variants.values())
    words = {w for s in suite for w in _ARABIC_WORD_RE.findall(_plain(s.text))}
    return sorted(
        w
        for w in words
        if len(w) >= 2
        and w[0] not in "وفبلك"
        and not w.startswith("ال")
        and w not in banned
        and not lexicon.has_word(w)
    )


def control_vocalized(seed: int, vocabulary: list[str], tokens: int) -> list[VocalizedText]:
    """`tokens` seeded vocabulary words, a seeded haraka after every letter."""
    if not vocabulary:
        raise ValueError("empty control vocabulary")
    rng = random.Random(seed)
    parts, words, offset = [], [], 0
    for i in range(tokens):
        word = "".join(ch + rng.choice(HARAKAT) for ch in rng.choice(vocabulary))
        words.append((offset, word))
        end = i + 1 == tokens or (i + 1) % WORDS_PER_LINE == 0
        sep = ".\n" if end else " "
        parts.append(word + sep)
        offset += len(word) + len(sep)
    text = "".join(parts)
    return [VocalizedText("control", text, tuple(words), count_tokens(text))]


def novel_tokens(suite: list[Sentence]) -> int:
    return PERMS_PER_CHAPTER * sum(s.tokens for s in suite)
