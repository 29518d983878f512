"""Independent brute-force references for the engine, normalization, the tokenizer, scoring and annotation files.

The engine reference enumerates every (rule, start, alignment) combination
directly from the rule structure, over the lookup reference's matches, and
filters by the published winner ordering; what each atom's tests accept at a
word, and the word's lookups, are worked out once per word (the stems a
lookup reads and its ب proclitic) and kept for later sequences. The
normalization reference folds one character at a time; the tokenizer
reference normalizes through it, splits
every word anew and computes every boundary through one closure; the lookup
reference tries every entry form at the token, and the lookup-key reference
every pair of neighbouring stems; the scoring reference scans all gold for
each system annotation. The annotation-file references write through
`json.dumps` with `indent=2` and read with a check per field in turn, each
span through one parser. Kept deliberately separate from the program's own
paths so the two can disagree.
"""

import functools
import json
from itertools import pairwise

from makan import semmap
from makan.annotator import AnnotatedDocument, AnnotationFormatError, SpatialAnnotation
from makan.lexicon import PRONOUN_SUFFIXES, LexClass, LexMatch
from makan.semmap import subsumes
from makan.textnorm import _FOLD, _REMOVED, _WORD_RE, OffsetSpan, Proclitic, Token, _split_clitics


def _test_ok(test, lex_match):
    if test.kind == "class":
        return lex_match.entry.cls is LexClass[test.value]
    if test.kind == "sense":
        return any(subsumes(test.value, s) for s in lex_match.entry.senses)
    if test.kind == "flag":
        return test.value in lex_match.entry.flags
    raise AssertionError(test.kind)


def _all_alignments(rule, accepted, n, start):
    """Every complete alignment as (total, consumption vector, captures) over `n` tokens, grown atom by atom;
    `accepted[pos][ai]` is the set of token counts atom `ai`'s tests accept at token `pos` (see `_word`)."""
    partial = [(start, (), {})]  # (next token, consumption vector, captures) of each alignment of the atoms so far
    for ai, atom in enumerate(rule.atoms):
        grown = []
        for pos, vec, caps in partial:
            if atom.gap:
                choices = range(0, min(atom.gap, n - pos) + 1)
            else:
                choices = accepted[pos][ai] if pos < n else frozenset()
                if atom.optional:
                    choices = choices | {0}
            for consumed in choices:
                ncaps = caps
                if atom.capture is not None and consumed > 0:
                    ncaps = {**caps, atom.capture: (pos, pos + consumed)}
                grown.append((pos + consumed, vec + (consumed,), ncaps))
        partial = grown
    return [(pos - start, vec, caps) for pos, vec, caps in partial if "trigger" in caps]


def _evidence(atom, tokens, lookups, pos, consumed):
    """The first (test, lookup) pair in declaration order that consumes `consumed` tokens: its match, or None for a literal."""
    for test in atom.tests:
        if test.kind == "lit":
            if consumed == 1 and tokens[pos].stem == test.value:
                return None
            continue
        for m in lookups[pos]:
            if m.length == consumed and _test_ok(test, m):
                return m
    raise AssertionError("no test accepts the chosen length")


def oracle_apply(grammar, tokens, lexicon):
    """(rule name, span, captures, output, evidence, following) tuples under the same winner policy."""
    words = [_word(grammar, lexicon, *key) for key in _keys(lexicon, tokens)]
    lookups = [list(word[0]) for word in words]
    accepted = [[word[1][r] for word in words] for r in range(len(grammar.rules))]  # by rule, then token
    out = []
    i = 0
    while i < len(tokens):
        candidates = []
        for r, rule in enumerate(grammar.rules):
            alignments = _all_alignments(rule, accepted[r], len(tokens), i)
            if not alignments:
                continue
            total, vec, caps = max(alignments, key=lambda a: (a[0], a[1]))
            candidates.append(((-rule.priority, -total, r), rule, total, vec, caps))
        if not candidates:
            i += 1
            continue
        _, rule, total, vec, caps = min(candidates, key=lambda c: c[0])
        evidence, pos = {}, i
        for atom, consumed in zip(rule.atoms, vec):
            if atom.capture is not None and consumed > 0:
                evidence[atom.capture] = _evidence(atom, tokens, lookups, pos, consumed)
            pos += consumed
        start, i = i, caps["trigger"][1]
        following = tuple(lookups[i]) if i < len(tokens) else ()
        out.append((rule.name, (start, start + total), caps, rule.output, evidence, following))
    return out


@functools.lru_cache(maxsize=None)
def _word(grammar, lexicon, stems, baa):
    """(lookups, accepted) of a token whose stems from it on are `stems` and that has a ب proclitic or not:
    `accepted[r][ai]` is the set of token counts that the tests of atom `ai` of rule `r` accept at the token.
    Worked out once per word for every sequence a test runs through the oracle."""
    lookups = _lookup(lexicon, stems, baa)
    accepted = []
    for rule in grammar.rules:
        per_atom = []
        for atom in rule.atoms:
            counts = set()
            for test in atom.tests:
                if test.kind == "lit":
                    if stems[0] == test.value:
                        counts.add(1)
                else:
                    counts.update(m.length for m in lookups if _test_ok(test, m))
            per_atom.append(frozenset(counts))
        accepted.append(tuple(per_atom))
    return lookups, tuple(accepted)


def as_tuples(raw_matches):
    return [(m.rule, m.span, m.captures, m.output, m.evidence, m.following) for m in raw_matches]


def reference_normalize(text):
    """(normalized text, offset map) built one character at a time."""
    out: list[str] = []
    omap: list[int] = []
    for i, ch in enumerate(text):
        if ch in _REMOVED:
            continue
        out.append(_FOLD.get(ch, ch))
        omap.append(i)
    return "".join(out), omap


def reference_tokenize(text, lexicon=None):
    """Tokens built word by word: clitics split for every occurrence, boundaries through `bound`."""
    norm, omap = reference_normalize(text)
    tokens = []
    for wmatch in _WORD_RE.finditer(norm):
        word = wmatch.group()
        a = wmatch.start()
        n = len(word)
        cuts, stem_start = _split_clitics(word, lexicon)

        def bound(rel):
            # Partition boundary in the original text for a cut at `rel`.
            if rel >= n:
                return omap[a + n - 1] + 1
            return omap[a + rel]

        proclitics = tuple(
            Proclitic(span=OffsetSpan(bound(cs), bound(ce)), kind=kind, text=word[cs:ce]) for kind, cs, ce in cuts
        )
        span = OffsetSpan(bound(0), bound(n))
        tokens.append(
            Token(
                span=span,
                surface=text[span.start : span.end],
                proclitics=proclitics,
                stem_span=OffsetSpan(bound(stem_start), bound(n)),
                stem=word[stem_start:],
            )
        )
    return tokens


@functools.lru_cache(maxsize=None)
def _all_forms(lexicon):
    """(entry, words, suffixed) for each entry's own word sequence and, when flagged, each pronoun-suffixed one."""
    forms = []
    for entry in lexicon.entries:
        forms.append((entry, entry.words, False))
        if "PRONOUN_SUFFIXABLE" in entry.flags:
            last = entry.words[-1]
            base = last[:-1] + "ت" if last.endswith("ة") else last
            forms += [(entry, entry.words[:-1] + (base + suffix,), True) for suffix in PRONOUN_SUFFIXES]
    return forms


@functools.lru_cache(maxsize=None)
def _longest_form(lexicon):
    return max((len(words) for _, words, _ in _all_forms(lexicon)), default=1)


def _keys(lexicon, tokens):
    """What the lookup at each token reads: the stems from it on, as many as the longest form has, and its ب proclitic."""
    stems, longest = [tok.stem for tok in tokens], _longest_form(lexicon)
    return [
        (tuple(stems[i : i + longest]), any(p.kind == "preposition" and p.text == "ب" for p in tok.proclitics))
        for i, tok in enumerate(tokens)
    ]


def reference_lookup_keys(lexicon, tokens):
    """Each token's lookup key by the first definition: its type, or, where the pair of its stem and the next is
    the first two words of some multiword form, (type, the next `longest` - 1 stems), every pair of neighbouring
    stems tried."""
    stems, longest = [tok.stem for tok in tokens], _longest_form(lexicon)
    pairs = {words[:2] for _, words, _ in _all_forms(lexicon) if len(words) > 1}
    keys = [("ب", tok.stem) if any(p.kind == "preposition" and p.text == "ب" for p in tok.proclitics) else tok.stem
            for tok in tokens]
    for i, pair in enumerate(pairwise(stems)):
        if pair in pairs:
            keys[i] = (keys[i], tuple(stems[i + 1 : i + longest]))
    return keys


def reference_lookup(lexicon, tokens, i):
    """Lexicon matches at token i: every entry and its suffixed forms compared with the stems from i on."""
    return list(_lookup(lexicon, *_keys(lexicon, tokens)[i]))


@functools.lru_cache(maxsize=None)
def _lookup(lexicon, stems, baa):
    out = [LexMatch(entry, len(words), suffixed) for entry, words, suffixed in _all_forms(lexicon)
           if stems[: len(words)] == words]
    if baa:
        out += [LexMatch(e, 1, via_proclitic=True) for e in lexicon.entries
                if e.words == ("ب",) and e.cls is LexClass.PREP]
    order = {LexClass.PREP_LOCUTION: 0, LexClass.PREP: 1}
    return tuple(sorted(out, key=lambda m: (-m.length, order.get(m.entry.cls, 2), m.entry.lemma, m.via_proclitic)))


def reference_score(gold_docs, system_docs, trigger_exact):
    """(per-category [tp, fp, fn], bruit annotations, silence annotations), scanning all gold per system annotation."""
    counts = {cat: [0, 0, 0] for cat in semmap.TOP_LEVEL}
    bruit, silence = [], []
    system_by_id = {d.doc_id: d for d in system_docs}
    for gold_doc in sorted(gold_docs, key=lambda d: d.doc_id):
        gold = list(gold_doc.annotations)
        taken = set()
        for ann in sorted(system_by_id[gold_doc.doc_id].annotations, key=lambda a: (a.trigger.start, a.span.start)):
            cat = semmap.top_level(ann.category)
            candidates = [
                (g.span.start, g.trigger.start, idx)
                for idx, g in enumerate(gold)
                if idx not in taken
                and semmap.top_level(g.category) == cat
                and (ann.trigger == g.trigger if trigger_exact else ann.span.overlaps(g.span))
            ]
            if candidates:
                taken.add(min(candidates)[2])
                counts[cat][0] += 1
            else:
                counts[cat][1] += 1
                bruit.append(ann)
        for idx, g in enumerate(gold):
            if idx not in taken:
                counts[semmap.top_level(g.category)][2] += 1
                silence.append(g)
    return counts, bruit, silence


def reference_document_json(doc):
    """`doc`'s schema dict through `json.dumps(..., ensure_ascii=False, indent=2)`, plus a newline."""

    def span(s):
        return {"start": s.start, "end": s.end}

    anns = []
    for a in doc.annotations:
        obj = {"start": a.span.start, "end": a.span.end, "category": a.category, "trigger": span(a.trigger)}
        if a.site is not None:
            obj["site"] = span(a.site)
        if a.target is not None:
            obj["target"] = span(a.target)
        if a.attributes:
            obj["attributes"] = a.attributes
        if a.alternates:
            obj["alternates"] = list(a.alternates)
        if a.rule is not None:
            obj["rule"] = a.rule
        anns.append(obj)
    obj = {"doc_id": doc.doc_id, "text": doc.text, "annotations": anns}
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def _reference_span(obj, text_len, where):
    if not isinstance(obj, dict) or type(obj.get("start")) is not int or type(obj.get("end")) is not int:
        raise AnnotationFormatError(f"{where}: span must be an object with integer start/end")
    start, end = obj["start"], obj["end"]
    if not (0 <= start < end <= text_len):
        raise AnnotationFormatError(f"{where}: span [{start}, {end}) out of bounds for text of length {text_len}")
    return OffsetSpan(start, end)


def reference_read_annotations(source):
    """An annotation document read from a text stream, each field checked in turn and each category resolved anew."""
    data, name = source.read(), getattr(source, "name", "<stream>")
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AnnotationFormatError(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("doc_id"), str) or not isinstance(obj.get("text"), str):
        raise AnnotationFormatError(f"{name}: document must have string doc_id and text")
    text, raw_anns = obj["text"], obj.get("annotations", [])
    if not isinstance(raw_anns, list):
        raise AnnotationFormatError(f"{name}: annotations must be a list")
    anns = []
    for idx, raw in enumerate(raw_anns):
        where = f"{name}: annotation {idx}"
        if not isinstance(raw, dict):
            raise AnnotationFormatError(f"{where}: must be an object")
        category = raw.get("category")
        if not isinstance(category, str) or semmap.resolve(category) is None:
            raise AnnotationFormatError(f"{where}: unknown category path {category!r}")
        if category == semmap.ROOT:
            raise AnnotationFormatError(f"{where}: category {category!r} is the root, not a category")
        span = _reference_span({"start": raw.get("start"), "end": raw.get("end")}, len(text), where)
        if "trigger" not in raw:
            raise AnnotationFormatError(f"{where}: missing trigger span")
        trigger = _reference_span(raw["trigger"], len(text), where + " (trigger)")
        site = _reference_span(raw["site"], len(text), where + " (site)") if "site" in raw else None
        target = _reference_span(raw["target"], len(text), where + " (target)") if "target" in raw else None
        alternates = raw.get("alternates", [])
        if not isinstance(alternates, list):
            raise AnnotationFormatError(f"{where}: alternates must be a list")
        for alt in alternates:
            if not isinstance(alt, str) or semmap.resolve(alt) is None:
                raise AnnotationFormatError(f"{where}: unknown alternate category {alt!r}")
        attributes, rule = raw.get("attributes", {}), raw.get("rule")
        if not isinstance(attributes, dict):
            raise AnnotationFormatError(f"{where}: attributes must be an object")
        if rule is not None and not isinstance(rule, str):
            raise AnnotationFormatError(f"{where}: rule must be a string")
        anns.append(SpatialAnnotation(span, category, trigger, site, target, attributes, tuple(alternates), rule))
    return AnnotatedDocument(obj["doc_id"], text, tuple(anns))
