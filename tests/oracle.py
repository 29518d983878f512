"""Independent brute-force references for the grammar engine, normalization, the tokenizer and scoring.

The engine reference enumerates every (rule, start, alignment) combination
directly from the rule structure, over the lookup reference's matches, and
filters by the published winner ordering. The normalization reference folds
one character at a time and replaces variant words from the right; the
tokenizer reference normalizes through it, splits every word anew and computes every
boundary through one closure; the lookup reference tries every entry form at
the token; the scoring reference scans all gold for each system annotation. Kept deliberately separate from the program's own paths
so the two can disagree.
"""

import functools

from makan import semmap
from makan.lexicon import PRONOUN_SUFFIXES, LexClass, LexMatch
from makan.semmap import subsumes
from makan.textnorm import _FOLD, _REMOVED, _WORD_RE, OffsetSpan, Proclitic, Token, _split_clitics


def _test_ok(test, lex_match, smap):
    if test.kind == "class":
        return lex_match.entry.cls is LexClass[test.value]
    if test.kind == "sense":
        return any(subsumes(smap, test.value, s) for s in lex_match.entry.senses)
    if test.kind == "flag":
        return test.value in lex_match.entry.flags
    raise AssertionError(test.kind)


def _all_alignments(rule, tokens, lookups, smap, start):
    """Every complete alignment as (total, consumption vector, captures); `lookups[i]` is `reference_lookup` at i."""
    results = []

    def go(ai, pos, vec, caps):
        if ai == len(rule.atoms):
            results.append((pos - start, tuple(vec), dict(caps)))
            return
        atom = rule.atoms[ai]
        choices = set()
        if atom.gap:
            for k in range(0, min(atom.gap, len(tokens) - pos) + 1):
                choices.add(k)
        else:
            if atom.optional:
                choices.add(0)
            if pos < len(tokens):
                for test in atom.tests:
                    if test.kind == "lit":
                        if tokens[pos].stem == test.value:
                            choices.add(1)
                    else:
                        for m in lookups[pos]:
                            if _test_ok(test, m, smap):
                                choices.add(m.length)
        for consumed in sorted(choices):
            ncaps = caps
            if atom.capture is not None and consumed > 0:
                ncaps = {**caps, atom.capture: (pos, pos + consumed)}
            go(ai + 1, pos + consumed, vec + [consumed], ncaps)

    go(0, start, [], {})
    return [r for r in results if "trigger" in r[2]]


def _evidence(atom, tokens, lookups, smap, pos, consumed):
    """The first (test, lookup) pair in declaration order that consumes `consumed` tokens: its match, or None for a literal."""
    for test in atom.tests:
        if test.kind == "lit":
            if consumed == 1 and tokens[pos].stem == test.value:
                return None
            continue
        for m in lookups[pos]:
            if m.length == consumed and _test_ok(test, m, smap):
                return m
    raise AssertionError("no test accepts the chosen length")


def oracle_apply(grammar, tokens, lexicon):
    """(rule name, span, captures, output, evidence, following) tuples under the same winner policy."""
    smap = grammar.smap
    lookups = [reference_lookup(lexicon, tokens, pos) for pos in range(len(tokens))]
    out = []
    i = 0
    while i < len(tokens):
        candidates = []
        for rule in grammar.rules:
            alignments = _all_alignments(rule, tokens, lookups, smap, i)
            if not alignments:
                continue
            total, vec, caps = max(alignments, key=lambda r: (r[0], r[1]))
            candidates.append(((-rule.priority, -total, rule.decl), rule, total, vec, caps))
        if not candidates:
            i += 1
            continue
        _, rule, total, vec, caps = min(candidates, key=lambda c: c[0])
        evidence, pos = {}, i
        for atom, consumed in zip(rule.atoms, vec):
            if atom.capture is not None and consumed > 0:
                evidence[atom.capture] = _evidence(atom, tokens, lookups, smap, pos, consumed)
            pos += consumed
        start, i = i, caps["trigger"][1]
        following = tuple(lookups[i]) if i < len(tokens) else ()
        out.append((rule.name, (start, start + total), caps, rule.output, evidence, following))
    return out


def as_tuples(raw_matches):
    return [(m.rule, m.span, m.captures, m.output, m.evidence, m.following) for m in raw_matches]


def reference_normalize(text, variants=None):
    """(normalized text, offset map) built one character at a time, then each variant word replaced whole.

    A replacement's characters come from the word's characters in turn, its
    last from the word's last, so a span still ends on the word's end.
    """
    out: list[str] = []
    omap: list[int] = []
    for i, ch in enumerate(text):
        if ch in _REMOVED:
            continue
        out.append(_FOLD.get(ch, ch))
        omap.append(i)
    norm = "".join(out)
    for m in reversed(list(_WORD_RE.finditer(norm)) if variants else ()):  # from the right: earlier offsets hold
        repl = variants.get(m.group())
        if repl is not None:
            a, b = m.span()
            src = [omap[a + min(j, b - a - 1)] for j in range(len(repl) - 1)] + [omap[b - 1]]
            norm, omap = norm[:a] + repl + norm[b:], omap[:a] + src + omap[b:]
    return norm, omap


def reference_tokenize(text, lexicon=None, variants=None):
    """Tokens built word by word: clitics split for every occurrence, boundaries through `bound`."""
    norm, omap = reference_normalize(text, variants)
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
        if entry.flags & {"PRONOUN_SUFFIXABLE", "REQUIRES_POSSESSIVE_DISAMBIG"}:
            last = entry.words[-1]
            base = last[:-1] + "ت" if last.endswith("ة") else last
            forms += [(entry, entry.words[:-1] + (base + suffix,), True) for suffix in PRONOUN_SUFFIXES]
    return forms


def reference_lookup(lexicon, tokens, i):
    """Lexicon matches at token i: every entry and its suffixed forms compared with the stems from i on."""
    stems = tuple(tok.stem for tok in tokens[i:])
    out = [LexMatch(entry, len(words), suffixed) for entry, words, suffixed in _all_forms(lexicon)
           if stems[: len(words)] == words]
    if any(p.kind == "preposition" and p.text == "ب" for p in tokens[i].proclitics):
        out += [LexMatch(e, 1, via_proclitic=True) for e in lexicon.entries
                if e.words == ("ب",) and e.cls is LexClass.PREP]
    order = {LexClass.PREP_LOCUTION: 0, LexClass.PREP: 1}
    return sorted(out, key=lambda m: (-m.length, order.get(m.entry.cls, 2), m.entry.lemma, m.via_proclitic))


def reference_score(gold_docs, system_docs, trigger_exact):
    """(per-category [tp, fp, fn], bruit annotations, silence annotations), scanning all gold per system annotation."""
    smap = semmap.default_map()
    counts = {cat: [0, 0, 0] for cat in semmap.TOP_LEVEL}
    bruit, silence = [], []
    system_by_id = {d.doc_id: d for d in system_docs}
    for gold_doc in sorted(gold_docs, key=lambda d: d.doc_id):
        gold = list(gold_doc.annotations)
        taken = set()
        for ann in sorted(system_by_id[gold_doc.doc_id].annotations, key=lambda a: (a.trigger.start, a.span.start)):
            cat = semmap.top_level(smap, ann.category)
            candidates = [
                (g.span.start, g.trigger.start, idx)
                for idx, g in enumerate(gold)
                if idx not in taken
                and semmap.top_level(smap, g.category) == cat
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
                counts[semmap.top_level(smap, g.category)][2] += 1
                silence.append(g)
    return counts, bruit, silence
