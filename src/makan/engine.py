"""Pattern DSL compiled to deterministic matchers applied as a prioritized cascade.

Rule syntax (one statement per rule, `#` comments):

    rule  := "RULE" name "PRIO" int ":" atom+ "=>" path ("GUARD" name ("," name)*)?
    atom  := "(" inner ")?" | inner | "GAP" int
    inner := (capture "=")? "[" test ("|" test)* "]" | bareword-literal
    test  := CLASSNAME | "SENSE" path | "FLAG" flagname | "LIT" word

A rule names each capture at most once, and a literal normalizes to one
word. A class/sense/flag test consumes a whole lexicon match, so a multiword
locution satisfies a single atom. Matching is leftmost. At each position the
winner is decided by, in turn: the highest priority; the greatest total
length; each atom's length from left to right, greatest first; the earliest
declaration. The per-atom lengths choose among one rule's alignments, so two
rules tied on priority and total fall to declaration order. Scanning resumes
after the winner's trigger token.

`compile` reduces each test to what it accepts (a stem, a class, a sense's
subtree of `semmap.BELOW`, a flag) and indexes rules by their first atom's keys.
What a test accepts at a token depends only on its word type, as a NooJ
grammar reads a word's dictionary codes: `apply` keeps one record per type,
and visits only tokens that can start a rule, trying those rules in
(priority desc, declaration) order up to the first that cannot beat the
winner found: winners are unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from operator import itemgetter

from . import semmap
from .guards import KNOWN_GUARDS
from .lexicon import FLAGS, LexClass, LexMatch, Lexicon
from .textnorm import _WORD_RE, Record, TokenStream, normalize, remember

CAPTURE_NAMES = ("trigger", "site", "target", "verb")

MAX_GAP = 5
_GAPS = {n: tuple((k, None) for k in range(n, -1, -1)) for n in range(1, MAX_GAP + 1)}  # a gap's options


class GrammarError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None, path=None):
        where = f"{path}, " if path is not None else ""
        loc = f" ({where}line {line}, col {col})" if line is not None else ""
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Test:
    kind: str   # class | sense | flag | lit
    value: str
    accepts: object = None  # what it accepts: stem or flag, LexClass, or frozenset of sense paths


@dataclass(frozen=True)
class PatternAtom:
    tests: tuple[Test, ...] = ()
    capture: str | None = None
    optional: bool = False
    gap: int = 0                 # >0: up-to-N wildcard gap, no tests


@dataclass(frozen=True)
class Rule:
    name: str
    priority: int
    atoms: tuple[PatternAtom, ...]
    output: str
    guards: tuple[str, ...]
    decl: int                    # declaration index, tie-break after priority


class RawMatch(Record):
    """A rule's winning alignment at a token, before its guards run: an immutable record (see `textnorm.Record`)."""

    __slots__ = ()
    __match_args__ = ("rule", "span", "captures", "output", "guards", "evidence", "following")
    rule = property(itemgetter(0))
    span = property(itemgetter(1))            # token index range, end exclusive
    captures = property(itemgetter(2))        # capture name -> token index range
    output = property(itemgetter(3))
    guards = property(itemgetter(4))          # the rule's guards, run before emission
    evidence = property(itemgetter(5))        # capture name -> the lexicon match its atom took, or None
    following = property(itemgetter(6))       # lookups of the token after the trigger, if any

    def __new__(cls, rule: str, span: tuple[int, int], captures: dict[str, tuple[int, int]], output: str,
                guards: tuple[str, ...], evidence: dict[str, LexMatch | None] | None = None,
                following: tuple[LexMatch, ...] = ()):
        evidence = {} if evidence is None else evidence  # a default is a new dict, never a shared one
        return tuple.__new__(cls, (rule, span, captures, output, guards, evidence, following))


class CompiledGrammar:
    """Rules in declaration order, with the dispatch tables `apply` reads; built once, never changed.

    It carries the lexicon it was compiled for, `lexicon`, and owns
    one table of word-type records (see `apply`), filled lazily and emptied
    when it reaches `textnorm.MEMO_LIMIT` entries. A record holds values
    only, so no answer changes and threads may share a grammar: a race at
    worst works an entry out twice.
    """

    def __init__(self, rules: tuple[Rule, ...], lexicon: Lexicon):
        self.rules = rules
        self.lexicon = lexicon
        self.ordered = tuple(sorted(rules, key=lambda r: (-r.priority, r.decl)))  # candidate order
        self.first: dict[object, list[int]] = {}  # stem, class, sense path or flag -> ranks it starts
        for rank, rule in enumerate(self.ordered):
            for test in rule.atoms[0].tests:
                for key in test.accepts if test.kind == "sense" else (test.accepts,):
                    self.first.setdefault(key, []).append(rank)
        # ranks whose first atom, a gap or an optional one, lets them start anywhere
        self.always = tuple(r for r, rule in enumerate(self.ordered) if rule.atoms[0].gap or rule.atoms[0].optional)
        # each candidate's atoms as `_best_alignment` reads them: (a gap's options or None, atom index, atom)
        ids = count()
        self.steps = tuple(tuple((_GAPS.get(a.gap), next(ids), a) for a in rule.atoms) for rule in self.ordered)
        self._types: dict = {}  # type key -> (lookups, candidates, options by atom index, stem): see `apply`

    def __len__(self) -> int:
        return len(self.rules)


# ---------------------------------------------------------------------------
# lexing / parsing

_TOKEN_RE = re.compile(r"=>|\)\?|[\[\]|(:,=]|[^\s\[\]|():,=#]+")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _lex(source: str) -> list[_Tok]:
    toks = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        for m in _TOKEN_RE.finditer(line):
            gap = line[pos : m.start()]
            if gap.strip():
                raise GrammarError(f"unexpected character {gap.strip()[0]!r}", lineno, pos + 1)
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
            pos = m.end()
        if line[pos:].strip():
            raise GrammarError(f"unexpected character {line[pos:].strip()[0]!r}", lineno, pos + 1)
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expected: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise GrammarError(
                f"unexpected end of rule file, expected {expected or 'token'}",
                last.line if last else None,
                last.col if last else None,
            )
        if expected is not None and tok.text != expected:
            raise GrammarError(f"expected {expected!r}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok


def _parse_int(p: _Parser, what: str) -> int:
    tok = p.next(None)
    try:
        return int(tok.text)
    except ValueError:
        raise GrammarError(f"expected integer {what}, found {tok.text!r}", tok.line, tok.col) from None


def _parse_test(p: _Parser) -> Test:
    tok = p.next(None)
    if tok.text in LexClass.__members__:
        return Test("class", tok.text, LexClass[tok.text])
    if tok.text == "SENSE":
        path = p.next(None).text
        return Test("sense", path, semmap.BELOW.get(path))  # None when unresolved: `_rule_problem` rejects it
    if tok.text == "FLAG":
        flag = p.next(None).text
        return Test("flag", flag, flag)
    if tok.text == "LIT":
        return _literal(p.next(None))
    raise GrammarError(f"unknown test {tok.text!r}", tok.line, tok.col)


def _literal(tok: _Tok) -> Test:
    stem = normalize(tok.text)[0]
    if not _WORD_RE.fullmatch(stem):  # else no token's stem can equal it
        raise GrammarError(f"literal {tok.text!r} is not one word", tok.line, tok.col)
    return Test("lit", stem, stem)


def _parse_inner(p: _Parser) -> PatternAtom:
    tok = p.peek()
    nxt = p.toks[p.pos + 1] if p.pos + 1 < len(p.toks) else None
    capture = None
    if nxt is not None and nxt.text == "=" and tok.text != "[":
        capture = p.next(None).text
        p.next("=")
        tok = p.peek()
    if tok is not None and tok.text == "[":
        p.next("[")
        tests = [_parse_test(p)]
        while p.peek() is not None and p.peek().text == "|":
            p.next("|")
            tests.append(_parse_test(p))
        p.next("]")
        return PatternAtom(tests=tuple(tests), capture=capture)
    return PatternAtom(tests=(_literal(p.next(None)),), capture=capture)


def _parse_atom(p: _Parser) -> PatternAtom:
    tok = p.peek()
    if tok.text == "(":
        p.next("(")
        inner = _parse_inner(p)
        p.next(")?")
        return PatternAtom(tests=inner.tests, capture=inner.capture, optional=True)
    if tok.text == "GAP":
        p.next("GAP")
        n = _parse_int(p, "after GAP")
        if not 0 < n <= MAX_GAP:
            raise GrammarError(f"GAP must be in 1..{MAX_GAP}", tok.line, tok.col)
        return PatternAtom(gap=n)
    return _parse_inner(p)


def _parse_rule(p: _Parser, decl: int) -> Rule:
    start = p.next("RULE")
    name = p.next(None).text
    p.next("PRIO")
    priority = _parse_int(p, "priority")
    p.next(":")
    atoms: list[PatternAtom] = []
    while True:
        tok = p.peek()
        if tok is None:
            raise GrammarError("rule is missing `=>`", start.line, start.col)
        if tok.text == "=>":
            break
        atoms.append(_parse_atom(p))
    if not atoms:
        raise GrammarError(f"rule {name}: empty pattern", start.line, start.col)
    p.next("=>")
    output = p.next(None).text
    guards: list[str] = []
    if p.peek() is not None and p.peek().text == "GUARD":
        p.next("GUARD")
        guards.append(p.next(None).text)
        while p.peek() is not None and p.peek().text == ",":
            p.next(",")
            guards.append(p.next(None).text)
    return Rule(
        name=name,
        priority=priority,
        atoms=tuple(atoms),
        output=output,
        guards=tuple(guards),
        decl=decl,
    )


def _rule_problem(rule: Rule) -> str | None:
    """Why `rule` is invalid against the map and the known guards, or None."""
    for atom in rule.atoms:
        if atom.capture is not None and atom.capture not in CAPTURE_NAMES:
            return f"unknown capture {atom.capture!r} (expected one of {', '.join(CAPTURE_NAMES)})"
        if atom.capture == "trigger" and atom.optional:
            return "trigger capture may not be optional"
        for test in atom.tests:
            if test.kind == "sense" and test.accepts is None:  # a path outside `semmap.BELOW`
                return f"unresolved category path {test.value}"
            if test.kind == "flag" and test.value not in FLAGS:
                return f"unknown flag {test.value}"
    triggers = sum(atom.capture == "trigger" for atom in rule.atoms)
    if triggers != 1:
        return f"pattern must contain exactly one trigger capture, found {triggers}"
    captures = [atom.capture for atom in rule.atoms if atom.capture is not None]
    twice = [name for name in captures if captures.count(name) > 1]
    if twice:  # else the later atom's capture would silently replace the earlier one's
        return f"capture {twice[0]} is used more than once"
    if rule.output not in semmap.BELOW:
        return f"unresolved output path {rule.output}"
    unknown = [name for name in rule.guards if name not in KNOWN_GUARDS]
    return f"unknown guard {unknown[0]}" if unknown else None


def compile(source: str, lexicon: Lexicon) -> CompiledGrammar:
    """Parse and validate rule source against the semantic map; the grammar carries `lexicon`."""
    p = _Parser(_lex(source))
    rules: list[Rule] = []
    names: set[str] = set()
    while p.peek() is not None:
        start = p.peek()
        rule = _parse_rule(p, decl=len(rules))
        problem = _rule_problem(rule)
        if problem is not None:
            raise GrammarError(f"rule {rule.name}: {problem}", start.line, start.col)
        if rule.name in names:
            raise GrammarError(f"duplicate rule name {rule.name}", start.line, start.col)
        names.add(rule.name)
        rules.append(rule)
    return CompiledGrammar(tuple(rules), lexicon)


# ---------------------------------------------------------------------------
# matching

def _atom_options(atom: PatternAtom, lookups, stem) -> tuple:
    """An atom's options at a token of a type (its lookups, its stem): (tokens consumed, evidence), longest first.

    The evidence is the first match in (test, lookup) order for that length,
    which the guards read, or None for a skipped optional atom or a literal.
    """
    options = {0: None} if atom.optional else {}
    for test in atom.tests:
        kind, accepts = test.kind, test.accepts
        if kind == "lit":
            if stem == accepts:
                options.setdefault(1, None)
            continue
        for m in lookups:
            if (
                m.entry.cls is accepts if kind == "class"
                else accepts in m.entry.flags if kind == "flag"
                else not accepts.isdisjoint(m.entry.senses)
            ):
                options.setdefault(m.length, m)
    return tuple(sorted(options.items(), reverse=True))  # lengths differ: evidence is never compared


def _best_alignment(steps, ai: int, recs, pos: int, options):
    """Best alignment of `steps[ai:]` (see `CompiledGrammar.steps`) at token `pos` as (total, picks), or None.

    `options` are those of `steps[ai]` at `pos`; a later atom's are read from
    `recs`, each token's type record and then one past the last token. `picks`
    holds each atom's option. Options come longest first and only a greater
    total displaces the best, so the greatest total wins, then each atom's
    length from the left. Module-level, not a closure, so it leaves no cycle.
    """
    if ai + 1 == len(steps):
        return (options[0][0], options[:1]) if options else None
    gap, index, atom = steps[ai + 1]
    last = ai + 2 == len(steps)
    best = None
    for pick in options:
        at = pos + pick[0]
        if gap:
            nxt = gap[max(0, len(gap) + at - len(recs)) :]  # no longer than the tokens left
        else:
            nxt = recs[at][2].get(index)
            if nxt is None:
                nxt = recs[at][2][index] = _atom_options(atom, recs[at][0], recs[at][3])
        if not nxt:
            continue
        rest = (nxt[0][0], nxt[:1]) if last else _best_alignment(steps, ai + 1, recs, at, nxt)
        if rest is not None and (best is None or rest[0] + pick[0] > best[0]):
            best = (rest[0] + pick[0], (pick, *rest[1]))
    return best


def apply(grammar: CompiledGrammar, tokens: TokenStream) -> list[RawMatch]:
    """Scan left to right, trying at each token only the rules it can start, in
    winner order; one winner per start; resume after the winner's trigger.

    `tokens` must be a `textnorm.TokenStream`, else TypeError. It reads the
    stem and key columns of `tokens` and looks them up in `grammar.lexicon`; a
    token that starts a multiword form with the next is keyed by its type and
    the next `lexicon.longest` - 1 stems too.
    Each distinct key is looked up once a call. Its record on the grammar
    holds its lookups, its candidate rules in winner order with their first
    atom's options, and later atoms' options there, filled as read. Only
    tokens with candidates are visited."""
    if type(tokens) is not TokenStream:
        raise TypeError(f"apply takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
    lexicon, stems, keys, n = grammar.lexicon, tokens.stems, tokens.keys, len(tokens)
    if lexicon.locution_pairs:
        keys, longest = list(keys), lexicon.longest
        for i in compress(range(n), map(lexicon.locution_pairs.__contains__, zip(stems, stems[1:]))):
            keys[i] = (keys[i], stems[i + 1 : i + longest])
    seen = dict(zip(keys, range(n)))  # each distinct key at a token it is on
    types, first, ordered, steps = grammar._types, grammar.first, grammar.ordered, grammar.steps
    for key, i in seen.items():
        found = lexicon.lookup(tokens, i)
        rec = types.get(key)
        if rec is None:
            stem = stems[i]
            ranks = set(grammar.always).union(first.get(stem, ()))
            for m in found:
                for k in (m.entry.cls, *m.entry.senses, *m.entry.flags):
                    ranks.update(first.get(k, ()))
            cands = tuple(  # a leading gap's options depend on the tokens left: None
                (ordered[r], steps[r], None if steps[r][0][0] else _atom_options(steps[r][0][2], found, stem))
                for r in sorted(ranks)
            )
            rec = remember(types, key, (tuple(found), cands, {}, stem))
        seen[key] = rec
    recs = [*map(seen.get, keys), ((), (), {}, None)]  # and a record past the last token
    out: list[RawMatch] = []
    resume = 0
    for i in compress(range(n), map(itemgetter(1), recs)):
        if i < resume:
            continue
        winner, total = None, 0
        for rule, st, options in recs[i][1]:
            if winner is not None and rule.priority < winner.priority:
                break  # candidates come in winner order: only an equal priority and a greater total can still win
            if options is None:
                options = st[0][0][max(0, len(st[0][0]) + i - len(recs)) :]
            al = _best_alignment(st, 0, recs, i, options)
            if al is not None and al[0] > total:
                winner, (total, picks) = rule, al
        if winner is None:
            continue
        captures, evidence, pos = {}, {}, i
        for atom, (consumed, m) in zip(winner.atoms, picks):
            if atom.capture is not None and consumed:
                captures[atom.capture] = (pos, pos + consumed)
                evidence[atom.capture] = m
            pos += consumed
        resume = captures["trigger"][1]
        out.append(RawMatch(winner.name, (i, i + total), captures, winner.output, winner.guards, evidence,
                            recs[resume][0]))
    return out
