"""Pattern DSL compiled to deterministic matchers applied as a prioritized cascade.

Rule syntax (one statement per rule, each begun by the reserved word `RULE`; a line whose first non-blank
character is `#` is a comment, and a `#` anywhere else is refused):

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
What a test accepts at a token depends only on its lookup key
(`Lexicon.lookup_keys`: its type, widened by the next stems only where a
stem that begins a multiword form does begin one), as a NooJ grammar reads
only the codes its dictionary pass attached. `_type_records` keeps one
record per key, or finds that no key of the call starts a rule, and `apply`
then returns []; else the scan visits only tokens that can start a rule,
trying those rules in (priority desc, declaration) order up to the first
that cannot beat the winner found: winners are unchanged.
"""

from __future__ import annotations

import re
from collections import namedtuple
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
_CANDIDATES = itemgetter(1)  # a type record's candidate rules: see `_type_records`


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


class RawMatch(Record, namedtuple("RawMatch", "rule span captures output guards evidence following")):
    """A rule's winning alignment at a token, before its guards run: an immutable record (see `textnorm.Record`).
    `span` and each capture are token index ranges, end exclusive; `evidence` maps a capture to the lexicon match its
    atom took, or None; `following` holds the lookups of the token after the trigger, if any."""

    __slots__ = ()

    def __new__(cls, rule: str, span: tuple[int, int], captures: dict[str, tuple[int, int]], output: str,
                guards: tuple[str, ...], evidence: dict[str, LexMatch | None] | None = None,
                following: tuple[LexMatch, ...] = ()):
        evidence = {} if evidence is None else evidence  # a default is a new dict, never a shared one
        return tuple.__new__(cls, (rule, span, captures, output, guards, evidence, following))


class CompiledGrammar:
    """Rules in declaration order, with the dispatch tables `apply` reads; built once, never changed.

    It carries the lexicon it was compiled for, `lexicon`, and owns
    one table of word-type records (see `_type_records`), filled lazily and emptied
    when it reaches `textnorm.MEMO_LIMIT` entries, and one record for past the
    last token, filled lazily too. A record holds values only, so no answer
    changes and threads may share a grammar: a race at worst works an entry
    out twice.
    """

    def __init__(self, rules: tuple[Rule, ...], lexicon: Lexicon):
        self.rules = rules
        self.lexicon = lexicon
        self.ordered = tuple(sorted(rules, key=lambda r: -r.priority))  # candidate order; ties keep declaration order
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
        self._types: dict = {}  # type key -> (lookups, candidates, options by atom index, stem): see `_type_records`
        self._end = ((), (), {}, None)  # the record `apply` reads one past the last token, with no type

    def __len__(self) -> int:
        return len(self.rules)


# ---------------------------------------------------------------------------
# lexing / parsing

# The last alternative takes a character no token takes: a `)` without its `?`, or a `#` that does not begin a line.
_TOKEN_RE = re.compile(r"=>|\)\?|[\[\]|(:,=]|[^\s\[\]|():,=#]+|(\S)")

_Tok = namedtuple("_Tok", "text line col")


def _lex(source: str) -> list[_Tok]:
    toks = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        if raw.lstrip().startswith("#"):  # a comment is a whole line
            continue
        for m in _TOKEN_RE.finditer(raw):
            if m[1]:
                raise GrammarError(f"unexpected character {m[1]!r}", lineno, m.start() + 1)
            toks.append(_Tok(m[0], lineno, m.start() + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expected: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None or tok.text == "RULE" and expected != "RULE":  # a rule ends where the next one starts
            last = self.toks[self.pos - 1] if self.pos else None
            raise GrammarError(
                f"unexpected end of rule{' file' if tok is None else ''}, expected {expected or 'token'}",
                last.line if last else None,
                last.col if last else None,
            )
        if expected is not None and tok.text != expected:
            raise GrammarError(f"expected {expected!r}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it is `text`, and say whether it was."""
        taken = self.pos < len(self.toks) and self.toks[self.pos].text == text
        self.pos += taken
        return taken


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


def _parse_atom(p: _Parser) -> PatternAtom:
    tok = p.peek()
    if p.accept("GAP"):
        n = _parse_int(p, "after GAP")
        if not 0 < n <= MAX_GAP:
            raise GrammarError(f"GAP must be in 1..{MAX_GAP}", tok.line, tok.col)
        return PatternAtom(gap=n)
    optional = p.accept("(")
    nxt = p.toks[p.pos + 1] if p.pos + 1 < len(p.toks) else None
    capture = None
    if nxt is not None and nxt.text == "=" and p.peek().text != "[":
        capture = p.next(None).text
        p.next("=")
    if p.accept("["):
        tests = [_parse_test(p)]
        while p.accept("|"):
            tests.append(_parse_test(p))
        p.next("]")
    else:
        tests = [_literal(p.next(None))]
    if optional:
        p.next(")?")
    return PatternAtom(tests=tuple(tests), capture=capture, optional=optional)


def _parse_rule(p: _Parser) -> Rule:
    start = p.next("RULE")
    name = p.next(None).text
    p.next("PRIO")
    priority = _parse_int(p, "priority")
    p.next(":")
    atoms: list[PatternAtom] = []
    while not p.accept("=>"):
        if p.peek() is None or p.peek().text == "RULE":  # the file or the next rule begins first
            raise GrammarError("rule is missing `=>`", start.line, start.col)
        atoms.append(_parse_atom(p))
    if not atoms:
        raise GrammarError(f"rule {name}: empty pattern", start.line, start.col)
    output = p.next(None).text
    guards: list[str] = []
    while p.accept("," if guards else "GUARD"):  # GUARD name ("," name)*
        guards.append(p.next(None).text)
    return Rule(name=name, priority=priority, atoms=tuple(atoms), output=output, guards=tuple(guards))


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
    if rule.output == semmap.ROOT:  # else scoring, by top-level category, could not count its annotations
        return f"output path {rule.output} is the root, not a category"
    unknown = [name for name in rule.guards if name not in KNOWN_GUARDS]
    return f"unknown guard {unknown[0]}" if unknown else None


def compile(source: str, lexicon: Lexicon) -> CompiledGrammar:
    """Parse and validate rule source against the semantic map; the grammar carries `lexicon`."""
    if not isinstance(source, str):
        raise TypeError(f"compile's source must be a str, not {type(source).__name__}")
    if not isinstance(lexicon, Lexicon):  # else `annotate` fails on the first call
        raise TypeError(f"compile's lexicon must be a Lexicon, not {type(lexicon).__name__}")
    p = _Parser(_lex(source))
    rules: list[Rule] = []
    names: set[str] = set()
    while p.peek() is not None:
        start = p.peek()
        rule = _parse_rule(p)
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


def _type_records(grammar: CompiledGrammar, tokens: TokenStream) -> list | None:
    """Each token's type record, then `grammar._end`; None if no distinct key of the call has candidates. Each key
    is looked up once a call, before that exit. A record holds, by position: its lookups; its candidates in winner
    order, each (rule, steps, first atom's options); later atoms' options by atom index, filled as read; its stem."""
    keys, lookup, types = grammar.lexicon.lookup_keys(tokens), grammar.lexicon.lookup, grammar._types
    seen = dict(zip(keys, count()))  # each distinct key at a token it is on
    for key, i in seen.items():
        found = lookup(tokens, i)
        rec = types.get(key)
        if rec is None:  # a key first met: the dispatch tables are read only here
            stem, first, ordered, steps = tokens.stems[i], grammar.first, grammar.ordered, grammar.steps
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
    return [*map(seen.get, keys), grammar._end] if any(map(_CANDIDATES, seen.values())) else None


def apply(grammar: CompiledGrammar, tokens: TokenStream) -> list[RawMatch]:
    """Scan left to right, trying at each token only the rules it can start, in
    winner order; one winner per start; resume after the winner's trigger.

    `tokens` must be a `textnorm.TokenStream`, else TypeError. Only tokens whose record (`_type_records`) has
    candidates are visited, and a call with none returns [] before the record list is built."""
    if type(tokens) is not TokenStream:
        raise TypeError(f"apply takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
    recs = _type_records(grammar, tokens)
    if recs is None:
        return []
    out: list[RawMatch] = []
    resume = 0
    for i in compress(range(len(recs) - 1), map(_CANDIDATES, recs)):
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
        # every field is in hand, `evidence` included: built without the constructor's default
        out.append(tuple.__new__(RawMatch, (winner.name, (i, i + total), captures, winner.output, winner.guards,
                                            evidence, recs[resume][0])))
    return out
