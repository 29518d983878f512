"""Shipped resources: the rule pack's source and the one loader of every resource."""

from __future__ import annotations

from importlib import resources
from itertools import pairwise

from . import engine, lexicon as lexicon_mod, semmap


def rule_pack_path():
    return resources.files("makan").joinpath("resources/spatial.rules")


def rule_pack() -> str:
    """The shipped rule DSL source."""
    return lexicon_mod.read_resource(rule_pack_path())


def load_resources(lexicon_paths=(), rule_paths=()):
    """(semantic map, lexicon, compiled rules, {}), each validated as it is built.

    Empty arguments take the shipped files; several lexicon or rule files make
    one lexicon or one rule source. Every resource fault is a LexiconError or
    a GrammarError, a rule that can never fire against the lexicon included
    (see `_refuse_dead_rules`). A spelling variant is a lexicon row: the last
    value, a new empty dict each call, stays only for the call shape of the
    benchmark harness, which unpacks four values and passes it on as
    `variants`.
    """
    lexicon = lexicon_mod.load(list(lexicon_paths) or [lexicon_mod.seed_lexicon_path()])
    rule_paths = list(rule_paths) or [rule_pack_path()]
    texts = [lexicon_mod.read_resource(p) for p in rule_paths]
    source = "\n".join(texts)
    try:
        grammar = engine.compile(source, lexicon)
        _refuse_dead_rules(grammar, source)
    except engine.GrammarError as exc:
        line, path = exc.line, None  # a line of the joined source -> its file and own line
        for path, text in zip(rule_paths, texts):
            if line is None or line <= (n := text.count("\n") + 1):
                break
            line -= n
        raise engine.GrammarError(exc.message, line, exc.col, path) from None
    return semmap.PARENT, lexicon, grammar, {}


def _refuse_dead_rules(grammar, source: str) -> None:
    """GrammarError at the first rule with an atom, neither optional nor a gap, that no test can meet: no literal,
    and no class, sense or flag of any lexicon entry. Such a rule can never fire.

    It is checked here, not in `engine.compile`, so that a grammar compiled for a partial lexicon still builds."""
    classes, senses, flags = set(), set(), set()
    for e in grammar.lexicon.entries:
        classes.add(e.cls)
        senses |= e.senses
        flags |= e.flags
    # whether some token can meet a test, given what it accepts: a literal's stem, never empty, always can
    met = {"lit": bool, "class": classes.__contains__, "flag": flags.__contains__, "sense": senses.intersection}
    for rule in grammar.rules:
        for atom in rule.atoms:
            if atom.optional or atom.gap:
                continue
            for test in atom.tests:
                if met[test.kind](test.accepts):
                    break
            else:
                prefix = {"class": "", "sense": "SENSE ", "flag": "FLAG "}
                tests = " | ".join(prefix[t.kind] + t.value for t in atom.tests)
                toks = pairwise(engine._lex(source))  # the rule's line, read only to report it
                start = next(tok for tok, name in toks if (tok.text, name.text) == ("RULE", rule.name))
                raise engine.GrammarError(
                    f"rule {rule.name}: no lexicon entry meets [{tests}], so it can never fire", start.line, start.col
                )


def load_default_resources():
    """(semantic map, seed lexicon, compiled rule pack, {}): see `load_resources`."""
    return load_resources()
