"""Shipped resources: the rule pack's source and the one loader of every resource."""

from __future__ import annotations

from importlib import resources

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
    a GrammarError. A spelling variant is a lexicon row: the last value, a new
    empty dict each call, stays only for the call shape of the benchmark
    harness, which unpacks four values and passes it on as `variants`.
    """
    lexicon = lexicon_mod.load(list(lexicon_paths) or [lexicon_mod.seed_lexicon_path()])
    rule_paths = list(rule_paths) or [rule_pack_path()]
    texts = [lexicon_mod.read_resource(p) for p in rule_paths]
    try:
        grammar = engine.compile("\n".join(texts), lexicon)
    except engine.GrammarError as exc:
        line, path = exc.line, None  # a line of the joined source -> its file and own line
        for path, text in zip(rule_paths, texts):
            if line is None or line <= (n := text.count("\n") + 1):
                break
            line -= n
        raise engine.GrammarError(exc.message, line, exc.col, path) from None
    return semmap.PARENT, lexicon, grammar, {}


def load_default_resources():
    """(semantic map, seed lexicon, compiled rule pack, {}): see `load_resources`."""
    return load_resources()
