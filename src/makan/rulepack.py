"""Shipped resources: the rule pack's source and the one loader of every resource."""

from __future__ import annotations

from importlib import resources

from . import engine, lexicon as lexicon_mod, semmap


def rule_pack_path():
    return resources.files("makan").joinpath("resources/spatial.rules")


def variants_path():
    return resources.files("makan").joinpath("resources/variants.tsv")


def rule_pack() -> str:
    """The shipped rule DSL source."""
    return lexicon_mod.read_resource(rule_pack_path())


def load_resources(lexicon_paths=(), rule_paths=(), variants_file=None):
    """(semantic map, lexicon, compiled rules, variant table), each validated as it is built.

    Empty arguments take the shipped files; several lexicon or rule files make
    one lexicon or one rule source. Every resource fault is a LexiconError or
    a GrammarError.
    """
    lexicon = lexicon_mod.load(list(lexicon_paths) or [lexicon_mod.seed_lexicon_path()])
    rule_paths = list(rule_paths) or [rule_pack_path()]
    texts = [lexicon_mod.read_resource(p) for p in rule_paths]
    try:
        grammar = engine.compile("\n".join(texts), lexicon)
    except engine.GrammarError as exc:
        line, path = exc.line, None  # a line of the joined source -> its file and own line
        for path, text in zip(rule_paths, texts):
            if line is None or line <= (n := len((text + "\n").splitlines())):
                break
            line -= n
        raise engine.GrammarError(exc.message, line, exc.col, path) from None
    table = lexicon_mod.load_variant_table(variants_path() if variants_file is None else variants_file)
    return semmap.PARENT, lexicon, grammar, table


def load_default_resources():
    """(semantic map, seed lexicon, compiled rule pack, variant table)."""
    return load_resources()
