"""Every shipped rule, guard and lexicon flag, and each spelling-variant row, is needed by gold: without it, some gold
document is annotated otherwise.

The gold set is the shipped suite plus `tests/gold/`. There the b documents are بين sentences that show what the
PLURAL_SITE guard is for: a site flagged PLURAL (a sound, broken or dual plural) or followed by a
coordination passes; a singular, also one that ends as a plural or dual would, gives nothing. The v document
holds a spelling variant of لوار that the suite does not. They stay out of the shipped suite, from which the
benchmark builds every workload.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from makan import annotate, read_annotations
from makan.engine import compile
from makan.guards import KNOWN_GUARDS
from makan.lexicon import FLAGS, Lexicon
from makan.rulepack import rule_pack

_SOURCE = rule_pack()
_RULES = re.findall(r"^RULE (\w+)", _SOURCE, flags=re.M)
_TESTS_GOLD = [read_annotations(p) for p in sorted(Path(__file__).with_name("gold").glob("*.json"))]


def _without_rule(name):
    return re.sub(rf"^RULE {name} .*$", "", _SOURCE, flags=re.M)


def _without_guard(name):
    def drop(guard_list):
        kept = [guard for guard in guard_list[1].split(", ") if guard != name]
        return f" GUARD {', '.join(kept)}" if kept else ""

    return re.sub(r" GUARD (.*)$", drop, _SOURCE, flags=re.M)


def _annotations(docs, bundle, grammar):
    """Each document's annotations, less the name of the rule that made them."""
    smap = bundle[0]
    return [
        [a._replace(rule=None) for a in annotate(d.text, grammar.lexicon, grammar, smap).annotations]
        for d in docs
    ]


@pytest.fixture(scope="module")
def gold(suite_gold):
    return [*suite_gold, *_TESTS_GOLD]


@pytest.fixture(scope="module")
def shipped(bundle, gold):
    return _annotations(gold, bundle, bundle[2])


def test_the_shipped_pack_reproduces_the_tests_only_gold(bundle):
    assert _TESTS_GOLD and len(_RULES) == len(bundle[2])
    assert _annotations(_TESTS_GOLD, bundle, bundle[2]) == [list(d.annotations) for d in _TESTS_GOLD]


@pytest.mark.parametrize(
    "source",
    [_without_rule(name) for name in _RULES] + [_without_guard(name) for name in sorted(KNOWN_GUARDS)],
    ids=[f"rule-{name}" for name in _RULES] + [f"guard-{name}" for name in sorted(KNOWN_GUARDS)],
)
def test_removing_a_rule_or_a_guard_changes_some_gold_document(bundle, gold, shipped, source):
    assert source != _SOURCE  # the rule or guard was there to remove
    assert _annotations(gold, bundle, compile(source, bundle[1])) != shipped


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_stripping_a_flag_from_every_entry_changes_some_gold_document(bundle, gold, shipped, flag):
    entries = bundle[1].entries
    assert any(flag in e.flags for e in entries)  # some shipped entry carries it
    lexicon = Lexicon([dataclasses.replace(e, flags=e.flags - {flag}) for e in entries])
    assert _annotations(gold, bundle, compile(_SOURCE, lexicon)) != shipped


@pytest.mark.parametrize("lemma", ["لواريه", "لوارية"])
def test_removing_a_spelling_variant_row_changes_some_gold_document(bundle, gold, shipped, lemma):
    entries = bundle[1].entries
    kept = [e for e in entries if e.lemma != lemma]
    assert len(kept) == len(entries) - 1  # the row was there to remove
    lexicon = Lexicon(kept)
    assert _annotations(gold, bundle, compile(_SOURCE, lexicon)) != shipped
