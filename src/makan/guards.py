"""Guard predicates evaluated on raw matches before annotations are emitted.

Blocking guards veto a match; DUAL_SENSE never vetoes, it attaches the
trigger's alternate senses. All guards are pure. Each guard reads the
columns of a `textnorm.TokenStream`.
"""

from __future__ import annotations

from .lexicon import NOUN_CLASSES, LexClass
from .textnorm import TokenStream

# Negation particles checked in the scope window (كي لا is covered by لا).
NEG_PARTICLES = frozenset({"لا", "لم", "لن", "ما", "ليس"})

NEG_WINDOW = 3


def guard_neg_scope(tokens, match) -> bool:
    """Veto iff a negation particle precedes the governing verb (or the trigger
    when the match has no verb capture) within the scope window."""
    anchor = match.captures.get("verb") or match.captures["trigger"]
    lo = max(0, anchor[0] - NEG_WINDOW)
    return not NEG_PARTICLES.isdisjoint(tokens.stems[lo : anchor[0]])


def guard_abstract_site(tokens, match) -> bool:
    """Veto iff the site head is of class NOUN_ABSTRACT_SITE (وسط بحر من أشجان ...); only concrete places count."""
    site = match.evidence.get("site")
    return site is not None and site.entry.cls is LexClass.NOUN_ABSTRACT_SITE


def guard_temporal_site(tokens, match) -> bool:
    """Veto iff the site head is a temporal noun (بين ساعة الغروب ...)."""
    site = match.evidence.get("site")
    return site is not None and site.entry.cls is LexClass.NOUN_TEMPORAL


def guard_possessive_required(tokens, match) -> bool:
    """Veto a bare lateral/vertical trigger that has neither a pronoun suffix
    nor a following noun complement (يمين alone says nothing spatial)."""
    trig = match.evidence.get("trigger")
    if trig is not None and trig.suffixed:
        return False
    if "site" in match.captures:
        return False
    return not any(m.entry.cls in NOUN_CLASSES for m in match.following)


def guard_plural_site(tokens, match) -> bool:
    """Veto a distribution match whose site is not plural or dual (its entry flagged PLURAL), possessive or
    coordinated (بين requires a plural-like complement)."""
    span = match.captures.get("site")
    if span is None:
        return True
    site = match.evidence.get("site")
    if site is not None and (site.suffixed or "PLURAL" in site.entry.flags):
        return False
    return not any(cut.kind == "coordination" for word in tokens.words[span[1] : span[1] + 2] for cut in word.cuts)


def guard_dual_sense(tokens, match) -> list[str]:
    """Never vetoes; returns alternate categories for dual-sense triggers."""
    trig = match.evidence.get("trigger")
    if trig is None or "AMBIGUOUS_DUAL" not in trig.entry.flags:
        return []
    return sorted(trig.entry.senses - {match.output})


BLOCKING_GUARDS = {
    "NEG_SCOPE": guard_neg_scope,
    "ABSTRACT_SITE": guard_abstract_site,
    "TEMPORAL_SITE": guard_temporal_site,
    "POSSESSIVE_REQUIRED": guard_possessive_required,
    "PLURAL_SITE": guard_plural_site,
}

# `engine.compile` rejects a rule naming any other guard.
KNOWN_GUARDS = frozenset(BLOCKING_GUARDS) | {"DUAL_SENSE"}


def run_guards(tokens: TokenStream, match) -> tuple[bool, list[str]]:
    """Evaluate `match.guards` over the token stream it was found in; returns (vetoed, alternate categories)."""
    if type(tokens) is not TokenStream:
        raise TypeError(f"run_guards takes a TokenStream, not {type(tokens).__name__}: see textnorm.token_stream")
    alternates: list[str] = []
    for name in match.guards:
        if name == "DUAL_SENSE":
            alternates = guard_dual_sense(tokens, match)
        elif BLOCKING_GUARDS[name](tokens, match):
            return True, []
    return False, alternates
