"""Semantic map of the spatiality domain: a rooted tree of concept classes.

Category ids are stable dot-separated path strings ("TOPOLOGICAL.SUPPORT")
used verbatim in lexicon files, rule files and annotation files. There is
one map, and it is module data: `PARENT`, a read-only mapping from each path
to its parent path (None at `ROOT`). `path in PARENT` resolves a path and
`PARENT[path]` reads its parent; the functions below read `PARENT` themselves.
"""

from __future__ import annotations

import types

ROOT = "SPATIAL"

# (path, parent path). The three top-level categories partition the domain.
_TREE: tuple[tuple[str, str | None], ...] = (
    (ROOT, None),
    ("TOPOLOGICAL", ROOT),
    ("TOPOLOGICAL.INCLUSION", "TOPOLOGICAL"),
    ("TOPOLOGICAL.INCLUSION.CONTAINMENT", "TOPOLOGICAL.INCLUSION"),
    ("TOPOLOGICAL.INCLUSION.DISTRIBUTION", "TOPOLOGICAL.INCLUSION"),
    ("TOPOLOGICAL.SUPPORT", "TOPOLOGICAL"),
    ("TOPOLOGICAL.PERIPHERY", "TOPOLOGICAL"),
    ("PROJECTIVE", ROOT),
    ("PROJECTIVE.DISTANCE", "PROJECTIVE"),
    ("PROJECTIVE.DISTANCE.PROXIMITY", "PROJECTIVE.DISTANCE"),
    ("PROJECTIVE.DISTANCE.REMOTENESS", "PROJECTIVE.DISTANCE"),
    ("PROJECTIVE.ORIENTATIONAL", "PROJECTIVE"),
    ("PROJECTIVE.ORIENTATIONAL.VERTICAL", "PROJECTIVE.ORIENTATIONAL"),
    ("PROJECTIVE.ORIENTATIONAL.LATERAL", "PROJECTIVE.ORIENTATIONAL"),
    ("PROJECTIVE.ORIENTATIONAL.FRONTAL", "PROJECTIVE.ORIENTATIONAL"),
    ("DIRECTIONAL", ROOT),
    ("DIRECTIONAL.GOAL", "DIRECTIONAL"),
    ("DIRECTIONAL.SOURCE", "DIRECTIONAL"),
    ("DIRECTIONAL.PATH", "DIRECTIONAL"),
    ("DIRECTIONAL.CARDINAL", "DIRECTIONAL"),
    ("DIRECTIONAL.GAZE", "DIRECTIONAL"),
)

TOP_LEVEL = ("TOPOLOGICAL", "PROJECTIVE", "DIRECTIONAL")

# path -> parent path, None at the root: the whole map, read-only so it may be shared
PARENT = types.MappingProxyType(dict(_TREE))


def resolve(path: str) -> str | None:
    """Exact path match: the path itself, or None when it is not in the map."""
    return path if path in PARENT else None


def subsumes(ancestor: str, descendant: str) -> bool:
    """True iff `ancestor` lies on `descendant`'s parent chain (reflexive)."""
    for path in (ancestor, descendant):
        if path not in PARENT:
            raise ValueError(f"unknown category path: {path}")
    cur: str | None = descendant
    while cur is not None:
        if cur == ancestor:
            return True
        cur = PARENT[cur]
    return False


def top_level(path: str) -> str:
    """Project a category onto its top-level ancestor (TOPOLOGICAL/PROJECTIVE/DIRECTIONAL)."""
    if path not in PARENT:
        raise ValueError(f"unknown category path: {path}")
    while (parent := PARENT[path]) is not None and parent != ROOT:
        path = parent
    if path == ROOT:
        raise ValueError("the root has no top-level category")
    return path


# path of the one map -> the path and all its descendants: what a rule's SENSE test of the path accepts
BELOW = types.MappingProxyType({a: frozenset(d for d in PARENT if subsumes(a, d)) for a in PARENT})
