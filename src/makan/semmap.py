"""Semantic map of the spatiality domain: a rooted tree of concept classes.

Category ids are stable dot-separated path strings ("TOPOLOGICAL.SUPPORT")
used verbatim in lexicon files, rule files and annotation files.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CategoryNode:
    id: str
    label: str
    parent: str | None


class SpatialityMap:
    def __init__(self, nodes: dict[str, CategoryNode]):
        self.nodes = types.MappingProxyType(dict(nodes))  # read-only, so the map may be shared

    def __contains__(self, path: str) -> bool:
        return path in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


_MAP = SpatialityMap({path: CategoryNode(path, path.rsplit(".", 1)[-1], parent) for path, parent in _TREE})


def default_map() -> SpatialityMap:
    """The fixed spatiality tree: topological / projective / directional; one shared, read-only map."""
    return _MAP


def resolve(smap: SpatialityMap, path: str) -> CategoryNode | None:
    """Exact path match; None when the path is not in the map."""
    return smap.nodes.get(path)


def subsumes(smap: SpatialityMap, ancestor: str, descendant: str) -> bool:
    """True iff `ancestor` lies on `descendant`'s parent chain (reflexive)."""
    for path in (ancestor, descendant):
        if path not in smap.nodes:
            raise ValueError(f"unknown category path: {path}")
    cur: str | None = descendant
    while cur is not None:
        if cur == ancestor:
            return True
        cur = smap.nodes[cur].parent
    return False


def top_level(smap: SpatialityMap, path: str) -> str:
    """Project a category onto its top-level ancestor (TOPOLOGICAL/PROJECTIVE/DIRECTIONAL)."""
    if path not in smap.nodes:
        raise ValueError(f"unknown category path: {path}")
    cur = smap.nodes[path]
    while cur.parent is not None and cur.parent != ROOT:
        cur = smap.nodes[cur.parent]
    if cur.id == ROOT:
        raise ValueError("the root has no top-level category")
    return cur.id


# path of the one map -> the path and all its descendants: what a rule's SENSE test of the path accepts
BELOW = types.MappingProxyType({a: frozenset(d for d in _MAP.nodes if subsumes(_MAP, a, d)) for a in _MAP.nodes})
