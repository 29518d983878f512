import itertools

import pytest

from makan.rulepack import load_default_resources
from makan.semmap import BELOW, PARENT, ROOT, TOP_LEVEL, resolve, subsumes, top_level


def test_map_has_expected_nodes():
    for path in (
        "TOPOLOGICAL.INCLUSION.CONTAINMENT",
        "PROJECTIVE.DISTANCE.PROXIMITY",
        "DIRECTIONAL.CARDINAL",
        "PROJECTIVE.ORIENTATIONAL.VERTICAL",
        "TOPOLOGICAL.PERIPHERY",
        "DIRECTIONAL.GAZE",
    ):
        assert resolve(path) is not None


def test_map_is_one_shared_read_only_mapping():
    assert load_default_resources()[0] is PARENT
    with pytest.raises(TypeError):
        PARENT["TOPOLOGICAL.EXTRA"] = "TOPOLOGICAL"
    assert "TOPOLOGICAL.EXTRA" not in PARENT and len(PARENT) == 21
    # what a SENSE test of each path accepts: the path and every path below it
    assert BELOW == {a: frozenset(d for d in PARENT if subsumes(a, d)) for a in PARENT}
    assert BELOW["SPATIAL"] == set(PARENT) and BELOW["DIRECTIONAL.GAZE"] == {"DIRECTIONAL.GAZE"}


def test_root_and_top_level_children():
    assert resolve(ROOT) == ROOT and PARENT[ROOT] is None
    children = {path for path, parent in PARENT.items() if parent == ROOT}
    assert children == set(TOP_LEVEL)


def test_resolve_exact_match_only():
    assert resolve("SPATIAL") == ROOT
    assert resolve("PROJECTIVE.ORIENTATIONAL.VERTICAL") == "PROJECTIVE.ORIENTATIONAL.VERTICAL"
    assert resolve("TEMPORAL") is None
    assert resolve("projective") is None


def test_subsumes_examples():
    assert subsumes("TOPOLOGICAL", "TOPOLOGICAL.SUPPORT")
    assert not subsumes("DIRECTIONAL", "PROJECTIVE.DISTANCE.PROXIMITY")
    for path in PARENT:
        assert subsumes(path, path)


def test_subsumes_rejects_unknown_paths():
    with pytest.raises(ValueError):
        subsumes("TOPOLOGICAL.BOGUS", "TOPOLOGICAL")
    with pytest.raises(ValueError):
        subsumes("TOPOLOGICAL", "BOGUS")


def test_top_level_rejects_unknown_paths():
    with pytest.raises(ValueError, match="^unknown category path: BOGUS$"):
        top_level("BOGUS")


def test_tree_shape():
    # every non-root node has exactly one parent that resolves; no cycles
    for path, parent in PARENT.items():
        if path == ROOT:
            continue
        assert parent in PARENT
        seen = set()
        cur = path
        while cur is not None:
            assert cur not in seen
            seen.add(cur)
            cur = PARENT[cur]
        assert ROOT in seen


def test_partial_order_exhaustive():
    nodes = sorted(PARENT)
    for a, b in itertools.product(nodes, nodes):
        ab = subsumes(a, b)
        ba = subsumes(b, a)
        if ab and ba:
            assert a == b  # antisymmetry
    for a, b, c in itertools.product(nodes, repeat=3):
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)  # transitivity


def test_every_node_projects_to_exactly_one_top_level():
    for path in PARENT:
        if path == ROOT:
            with pytest.raises(ValueError):
                top_level(path)
            continue
        tops = [t for t in TOP_LEVEL if subsumes(t, path)]
        assert len(tops) == 1
        assert top_level(path) == tops[0]


def test_path_string_matches_ancestor_chain():
    # each parent is its path's dotted prefix, or the root for a top-level path
    for path, parent in PARENT.items():
        if path != ROOT:
            assert parent == (path.rpartition(".")[0] or ROOT)
