import itertools

import pytest

from makan.rulepack import load_default_resources
from makan.semmap import BELOW, PARENT, ROOT, TOP_LEVEL, resolve, subsumes, top_level


def test_map_has_expected_nodes():
    smap = PARENT
    for path in (
        "TOPOLOGICAL.INCLUSION.CONTAINMENT",
        "PROJECTIVE.DISTANCE.PROXIMITY",
        "DIRECTIONAL.CARDINAL",
        "PROJECTIVE.ORIENTATIONAL.VERTICAL",
        "TOPOLOGICAL.PERIPHERY",
        "DIRECTIONAL.GAZE",
    ):
        assert resolve(smap, path) is not None


def test_map_is_one_shared_read_only_mapping():
    smap = PARENT
    assert load_default_resources()[0] is smap
    with pytest.raises(TypeError):
        smap["TOPOLOGICAL.EXTRA"] = "TOPOLOGICAL"
    assert "TOPOLOGICAL.EXTRA" not in smap and len(smap) == 21
    # what a SENSE test of each path accepts: the path and every path below it
    assert BELOW == {a: frozenset(d for d in smap if subsumes(smap, a, d)) for a in smap}
    assert BELOW["SPATIAL"] == set(smap) and BELOW["DIRECTIONAL.GAZE"] == {"DIRECTIONAL.GAZE"}


def test_root_and_top_level_children():
    smap = PARENT
    assert resolve(smap, ROOT) == ROOT and smap[ROOT] is None
    children = {path for path, parent in smap.items() if parent == ROOT}
    assert children == set(TOP_LEVEL)


def test_resolve_exact_match_only():
    smap = PARENT
    assert resolve(smap, "SPATIAL") == ROOT
    assert resolve(smap, "PROJECTIVE.ORIENTATIONAL.VERTICAL") == "PROJECTIVE.ORIENTATIONAL.VERTICAL"
    assert resolve(smap, "TEMPORAL") is None
    assert resolve(smap, "projective") is None


def test_subsumes_examples():
    smap = PARENT
    assert subsumes(smap, "TOPOLOGICAL", "TOPOLOGICAL.SUPPORT")
    assert not subsumes(smap, "DIRECTIONAL", "PROJECTIVE.DISTANCE.PROXIMITY")
    for path in smap:
        assert subsumes(smap, path, path)


def test_subsumes_rejects_unknown_paths():
    smap = PARENT
    with pytest.raises(ValueError):
        subsumes(smap, "TOPOLOGICAL.BOGUS", "TOPOLOGICAL")
    with pytest.raises(ValueError):
        subsumes(smap, "TOPOLOGICAL", "BOGUS")


def test_top_level_rejects_unknown_paths():
    with pytest.raises(ValueError, match="^unknown category path: BOGUS$"):
        top_level(PARENT, "BOGUS")


def test_tree_shape():
    smap = PARENT
    # every non-root node has exactly one parent that resolves; no cycles
    for path, parent in smap.items():
        if path == ROOT:
            continue
        assert parent in smap
        seen = set()
        cur = path
        while cur is not None:
            assert cur not in seen
            seen.add(cur)
            cur = smap[cur]
        assert ROOT in seen


def test_partial_order_exhaustive():
    smap = PARENT
    nodes = sorted(smap)
    for a, b in itertools.product(nodes, nodes):
        ab = subsumes(smap, a, b)
        ba = subsumes(smap, b, a)
        if ab and ba:
            assert a == b  # antisymmetry
    for a, b, c in itertools.product(nodes, repeat=3):
        if subsumes(smap, a, b) and subsumes(smap, b, c):
            assert subsumes(smap, a, c)  # transitivity


def test_every_node_projects_to_exactly_one_top_level():
    smap = PARENT
    for path in smap:
        if path == ROOT:
            with pytest.raises(ValueError):
                top_level(smap, path)
            continue
        tops = [t for t in TOP_LEVEL if subsumes(smap, t, path)]
        assert len(tops) == 1
        assert top_level(smap, path) == tops[0]


def test_path_string_matches_ancestor_chain():
    smap = PARENT
    # each parent is its path's dotted prefix, or the root for a top-level path
    for path, parent in smap.items():
        if path != ROOT:
            assert parent == (path.rpartition(".")[0] or ROOT)
