import itertools

import pytest

from makan.semmap import BELOW, ROOT, TOP_LEVEL, default_map, resolve, subsumes, top_level


def test_default_map_has_expected_nodes():
    smap = default_map()
    for path in (
        "TOPOLOGICAL.INCLUSION.CONTAINMENT",
        "PROJECTIVE.DISTANCE.PROXIMITY",
        "DIRECTIONAL.CARDINAL",
        "PROJECTIVE.ORIENTATIONAL.VERTICAL",
        "TOPOLOGICAL.PERIPHERY",
        "DIRECTIONAL.GAZE",
    ):
        assert resolve(smap, path) is not None


def test_default_map_is_one_shared_read_only_map():
    smap = default_map()
    assert default_map() is smap
    with pytest.raises(TypeError):
        smap["TOPOLOGICAL.EXTRA"] = "TOPOLOGICAL"
    assert "TOPOLOGICAL.EXTRA" not in smap and len(smap) == 21
    # what a SENSE test of each path accepts: the path and every path below it
    assert BELOW == {a: frozenset(d for d in smap if subsumes(smap, a, d)) for a in smap}
    assert BELOW["SPATIAL"] == set(smap) and BELOW["DIRECTIONAL.GAZE"] == {"DIRECTIONAL.GAZE"}


def test_root_and_top_level_children():
    smap = default_map()
    assert resolve(smap, ROOT) == ROOT and smap[ROOT] is None
    children = {path for path, parent in smap.items() if parent == ROOT}
    assert children == set(TOP_LEVEL)


def test_resolve_exact_match_only():
    smap = default_map()
    assert resolve(smap, "SPATIAL") == ROOT
    assert resolve(smap, "PROJECTIVE.ORIENTATIONAL.VERTICAL") == "PROJECTIVE.ORIENTATIONAL.VERTICAL"
    assert resolve(smap, "TEMPORAL") is None
    assert resolve(smap, "projective") is None


def test_subsumes_examples():
    smap = default_map()
    assert subsumes(smap, "TOPOLOGICAL", "TOPOLOGICAL.SUPPORT")
    assert not subsumes(smap, "DIRECTIONAL", "PROJECTIVE.DISTANCE.PROXIMITY")
    for path in smap:
        assert subsumes(smap, path, path)


def test_subsumes_rejects_unknown_paths():
    smap = default_map()
    with pytest.raises(ValueError):
        subsumes(smap, "TOPOLOGICAL.BOGUS", "TOPOLOGICAL")
    with pytest.raises(ValueError):
        subsumes(smap, "TOPOLOGICAL", "BOGUS")


def test_top_level_rejects_unknown_paths():
    with pytest.raises(ValueError, match="^unknown category path: BOGUS$"):
        top_level(default_map(), "BOGUS")


def test_tree_shape():
    smap = default_map()
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
    smap = default_map()
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
    smap = default_map()
    for path in smap:
        if path == ROOT:
            with pytest.raises(ValueError):
                top_level(smap, path)
            continue
        tops = [t for t in TOP_LEVEL if subsumes(smap, t, path)]
        assert len(tops) == 1
        assert top_level(smap, path) == tops[0]


def test_path_string_matches_ancestor_chain():
    smap = default_map()
    # each parent is its path's dotted prefix, or the root for a top-level path
    for path, parent in smap.items():
        if path != ROOT:
            assert parent == (path.rpartition(".")[0] or ROOT)
