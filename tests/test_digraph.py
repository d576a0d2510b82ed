import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import reachable_set, scc_mutual_reachability
from conftest import bio_clique, digon, digraph, directed_cycle_graph, labeled_digraphs
from dichromate import (IN, OUT, DirectedPath, LabeledDigraph,
                        PreconditionViolation, bfs_tree, disjoint_unbalanced_cycles,
                        gen_random, is_strongly_connected, leveling, mu_exact,
                        strong_components, tree_path)


def test_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 1)], z1=[(1, 0)])


def test_digon_is_allowed():
    D = digon()
    assert D.arc_count == 2
    assert D.has_arc(0, 1) and D.has_arc(1, 0)


def test_weight_combines_flags():
    D = digraph(3, [(0, 1), (1, 2), (2, 0)], z1=[(0, 1), (1, 2)], z2=[(1, 2), (2, 0)])
    assert D.weight((0, 1)) == 1
    assert D.weight((1, 2)) == 0
    assert D.weight((2, 0)) == -1
    assert D.label_counts([(0, 1), (1, 2), (2, 0)]) == (2, 2)


def test_induced_single_vertex_of_digon():
    assert digon().induced({0}) == digraph(1, []).induced({0})
    sub = digon().induced({0})
    assert sub.vertices == (0,) and sub.arc_count == 0


def test_induced_clique_restriction():
    sub = bio_clique(3).induced({0, 1})
    assert sub.arcs == ((0, 1), (1, 0))
    assert sub.z1 == {(0, 1), (1, 0)}


def test_induced_identity():
    D = directed_cycle_graph(3, z1_indices=[0])
    assert D.induced({0, 1, 2}) == D


def test_induced_unknown_vertex():
    with pytest.raises(ValueError):
        digon().induced({0, 7})


def test_induced_composes():
    D = gen_random(8, 0.4, 0.5, 0.3, seed=3).digraph
    big = D.induced({0, 1, 2, 3, 4, 5})
    assert big.induced({1, 2, 4}) == D.induced({1, 2, 4})


def test_strong_components_triangle():
    assert strong_components(directed_cycle_graph(3)) == [frozenset({0, 1, 2})]


def test_strong_components_path():
    D = digraph(3, [(0, 1), (1, 2)])
    assert strong_components(D) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_strong_components_two_digons_with_bridge():
    D = digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
    expected = scc_mutual_reachability(D)
    assert strong_components(D) == expected == [frozenset({0, 1}), frozenset({2, 3})]


def test_strong_components_match_mutual_reachability_on_random():
    for seed in range(25):
        D = gen_random(7, 0.25, 0.5, 0.3, seed=seed).digraph
        assert strong_components(D) == scc_mutual_reachability(D)


def test_strong_components_relabeling_invariance():
    D = gen_random(7, 0.35, 0.5, 0.3, seed=11).digraph
    relabel = {v: 6 - v for v in D.vertices}
    E = LabeledDigraph(
        [relabel[v] for v in D.vertices],
        [(relabel[u], relabel[v]) for u, v in D.arcs],
        [(relabel[u], relabel[v]) for u, v in D.z1],
        [(relabel[u], relabel[v]) for u, v in D.z2],
    )
    mapped = sorted((frozenset(relabel[v] for v in comp) for comp in strong_components(D)), key=min)
    assert strong_components(E) == mapped


def test_leveling_bioriented_k4():
    lev = leveling(bio_clique(4), 0, OUT)
    assert lev.levels == (frozenset({0}), frozenset({1, 2, 3}))


def test_leveling_directed_c4_out():
    lev = leveling(directed_cycle_graph(4), 0, OUT)
    assert lev.levels == (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))


def test_leveling_directed_c4_in():
    # distances to 0 in 0->1->2->3->0: vertex 3 is one step away, 1 three
    lev = leveling(directed_cycle_graph(4), 0, IN)
    assert lev.levels == (frozenset({0}), frozenset({3}), frozenset({2}), frozenset({1}))


def test_leveling_requires_strong_connectivity():
    with pytest.raises(PreconditionViolation):
        leveling(digraph(3, [(0, 1), (1, 2)]), 0, OUT)
    with pytest.raises(ValueError):
        leveling(directed_cycle_graph(3), 9, OUT)
    with pytest.raises(ValueError):
        leveling(directed_cycle_graph(3), 0, "sideways")


def test_leveling_adjacency_invariant():
    for seed in range(20):
        D = gen_random(8, 0.35, 0.5, 0.3, seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        for direction in (OUT, IN):
            lev = leveling(D, min(D.vertices), direction)
            level_of = lev.level_of()
            for i, level in enumerate(lev.levels):
                if i == 0:
                    continue
                for v in level:
                    back = D.in_neighbors(v) if direction == OUT else D.out_neighbors(v)
                    levels_behind = {level_of[u] for u in back}
                    assert i - 1 in levels_behind
                    assert not any(j <= i - 2 for j in levels_behind)


def test_bfs_tree_directed_c3():
    T = bfs_tree(directed_cycle_graph(3), 0, OUT)
    assert T.parent == {1: (0, (0, 1)), 2: (1, (1, 2))}


def test_bfs_tree_star_parents():
    T = bfs_tree(bio_clique(3), 0, OUT)
    assert T.parent[1][0] == 0 and T.parent[2][0] == 0


def test_bfs_tree_prefers_distance_over_order():
    D = digraph(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
    T = bfs_tree(D, 0, OUT)
    assert T.parent[2] == (0, (0, 2))


def test_bfs_tree_in_direction_arcs_point_to_root():
    T = bfs_tree(directed_cycle_graph(4), 0, IN)
    assert T.parent[3] == (0, (3, 0))
    assert T.parent[2] == (3, (2, 3))


def test_bfs_tree_keeps_its_leveling():
    D = gen_random(12, 0.4, 0.5, 0.5, seed=4).digraph
    assert is_strongly_connected(D)
    for direction in (OUT, IN):
        T = bfs_tree(D, 3, direction)
        assert T.leveling == leveling(D, 3, direction)
        assert (T.root, T.direction) == (3, direction)
        level_of = T.leveling.level_of()
        for v, (p, _) in T.parent.items():
            assert level_of[p] == level_of[v] - 1


def test_tree_path_root_is_trivial():
    T = bfs_tree(directed_cycle_graph(4), 0, OUT)
    assert tree_path(T, 0) == DirectedPath((0,))


def test_tree_path_on_cycle():
    T = bfs_tree(directed_cycle_graph(4), 0, OUT)
    assert tree_path(T, 2).vertices == (0, 1, 2)


def test_tree_path_unknown_vertex():
    T = bfs_tree(directed_cycle_graph(4), 0, OUT)
    with pytest.raises(ValueError):
        tree_path(T, 17)


def _bfs_distances(D, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in D.out_neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_tree_path_lengths_equal_digraph_distances():
    found = 0
    for seed in range(40):
        D = gen_random(8, 0.3, 0.5, 0.3, seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        found += 1
        root = min(D.vertices)
        T = bfs_tree(D, root, OUT)
        dist = _bfs_distances(D, root)
        for v in D.vertices:
            p = tree_path(T, v)
            assert p.length == dist[v]
            assert p.valid_in(D)
    assert found >= 5


def test_directed_path_validation():
    with pytest.raises(ValueError):
        DirectedPath(())
    with pytest.raises(ValueError):
        DirectedPath((0, 1, 0))
    p = DirectedPath((3, 1, 2))
    assert p.length == 2 and p.first == 3 and p.last == 2 and p.interior == (1,)


def test_reachability_helper_consistency():
    D = digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert reachable_set(D, 0) == {0, 1, 2, 3}
    assert reachable_set(D, 3) == {3}


@settings(max_examples=300, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_vertex_set_forms_match_induced_copies(D, data):
    """Strong components, leveling and BFS-tree parents read from D on a
    host vertex set equal the results on the induced copy."""
    if D.n == 0:
        return
    subset = frozenset(data.draw(st.sets(st.sampled_from(D.vertices), min_size=1)))
    comps = strong_components(D.induced(subset))
    assert strong_components(D, host=subset) == comps
    start = data.draw(st.sampled_from(sorted(subset)))
    direction = data.draw(st.sampled_from((IN, OUT)))
    if len(comps) > 1:
        with pytest.raises(PreconditionViolation):
            leveling(D, start, direction, host=subset)
    S = data.draw(st.sampled_from(comps))
    start = data.draw(st.sampled_from(sorted(S)))
    sub = D.induced(S)
    assert leveling(D, start, direction, host=S) == leveling(sub, start, direction)
    tree = bfs_tree(D, start, direction, host=S)
    assert tree.parent == bfs_tree(sub, start, direction).parent


@settings(max_examples=200, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_mu_and_packing_on_a_host_match_induced_copies(D, data):
    """mu_exact and the disjoint cycle packing on a host vertex set equal
    their results on the induced copy: value, blocks, search trace, cycles."""
    if D.n == 0:
        return
    S = frozenset(data.draw(st.sets(st.sampled_from(D.vertices), min_size=1)))
    sub = D.induced(S)
    on_host, on_copy = mu_exact(D, host=S), mu_exact(sub)
    assert on_host.value == on_copy.value
    assert on_host.certificate.blocks == on_copy.certificate.blocks
    assert on_host.lower_bound_trace == on_copy.lower_bound_trace
    t = data.draw(st.integers(1, 4))
    assert disjoint_unbalanced_cycles(D, t, host=S) == disjoint_unbalanced_cycles(sub, t)


def test_host_with_unknown_vertices_is_rejected():
    D = directed_cycle_graph(3)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[7, 999\]"):
        strong_components(D, host={0, 1, 999, 7})
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[999\]"):
        leveling(D, 0, OUT, host={0, 1, 2, 999})
    assert strong_components(D, host={0, 1}) == [frozenset({0}), frozenset({1})]
