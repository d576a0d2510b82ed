import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import disjoint_cycles_reference, is_balanced_brute, unbalanced_cycle_lengths
from conftest import (bio_clique, digon, digraph, directed_cycle_graph,
                      labeled_digraphs, sparse_or_dense_digraphs)
from dichromate import (DirectedCycle, disjoint_unbalanced_cycles, gen_random,
                        has_unbalanced_cycle, mu_exact, shortest_unbalanced_cycle,
                        strong_components, verify_partition)
from dichromate import balance as balance_module
from dichromate.balance import unbalanced_through
from dichromate.digraph import WeightedMasks


def test_cycle_construction_validates():
    D = digon()
    with pytest.raises(ValueError):
        DirectedCycle.from_vertices(D, (0,))
    with pytest.raises(ValueError):
        DirectedCycle.from_vertices(digraph(3, [(0, 1), (1, 2)]), (0, 1, 2))
    cyc = DirectedCycle.from_vertices(D, (1, 0))
    assert cyc.vertices == (0, 1)  # canonical rotation


def test_is_unbalanced_digon_one_label():
    cyc = DirectedCycle.from_vertices(digon(z1=[(0, 1)]), (0, 1))
    assert cyc.weight != 0


def test_is_unbalanced_digon_symmetric_labels():
    cyc = DirectedCycle.from_vertices(digon(z1=[(0, 1)], z2=[(1, 0)]), (0, 1))
    assert cyc.weight == 0


def test_is_unbalanced_triangle_two_to_one():
    D = digraph(3, [(0, 1), (1, 2), (2, 0)], z1=[(0, 1), (1, 2)], z2=[(2, 0)])
    cyc = DirectedCycle.from_vertices(D, (0, 1, 2))
    assert cyc.weight == 1


def test_has_unbalanced_cycle_acyclic():
    assert not has_unbalanced_cycle(digraph(3, [(0, 1), (0, 2), (1, 2)], z1=[(0, 1)]))


def test_has_unbalanced_cycle_heavy_digon():
    assert has_unbalanced_cycle(digon(z1=[(0, 1), (1, 0)]))


def test_has_unbalanced_cycle_alternating_c6():
    D = directed_cycle_graph(6, z1_indices=[0, 2, 4], z2_indices=[1, 3, 5])
    assert is_balanced_brute(D)
    assert not has_unbalanced_cycle(D)


def test_shortest_cycle_none_when_balanced():
    D = directed_cycle_graph(4, z1_indices=[0], z2_indices=[2])
    assert shortest_unbalanced_cycle(D) is None


def test_shortest_cycle_on_clique_is_digon():
    cyc = shortest_unbalanced_cycle(bio_clique(3))
    assert cyc is not None and cyc.length == 2
    assert min(unbalanced_cycle_lengths(bio_clique(3))) == 2


def test_shortest_cycle_unique_cycle():
    D = directed_cycle_graph(5, z1_indices=[0])
    cyc = shortest_unbalanced_cycle(D)
    assert cyc is not None and cyc.vertices == (0, 1, 2, 3, 4)


def test_balance_decision_agrees_with_enumeration():
    for seed in range(60):
        D = gen_random(7, 0.3, 0.4, 0.3, seed=seed).digraph
        assert has_unbalanced_cycle(D) == (not is_balanced_brute(D))


def test_shortest_length_matches_enumeration():
    checked = 0
    for seed in range(80):
        D = gen_random(7, 0.3, 0.4, 0.3, seed=seed).digraph
        cyc = shortest_unbalanced_cycle(D)
        lengths = unbalanced_cycle_lengths(D)
        if cyc is None:
            assert not lengths
            continue
        checked += 1
        assert cyc.length == min(lengths)
        assert cyc.weight != 0
        arcs = list(cyc.arcs())
        assert all(D.has_arc(u, v) for u, v in arcs)
        assert D.label_counts(arcs) == (cyc.z1_count, cyc.z2_count)
    assert checked >= 20


def test_shortest_cycle_split_property():
    """Deleting any one vertex from a shortest unbalanced cycle leaves the
    cycle's remaining induced subdigraph balanced."""
    checked = 0
    for seed in range(60):
        D = gen_random(8, 0.3, 0.4, 0.3, seed=seed).digraph
        cyc = shortest_unbalanced_cycle(D)
        if cyc is None:
            continue
        checked += 1
        for v in cyc.vertices:
            rest = set(cyc.vertices) - {v}
            if rest:
                assert not has_unbalanced_cycle(D.induced(rest))
    assert checked >= 20


def test_disjoint_cycles_on_clique():
    packing = disjoint_unbalanced_cycles(bio_clique(4), 2)
    assert packing.complete and packing.shortfall == 0
    seen = set()
    for cyc in packing.cycles:
        assert cyc.weight != 0
        assert not (set(cyc.vertices) & seen)
        seen |= set(cyc.vertices)


def test_disjoint_cycles_shortfall_small_graph():
    D = digraph(3, [(0, 1), (1, 2), (2, 0)], z1=[(0, 1)])
    packing = disjoint_unbalanced_cycles(D, 2)
    assert len(packing.cycles) == 1 and packing.shortfall == 1


def test_disjoint_cycles_balanced_graph():
    D = directed_cycle_graph(4, z1_indices=[0], z2_indices=[1])
    packing = disjoint_unbalanced_cycles(D, 1)
    assert not packing.cycles and packing.shortfall == 1


def test_disjoint_cycles_rejects_bad_count():
    with pytest.raises(ValueError):
        disjoint_unbalanced_cycles(bio_clique(3), 0)


def test_disjoint_cycles_properties_on_random():
    for seed in range(25):
        D = gen_random(8, 0.35, 0.5, 0.2, seed=seed).digraph
        packing = disjoint_unbalanced_cycles(D, 3)
        seen = set()
        for cyc in packing.cycles:
            assert cyc.weight != 0
            assert not (set(cyc.vertices) & seen)
            seen |= set(cyc.vertices)
        if not packing.complete:
            assert not has_unbalanced_cycle(D.induced(set(D.vertices) - seen))


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_packing_matches_the_whole_search_per_round(D, data):
    """Keeping components between rounds takes the same cycles, ties
    included, as searching the whole remaining set each round, on dense
    and sparse digraphs, on all of D and on a host."""
    host = data.draw(st.none() | st.sets(st.sampled_from(D.vertices)) if D.n else st.none())
    t = data.draw(st.integers(1, 9))
    assert disjoint_unbalanced_cycles(D, t, host=host) == disjoint_cycles_reference(D, t, host)
    shortest = disjoint_cycles_reference(D, 1).cycles
    assert shortest_unbalanced_cycle(D) == (shortest[0] if shortest else None)


def test_packing_splits_only_the_component_it_cut(monkeypatch):
    """On 40 disjoint z1 triangles the strong components of all 120
    vertices are taken once; after that a round splits only what is left
    of the triangle it took, which is nothing, where a whole search per
    round would split the 117, 114, ... vertices left."""
    arcs = [a for i in range(40) for a in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2),
                                           (3 * i + 2, 3 * i))]
    D = digraph(120, arcs, z1=arcs)
    hosts = []
    split = balance_module.strong_components

    def recording(D, host=None):
        hosts.append(len(set(host)))
        return split(D, host=host)

    monkeypatch.setattr(balance_module, "strong_components", recording)
    packing = disjoint_unbalanced_cycles(D, 40)
    assert [c.vertices for c in packing.cycles] == [(3 * i, 3 * i + 1, 3 * i + 2)
                                                    for i in range(40)]
    assert hosts == [120] + [0] * 39


def test_sparse_balance_tests_build_masks_per_component(monkeypatch):
    """On a sparse D each strong component of two or more vertices gets
    masks of its own: a 3,000-vertex z1 path and two disjoint 3-cycles,
    one of nonzero weight, need no masks over more than 3 vertices."""
    n = 3000
    path = [(i, i + 1) for i in range(n - 1)]
    heavy = [(n, n + 1), (n + 1, n + 2), (n + 2, n)]
    zero = [(n + 3, n + 4), (n + 4, n + 5), (n + 5, n + 3)]
    D = digraph(n + 6, path + heavy + zero, z1=path + heavy[:1] + zero[:1], z2=zero[1:2])
    sizes = []
    init = WeightedMasks.__init__

    def recording(self, D, vertices):
        vertices = set(vertices)
        sizes.append(len(vertices))
        init(self, D, vertices)

    monkeypatch.setattr(WeightedMasks, "__init__", recording)
    answers = (has_unbalanced_cycle(D), shortest_unbalanced_cycle(D).vertices,
               len(disjoint_unbalanced_cycles(D, 2).cycles),
               verify_partition(D, mu_exact(D).certificate))
    assert answers == (True, (n, n + 1, n + 2), 1, True)
    assert sizes and max(sizes) <= 3


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_incremental_test_agrees_with_full_test(D, data):
    if D.n == 0:
        return
    v = data.draw(st.sampled_from(D.vertices))
    others = data.draw(st.permutations([w for w in D.vertices if w != v]))
    # grow a balanced part around v, adding candidates that keep it balanced
    base: set[int] = set()
    for w in others[:data.draw(st.integers(0, len(others)))]:
        if not has_unbalanced_cycle(D.induced(base | {w})):
            base.add(w)
    part = base | {v}
    adj = WeightedMasks(D, D.vertices)
    assert bool(unbalanced_through(adj, adj.mask(part), adj.rank(v))) == \
        has_unbalanced_cycle(D.induced(part))
    # adjacency restricted to the part gives the same answer
    adj = WeightedMasks(D, part)
    assert bool(unbalanced_through(adj, adj.mask(part), adj.rank(v))) == \
        has_unbalanced_cycle(D.induced(part))


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_incremental_test_checks_the_component_of_v(D, data):
    if D.n == 0:
        return
    part = data.draw(st.sets(st.sampled_from(D.vertices), min_size=1))
    v = data.draw(st.sampled_from(sorted(part)))
    sub = D.induced(part)
    comp = next(c for c in strong_components(sub) if v in c)
    adj = WeightedMasks(D, D.vertices)
    assert bool(unbalanced_through(adj, adj.mask(part), adj.rank(v))) == \
        (not is_balanced_brute(D.induced(comp)))


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_incremental_test_returns_the_unbalanced_component(D, data):
    """On a part that is balanced without v, the kernel returns 0 exactly
    when the part is balanced, and otherwise the mask of v's strong
    component in D[part], whose induced digraph holds an unbalanced cycle;
    the masks of D and of the part alone give the same members."""
    if D.n == 0:
        return
    v = data.draw(st.sampled_from(D.vertices))
    others = data.draw(st.permutations([w for w in D.vertices if w != v]))
    base: set[int] = set()
    for w in others[:data.draw(st.integers(0, len(others)))]:
        if not has_unbalanced_cycle(D.induced(base | {w})):
            base.add(w)
    part = base | {v}
    comp = next(c for c in strong_components(D.induced(part)) if v in c)
    for adj in (WeightedMasks(D, D.vertices), WeightedMasks(D, part)):
        found = unbalanced_through(adj, adj.mask(part), adj.rank(v))
        if not has_unbalanced_cycle(D.induced(part)):
            assert found == 0
        else:
            assert found == adj.mask(comp)
            assert has_unbalanced_cycle(D.induced(adj.members(found)))
