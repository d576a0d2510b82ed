import contextlib
import random
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dichromate.digraph as digraph_module
from bruteforce import (first_pair_fault, reachable_set, scc_mutual_reachability,
                        weighted_masks_reference)
from conftest import (bio_clique, digon, digraph, directed_cycle_graph, labeled_digraphs,
                      sparse_or_dense_digraphs)
from dichromate import (IN, OUT, BfsTree, BiorientedCliqueOracle, ConstructionFailed, DirectedCycle,
                        DirectedPath, ExactMuOracle, HintMuOracle, Instance, LabeledDigraph,
                        MuOracle, ParseError, PatternArc, PreconditionViolation, SubdivisionPattern,
                        UndirectedLabeledGraph, UndirectedPattern, UndirectedPatternEdge,
                        VertexPartition, bfs_tree, biorient,
                        disjoint_unbalanced_cycles, emit_instance, first_path_to_set,
                        gen_bioriented_clique, gen_planted, gen_random,
                        has_unbalanced_cycle, is_strongly_connected, level_split, mu_exact,
                        mu_greedy_upper, nested_connector_sequence, parse_instance,
                        shortest_unbalanced_cycle, special_set, special_set_threshold,
                        strong_components, tree_path, verify_partition)


def test_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        digraph(2, [(0, 1)], z1=[(1, 0)])


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_neighbour_lists_ascend_whatever_the_arc_order(D, data):
    arcs = data.draw(st.permutations(D.arcs))
    E = LabeledDigraph(D.vertices, arcs, D.z1, D.z2)
    for v in E.vertices:
        assert list(E.in_neighbors(v)) == sorted(D.in_neighbors(v))
        assert list(E.out_neighbors(v)) == sorted(D.out_neighbors(v))


def _same_build(D, E):
    """Equal digraphs, with plain int vertices and arc ends, and the same
    neighbour lists and weights."""
    assert D == E
    assert all(type(x) is int for x in D.vertices)
    assert all(type(x) is int for a in (*D.arcs, *D.z1, *D.z2) for x in a)
    for v in D.vertices:
        assert D.out_neighbors(v) == E.out_neighbors(v)
        assert D.in_neighbors(v) == E.in_neighbors(v)
    assert [D.weight(a) for a in D.arcs] == [E.weight(a) for a in E.arcs]


@pytest.mark.parametrize("build, ints", [
    (lambda: LabeledDigraph(["2", 1], [("1", "2")], z1=[(1.0, 2)]),
     lambda: LabeledDigraph([1, 2], [(1, 2)], z1=[(1, 2)])),
    (lambda: LabeledDigraph([False, True], [(False, True), [True, False]], z2=[(True, False)]),
     lambda: LabeledDigraph([0, 1], [(0, 1), (1, 0)], z2=[(1, 0)])),
    (lambda: LabeledDigraph((v for v in range(3)), ((u, (u + 1) % 3) for u in range(3)),
                            (a for a in [(0, 1)]), iter([(2, 0), (0, 1)])),
     lambda: LabeledDigraph(range(3), [(0, 1), (1, 2), (2, 0)], [(0, 1)], [(2, 0), (0, 1)])),
], ids=["strings-and-floats", "bools-and-lists", "generators"])
def test_the_public_constructor_converts_what_it_is_given(build, ints):
    _same_build(build(), ints())


def test_library_builds_equal_public_builds_of_the_same_arcs():
    """The generators and ``induced`` build on int pairs without a second
    conversion; the public constructor, given the same pairs as tuples of
    their own, builds the same digraph."""
    n = 7
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    _same_build(gen_bioriented_clique(n).digraph, LabeledDigraph(range(n), arcs, z1=arcs))
    for seed in range(5):
        D = gen_random(9, .4, .5, .5, seed=seed).digraph
        _same_build(D, LabeledDigraph(range(9), [list(a) for a in D.arcs],
                                      [list(a) for a in D.z1], [list(a) for a in D.z2]))
        keep = {v for v in D.vertices if (v * seed) % 3 != 1}
        kept = [a for a in D.arcs if a[0] in keep and a[1] in keep]
        _same_build(D.induced(keep), LabeledDigraph(
            sorted(keep), kept, [a for a in kept if a in D.z1], [a for a in kept if a in D.z2]))


def test_int_pairs_from_library_code_are_still_checked():
    IntPairs = digraph_module._IntPairs
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        LabeledDigraph(range(2), IntPairs([(0, 1), (1, 1)]))
    with pytest.raises(ValueError, match=r"^duplicate arc \(0, 1\)$"):
        LabeledDigraph(range(2), IntPairs([(0, 1), (0, 1)]))
    with pytest.raises(ValueError, match=r"^arc \(0, 2\) uses an unknown vertex$"):
        LabeledDigraph(range(2), IntPairs([(0, 2)]))
    with pytest.raises(ValueError, match="^z1 contains pairs that are not arcs$"):
        LabeledDigraph(range(2), IntPairs([(0, 1)]), z1=[(1, 0)])
    with pytest.raises(ValueError, match="^z2 contains pairs that are not arcs$"):
        LabeledDigraph(range(2), IntPairs([(0, 1)]), z2=[(1, 0)])


_CLASS_FORMS = {"list": list, "set": set, "generator": lambda pairs: (a for a in pairs)}


@st.composite
def digraphs_with_a_full_class(draw):
    """(n, arcs on 0..n-1, z1, z2, the case) where z1, z2 or both hold every
    arc, in a drawn order, and the other class is a drawn subset; or, in the
    near-miss case, z1 is a list as long as the arcs that repeats one arc
    and misses the last arc, and z2 is a drawn subset."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = draw(st.permutations([a for a, k in zip(pairs, keep) if k]))
    case = draw(st.sampled_from(("z1", "z2", "both", "near-miss")))
    if case == "near-miss" and len(arcs) < 2:
        case = "z1"

    def subset():
        return [a for a in arcs if draw(st.booleans())]
    if case == "near-miss":
        repeated = draw(st.sampled_from(arcs[:-1]))
        return n, arcs, draw(st.permutations(arcs[:-1] + [repeated])), subset(), case
    z1 = draw(st.permutations(arcs)) if case in ("z1", "both") else subset()
    z2 = draw(st.permutations(arcs)) if case in ("z2", "both") else subset()
    return n, arcs, z1, z2, case


@settings(max_examples=300, deadline=None)
@given(digraphs_with_a_full_class(), st.sampled_from(sorted(_CLASS_FORMS)),
       st.sampled_from(sorted(_CLASS_FORMS)), st.data())
def test_a_class_that_holds_every_arc_is_shared_only_when_sound(drawn, form1, form2, data):
    """A class that holds every arc, given as a list, a set or a generator,
    is stored as the arc set itself; a z1 list as long as the arcs that
    repeats one arc and misses another is not.  Either way every weight,
    label count, comparison, hash, the instance text and the mask rows equal
    a reference built from ``set(z1)`` and ``set(z2)``."""
    n, arcs, z1, z2, case = drawn
    ref1, ref2 = set(z1), set(z2)
    D = LabeledDigraph(range(n), arcs, _CLASS_FORMS[form1](z1), _CLASS_FORMS[form2](z2))
    assert D.z1 == ref1 and D.z2 == ref2
    assert (D.z1 is D._arcset) == (ref1 == set(arcs))
    assert (D.z2 is D._arcset) == (ref2 == set(arcs))
    if case == "near-miss":
        missed = arcs[-1]
        assert D.z1 is not D._arcset and missed not in D.z1
        assert D.weight(missed) == -(missed in ref2)
    weight = {a: (a in ref1) - (a in ref2) for a in arcs}
    assert {a: D.weight(a) for a in arcs} == weight
    some = data.draw(st.lists(st.sampled_from(arcs))) if arcs else []
    assert D.label_counts(some) == (sum(a in ref1 for a in some), sum(a in ref2 for a in some))
    E = LabeledDigraph(range(n), sorted(arcs), sorted(ref1), sorted(ref2))
    assert D == E and hash(D) == hash(E)
    assert hash(D) == hash((tuple(range(n)), tuple(sorted(arcs)), frozenset(ref1),
                            frozenset(ref2)))
    flags = {a: f"{int(a in ref1)} {int(a in ref2)}" for a in arcs}
    assert emit_instance(Instance(D)) == f"digraph 1\nn {n}\n" + "".join(
        f"a {u} {v} {flags[(u, v)]}\n" for u, v in sorted(arcs))
    S = data.draw(st.sets(st.sampled_from(range(n))))
    adj = digraph_module.WeightedMasks(D, S)
    verts = tuple(sorted(S))
    bit = {v: 1 << i for i, v in enumerate(verts)}

    def rows(kept):
        return [sum(bit[v] for u, v in arcs if u == t and v in bit and kept((u, v)))
                for t in verts]
    assert adj.vertices == verts
    assert adj.out == rows(lambda a: True)
    assert adj.inn == [sum(bit[u] for u, v in arcs if v == h and u in bit) for h in verts]
    assert adj.pos == rows(lambda a: weight[a] == 1)
    assert adj.neg == rows(lambda a: weight[a] == -1)


def test_a_clique_read_generated_or_cut_shares_its_z1():
    """A bioriented K_n, every arc in z1, holds its z1 as its arc set
    whether it is read from a file, generated or cut to a vertex subset."""
    made = gen_bioriented_clique(9)
    for D in (made.digraph, parse_instance(emit_instance(made)).digraph,
              made.digraph.induced(range(2, 7))):
        assert D.z1 is D._arcset and not D.z2


@pytest.mark.parametrize("arcs, index, message", [
    ([(1, 1), (0, 1), (0, 1)], 0, "loop at vertex 1"),
    ([(0, 1), (0, 7), (0, 1)], 1, "arc (0, 7) uses an unknown vertex"),
    ([(0, 1), (1, 2), (0, 1), (2, 2)], 2, "duplicate arc (0, 1)"),
    ([(0, 1), (7, 7)], 1, "loop at vertex 7"),
], ids=["loop-before-repeat", "unknown-before-repeat", "repeat-before-loop", "unknown-loop"])
def test_the_arc_rule_names_the_first_fault_in_list_order(arcs, index, message):
    """The error names the first faulty item in list order and carries its
    index, which the file readers map to the item's line."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        LabeledDigraph(range(3), arcs)
    assert info.value.index == index


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10))
def test_every_list_of_pairs_meets_one_rule_in_one_order(pairs):
    """Digraph arcs, graph edges, pattern arcs and pattern edges over
    vertices 0..4 fail with the message of the in-order reference scan, and
    the same arcs in an instance file fail with it at that item's line.
    Pattern items leave loops out: ``PatternArc`` refuses those first."""
    def fault(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return None

    def expected(pairs, noun):
        found = first_pair_fault(range(5), pairs, noun)
        return found and found[1]

    keys = [(min(e), max(e)) for e in pairs]
    loop_free = [e for e in pairs if e[0] != e[1]]
    assert fault(lambda: LabeledDigraph(range(5), pairs)) == expected(pairs, "arc")
    assert fault(lambda: UndirectedLabeledGraph(range(5), pairs)) == expected(keys, "edge")
    assert fault(lambda: SubdivisionPattern(5, tuple(
        PatternArc(u, v, 1, 1, 0, 2) for u, v in loop_free))) == expected(loop_free, "pattern arc")
    assert fault(lambda: UndirectedPattern(5, tuple(
        UndirectedPatternEdge(u, v, 1, 1, 0, 2) for u, v in loop_free))) == expected(
            [(min(e), max(e)) for e in loop_free], "pattern edge")
    text = "digraph 1\nn 5\n" + "".join(f"a {u} {v} 0 0\n" for u, v in pairs)
    found = first_pair_fault(range(5), pairs)
    if found is None:
        assert parse_instance(text).digraph.arcs == tuple(sorted(pairs))
    else:
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == f"line {found[0] + 3}: {found[1]}"


@pytest.mark.parametrize("bound", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("make", [
    ExactMuOracle, BiorientedCliqueOracle, lambda D: HintMuOracle({frozenset(D.vertices): 3}),
], ids=["exact", "analytic", "hints"])
def test_every_oracle_takes_an_int_threshold_only(make, bound):
    """mu of the bioriented K_3 is 3, so each threshold would come out true."""
    D = gen_bioriented_clique(3).digraph
    with pytest.raises(TypeError, match="^bound must be an int$"):
        make(D).mu_at_least(D.vertices, bound)


@pytest.mark.parametrize("build, value", [
    (lambda: LabeledDigraph(range(3), [(0, 1.5), (1, 2)]), "1.5"),
    (lambda: LabeledDigraph(range(3), [(0, 1), (1, 2)], z1=[(0, 1.9)]), "1.9"),
    (lambda: LabeledDigraph(range(3), [(0, 1), (1, 2)], z2=[(2.5, 1)]), "2.5"),
    (lambda: LabeledDigraph([0, 1.5, 2]), "1.5"),
    (lambda: UndirectedLabeledGraph(range(3), [(0, 1.5)]), "1.5"),
    (lambda: UndirectedLabeledGraph(range(3), [(0, 1)], b1=[(0, 1.2)]), "1.2"),
    (lambda: UndirectedLabeledGraph([0, 0.5], []), "0.5"),
    (lambda: DirectedCycle.from_vertices(directed_cycle_graph(3), [0, 1.9]), "1.9"),
], ids=["arc", "z1", "z2", "vertex", "edge", "b1", "undirected-vertex", "cycle"])
def test_the_public_constructors_refuse_a_fractional_id(build, value):
    """``int()`` would truncate these to a different vertex."""
    with pytest.raises(ValueError, match=f"^vertex id {value} is not an integer$"):
        build()


@pytest.mark.parametrize("build, value", [
    (lambda: LabeledDigraph([0, float("inf")]), "inf"),
    (lambda: LabeledDigraph.on_range(2, [(0, float("-inf"))]), "-inf"),
    (lambda: LabeledDigraph(range(2), [(0, 1)], z1=[(0, float("nan"))]), "nan"),
    (lambda: DirectedCycle.from_vertices(directed_cycle_graph(3), [0, float("inf")]), "inf"),
    (lambda: UndirectedLabeledGraph([0, float("inf")], []), "inf"),
    (lambda: UndirectedLabeledGraph([0, float("nan")], []), "nan"),
], ids=["vertex", "arc", "z1", "cycle", "undirected-vertex", "undirected-nan"])
def test_the_public_constructors_refuse_an_infinite_or_nan_id(build, value):
    """``int()`` refuses these with an OverflowError or a message of its
    own; the id rule names them as it names a fractional id."""
    with pytest.raises(ValueError, match=f"^vertex id {value} is not an integer$"):
        build()


def test_an_unknown_vertex_has_no_neighbours():
    D = directed_cycle_graph(3)
    for neighbours in (D.out_neighbors, D.in_neighbors):
        with pytest.raises(ValueError, match="^unknown vertex 99$"):
            neighbours(99)


def _all_z1_triangle():
    arcs = [(0, 1), (1, 2), (2, 0)]
    return LabeledDigraph(range(3), arcs, z1=arcs)


def test_the_exact_oracle_answers_whole_thresholds_only():
    """mu of the directed all-z1 triangle is 2; its solver limit is the
    threshold minus one, so a threshold of 2.5 would come out true."""
    D = _all_z1_triangle()
    assert mu_exact(D).value == 2
    oracle = ExactMuOracle(D)
    with pytest.raises(TypeError, match="^bound must be an int$"):
        oracle.mu_at_least(D.vertices, 2.5)
    assert not oracle.mu_at_least(D.vertices, 3)
    assert oracle.mu_at_least(D.vertices, 2)


_PATTERN = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 0, 2),))


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "integral-float", "bool"])
@pytest.mark.parametrize("name, use", [
    ("bound", lambda D, x: ExactMuOracle(D).mu_at_least(D.vertices, x)),
    ("limit", lambda D, x: mu_exact(D, limit=x)),
    ("min_level", lambda D, x: level_split(D, 0, OUT, ExactMuOracle(D), min_level=x)),
    ("m", lambda D, x: nested_connector_sequence(D, x, ExactMuOracle(D))),
    ("t", lambda D, x: disjoint_unbalanced_cycles(D, x)),
    ("n", lambda D, x: gen_bioriented_clique(x)),
    ("n", lambda D, x: gen_random(x, .5, .5, .5)),
    ("extra vertex count", lambda D, x: gen_planted(_PATTERN, extra_vertices=x)),
    ("extra arc or edge count", lambda D, x: gen_planted(_PATTERN, extra_arcs=x)),
    ("modulus", lambda D, x: special_set_threshold(x)),
    ("modulus", lambda D, x: PatternArc(0, 1, 1, 1, 0, x)),
    ("floor", lambda D, x: special_set(D, 0, 2, ExactMuOracle(D), floor=x)),
    ("vertex count", lambda D, x: SubdivisionPattern(x, ())),
    ("vertex count", lambda D, x: LabeledDigraph.on_range(x)),
], ids=["oracle-bound", "mu-limit", "min-level", "m", "t", "clique-n", "random-n",
        "extra-vertices", "extra-arcs", "threshold-modulus", "arc-modulus", "floor",
        "pattern-vertex-count", "on-range"])
def test_every_count_refuses_a_value_that_is_no_int(name, use, value):
    """One rule, ``digraph._check_count``: a count is an int, and a bool is
    none; this is checked before its range."""
    with pytest.raises(TypeError, match=f"^{name} must be an int$"):
        use(_all_z1_triangle(), value)


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


def test_induced_names_the_unknown_vertex():
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[99\]"):
        directed_cycle_graph(3).induced([1, 2, 99])


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


def _level_of(tree):
    return {v: i for i, level in enumerate(tree.levels) for v in level}


def test_leveling_bioriented_k4():
    tree = bfs_tree(bio_clique(4), 0, OUT)
    assert tree.levels == (frozenset({0}), frozenset({1, 2, 3}))


def test_leveling_directed_c4_out():
    tree = bfs_tree(directed_cycle_graph(4), 0, OUT)
    assert tree.levels == (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))


def test_leveling_directed_c4_in():
    # distances to 0 in 0->1->2->3->0: vertex 3 is one step away, 1 three
    tree = bfs_tree(directed_cycle_graph(4), 0, IN)
    assert tree.levels == (frozenset({0}), frozenset({3}), frozenset({2}), frozenset({1}))


def test_leveling_requires_strong_connectivity():
    with pytest.raises(PreconditionViolation):
        bfs_tree(digraph(3, [(0, 1), (1, 2)]), 0, OUT)
    with pytest.raises(ValueError):
        bfs_tree(directed_cycle_graph(3), 9, OUT)
    with pytest.raises(ValueError):
        bfs_tree(directed_cycle_graph(3), 0, "sideways")


def test_leveling_adjacency_invariant():
    for seed in range(20):
        D = gen_random(8, 0.35, 0.5, 0.3, seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        for direction in (OUT, IN):
            tree = bfs_tree(D, min(D.vertices), direction)
            level_of = _level_of(tree)
            for i, level in enumerate(tree.levels):
                if i == 0:
                    continue
                for v in level:
                    back = D.in_neighbors(v) if direction == OUT else D.out_neighbors(v)
                    levels_behind = {level_of[u] for u in back}
                    assert i - 1 in levels_behind
                    assert not any(j <= i - 2 for j in levels_behind)


def test_bfs_tree_directed_c3():
    T = bfs_tree(directed_cycle_graph(3), 0, OUT)
    assert T.parent == {1: 0, 2: 1}


def test_bfs_tree_star_parents():
    T = bfs_tree(bio_clique(3), 0, OUT)
    assert T.parent[1] == 0 and T.parent[2] == 0


def test_bfs_tree_prefers_distance_over_order():
    D = digraph(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
    T = bfs_tree(D, 0, OUT)
    assert T.parent[2] == 0


def test_bfs_tree_in_direction_arcs_point_to_root():
    T = bfs_tree(directed_cycle_graph(4), 0, IN)
    assert T.parent[3] == 0
    assert T.parent[2] == 3
    assert tree_path(T, 2).vertices == (2, 3, 0)


def test_bfs_tree_keeps_its_leveling():
    D = gen_random(12, 0.4, 0.5, 0.5, seed=4).digraph
    assert is_strongly_connected(D)
    for direction in (OUT, IN):
        T = bfs_tree(D, 3, direction)
        assert (T.root, T.direction, T.levels[0]) == (3, direction, frozenset({3}))
        assert sorted(v for level in T.levels for v in level) == list(D.vertices)
        level_of = _level_of(T)
        for v, p in T.parent.items():
            assert level_of[p] == level_of[v] - 1


@settings(max_examples=200, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_bfs_tree_parent_is_the_smallest_previous_level_neighbour(D, data):
    """Every non-root vertex's parent is its smallest neighbour on the
    previous level, and a level split carries the tree bfs_tree builds."""
    if D.n == 0:
        return
    S = data.draw(st.sampled_from(strong_components(D)))
    root = data.draw(st.sampled_from(sorted(S)))
    direction = data.draw(st.sampled_from((IN, OUT)))
    T = bfs_tree(D, root, direction, host=S)
    level_of = _level_of(T)
    assert set(T.parent) == S - {root}
    for v, p in T.parent.items():
        back = D.in_neighbors(v) if direction == OUT else D.out_neighbors(v)
        assert p == min(u for u in back if level_of.get(u) == level_of[v] - 1)
    split = level_split(D, root, direction, ExactMuOracle(D), host=S)
    assert split.tree.parent == T.parent
    assert split.tree.levels == T.levels


class _RecordingOracle(MuOracle):
    """Records every queried set; its value is the set's size modulo 3, so
    that the maximum is often tied."""

    def __init__(self):
        self.asked = []

    def mu(self, subset):
        self.asked.append(frozenset(subset))
        return len(self.asked[-1]) % 3


@st.composite
def _dense_digraphs(draw):
    """Digraphs on 10 to 30 scattered identifiers with at least eight arcs
    per vertex, so that the host kernels run on masks.  Each ordered pair
    is an arc with one drawn probability; the arcs still missing are added
    among the fewest vertices that can hold them, so the rest can stay
    sparse and its BFS trees deep.  Each arc is in z1 only, z2 only, both
    classes, or neither."""
    ids = sorted(draw(st.sets(st.integers(0, 300), min_size=10, max_size=30)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6, 0.95)))
    arcs = {(u, v) for u in ids for v in ids if u != v and rng.random() < p}
    missing = 8 * len(ids) - len(arcs)
    order = rng.sample(ids, len(ids))
    for k in range(2, len(ids) + 1):  # at k = n every missing pair is free
        free = [(u, v) for u in order[:k] for v in order[:k] if u != v and (u, v) not in arcs]
        if len(free) >= missing:
            break
    arcs = sorted(arcs.union(rng.sample(free, max(missing, 0))))
    kinds = [rng.randrange(4) for _ in arcs]
    return LabeledDigraph(ids, arcs, z1=[a for a, k in zip(arcs, kinds) if k in (1, 3)],
                          z2=[a for a, k in zip(arcs, kinds) if k in (2, 3)])


@settings(max_examples=300, deadline=None)
@given(_dense_digraphs(), st.data())
def test_the_mask_bfs_of_a_dense_digraph_is_the_list_bfs(D, data):
    """On a dense digraph, in a strong host drawn at random, from any root
    and in either direction, ``bfs_tree`` (the mask BFS) gives the levels
    and the parents the list BFS gives on the same host."""
    assert digraph_module._is_dense(D)
    cut = data.draw(st.sets(st.sampled_from(D.vertices), max_size=D.n - 1))
    comps = strong_components(D, host=set(D.vertices) - cut)
    host = data.draw(st.sampled_from([c for c in comps if len(c) > 1] or comps))
    root = data.draw(st.sampled_from(sorted(host)))
    direction = data.draw(st.sampled_from((OUT, IN)))
    T = bfs_tree(D, root, direction, host=host)
    by_lists = digraph_module._list_bfs(D, root, direction, host)
    assert (T.levels, T.parent) == (by_lists.levels, by_lists.parent)


@pytest.mark.parametrize("dense_from", [0, 10 ** 9])
@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_level_split_candidates_are_the_components_of_each_level(dense_from, D, data):
    """With the density threshold forced to send every digraph down one
    branch, ``level_split`` asks the oracle about exactly the candidates of
    ``strong_components(D, host=level)`` for each BFS level from
    ``min_level`` on, in that order, and picks the one the documented tie
    rule picks among them."""
    if D.n == 0:
        return
    S = data.draw(st.sampled_from(strong_components(D)))
    root = data.draw(st.sampled_from(sorted(S)))
    direction = data.draw(st.sampled_from((IN, OUT)))
    min_level = data.draw(st.integers(0, 4))
    oracle = _RecordingOracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digraph_module, "_DENSE_ARCS_PER_VERTEX", dense_from)
        levels = bfs_tree(D, root, direction, host=S).levels
        expected = [(i, comp) for i, level in enumerate(levels[min_level:], min_level)
                    for comp in strong_components(D, host=level)]
        if not expected:
            with pytest.raises(ConstructionFailed):
                level_split(D, root, direction, oracle, min_level, host=S)
            return
        split = level_split(D, root, direction, oracle, min_level, host=S)
    assert oracle.asked == [comp for _, comp in expected]
    value, i, _, comp = min((-(len(c) % 3), i, min(c), c) for i, c in expected)
    assert (split.level_index, split.component, split.mu_of_component) == (i, comp, -value)
    assert split.tree.levels == levels


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


@contextlib.contextmanager
def _within(seconds):
    """TimeoutError once ``seconds`` have passed, so a call that would run
    without end fails its test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_parent_chain_ends_at_a_missing_or_none_parent():
    chain = digraph_module._chain
    assert chain({}, 5) == [5]
    assert chain({3: 2, 2: 1}, 3) == [3, 2, 1]
    assert chain({3: 2, 2: 1, 1: None}, 3) == [3, 2, 1]
    assert chain({(4, 1): (2, 0), (2, 0): None}, (4, 1)) == [(4, 1), (2, 0)]
    # the longest chain without a cycle: every entry, then one vertex more
    parent = {v: v - 1 for v in range(1, 50)}
    assert chain(parent, 49) == list(range(49, -1, -1))


@pytest.mark.parametrize("parent, v", [({1: 2, 2: 1}, 1), ({1: 1}, 1), ({3: 1, 1: 2, 2: 1}, 3)])
def test_tree_path_refuses_a_parent_map_with_a_cycle(parent, v):
    """A hand-built tree whose parent map cycles: the walk once ran without
    end, its chain growing until memory ran out."""
    T = BfsTree(0, OUT, (frozenset({0}),), parent)
    with _within(1), pytest.raises(ValueError, match="^the parent map has a cycle$"):
        tree_path(T, v)


def test_tree_path_refuses_a_chain_that_ends_away_from_the_root():
    T = BfsTree(0, IN, (frozenset({0}), frozenset({1, 2})), {1: 0, 2: 5})
    assert tree_path(T, 1).vertices == (1, 0)
    with pytest.raises(ValueError, match="^vertex 2 has no parent chain to the root 0$"):
        tree_path(T, 2)
    with pytest.raises(ValueError, match="^vertex 17 has no parent chain to the root 0$"):
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


def test_first_path_to_set_stays_in_its_host():
    C = directed_cycle_graph(6)
    assert first_path_to_set(C, [0], [3]).vertices == (0, 1, 2, 3)
    assert first_path_to_set(C, [4, 0], {2, 3}).vertices == (0, 1, 2)
    assert first_path_to_set(C, [0], [3], host={0, 1, 2, 3}).vertices == (0, 1, 2, 3)
    assert first_path_to_set(C, [0], [3], host={0, 1, 3}) is None
    assert first_path_to_set(C, [], [3]) is None


def test_first_path_to_set_rejects_sets_outside_its_host():
    C = directed_cycle_graph(4)
    with pytest.raises(ValueError, match=r"outside the host: \[0\]"):
        first_path_to_set(C, [0], [2], host={1, 2})
    with pytest.raises(ValueError, match=r"outside the host: \[3\]"):
        first_path_to_set(C, [0], [2, 3], host={0, 1, 2})
    with pytest.raises(ValueError, match=r"outside the host: \[7\]"):
        first_path_to_set(C, [0], [7])
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[99\]"):
        first_path_to_set(C, [0], [2], host={0, 1, 2, 99})
    with pytest.raises(ValueError, match="disjoint"):
        first_path_to_set(C, [0, 2], [2])


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
    """Strong components, BFS levels and BFS-tree parents read from D on a
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
            bfs_tree(D, start, direction, host=subset)
    S = data.draw(st.sampled_from(comps))
    start = data.draw(st.sampled_from(sorted(S)))
    sub = D.induced(S)
    tree, copy_tree = bfs_tree(D, start, direction, host=S), bfs_tree(sub, start, direction)
    assert tree.levels == copy_tree.levels
    assert tree.parent == copy_tree.parent


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
        bfs_tree(D, 0, OUT, host={0, 1, 2, 999})
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[99\]"):
        disjoint_unbalanced_cycles(D, 1, host={0, 1, 99})
    assert strong_components(D, host={0, 1}) == [frozenset({0}), frozenset({1})]


@settings(max_examples=300, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_is_strongly_connected_matches_one_strong_component(D, data):
    """The two-search check agrees with the strong components on every
    host, the empty host and the whole digraph included."""
    S = frozenset(data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else ())
    assert is_strongly_connected(D, host=S) == (len(strong_components(D, host=S)) == 1)
    assert is_strongly_connected(D) == (len(strong_components(D)) == 1)


def test_is_strongly_connected_contract():
    D = directed_cycle_graph(3)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[7, 999\]"):
        is_strongly_connected(D, host={0, 999, 7})
    assert not is_strongly_connected(D, host=())
    assert not is_strongly_connected(digraph(0, []))
    assert is_strongly_connected(D, host={1})
    assert not is_strongly_connected(D, host={0, 1})
    assert is_strongly_connected(D)


# -- dense digraphs on bitsets, sparse ones on lists: the two branches --

@settings(max_examples=400, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_mask_and_list_kernels_agree(D, data):
    """On the same digraph and host, the bitset kernels and the list kernels
    give equal components, strong checks and BFS trees in both directions,
    whichever branch the density rule would pick; the mask BFS's level
    masks are those of its levels."""
    host = frozenset(data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else ())
    listed = digraph_module._list_components(D, host)
    adj = digraph_module._adjacency(D)
    mask = adj.mask(host)
    assert digraph_module._mask_components(adj, mask) == listed
    assert (digraph_module._strong(D, adj, mask) == digraph_module._strong(D, None, host)
            == (len(listed) == 1))
    assert strong_components(D, host=host) == listed
    if not listed:
        return
    comp = data.draw(st.sampled_from(listed))
    root = data.draw(st.sampled_from(sorted(comp)))
    comp_mask = adj.mask(comp)
    for direction in (OUT, IN):
        by_masks, level_masks = digraph_module._mask_bfs(adj, root, direction, comp_mask)
        by_lists = digraph_module._list_bfs(D, root, direction, comp)
        assert by_masks.levels == by_lists.levels
        assert level_masks == [adj.mask(level) for level in by_lists.levels]
        assert by_masks.parent == by_lists.parent
        assert bfs_tree(D, root, direction, host=comp).parent == by_lists.parent


@pytest.mark.parametrize("dense_from", [0, 10 ** 9])
@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_host_components_match_mutual_reachability_on_both_branches(dense_from, D, data):
    """With the density threshold forced to send every digraph down one
    branch, the components of a drawn host are those of pairwise mutual
    reachability in the induced copy."""
    host = frozenset(data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else ())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digraph_module, "_DENSE_ARCS_PER_VERTEX", dense_from)
        assert strong_components(D, host=host) == scc_mutual_reachability(D.induced(host))


def _count_calls(monkeypatch, *names):
    """Call counts of the named kernels; ``_strong`` is counted per branch,
    as "_strong on lists" and "_strong on masks"."""
    keys = [k for name in names
            for k in ((f"{name} on lists", f"{name} on masks") if name == "_strong" else (name,))]
    calls = dict.fromkeys(keys, 0)
    for name in names:
        def counted(*args, _real=getattr(digraph_module, name), _name=name):
            if _name == "_strong":
                _name += " on lists" if args[1] is None else " on masks"
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(digraph_module, name, counted)
    return calls


def test_long_directed_path_stays_on_the_lists(monkeypatch):
    """The mask kernels are superlinear on a long sparse chain: whole-D
    masks grow with the square of n, the components take a forward reach
    down the rest of the chain from every vertex, and the BFS decodes the
    full mask width at every level.  A 2,000-vertex directed path must
    take the list kernels, both on a proper host and on all of D."""
    n = 2000
    D = LabeledDigraph.on_range(n, [(i, i + 1) for i in range(n - 1)])
    calls = _count_calls(monkeypatch, "_list_components", "_mask_components", "_strong")
    assert strong_components(D, host=range(n - 1)) == [frozenset({v}) for v in range(n - 1)]
    assert strong_components(D) == [frozenset({v}) for v in range(n)]
    assert not is_strongly_connected(D, host=range(n - 1))
    assert calls == {"_list_components": 2, "_mask_components": 0,
                     "_strong on lists": 1, "_strong on masks": 0}


def test_transitive_tournament_takes_the_mask_branch(monkeypatch):
    """A transitive tournament is dense and every vertex is its own
    component; the isolated extra vertex makes 0..59 a proper host, and
    all of D takes the masks too."""
    n = 60
    D = LabeledDigraph.on_range(n + 1, [(u, v) for u in range(n) for v in range(u + 1, n)])
    calls = _count_calls(monkeypatch, "_list_components", "_mask_components", "_strong")
    assert strong_components(D, host=range(n)) == [frozenset({v}) for v in range(n)]
    assert not is_strongly_connected(D, host=range(n))
    assert calls == {"_list_components": 0, "_mask_components": 1,
                     "_strong on lists": 0, "_strong on masks": 1}
    assert strong_components(D) == [frozenset({v}) for v in range(n + 1)]
    assert calls == {"_list_components": 0, "_mask_components": 2,
                     "_strong on lists": 0, "_strong on masks": 1}


class _CountedRows(list):
    """A mask list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_reaches_stop_once_the_host_is_covered(monkeypatch):
    """On a bioriented clique one row covers any host, so each reach
    direction reads one adjacency row: none for a one-vertex level, two for
    the components of a wider level (forward, then backward) and two for
    the strong check.  The BFS reads the root's row for the one level past
    it, which covers the host, so it reads no row of that level: a parent
    is found from the frontier's side."""
    D = bio_clique(30)
    T = bfs_tree(D, 0, OUT)
    adj = digraph_module._adjacency(D)
    rows = _CountedRows(adj.out)
    monkeypatch.setattr(adj, "out", rows)
    monkeypatch.setattr(adj, "inn", rows)
    calls = _count_calls(monkeypatch, "_strong", "_mask_bfs")
    for level in T.levels:
        assert strong_components(D, host=level) == [level]
    assert (rows.reads, calls) == (0 + 2, {"_strong on lists": 0, "_strong on masks": 0,
                                           "_mask_bfs": 0})
    assert is_strongly_connected(D, host=range(1, 30))
    assert (rows.reads, calls) == (2 + 2, {"_strong on lists": 0, "_strong on masks": 1,
                                           "_mask_bfs": 0})
    level = frozenset(range(1, 30))
    assert bfs_tree(D, 3, IN, host=level).levels == (frozenset({3}), level - {3})
    assert (rows.reads, calls) == (4 + 2 + 1, {"_strong on lists": 0,
                                               "_strong on masks": 2, "_mask_bfs": 1})


def test_bfs_tree_branch_follows_density(monkeypatch):
    calls = _count_calls(monkeypatch, "_list_bfs", "_mask_bfs")
    bfs_tree(bio_clique(20), 3, IN, host=range(2, 12))
    assert calls == {"_list_bfs": 0, "_mask_bfs": 1}
    bfs_tree(directed_cycle_graph(20), 3, OUT)
    assert calls == {"_list_bfs": 1, "_mask_bfs": 1}


# -- the one bitset adjacency --

@settings(max_examples=300, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_weighted_masks_match_the_arc_by_arc_reference(D, data):
    """On all of D, on no vertex and on any part, every mask equals the one
    built arc by arc with ``D.weight``, and sets round-trip through masks."""
    part = data.draw(st.one_of(st.just(D.vertices), st.just(()),
                               st.sets(st.sampled_from(D.vertices)) if D.n else st.just(())))
    adj = digraph_module.WeightedMasks(D, part)
    verts, out, inn, pos, neg = weighted_masks_reference(D, part)
    assert (adj.vertices, adj.out, adj.inn, adj.pos, adj.neg) == (verts, out, inn, pos, neg)
    assert [adj.rank(v) for v in verts] == list(range(len(verts)))
    assert adj.members(adj.mask(part)) == frozenset(part)
    whole = digraph_module._adjacency(D)
    assert (whole.out, whole.inn, whole.pos, whole.neg) == weighted_masks_reference(D, D.vertices)[1:]


def _bioriented_image(D):
    """``biorient`` of D's underlying graph: an edge per adjacent pair, in
    b1 (b2) when either of its arcs is in z1 (z2)."""
    edges = {(min(a), max(a)) for a in D.arcs}
    return biorient(UndirectedLabeledGraph(
        D.vertices, edges, b1=[e for e in edges if e in D.z1 or e[::-1] in D.z1],
        b2=[e for e in edges if e in D.z2 or e[::-1] in D.z2]))


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs(), st.booleans(), st.data())
def test_weighted_masks_match_a_per_row_reference(D, bioriented, data):
    """On a random digraph or its bioriented image, and on any vertex set S,
    each row of ``WeightedMasks(D, S)`` is the mask over S of the vertex's
    ``out_neighbors``, ``in_neighbors`` and weight classes; ``inn`` is the
    very list ``out`` exactly when D's in-lists equal its out-lists."""
    if bioriented:
        D = _bioriented_image(D)
    S = data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else set()
    adj = digraph_module.WeightedMasks(D, S)
    verts = tuple(sorted(S))
    bit = {v: 1 << i for i, v in enumerate(verts)}

    def row(vertices):
        return sum(bit[w] for w in vertices if w in bit)
    assert adj.vertices == verts
    assert adj.out == [row(D.out_neighbors(v)) for v in verts]
    assert adj.inn == [row(D.in_neighbors(v)) for v in verts]
    assert adj.pos == [row(w for w in D.out_neighbors(v) if D.weight((v, w)) == 1) for v in verts]
    assert adj.neg == [row(w for w in D.out_neighbors(v) if D.weight((v, w)) == -1)
                       for v in verts]
    symmetric = all(D.in_neighbors(v) == D.out_neighbors(v) for v in D.vertices)
    assert (adj.inn is adj.out) == symmetric
    if bioriented:
        assert symmetric


@st.composite
def _complete_digraphs(draw):
    """Complete digraphs on up to 9 scattered identifiers, in one of three
    forms: bioriented (both arcs of a pair share their classes), labelled
    arc by arc, or a near miss, labelled arc by arc with one arc taken out,
    so that its tail's out-row and its head's in-row miss one vertex.  The
    arcs all get one drawn kind (none, z1, z2 or both), or each its own."""
    ids = sorted(draw(st.sets(st.integers(0, 40), max_size=9)))
    form = draw(st.sampled_from(("bioriented", "by arc", "near miss")))
    arcs = [(u, v) for u in ids for v in ids if u != v]
    if form == "near miss" and arcs:
        arcs.remove(draw(st.sampled_from(arcs)))
    every = draw(st.one_of(st.none(), st.integers(0, 3)))
    kinds = draw(st.lists(st.integers(0, 3), min_size=len(arcs), max_size=len(arcs)))
    kind = {a: k if every is None else every for a, k in zip(arcs, kinds)}
    if form == "bioriented":
        kind = {(u, v): kind[min(u, v), max(u, v)] for u, v in arcs}
    return LabeledDigraph(ids, arcs, z1=[a for a in arcs if kind[a] in (1, 3)],
                          z2=[a for a in arcs if kind[a] in (2, 3)])


@settings(max_examples=300, deadline=None)
@given(_complete_digraphs(), st.data())
def test_the_masks_of_a_complete_digraph_match_the_reference(D, data):
    """On all of a complete digraph, a near miss or a bioriented one, each
    mask equals the one built arc by arc, by ``WeightedMasks`` and by
    ``_adjacency``.  A set as large as D's vertex set that swaps one of D's
    vertices for another identifier is not all of D: the new vertex gets
    empty rows and no bit in any row, as in D with it added alone."""
    expected = weighted_masks_reference(D, D.vertices)
    for adj in (digraph_module.WeightedMasks(D, D.vertices), digraph_module._adjacency(D)):
        assert (adj.vertices, adj.out, adj.inn, adj.pos, adj.neg) == expected
    if not D.n:
        return
    dropped = data.draw(st.sampled_from(D.vertices))
    added = data.draw(st.integers(0, 50).filter(lambda v: v not in D.vertices))
    swapped = set(D.vertices) - {dropped} | {added}
    alone = LabeledDigraph(D.vertices + (added,), D.arcs, D.z1, D.z2)
    adj = digraph_module.WeightedMasks(D, swapped)
    assert (adj.vertices, adj.out, adj.inn, adj.pos, adj.neg) == weighted_masks_reference(
        alone, swapped)


def _count_passes(D):
    """Put each of D's neighbour lists, per direction and weight class, in
    a tuple that records every pass over it as (dict name, vertex); D's
    one dict for in- and out-lists stays one.  Returns the records."""
    passes = []

    class Counted(tuple):
        def __iter__(self):
            passes.append(self.key)
            return super().__iter__()

    def counted(name, lists):
        wrapped = {}
        for v, ws in lists.items():
            wrapped[v] = Counted(ws)
            wrapped[v].key = (name, v)
        return wrapped
    shared = D._in is D._out
    D._out = counted("_out", D._out)
    D._in = D._out if shared else counted("_in", D._in)
    D._zero, D._neg = counted("_zero", D._zero), counted("_neg", D._neg)
    return passes


def test_a_complete_row_is_built_without_reading_its_list():
    """A neighbour list that holds every other vertex of D gives its full
    row in one operation: the masks of a bioriented K_60 read no list, and
    with one arc t->h taken out only t's out-list and h's in-list are read."""
    D = bio_clique(60)
    passes = _count_passes(D)
    adj = digraph_module.WeightedMasks(D, D.vertices)
    assert passes == []
    assert adj.out == weighted_masks_reference(bio_clique(60), range(60))[1]
    t, h = 17, 42
    arcs = [a for a in D.arcs if a != (t, h)]
    near = LabeledDigraph.on_range(60, arcs, z1=arcs)
    passes = _count_passes(near)
    adj = digraph_module.WeightedMasks(near, near.vertices)
    assert sorted(passes) == [("_in", h), ("_out", t)]
    assert (adj.out, adj.inn) == weighted_masks_reference(near, near.vertices)[1:3]


class _CountedEq(dict):
    """A dict that counts the comparisons made with it."""

    compared = 0

    def __eq__(self, other):
        self.compared += 1
        return super().__eq__(other)


def test_a_bioriented_digraph_compares_its_lists_once_when_built():
    """A bioriented digraph holds one dict for its in- and out-lists, found
    equal once, when it is built.  On a sparse one, where mu and the cycle
    packing build masks per strong component, no build compares D's lists
    again (a comparison per build costs all of D per component)."""
    edges = [e for t in range(0, 300, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))]
    G = UndirectedLabeledGraph(range(300), edges, b1=edges[::3])
    D = biorient(G)
    assert D._in is D._out
    expected = (mu_exact(D), disjoint_unbalanced_cycles(D, 5))
    assert expected[0].value == 2 and len(expected[1].cycles) == 5
    E = biorient(G)
    E._out = E._in = lists = _CountedEq(E._out)
    assert (mu_exact(E), disjoint_unbalanced_cycles(E, 5)) == expected
    assert lists.compared == 0


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_reach_is_the_set_search_inside_the_allowed_set(D, data):
    """``_reach`` from any seed inside any allowed set, along the out- or
    the in-masks of all of D, gives the vertices a plain search over D's
    lists reaches from the seed without leaving the allowed set."""
    adj = digraph_module.WeightedMasks(D, D.vertices)
    allowed = data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else set()
    seed = data.draw(st.sets(st.sampled_from(sorted(allowed)))) if allowed else set()
    for masks, lists in ((adj.out, D._out), (adj.inn, D._in)):
        seen = set(seed)
        stack = list(seed)
        while stack:
            for w in lists[stack.pop()]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert digraph_module._reach(masks, adj.mask(seed), adj.mask(allowed)) == adj.mask(seen)


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_joined_masks_the_nonzero_digon_partners(D, data):
    """On all of D (the masks a dense D keeps, or those a sparse D builds
    for the call) and on a host's own masks, ``joined(i)`` holds exactly
    the vertices w with arcs u->w and w->u of nonzero total weight, u being
    rank i; read with ``D.has_arc`` and ``D.weight``, and the same when
    asked again."""
    host = data.draw(st.sets(st.sampled_from(D.vertices))) if D.n else set()
    for adj in (digraph_module._adjacency(D), digraph_module.WeightedMasks(D, host)):
        for i, u in enumerate(adj.vertices):
            partners = {w for w in adj.vertices if D.has_arc(u, w) and D.has_arc(w, u)
                        and D.weight((u, w)) + D.weight((w, u))}
            joined = adj.joined(i)
            assert adj.members(joined) == partners
            assert adj.joined(i) == joined


def test_dense_digraph_builds_its_adjacency_once(monkeypatch):
    """Components, strong checks, BFS trees, the balance tests, partition
    checks, exact mu, the greedy blocks and cycle packings, on all of a
    dense digraph or on a host inside it, all read the one adjacency kept
    in its slot."""
    D = gen_random(30, .6, .5, .5, seed=3).digraph
    assert digraph_module._is_dense(D)
    built = []
    init = digraph_module.WeightedMasks.__init__

    def counting(adj, D, vertices):
        built.append(frozenset(vertices))
        init(adj, D, vertices)

    monkeypatch.setattr(digraph_module.WeightedMasks, "__init__", counting)
    comp = max(strong_components(D), key=len)
    host = sorted(D.vertices)[:20]
    strong_components(D, host=host)
    assert is_strongly_connected(D, host=comp)
    bfs_tree(D, min(comp), OUT, host=comp)
    assert has_unbalanced_cycle(D)
    assert shortest_unbalanced_cycle(D) is not None
    assert verify_partition(D, VertexPartition.from_blocks([v] for v in D.vertices))
    mu_exact(D)
    mu_exact(D, host=host)
    mu_greedy_upper(D)
    disjoint_unbalanced_cycles(D, 2, host=host)
    assert built == [frozenset(D.vertices)]


def test_sparse_digraph_keeps_no_adjacency():
    """On a sparse digraph the balance tests and partition checks build the
    whole-D masks for the call only; nothing stays in the slot."""
    n = 40
    C = LabeledDigraph.on_range(n, [(i, (i + 1) % n) for i in range(n)], z1=[(0, 1)])
    assert not digraph_module._is_dense(C)
    assert has_unbalanced_cycle(C)
    assert shortest_unbalanced_cycle(C) is not None
    assert not verify_partition(C, VertexPartition.from_blocks([C.vertices]))
    assert C._masks is None
