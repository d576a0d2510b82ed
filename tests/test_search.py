import gc
import math
import os
import random
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dichromate.search as search_module
from bruteforce import (all_simple_paths, brute_find_subdivision,
                        brute_find_subdivision_by_length,
                        edge_label_counts, find_subdivision_reference, mu_star_brute, pack_residues, path_count_pairs,
                        residue_paths_reference, residue_reachable, residue_steps_reference,
                        routing_reference,
                        verify_undirected_witness_reference,
                        walk_count_pairs)
from conftest import (K4_TRANSITIVE, MIXED_RESIDUES, SRC, bio_clique, digraph,
                      directed_cycle_graph, labeled_digraphs, replace)
from dichromate import (ABSENT, FOUND, INDETERMINATE, BudgetExhausted, DirectedCycle,
                        DirectedPath, LabeledDigraph, PatternArc, ResidueQuery, SearchBudget, SubdivisionPattern,
                        SubdivisionWitness, UndirectedLabeledGraph, UndirectedPattern,
                        UndirectedPatternEdge, UndirectedWitness, biorient,
                        emit_witness, find_subdivision, find_subdivision_undirected, gen_planted,
                        gen_planted_undirected, gen_random, is_strongly_connected,
                        iter_residue_paths, mu_exact, residue_path,
                        VerificationReport, verify_undirected_witness, verify_witness,
                        walk_reach_masks)


def test_residue_query_validation():
    with pytest.raises(ValueError):
        ResidueQuery(u=0, v=0, a=1, b=1, q=2, target=0)
    with pytest.raises(ValueError):
        ResidueQuery(u=0, v=1, a=2, b=1, q=4, target=0)
    with pytest.raises(ValueError):
        ResidueQuery(u=0, v=1, a=1, b=1, q=2, target=0, forbidden=frozenset({0}))
    q = ResidueQuery(u=0, v=1, a=1, b=1, q=2, target=5)
    assert q.target == 1 and {0, 1} <= q.endpoints


def test_residue_path_only_route():
    D = digraph(3, [(0, 2), (2, 1)])
    q0 = ResidueQuery(u=0, v=1, a=1, b=1, q=2, target=0)
    p = residue_path(D, q0)
    assert p is not None and p.vertices == (0, 2, 1)
    q1 = ResidueQuery(u=0, v=1, a=1, b=1, q=2, target=1)
    assert residue_path(D, q1) is None


def test_residue_path_clique_q3_all_targets():
    D = bio_clique(5)
    for target in (0, 1, 2):
        q = ResidueQuery(u=0, v=4, a=1, b=1, q=3, target=target)
        p = residue_path(D, q)
        assert p is not None
        c1, c2 = D.label_counts(p.arcs())
        assert (c1 + c2) % 3 == target
        assert residue_reachable(D, 0, 4, 1, 1, 3, target)


def test_residue_path_respects_endpoint_and_forbidden_sets():
    D = bio_clique(6)
    q = ResidueQuery(u=0, v=1, a=1, b=1, q=3, target=2,
                     endpoints=frozenset({0, 1, 2}), forbidden=frozenset({3}))
    p = residue_path(D, q)
    assert p is not None
    assert 2 not in p.interior and 3 not in p.vertices
    c1, c2 = D.label_counts(p.arcs())
    assert (c1 + c2) % 3 == 2


def test_residue_path_completeness_against_enumeration():
    checked = 0
    for seed in range(25):
        D = gen_random(7, 0.3, 0.5, 0.3, seed=seed).digraph
        verts = D.vertices
        if len(verts) < 2:
            continue
        u, v = verts[0], verts[-1]
        pairs = path_count_pairs(D, u, v)
        for q, coprimes in ((2, [(1, 1)]), (3, [(1, 2), (2, 1)]), (4, [(1, 3), (3, 3)])):
            for a, b in coprimes:
                for target in range(q):
                    expected = any((a * c1 + b * c2) % q == target for c1, c2 in pairs)
                    got = residue_path(D, ResidueQuery(u=u, v=v, a=a, b=b, q=q,
                                                       target=target))
                    assert (got is not None) == expected
                    if got is not None:
                        c1, c2 = D.label_counts(got.arcs())
                        assert (a * c1 + b * c2) % q == target
                        checked += 1
    assert checked >= 30


def test_walk_relaxation_is_sound():
    for seed in (0, 1, 2, 3):
        D = gen_random(7, 0.3, 0.5, 0.3, seed=seed).digraph
        u, v = 0, 6
        query = ResidueQuery(u=u, v=v, a=1, b=1, q=3, target=0)
        masks = walk_reach_masks(D, query)
        banned = query.endpoints | query.forbidden
        for w in D.vertices:
            # every residue a real path realizes must be walk-reachable
            for c1, c2 in path_count_pairs(D, w, v, banned_interior=banned):
                assert masks.get(w, 0) >> (c1 + c2) % 3 & 1


def test_iter_residue_paths_enumerates_all():
    D = bio_clique(4)
    query = ResidueQuery(u=0, v=3, a=1, b=1, q=2, target=0)
    got = {p.vertices for p in iter_residue_paths(D, query)}
    expected = {p for p in ({(0, 1, 3), (0, 2, 3)} | {(0, 1, 2, 3), (0, 2, 1, 3)})
                if len(p) % 2 == 1}  # even arc count
    assert got == expected


def test_find_subdivision_planted_triangle():
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 3),
                                     PatternArc(1, 2, 1, 1, 2, 3),
                                     PatternArc(2, 0, 1, 1, 0, 3)))
    inst = gen_planted(pattern, extra_vertices=4, extra_arcs=12, seed=3)
    out = find_subdivision(inst.digraph, pattern)
    assert out.status == FOUND
    assert verify_witness(inst.digraph, pattern, out.witness).ok


def test_find_subdivision_absent_matches_bruteforce():
    # residue 0 forces every branching path through an interior vertex, and a
    # 4-vertex host cannot seat six disjoint interiors
    pattern = SubdivisionPattern(3, tuple(
        PatternArc(t, h, 1, 1, 0, 2)
        for t, h in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]))
    D = bio_clique(4)
    out = find_subdivision(D, pattern)
    brute = brute_find_subdivision(D, pattern)
    assert (out.status == FOUND) == (brute is not None)
    assert out.status == ABSENT


def test_find_subdivision_empty_pattern():
    D = bio_clique(5)
    pattern = SubdivisionPattern(3, ())
    out = find_subdivision(D, pattern)
    assert out.status == FOUND
    assert out.witness.branch == (0, 1, 2)


def test_the_pattern_on_no_vertices_is_found_at_once():
    out = find_subdivision(bio_clique(3), SubdivisionPattern(0, ()))
    assert (out.status, out.witness, out.expansions) == (FOUND, SubdivisionWitness((), {}), 0)


def test_a_pattern_larger_than_the_host_is_absent_at_once():
    """No injective map exists, so no map is tried (this one used to spend
    its whole budget placing vertices and end INDETERMINATE)."""
    D = gen_random(12, .5, .5, .5, seed=1).digraph
    out = find_subdivision(D, SubdivisionPattern(13, ()))
    assert (out.status, out.expansions) == (ABSENT, 0)


def test_a_huge_pattern_is_absent_before_any_image_is_sized(monkeypatch):
    """Sizing the images costs time in the pattern's vertex count, so a
    10^9-vertex pattern must be refused by the count test alone."""
    def refuse(D, pattern):
        raise AssertionError("images sized for a pattern larger than the host")

    monkeypatch.setattr(search_module, "_feasible_images", refuse)
    host = bio_clique(30)
    out = find_subdivision(host, SubdivisionPattern(10 ** 9, ()), budget=10)
    assert (out.status, out.expansions) == (ABSENT, 0)
    G = UndirectedLabeledGraph(range(30), [(u, v) for u in range(30) for v in range(u + 1, 30)])
    out = find_subdivision_undirected(G, UndirectedPattern(10 ** 9, ()), budget=10)
    assert (out.status, out.expansions) == (ABSENT, 0)


def test_a_pattern_vertex_no_host_vertex_can_carry_is_absent_at_once():
    """Pattern vertex 3 needs in-degree 3 and every vertex of a directed
    cycle has in-degree 1, so no prefix of vertices 0-2 is placed."""
    pattern = SubdivisionPattern(4, tuple(PatternArc(t, 3, 1, 1, 0, 2) for t in range(3)))
    out = find_subdivision(directed_cycle_graph(6), pattern)
    assert (out.status, out.expansions) == (ABSENT, 0)


def test_find_subdivision_budget_indeterminate():
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 3),
                                     PatternArc(1, 2, 1, 1, 2, 3),
                                     PatternArc(2, 0, 1, 1, 0, 3)))
    inst = gen_planted(pattern, extra_vertices=4, extra_arcs=12, seed=3)
    out = find_subdivision(inst.digraph, pattern, budget=3)
    assert out.status == INDETERMINATE


@pytest.mark.parametrize("budget", [1, 3, 11])
def test_exhausted_budget_reports_exactly_its_limit(budget):
    """The refused expansion is not counted: an INDETERMINATE outcome spent
    exactly its budget."""
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 3),
                                     PatternArc(1, 2, 1, 1, 2, 3),
                                     PatternArc(2, 0, 1, 1, 0, 3)))
    inst = gen_planted(pattern, extra_vertices=4, extra_arcs=12, seed=3)
    out = find_subdivision(inst.digraph, pattern, budget=budget)
    assert out.status == INDETERMINATE
    assert out.expansions == budget


def test_find_subdivision_agrees_with_bruteforce_on_random():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 2, 1, 3),))
    agreements = 0
    for seed in range(20):
        D = gen_random(6, 0.3, 0.4, 0.4, seed=seed).digraph
        out = find_subdivision(D, pattern)
        brute = brute_find_subdivision(D, pattern)
        assert (out.status == FOUND) == (brute is not None)
        agreements += 1
    assert agreements == 20


def test_verify_witness_round_trip_and_diagnostics():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    inst = gen_planted(pattern, extra_vertices=2, extra_arcs=4, seed=9)
    assert verify_witness(inst.digraph, pattern, inst.planted_witness).ok


def test_verify_witness_shared_interior_diagnostic():
    D = digraph(3, [(0, 2), (2, 1), (1, 2), (2, 0)])
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 0, 2),
                                     PatternArc(1, 0, 1, 1, 0, 2)))
    witness = SubdivisionWitness((0, 1), {(0, 1): DirectedPath((0, 2, 1)),
                                          (1, 0): DirectedPath((1, 2, 0))})
    report = verify_witness(D, pattern, witness)
    assert not report.ok and report.failure == "disjointness"


def test_verify_witness_congruence_diagnostic():
    D = digraph(3, [(0, 2), (2, 1)])
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    witness = SubdivisionWitness((0, 1), {(0, 1): DirectedPath((0, 2, 1))})
    report = verify_witness(D, pattern, witness)
    assert not report.ok and report.failure == "congruence(0, 1)"


@pytest.mark.parametrize("branch, paths, failure, detail", [
    ((0,), {(0, 1): (0, 2, 1)}, "branch-map", "expected 2 branch vertices, got 1"),
    ((0, 7), {(0, 1): (0, 2, 1)}, "branch-map", "unknown digraph vertex 7"),
    ((0, 1), {(0, 1): (0,)}, "path(0, 1)", "branching path has no arcs"),
    ((0, 1), {(0, 1): (0, 1)}, "path(0, 1)", "not a directed path of the digraph"),
    ((0, 0), {(0, 1): (0, 2, 1)}, "branch-map", "branch map is not injective"),
], ids=["branch-count", "unknown-branch-vertex", "zero-arc-path", "path-not-in-D",
        "repeated-branch-vertex"])
def test_verify_witness_names_the_failed_clause(branch, paths, failure, detail):
    D = digraph(3, [(0, 2), (2, 1)])
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 0, 2),))
    witness = SubdivisionWitness(branch, {key: DirectedPath(p) for key, p in paths.items()})
    assert verify_witness(D, pattern, witness) == VerificationReport(False, failure, detail)


def test_verify_witness_refuses_a_path_through_a_branch_vertex():
    D = digraph(3, [(0, 2), (2, 1)])
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 0, 2),))
    witness = SubdivisionWitness((0, 1, 2), {(0, 1): DirectedPath((0, 2, 1))})
    assert verify_witness(D, pattern, witness) == VerificationReport(
        False, "disjointness", "path (0, 1) passes through branch vertex 2")


@pytest.mark.parametrize("build, message", [
    (lambda: DirectedCycle.from_vertices(digraph(2, [(0, 1), (1, 0)]), (0, 1, 0)),
     "cycle vertices must be pairwise distinct"),
    (lambda: SearchBudget(0), "budget must be at least 1, got 0"),
    (lambda: PatternArc(1, 1, 1, 1, 0, 2), "pattern arcs may not be loops"),
    (lambda: gen_random(-1, 0.5, 0.5, 0.5), "n must be nonnegative, got -1"),
], ids=["repeated-cycle-vertex", "empty-budget", "loop-pattern-arc", "negative-n"])
def test_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: UndirectedLabeledGraph(range(3), [(1, 1)]), "loop at vertex 1"),
    (lambda: UndirectedLabeledGraph(range(3), [(0, 1), (1, 0)]), r"duplicate edge \(0, 1\)"),
    (lambda: UndirectedLabeledGraph(range(3), [(5, 0)]), r"edge \(0, 5\) uses an unknown vertex"),
    (lambda: UndirectedLabeledGraph(range(3), [(0, 1)], b1=[(1, 2)]),
     "b1/b2 contain pairs that are not edges"),
    (lambda: UndirectedLabeledGraph(range(3), [(0, 1)], b2=[(2, 1)]),
     "b1/b2 contain pairs that are not edges"),
    (lambda: UndirectedPatternEdge(2, 2, 1, 1, 0, 3), "pattern edges may not be loops"),
    (lambda: UndirectedPatternEdge(0, 1, 1, 1, 0, 1), "modulus must be at least 2, got 1"),
    (lambda: UndirectedPatternEdge(0, 1, 2, 1, 0, 4), "a and b must be coprime to the modulus"),
    (lambda: UndirectedPatternEdge(0, 1, 1, 2, 0, 4), "a and b must be coprime to the modulus"),
    (lambda: UndirectedPattern(3, (UndirectedPatternEdge(0, 3, 1, 1, 0, 2),)),
     r"pattern edge \(0, 3\) uses an unknown vertex"),
    (lambda: UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),
                                   UndirectedPatternEdge(1, 0, 1, 1, 0, 2))),
     r"duplicate pattern edge \(0, 1\)"),
])
def test_undirected_validators_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("edges", [(), (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),)])
def test_undirected_pattern_rejects_a_negative_vertex_count(edges):
    """Like ``SubdivisionPattern``, at construction rather than later in
    ``bioriented()``, and before any edge is checked."""
    for build in (lambda: UndirectedPattern(-1, edges),
                  lambda: SubdivisionPattern(-1, tuple(PatternArc(e.u, e.v, e.a, e.b, e.r, e.q)
                                                       for e in edges))):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            build()


def _built_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6))
def test_congruence_records_share_one_rule(a, b, r, q):
    """Pattern arcs, pattern edges and residue queries reject the same
    (a, b, q) with the same message, and reduce a, b and their residue
    alike."""
    got = [_built_or_error(lambda: PatternArc(0, 1, a, b, r, q)),
           _built_or_error(lambda: UndirectedPatternEdge(0, 1, a, b, r, q)),
           _built_or_error(lambda: ResidueQuery(u=0, v=1, a=a, b=b, q=q, target=r))]
    if isinstance(got[0], str):
        assert got == [got[0]] * 3
        return
    assert [(x.a, x.b, x.target if isinstance(x, ResidueQuery) else x.r)
            for x in got] == [(a % q, b % q, r % q)] * 3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]),
                max_size=8))
def test_undirected_graph_checks_edges_by_the_arc_rule(pairs):
    """A loop-free edge list is rejected exactly when the digraph on its
    edge keys (u, v), u < v, is, with "edge" where the digraph says "arc"."""
    keys = [(min(e), max(e)) for e in pairs]
    as_edges = _built_or_error(lambda: UndirectedLabeledGraph(range(4), pairs))
    as_arcs = _built_or_error(lambda: LabeledDigraph(range(4), keys))
    if isinstance(as_arcs, str):
        assert as_edges == as_arcs.replace("arc", "edge")
    else:
        assert as_edges.edges == frozenset(as_arcs.arcs)


def test_undirected_pattern_edge_normalizes():
    e = UndirectedPatternEdge(3, 1, 5, 3, 7, 4)
    assert (e.u, e.v, e.a, e.b, e.r, e.q) == (1, 3, 1, 3, 3, 4)


def test_biorient_single_edge():
    G = UndirectedLabeledGraph([0, 1], [(0, 1)])
    D = biorient(G)
    assert D.arcs == ((0, 1), (1, 0))


def test_biorient_k3_all_b1():
    edges = [(0, 1), (0, 2), (1, 2)]
    D = biorient(UndirectedLabeledGraph(range(3), edges, b1=edges))
    assert len(D.arcs) == 6 and D.z1 == frozenset(D.arcs)


def test_biorient_c4_label_lift():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    G = UndirectedLabeledGraph(range(4), edges, b1=[(0, 1)], b2=[(2, 3)])
    D = biorient(G)
    assert len(D.arcs) == 8
    assert D.z1 == {(0, 1), (1, 0)}
    assert D.z2 == {(2, 3), (3, 2)}


def test_undirected_triangle_in_k5_odd_paths():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    G = UndirectedLabeledGraph(range(5), edges, b1=edges)
    pattern = UndirectedPattern(3, tuple(
        UndirectedPatternEdge(u, v, 1, 1, 1, 2) for u, v in [(0, 1), (0, 2), (1, 2)]))
    out = find_subdivision_undirected(G, pattern)
    assert out.status == FOUND
    for seq in out.witness.paths.values():
        assert (len(seq) - 1) % 2 == 1  # odd length
    assert verify_undirected_witness(G, pattern, out.witness).ok


def test_undirected_single_edge_no_room():
    G = UndirectedLabeledGraph([0, 1], [(0, 1)], b1=[(0, 1)])
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),))
    out = find_subdivision_undirected(G, pattern)
    assert out.status == ABSENT


def test_undirected_single_route_is_found():
    # one u-v path per pattern edge suffices; a second, reverse route is
    # not needed (the search used to demand one and answered ABSENT)
    G = UndirectedLabeledGraph([0, 1, 2], [(0, 2), (2, 1)], b1=[(0, 2), (2, 1)])
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),))
    assert verify_undirected_witness(G, pattern, UndirectedWitness((0, 1), {(0, 1): (0, 2, 1)})).ok
    out = find_subdivision_undirected(G, pattern)
    assert out.status == FOUND
    assert out.witness.paths == {(0, 1): (0, 2, 1)}


def test_an_undirected_witness_names_its_fault():
    G = UndirectedLabeledGraph([0, 1, 2], [(0, 2), (2, 1)], b1=[(0, 2), (2, 1)])
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),))
    assert verify_undirected_witness(G, pattern, UndirectedWitness((0, 1), {})) == \
        VerificationReport(False, "paths-complete", "path set mismatch")
    repeated = UndirectedWitness((0, 1), {(0, 1): (0, 2, 0, 1)})
    assert verify_undirected_witness(G, pattern, repeated) == \
        VerificationReport(False, "path(0, 1)", "path vertices must be pairwise distinct")


def test_an_outcome_and_a_report_read_as_their_answer():
    G = UndirectedLabeledGraph([0, 1, 2], [(0, 2), (2, 1)], b1=[(0, 2), (2, 1)])
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 0, 2),))
    out = find_subdivision_undirected(G, pattern)
    assert out.found
    assert verify_undirected_witness(G, pattern, out.witness)
    assert not verify_undirected_witness(G, pattern, UndirectedWitness((0, 1), {}))
    absent = find_subdivision_undirected(UndirectedLabeledGraph([0, 1], [(0, 1)], b1=[(0, 1)]),
                                         pattern)
    assert (absent.status, absent.found) == (ABSENT, False)


def test_undirected_planted_instances_verify():
    pattern = UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 1, 1, 2),
                                    UndirectedPatternEdge(1, 2, 1, 1, 0, 3)))
    for seed in range(3):
        G, witness = gen_planted_undirected(pattern, extra_vertices=2,
                                            extra_edges=4, seed=seed)
        assert verify_undirected_witness(G, pattern, witness).ok
        out = find_subdivision_undirected(G, pattern)
        assert out.status == FOUND


def test_undirected_search_bioriented_once_per_answer(monkeypatch):
    """The projected witness is checked against the digraph the search ran
    on, so a FOUND answer biorients G once."""
    calls = []
    orient = search_module.biorient

    def counting(G):
        calls.append(G)
        return orient(G)

    monkeypatch.setattr(search_module, "biorient", counting)
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 0, 3),))
    for seed in range(3):
        G, _ = gen_planted_undirected(pattern, extra_vertices=2, extra_edges=4, seed=seed)
        calls.clear()
        out = find_subdivision_undirected(G, pattern)
        assert out.status == FOUND
        assert verify_undirected_witness_reference(G, pattern, out.witness).ok
        assert calls == [G]


def test_undirected_search_checks_each_answer_once(monkeypatch):
    """``find_subdivision`` checks the directed witness; its projection
    would hand ``verify_witness`` the same digraph, pattern, branch map and
    vertex sequences, so a FOUND answer is verified once."""
    calls = []
    check = search_module.verify_witness

    def counting(D, pattern, witness):
        calls.append(witness)
        return check(D, pattern, witness)

    monkeypatch.setattr(search_module, "verify_witness", counting)
    pattern = UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 1, 0, 3),
                                    UndirectedPatternEdge(1, 2, 1, 1, 1, 2)))
    for seed in range(3):
        G, _ = gen_planted_undirected(pattern, extra_vertices=2, extra_edges=4, seed=seed)
        calls.clear()
        out = find_subdivision_undirected(G, pattern)
        assert out.status == FOUND
        assert verify_undirected_witness_reference(G, pattern, out.witness).ok
        assert len(calls) == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_undirected_verifier_agrees_with_the_clause_by_clause_reference(data):
    """On planted graphs, with the planted witness corrupted at random (a
    path reversed, truncated or re-routed, a branch vertex swapped), the
    projection onto ``verify_witness`` and the reference on G itself give
    the same verdict."""
    k = data.draw(st.integers(2, 4), label="k")
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = []
    for u, v in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)):
        q = data.draw(st.integers(2, 4))
        units = [c for c in range(1, q) if math.gcd(c, q) == 1]
        edges.append(UndirectedPatternEdge(u, v, data.draw(st.sampled_from(units)),
                                           data.draw(st.sampled_from(units)),
                                           data.draw(st.integers(0, q - 1)), q))
    pattern = UndirectedPattern(k, tuple(edges))
    G, planted = gen_planted_undirected(pattern, extra_vertices=data.draw(st.integers(0, 3)),
                                        extra_edges=data.draw(st.integers(0, 8)),
                                        seed=data.draw(st.integers(0, 2 ** 16)))
    branch = list(planted.branch)
    paths = dict(planted.paths)
    for _ in range(data.draw(st.integers(0, 2), label="corruptions")):
        how = data.draw(st.sampled_from(["reverse", "truncate", "reroute", "swap"]))
        key = data.draw(st.sampled_from(sorted(paths)))
        if how == "reverse":
            paths[key] = paths[key][::-1]
        elif how == "truncate":
            paths[key] = paths[key][:-1] if data.draw(st.booleans()) else paths[key][1:]
        elif how == "reroute":
            route = planted.paths[key]
            paths[key] = data.draw(st.sampled_from(sorted(
                all_simple_paths(biorient(G), route[0], route[-1]))))
        else:
            branch[data.draw(st.integers(0, k - 1))] = data.draw(
                st.sampled_from(G.vertices + (len(G.vertices),)))
    witness = UndirectedWitness(tuple(branch), paths)
    assert (verify_undirected_witness(G, pattern, witness).ok
            == verify_undirected_witness_reference(G, pattern, witness).ok)


def test_undirected_projection_preserves_label_counts():
    pattern = UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 1, 1, 2),
                                    UndirectedPatternEdge(1, 2, 1, 1, 2, 3)))
    G, _ = gen_planted_undirected(pattern, extra_edges=6, seed=8)
    D = biorient(G)
    out = find_subdivision(D, pattern.bioriented())
    assert out.status == FOUND
    for e in pattern.edges:
        p = out.witness.paths[(e.u, e.v)]
        arc_counts = D.label_counts(p.arcs())
        edge_counts = edge_label_counts(G, p.arcs())
        assert arc_counts == edge_counts


def test_mu_of_biorientation_dominates_undirected_mu():
    import random
    rng = random.Random(7)
    for _ in range(6):
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        verts = range(n)
        G = UndirectedLabeledGraph(verts, edges,
                                   b1=[e for e in edges if rng.random() < 0.5],
                                   b2=[e for e in edges if rng.random() < 0.4])
        assert mu_exact(biorient(G)).value >= mu_star_brute(G)


def test_plain_length_reduction_special_case():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    for seed in range(12):
        inst = gen_random(6, 0.35, 1.0, 0.0, seed=seed)
        D = inst.digraph
        full = D.z1 == frozenset(D.arcs) and not D.z2
        assert full  # z1 everything, z2 nothing
        out = find_subdivision(D, pattern)
        brute = brute_find_subdivision_by_length(D, pattern)
        assert (out.status == FOUND) == (brute is not None)


def _coprime_residues(draw, q):
    units = st.sampled_from([x for x in range(1, q) if math.gcd(x, q) == 1])
    return draw(units), draw(units), draw(st.integers(0, q - 1))


@st.composite
def residue_patterns(draw):
    """2-3 vertex patterns of 1-3 arcs, each with its own coprime (a, b, q)."""
    k = draw(st.integers(2, 3))
    pairs = [(t, h) for t in range(k) for h in range(k) if t != h]
    keys = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    arcs = []
    for t, h in keys:
        q = draw(st.sampled_from((2, 3, 4, 5)))
        a, b, r = _coprime_residues(draw, q)
        arcs.append(PatternArc(t, h, a, b, r, q))
    return SubdivisionPattern(k, tuple(arcs))


# Moduli whose residue tables come in both kinds: a rotate table (2^q
# entries) is a list up to the cap and fills in on first read above it,
# from q = 9 on; a less table (q entries) fills in at q = 257.
TABLE_MODULI = st.integers(2, 13) | st.sampled_from((97, 257))


@st.composite
def residue_queries(draw, D, moduli=st.integers(2, 5)):
    """A query on D with a random endpoint superset, forbidden set and
    coprime (a, b, q), q drawn from ``moduli``."""
    u, v = draw(st.lists(st.sampled_from(D.vertices), min_size=2, max_size=2, unique=True))
    others = [x for x in D.vertices if x not in (u, v)]
    ends = draw(st.sets(st.sampled_from(others))) if others else set()
    rest = [x for x in others if x not in ends]
    forbidden = draw(st.sets(st.sampled_from(rest))) if rest else set()
    q = draw(moduli)
    a, b, target = _coprime_residues(draw, q)
    return ResidueQuery(u=u, v=v, a=a, b=b, q=q, target=target,
                        endpoints=frozenset(ends) | {u, v}, forbidden=frozenset(forbidden))


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=7), residue_patterns())
def test_find_subdivision_matches_bruteforce_on_mixed_residues(D, pattern):
    out = find_subdivision(D, pattern)
    brute = brute_find_subdivision(D, pattern)
    assert out.status == (ABSENT if brute is None else FOUND)
    if out.status == FOUND:
        assert verify_witness(D, pattern, out.witness).ok
        # the lexicographically smallest feasible branch map wins
        assert out.witness.branch == tuple(brute[0])


@st.composite
def prefix_patterns(draw):
    """Patterns on 3 or 4 vertices, the fewest with a prefix to refute,
    with up to 6 arcs drawn from every ordered pair, so digons and arcs
    whose tail is above their head occur, each arc with its own coprime
    (a, b, q)."""
    k = draw(st.integers(3, 4))
    pairs = [(t, h) for t in range(k) for h in range(k) if t != h]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    arcs = []
    for t, h in keys:
        q = draw(st.sampled_from((2, 3, 4, 5)))
        a, b, r = _coprime_residues(draw, q)
        arcs.append(PatternArc(t, h, a, b, r, q))
    return SubdivisionPattern(k, tuple(arcs))


@st.composite
def small_hosts(draw):
    """Digraphs on 0..n-1, 3 <= n <= 9, every ordered pair an arc with one
    drawn probability; each arc in z1 only, z2 only, both classes, or
    neither."""
    n = draw(st.integers(3, 9))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    kinds = [rng.randrange(4) for _ in arcs]
    return digraph(n, arcs, z1=[a for a, k in zip(arcs, kinds) if k in (1, 3)],
                   z2=[a for a, k in zip(arcs, kinds) if k in (2, 3)])


@settings(max_examples=400, deadline=None)
@given(small_hosts(), prefix_patterns())
def test_prefix_refutation_keeps_the_first_routable_map(D, pattern):
    """Refuting prefixes skips only maps with no routing: the finder gives
    the status and the witness file of the finder that fills in every map,
    wherever that one ends within its budget."""
    reference = find_subdivision_reference(D, pattern, budget=10 ** 5)
    assume(reference.status != INDETERMINATE)
    out = find_subdivision(D, pattern)
    assert out.status == reference.status
    if out.status == FOUND:
        assert emit_witness(out.witness) == emit_witness(reference.witness)


@settings(max_examples=200, deadline=None)
@given(labeled_digraphs(max_n=7), st.data())
def test_iter_residue_paths_yields_exactly_the_qualifying_paths(D, data):
    """The pruned search yields the qualifying simple paths in brute-force
    depth-first order, with its own table and, through the path kernel,
    with a looser one built without the forbidden set, as find_subdivision
    caches it, with list and filling residue tables alike."""
    if D.n < 2:
        return
    query = data.draw(residue_queries(D, TABLE_MODULI))
    expected = []
    for p in all_simple_paths(D, query.u, query.v, query.endpoints | query.forbidden):
        c1, c2 = D.label_counts(zip(p, p[1:]))
        if (query.a * c1 + query.b * c2) % query.q == query.target:
            expected.append(p)
    assert [p.vertices for p in iter_residue_paths(D, query)] == expected
    loose = walk_reach_masks(D, replace(query, forbidden=frozenset()))
    rank = {v: i for i, v in enumerate(D.vertices)}
    out_steps, _ = search_module._residue_steps(D, query.a, query.b, query.q)
    u, head = rank[query.u], rank[query.v]
    families = search_module._routings(
        [(out_steps, u, head, query.target, [loose.get(v, 0) for v in D.vertices])],
        {rank[w] for w in query.endpoints | query.forbidden}, None)
    assert [tuple(D.vertices[i] for i in p) for p, in families] == expected


@settings(max_examples=10, deadline=None)
@given(labeled_digraphs(max_n=6), st.data())
def test_the_walk_table_at_q_97_matches_a_state_search(D, data):
    """A filling rotate table far past the cap holds the residues of the
    count pairs a plain state search finds; that search has up to 97^2
    pairs per vertex, so few examples."""
    if D.n < 2:
        return
    query = data.draw(residue_queries(D, st.just(97)))
    pairs = walk_count_pairs(D, query.v, query.q, query.endpoints, query.forbidden)
    assert walk_reach_masks(D, query) == pack_residues(pairs, query.a, query.b, query.q)


def _draws(paths, budget):
    """Every draw of the rank-path generator ``paths``: the path, or
    "end" or "exhausted" for the last draw, each with ``budget.spent``
    after it."""
    out = []
    while True:
        try:
            out.append((next(paths), budget.spent))
        except StopIteration:
            return out + [("end", budget.spent)]
        except BudgetExhausted:
            return out + [("exhausted", budget.spent)]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.sampled_from((.2, .35, .5, .8)), st.integers(0, 2 ** 16),
       st.integers(2, 5), st.data())
def test_the_path_kernel_takes_the_reference_steps(n, p, seed, q, data):
    """The flat kernel run on one leg, on its table steps, and the stacked
    path search it replaced, on (rank, k) steps, on one query and one walk
    table: the same rank paths in the same order, the same ``spent`` after
    every draw and at the end, and an exhausted budget at the same step,
    having spent exactly its limit.  The drawn banned set holds u and
    head, or in some draws leaves one or both out: the reference blocks
    them on its own, and the kernel's blocked set gets both, as every
    caller's does.  The walk table is built without a drawn part of the
    banned set, as the finder's cached tables are built without the
    forbidden set."""
    D = gen_random(n, p, .5, .5, seed=seed).digraph
    u, head = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    a, b, target = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    def subset(items):
        return data.draw(st.sets(st.sampled_from(sorted(items)))) if items else set()

    ends = data.draw(st.sampled_from(({u, head}, {u, head}, {u}, {head}, set())))
    banned = frozenset(subset(set(range(n)) - {u, head}) | ends)
    loose = subset(banned - {head})
    limit = data.draw(st.integers(1, 3000))
    out_steps, in_steps = search_module._residue_steps(D, a, b, q)
    reachable = search_module._flood(in_steps, head, banned - {head} - loose)
    reference_steps, _ = residue_steps_reference(D, a, b, q)

    def one_leg(target, banned, reachable, budget):
        legs = [(out_steps, u, head, target, reachable)]
        return (p for p, in search_module._routings(legs, {*banned, u, head}, budget))
    draws = []
    for paths in (one_leg, partial(residue_paths_reference, reference_steps, u, head, q)):
        budget = SearchBudget(limit)
        draws.append(_draws(paths(target, banned, reachable, budget), budget))
    assert draws[0] == draws[1]
    if draws[0][-1][0] == "exhausted":
        assert draws[0][-1][1] == limit


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.sampled_from((.2, .35, .5, .8)), st.integers(0, 2 ** 16),
       st.integers(2, 7), st.data())
def test_the_routing_kernel_takes_the_reference_steps(n, p, seed, q, data):
    """The flat kernel on 1-3 legs, and the finder's old stack of
    reference path searches on the same legs, with one banned set that
    holds every leg's ends: the same first family (or none), the same
    ``spent`` after it, and an exhausted budget at the same step, having
    spent exactly its limit.  Legs may share ends, as a pattern's arcs
    do, and each leg's walk table is built off the banned set but its
    head, as the finder's are."""
    D = gen_random(n, p, .5, .5, seed=seed).digraph
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    ends = data.draw(st.lists(pair, min_size=1, max_size=3))
    banned = frozenset(data.draw(st.sets(st.integers(0, n - 1)))).union(*ends)
    legs, reference_legs = [], []
    for u, head in ends:
        a, b, target = (data.draw(st.integers(0, q - 1)) for _ in range(3))
        out_steps, in_steps = search_module._residue_steps(D, a, b, q)
        reachable = search_module._flood(in_steps, head, banned - {head})
        legs.append((out_steps, u, head, target, reachable))
        reference_steps, _ = residue_steps_reference(D, a, b, q)
        reference_legs.append((reference_steps, u, head, q, target, reachable))
    limit = data.draw(st.integers(1, 3000))
    firsts = []
    for route in (lambda budget: next(search_module._routings(legs, set(banned), budget), None),
                  lambda budget: routing_reference(reference_legs, banned, budget)):
        budget = SearchBudget(limit)
        try:
            firsts.append((route(budget), budget.spent))
        except BudgetExhausted:
            firsts.append(("exhausted", budget.spent))
    assert firsts[0] == firsts[1]
    if firsts[0][0] == "exhausted":
        assert firsts[0][1] == limit


def test_a_budget_spent_past_its_limit_refuses_the_first_step():
    """A budget whose ``spent`` passed its limit (a caller lowered the
    limit, before the search or between two draws) is exhausted: the path
    search refuses its next step, as ``SearchBudget.charge`` refuses every
    charge, and sets ``spent`` to the limit.  Before, a search that started
    on such a budget ran without bound."""
    D = bio_clique(6)
    query = ResidueQuery(u=0, v=5, a=1, b=1, q=5, target=4)
    budget = SearchBudget(5)
    budget.spent = 7
    with pytest.raises(BudgetExhausted):
        budget.charge(0)
    with pytest.raises(BudgetExhausted):
        residue_path(D, query, budget=budget)
    assert budget.spent == budget.limit
    lowered = SearchBudget(100)
    paths = iter_residue_paths(D, query, lowered)
    next(paths)
    lowered.limit = lowered.spent - 1
    with pytest.raises(BudgetExhausted):
        next(paths)
    assert lowered.spent == lowered.limit


@pytest.mark.parametrize("budget", [100, True, 2.5, "100"], ids=["int", "bool", "float", "str"])
@pytest.mark.parametrize("find", [residue_path, iter_residue_paths],
                         ids=["residue_path", "iter_residue_paths"])
def test_a_residue_budget_of_the_wrong_type_is_refused_at_the_call(find, budget):
    """Not at the first draw, with an ``AttributeError`` from inside the
    path search: both functions refuse it before returning."""
    D = bio_clique(4)
    query = ResidueQuery(u=0, v=3, a=1, b=1, q=2, target=1)
    with pytest.raises(TypeError, match="^budget must be a SearchBudget or None$"):
        find(D, query, budget=budget)


def _first_path(D, query, budget=None):
    return next(iter_residue_paths(D, query, budget))


@pytest.mark.parametrize("find", [walk_reach_masks, iter_residue_paths],
                         ids=["walk_reach_masks", "iter_residue_paths"])
@pytest.mark.parametrize("u, v", [(77, 1), (1, 77)], ids=["u_missing", "v_missing"])
def test_residue_functions_refuse_an_endpoint_outside_the_digraph(find, u, v):
    """Both refuse at the call, before any path is drawn."""
    D = gen_random(6, .5, .5, .5, seed=1).digraph
    query = ResidueQuery(u=u, v=v, a=1, b=1, q=3, target=0)
    with pytest.raises(ValueError, match="query endpoints are not vertices of the digraph"):
        find(D, query)


@pytest.mark.parametrize("find", [residue_path, _first_path],
                         ids=["residue_path", "iter_residue_paths"])
def test_residue_functions_charge_the_budget(find):
    """An exhausted budget raises without passing its limit; a larger one
    finds the first path and records the steps it took."""
    D = bio_clique(6)
    query = ResidueQuery(u=0, v=5, a=1, b=1, q=5, target=4)
    small = SearchBudget(3)
    with pytest.raises(BudgetExhausted):
        find(D, query, budget=small)
    assert small.spent == 3
    large = SearchBudget(100)
    assert find(D, query, budget=large).vertices == (0, 1, 2, 3, 5)
    assert large.spent == 6


@pytest.mark.parametrize("limit", [2.5, 65.0, True], ids=["fraction", "integral-float", "bool"])
def test_a_budget_limit_must_be_an_int(limit):
    """A limit that is not an int is refused before any expansion, by the
    budget and by the finder: a fractional limit is never spent exactly,
    and a bool is no count."""
    with pytest.raises(TypeError, match="^budget must be an int$"):
        SearchBudget(limit)
    D = gen_random(14, .25, .5, .5, seed=84).digraph
    with pytest.raises(TypeError, match="^budget must be an int$"):
        find_subdivision(D, K4_TRANSITIVE, budget=limit)


@pytest.mark.parametrize("amount, error, message", [
    (-1, ValueError, "charge must be nonnegative, got -1"),
    (-10, ValueError, "charge must be nonnegative, got -10"),
    (0.5, TypeError, "charge must be an int"),
], ids=["minus-one", "minus-ten", "fraction"])
def test_a_budget_refuses_a_charge_that_is_no_count(amount, error, message):
    """A negative charge would widen the budget, and a fractional one would
    keep the path kernel's countdown from ever reading 0; either is
    refused and leaves ``spent`` as it was."""
    budget = SearchBudget(5)
    budget.charge(2)
    with pytest.raises(error, match=f"^{message}$"):
        budget.charge(amount)
    assert budget.spent == 2


@pytest.mark.parametrize("budget, status", [(65, FOUND), (64, INDETERMINATE)])
def test_the_finder_spends_exactly_its_budget(budget, status):
    """The K4-transitive pattern on a pool host needs 65 expansions; one
    fewer ends INDETERMINATE having spent exactly the limit."""
    D = gen_random(14, .25, .5, .5, seed=84).digraph
    out = find_subdivision(D, K4_TRANSITIVE, budget=budget)
    assert (out.status, out.expansions) == (status, budget)


def _spent_per_draw(D, query, draws):
    """What a private budget has spent after each of the first ``draws``
    paths, from 0 before the first."""
    budget = SearchBudget(10 ** 6)
    paths = iter_residue_paths(D, query, budget)
    spent = [0]
    for _ in range(draws):
        next(paths)
        spent.append(budget.spent)
    return spent


INTERLEAVED = (ResidueQuery(u=0, v=5, a=1, b=1, q=5, target=4),
               ResidueQuery(u=5, v=1, a=1, b=2, q=3, target=1))


def test_interleaved_generators_charge_a_shared_budget_exactly():
    """Two generators drawn in turn from one budget: after each draw it
    holds the sum of what two private budgets hold at the same draw
    counts, though each generator counts its steps in a local between
    yields."""
    D = bio_clique(6)
    first, second = (_spent_per_draw(D, query, 8) for query in INTERLEAVED)
    shared = SearchBudget(10 ** 6)
    gens = [iter_residue_paths(D, query, shared) for query in INTERLEAVED]
    for i in range(1, 9):
        next(gens[0])
        assert shared.spent == first[i] + second[i - 1]
        next(gens[1])
        assert shared.spent == first[i] + second[i]


@pytest.mark.parametrize("crossing", [0, 1], ids=["first", "second"])
def test_a_shared_budget_runs_out_in_the_generator_that_crosses_it(crossing):
    """The limit falls inside one generator's fourth draw: that draw
    raises, the budget reads exactly its limit, and the other generator
    has nothing left either."""
    D = bio_clique(6)
    first, second = (_spent_per_draw(D, query, 4) for query in INTERLEAVED)
    before = (first[3] + second[3], first[4] + second[3])[crossing]
    steps = ((first, second)[crossing][4] - (first, second)[crossing][3])
    assert steps > 1
    shared = SearchBudget(before + steps - 1)
    gens = [iter_residue_paths(D, query, shared) for query in INTERLEAVED]
    for _ in range(3):
        for gen in gens:
            next(gen)
    if crossing:
        next(gens[0])
    with pytest.raises(BudgetExhausted):
        next(gens[crossing])
    assert shared.spent == shared.limit
    with pytest.raises(BudgetExhausted):
        next(gens[1 - crossing])
    assert shared.spent == shared.limit


def test_a_drained_generator_has_spent_every_step_it_took():
    """Steps taken after the last path still count: a budget of exactly
    what a drained generator spent drains it too, and one fewer runs out."""
    D = bio_clique(6)
    query = INTERLEAVED[0]
    budget = SearchBudget(10 ** 6)
    paths = list(iter_residue_paths(D, query, budget))
    assert list(iter_residue_paths(D, query, SearchBudget(budget.spent))) == paths
    short = SearchBudget(budget.spent - 1)
    with pytest.raises(BudgetExhausted):
        list(iter_residue_paths(D, query, short))
    assert short.spent == short.limit


def _relabelled(D, f):
    return LabeledDigraph(map(f, D.vertices), [(f(u), f(v)) for u, v in D.arcs],
                          [(f(u), f(v)) for u, v in D.z1], [(f(u), f(v)) for u, v in D.z2])


def _moved_query(query, f):
    return replace(query, u=f(query.u), v=f(query.v),
                   endpoints=frozenset(map(f, query.endpoints)),
                   forbidden=frozenset(map(f, query.forbidden)))


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=7), prefix_patterns(), st.data())
def test_the_search_commutes_with_an_increasing_relabelling(D, pattern, data):
    """Moving D onto the ids 3v - 5 (spread out, some negative) keeps the
    order of the vertices, so the finder meets the same maps and paths:
    the same status and expansions, and the witness moved along.  The
    residue functions' tables and paths move along too, and a forbidden
    id outside D changes nothing."""
    def f(v):
        return 3 * v - 5
    E = _relabelled(D, f)
    out = find_subdivision(D, pattern, budget=10 ** 5)
    moved = find_subdivision(E, pattern, budget=10 ** 5)
    assert (moved.status, moved.expansions) == (out.status, out.expansions)
    if out.status == FOUND:
        assert moved.witness.branch == tuple(map(f, out.witness.branch))
        assert ({key: p.vertices for key, p in moved.witness.paths.items()}
                == {key: tuple(map(f, p.vertices)) for key, p in out.witness.paths.items()})
    if D.n < 2:
        return
    query = data.draw(residue_queries(D))
    mq = _moved_query(query, f)
    masks = walk_reach_masks(D, query)
    assert walk_reach_masks(E, mq) == {f(w): m for w, m in masks.items()}
    budget, moved_budget = SearchBudget(10 ** 6), SearchBudget(10 ** 6)
    paths = [tuple(map(f, p.vertices)) for p in iter_residue_paths(D, query, budget)]
    assert [p.vertices for p in iter_residue_paths(E, mq, moved_budget)] == paths
    assert moved_budget.spent == budget.spent
    # ids 3v - 4 and 3n - 5 are no vertices of E
    outside = replace(mq, forbidden=mq.forbidden | {-4, f(D.n)})
    assert walk_reach_masks(E, outside) == walk_reach_masks(E, mq)
    assert [p.vertices for p in iter_residue_paths(E, outside)] == paths


@settings(max_examples=200, deadline=None)
@given(labeled_digraphs(max_n=7), st.data())
def test_walk_reach_table_matches_a_state_search(D, data):
    """For every coprime (a, b), the residue table holds the residues of
    the count pairs a plain state search finds, with q up to 13, so with
    list and filling rotate tables alike."""
    if D.n < 2:
        return
    query = data.draw(residue_queries(D, st.integers(2, 13)))
    q = query.q
    pairs = walk_count_pairs(D, query.v, q, query.endpoints, query.forbidden)
    for a in range(1, q):
        for b in range(1, q):
            if math.gcd(a, q) == math.gcd(b, q) == 1:
                assert (walk_reach_masks(D, replace(query, a=a, b=b))
                        == pack_residues(pairs, a, b, q))


@pytest.mark.parametrize("pattern, n, p, seed", [(K4_TRANSITIVE, 12, .18, 6),
                                                 (MIXED_RESIDUES, 9, .3, 0)])
def test_each_walk_table_is_built_once_per_solve(monkeypatch, pattern, n, p, seed):
    """One solve builds the residue steps once per (a, b, q) of the pattern,
    and the table toward a head with a given endpoint set once per arc's
    (a, b, q) until the cache is cleared (never, on hosts this small), for
    every branch map and candidate path."""
    stepped, built = {}, []
    real_steps, real_flood = search_module._residue_steps, search_module._flood

    def counted_steps(D, a, b, q):
        got = real_steps(D, a, b, q)
        assert (a, b, q) not in stepped.values()
        stepped[id(got[1])] = (a, b, q)
        return got

    def counted_flood(in_steps, head, blocked):
        built.append((head, blocked | {head}) + stepped[id(in_steps)])
        return real_flood(in_steps, head, blocked)
    monkeypatch.setattr(search_module, "_residue_steps", counted_steps)
    monkeypatch.setattr(search_module, "_flood", counted_flood)
    out = find_subdivision(gen_random(n, p, .5, .5, seed=seed).digraph, pattern)
    assert out.status == ABSENT
    assert sorted(stepped.values()) == sorted({(e.a, e.b, e.q) for e in pattern.arcs})
    assert built and len(set(built)) == len(built)


ONE_ARC_Q61 = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 61),))


@pytest.mark.parametrize("pattern, host", [
    (K4_TRANSITIVE, gen_random(12, .18, .5, .5, seed=6).digraph),
    (MIXED_RESIDUES, gen_random(9, .3, .5, .5, seed=0).digraph),
    (ONE_ARC_Q61, bio_clique(5))], ids=["K4-transitive", "mixed-residues", "q61-on-K5"])
def test_each_residue_table_is_built_once_per_solve_and_no_list_passes_the_cap(
        monkeypatch, pattern, host):
    """Residue tables are built only with their (a, b, q)'s steps, each
    (kind, residue) once, for residues an arc can add (0, a, b, a + b).
    A list table has at most ``_LIST_CAP`` entries, so a q = 61 pattern,
    whose rotate table would have 2^61, is answered at once: its arc is
    a path of 1 arc in the bioriented K_5."""
    cap = search_module._LIST_CAP
    assert 5 < cap < 257 and 1 << 2 <= cap < 1 << 13  # TABLE_MODULI run both kinds
    stepping, built = [], []
    real_steps, real_table = search_module._residue_steps, search_module._table

    def counted_steps(D, a, b, q):
        stepping.append((a, b, q))
        got = real_steps(D, a, b, q)
        stepping.pop()
        return got

    def counted_table(entry, size):
        got = real_table(entry, size)
        a, b, q = stepping[-1]
        # rotate[1] is 1 << k, and less[0] is -k mod q
        kind, k = ("rotate", got[1].bit_length() - 1) if size == 1 << q else ("less", -got[0] % q)
        assert size in (q, 1 << q) and k in {0, a, b, (a + b) % q}
        assert type(got) is not list or len(got) == size <= cap
        built.append((a, b, q, kind, k))
        return got
    monkeypatch.setattr(search_module, "_residue_steps", counted_steps)
    monkeypatch.setattr(search_module, "_table", counted_table)
    out = find_subdivision(host, pattern)
    assert out.status == (FOUND if pattern is ONE_ARC_Q61 else ABSENT)
    assert built and len(set(built)) == len(built)
    assert {t[:3] for t in built} == {(e.a, e.b, e.q) for e in pattern.arcs}


def test_importing_the_search_builds_no_residue_table():
    """Tables are built with a solve's steps, none at import."""
    code = ("import sys\n"
            "calls = set()\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call'"
            " and calls.add(frame.f_code.co_name))\n"
            "import dichromate.search\n"
            "sys.setprofile(None)\n"
            "print(sorted(calls & {'_table', '_residue_steps', '__missing__'}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# -- no depth limit: the finder keeps its state in lists, not in Python frames --

def test_a_star_pattern_larger_than_the_recursion_limit_is_found():
    """1,000 arcs into one head: the placement runs 1,001 vertices deep and
    the routing 1,000 arcs deep, each step one expansion."""
    n = 1001
    assert n > sys.getrecursionlimit()
    D = LabeledDigraph.on_range(n, [(i, n - 1) for i in range(n - 1)])
    pattern = SubdivisionPattern(n, tuple(PatternArc(i, n - 1, 1, 1, 0, 2)
                                          for i in range(n - 1)))
    outcome = find_subdivision(D, pattern)
    assert (outcome.status, outcome.expansions) == (FOUND, 2 * n - 1)
    assert outcome.witness.branch == tuple(range(n))
    assert verify_witness(D, pattern, outcome.witness).ok


def test_sizing_the_images_of_a_star_reads_each_host_degree_once():
    """The 1,001-vertex star host and pattern: each of D's out- and
    in-lists has its length read at most once, whatever the pattern's
    size, and the 1,000 leaves, with one (out, in) demand, share one
    candidate list.  Before, every pattern vertex read every degree."""
    n = 1001
    D = LabeledDigraph.on_range(n, [(i, n - 1) for i in range(n - 1)])
    pattern = SubdivisionPattern(n, tuple(PatternArc(i, n - 1, 1, 1, 0, 2)
                                          for i in range(n - 1)))
    reads = []

    class Counted(tuple):
        def __len__(self):
            reads.append(self.kind)
            return super().__len__()

    def counted(kind, lists):
        wrapped = {v: Counted(ws) for v, ws in lists.items()}
        for ws in wrapped.values():
            ws.kind = kind
        return wrapped
    D._out, D._in = counted("out", D._out), counted("in", D._in)
    candidates = search_module._feasible_images(D, pattern)
    assert candidates == [list(range(n - 1))] * (n - 1) + [[n - 1]]
    assert len({id(c) for c in candidates}) == 2
    assert reads.count("out") <= n and reads.count("in") <= n


def test_isolated_pattern_vertices_past_the_recursion_limit_are_placed():
    D = LabeledDigraph.on_range(1200, [(i, i + 1) for i in range(1199)])
    outcome = find_subdivision(D, SubdivisionPattern(1100, ()))
    assert (outcome.status, outcome.expansions) == (FOUND, 1100)
    assert outcome.witness.branch == tuple(range(1100))


def test_a_solve_leaves_no_cyclic_garbage():
    """The finder's closures refer to no one of themselves, so its tables
    are freed by reference counting when it returns."""
    D = gen_random(14, .25, .5, .5, seed=84).digraph
    gc.collect()
    gc.disable()
    try:
        outcome = find_subdivision(D, K4_TRANSITIVE)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outcome.status == FOUND
