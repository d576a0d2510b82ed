import pytest

from dichromate import (PatternArc, SubdivisionPattern, UndirectedPattern,
                        UndirectedPatternEdge, emit_instance,
                        gen_bioriented_clique, gen_planted,
                        gen_planted_undirected, gen_random, mu_exact,
                        verify_undirected_witness, verify_witness)


def test_clique_n1():
    inst = gen_bioriented_clique(1)
    assert inst.digraph.n == 1 and inst.digraph.arc_count == 0
    assert inst.mu_analytic == 1


def test_clique_n4_matches_exact():
    inst = gen_bioriented_clique(4)
    assert inst.digraph.arc_count == 12
    assert mu_exact(inst.digraph).value == inst.mu_analytic == 4


def test_clique_n40_analytic_only():
    inst = gen_bioriented_clique(40)
    assert inst.digraph.arc_count == 1560
    assert inst.mu_analytic == 40


def test_clique_rejects_nonpositive():
    with pytest.raises(ValueError):
        gen_bioriented_clique(0)


def test_random_p0_empty():
    assert gen_random(6, 0.0, 0.5, 0.5, seed=1).digraph.arc_count == 0


def test_random_p1_full_z1():
    D = gen_random(5, 1.0, 1.0, 0.0, seed=1).digraph
    assert D.arc_count == 20
    assert D.z1 == frozenset(D.arcs) and not D.z2


def test_random_seed_reproducible():
    a = emit_instance(gen_random(8, 0.4, 0.5, 0.3, seed=42))
    b = emit_instance(gen_random(8, 0.4, 0.5, 0.3, seed=42))
    c = emit_instance(gen_random(8, 0.4, 0.5, 0.3, seed=43))
    assert a == b
    assert a != c


def test_random_rejects_bad_probability():
    with pytest.raises(ValueError):
        gen_random(5, 1.5, 0.5, 0.5, seed=0)


def test_planted_single_arc_example():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    inst = gen_planted(pattern, seed=0)
    report = verify_witness(inst.digraph, pattern, inst.planted_witness)
    assert report.ok


def test_planted_triangle_q3():
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 3),
                                     PatternArc(1, 2, 1, 1, 2, 3),
                                     PatternArc(2, 0, 1, 1, 0, 3)))
    inst = gen_planted(pattern, seed=5)
    assert verify_witness(inst.digraph, pattern, inst.planted_witness).ok


def test_planted_with_noise_survives():
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 2, 1, 1, 5),
                                     PatternArc(1, 2, 1, 3, 4, 5)))
    for seed in range(10):
        inst = gen_planted(pattern, extra_vertices=6, extra_arcs=30, seed=seed)
        assert verify_witness(inst.digraph, pattern, inst.planted_witness).ok


def test_planted_deterministic():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 4),))
    a = emit_instance(gen_planted(pattern, extra_vertices=3, extra_arcs=9, seed=2))
    b = emit_instance(gen_planted(pattern, extra_vertices=3, extra_arcs=9, seed=2))
    assert a == b


def test_planted_undirected_one_route_per_edge():
    pattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 1, 3),))
    G, witness = gen_planted_undirected(pattern, seed=1)
    assert verify_undirected_witness(G, pattern, witness).ok
    # without noise the graph is exactly the planted path
    seq = witness.paths[(0, 1)]
    assert set(G.vertices) == set(seq)
    assert G.edges == {tuple(sorted(e)) for e in zip(seq, seq[1:])}
