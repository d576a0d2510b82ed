import hashlib

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


ARCLESS = SubdivisionPattern(3, ())
ONE_ARC = SubdivisionPattern(3, (PatternArc(0, 2, 1, 1, 1, 2),))


@pytest.mark.parametrize("pattern", [ARCLESS, ONE_ARC])
@pytest.mark.parametrize("noise,message", [
    ({"extra_vertices": -1}, "extra vertex count must be nonnegative, got -1"),
    ({"extra_arcs": -5}, "extra arc or edge count must be nonnegative, got -5")])
def test_planted_rejects_negative_noise_counts(pattern, noise, message):
    with pytest.raises(ValueError, match=message):
        gen_planted(pattern, **noise)


@pytest.mark.parametrize("z1_p,z2_p", [(7, 0.3), (0.3, -0.1), (float("nan"), 0.3)])
def test_planted_rejects_bad_probability(z1_p, z2_p):
    with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\]"):
        gen_planted(ONE_ARC, z1_probability=z1_p, z2_probability=z2_p)


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


# Seeded plants frozen as sha256 digests: the directed ones over their
# ``emit_instance`` text, the undirected ones over the edge list with its
# class flags and the witness paths.  Mixed (a, b, q), with and without noise.
PINNED_PLANTS = [
    (SubdivisionPattern(3, (PatternArc(0, 1, 2, 1, 1, 5), PatternArc(1, 2, 1, 3, 4, 5),
                            PatternArc(2, 0, 1, 1, 0, 2))), 4, 15, 3,
     "ab15966576848a2813d649581416ad2f748b63c67769ba4223efbbffa762ec4e"),
    (SubdivisionPattern(3, (PatternArc(0, 1, 1, 2, 2, 3), PatternArc(1, 0, 2, 2, 0, 3),
                            PatternArc(1, 2, 3, 1, 5, 7))), 2, 10, 8,
     "70c0a63440aff31697af9aab48e0d95bae54b1bb569218f4c8af761270727df0"),
    (SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 3, 4),)), 0, 0, 1,
     "8b767cd5f11d10e66bb0fc4853c41f8eb0545950e3cee421102c64ece45eed91"),
]

UNDIRECTED_TRIANGLE = UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 2, 1, 3),
                                            UndirectedPatternEdge(1, 2, 3, 1, 0, 4),
                                            UndirectedPatternEdge(2, 0, 1, 1, 1, 2)))


def _undirected_text(G, witness) -> str:
    lines = [f"v {len(G.vertices)}"]
    lines += [f"e {u} {v} {int((u, v) in G.b1)} {int((u, v) in G.b2)}"
              for u, v in sorted(G.edges)]
    lines.append(f"branch {' '.join(map(str, witness.branch))}")
    lines += [f"path {k[0]} {k[1]} {' '.join(map(str, p))}"
              for k, p in sorted(witness.paths.items())]
    return "\n".join(lines)


@pytest.mark.parametrize("pattern,extra_vertices,extra_arcs,seed,digest", PINNED_PLANTS)
def test_planted_instances_are_pinned(pattern, extra_vertices, extra_arcs, seed, digest):
    inst = gen_planted(pattern, extra_vertices=extra_vertices, extra_arcs=extra_arcs, seed=seed)
    assert hashlib.sha256(emit_instance(inst).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed,digest", [
    (0, "23f435c4d7be0e27a760125971fb22687fa72faeb8fc65703c4765634e615866"),
    (5, "02eb0cdb88e463b8e0ac898c23b749acf12a1f096c245d85dbfb6a125b017ea7"),
    (11, "9288678d3f24ceb7932d65da35dcb5d11e1d52bc9130011b3f0180d246f4deba"),
])
def test_planted_undirected_graphs_are_pinned(seed, digest):
    G, witness = gen_planted_undirected(UNDIRECTED_TRIANGLE, extra_vertices=3,
                                        extra_edges=12, seed=seed)
    assert hashlib.sha256(_undirected_text(G, witness).encode()).hexdigest() == digest


def test_planted_undirected_rejects_bad_input():
    with pytest.raises(ValueError, match="extra vertex count must be nonnegative, got -2"):
        gen_planted_undirected(UNDIRECTED_TRIANGLE, extra_vertices=-2)
    with pytest.raises(ValueError, match="extra arc or edge count must be nonnegative, got -3"):
        gen_planted_undirected(UNDIRECTED_TRIANGLE, extra_edges=-3)
    with pytest.raises(ValueError, match=r"b2 probability must lie in \[0, 1\], got 1.5"):
        gen_planted_undirected(UNDIRECTED_TRIANGLE, b2_probability=1.5)


def test_planted_undirected_without_noise_is_pinned():
    G, witness = gen_planted_undirected(UNDIRECTED_TRIANGLE, seed=2)
    assert witness.paths == {(0, 1): (0, 3, 1), (0, 2): (0, 4, 5, 6, 7, 2),
                             (1, 2): (1, 8, 9, 10, 2)}
    assert _undirected_text(G, witness).splitlines()[:4] == [
        "v 11", "e 0 3 1 0", "e 0 4 0 0", "e 1 3 0 0"]
