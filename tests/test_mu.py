import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import mu_brute
from conftest import bio_clique, digon, digraph, directed_cycle_graph, labeled_digraphs
from dichromate import (BiorientedCliqueOracle, ExactMuOracle, HintMuOracle,
                        MuBoundExceeded, OracleUnavailable, VertexPartition,
                        gen_bioriented_clique, gen_random, mu_component_max,
                        mu_exact, mu_greedy_upper, verify_partition)


def test_partition_type_validation():
    with pytest.raises(ValueError):
        VertexPartition((frozenset(), frozenset({1})))
    with pytest.raises(ValueError):
        VertexPartition((frozenset({0, 1}), frozenset({1, 2})))
    p = VertexPartition.from_blocks([{2, 3}, {0, 1}])
    assert p.blocks == (frozenset({0, 1}), frozenset({2, 3}))


def test_verify_partition_singletons():
    D = bio_clique(4)
    p = VertexPartition.from_blocks([{v} for v in D.vertices])
    assert verify_partition(D, p)


def test_verify_partition_unbalanced_digon_block():
    D = digon(z1=[(0, 1), (1, 0)])
    assert not verify_partition(D, VertexPartition.from_blocks([{0, 1}]))


def test_verify_partition_balanced_c6_single_block():
    D = directed_cycle_graph(6, z1_indices=[0, 1, 2], z2_indices=[3, 4, 5])
    assert verify_partition(D, VertexPartition.from_blocks([set(range(6))]))


def test_verify_partition_requires_cover():
    with pytest.raises(ValueError):
        verify_partition(bio_clique(3), VertexPartition.from_blocks([{0, 1}]))


def test_mu_exact_acyclic():
    result = mu_exact(digraph(4, [(0, 1), (1, 2), (0, 3)], z1=[(0, 1)]))
    assert result.value == 1
    assert result.certificate.num_blocks == 1


def test_mu_exact_bioriented_cliques():
    for n in range(1, 7):
        result = mu_exact(bio_clique(n))
        assert result.value == n
        assert verify_partition(bio_clique(n), result.certificate)


def test_mu_exact_c5_one_label():
    D = directed_cycle_graph(5, z1_indices=[0])
    assert mu_brute(D) == 2
    assert mu_exact(D).value == 2


def test_mu_exact_empty():
    result = mu_exact(digraph(0, []))
    assert result.value == 0 and result.certificate.num_blocks == 0


def test_mu_exact_limit_raises_with_bounds():
    with pytest.raises(MuBoundExceeded) as info:
        mu_exact(bio_clique(5), limit=3)
    assert info.value.lower_bound == 4
    assert info.value.upper_bound >= 5


def test_mu_exact_rejects_a_host_with_unknown_vertices():
    D = bio_clique(4)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[9\]"):
        mu_exact(D, host={0, 1, 9})
    assert mu_exact(D, host={0, 1}).value == 2


def test_mu_exact_limit_returns_when_within():
    assert mu_exact(bio_clique(4), limit=4).value == 4


def test_mu_matches_bruteforce():
    for seed in range(30):
        D = gen_random(6, 0.35, 0.5, 0.3, seed=seed).digraph
        assert mu_exact(D).value == mu_brute(D)
    for seed in range(10):
        D = gen_random(7, 0.35, 0.5, 0.3, seed=seed).digraph
        assert mu_exact(D).value == mu_brute(D)


def test_mu_certificate_always_verifies_and_is_minimal():
    for seed in range(12):
        D = gen_random(6, 0.4, 0.6, 0.2, seed=seed).digraph
        result = mu_exact(D)
        assert verify_partition(D, result.certificate)
        assert result.certificate.num_blocks == result.value == mu_brute(D)


def test_lower_bound_trace_records_exhausted_depths():
    result = mu_exact(bio_clique(3))
    trace = result.lower_bound_trace
    assert len(trace) == 1
    ks = [k for k, _ in trace[0].attempts]
    assert ks == [1, 2, 3]
    assert all(nodes > 0 for _, nodes in trace[0].attempts)


def test_mu_component_max_examples():
    two_digons = digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)],
                         z1=[(0, 1), (1, 0), (2, 3), (3, 2)])
    assert mu_component_max(two_digons) == 2
    assert mu_exact(two_digons).value == 2
    assert mu_component_max(digraph(3, [(0, 1), (1, 2)])) == 1
    digon_plus_isolated = digraph(3, [(0, 1), (1, 0)], z1=[(0, 1), (1, 0)])
    assert mu_component_max(digon_plus_isolated) == 2


def test_mu_equals_component_max_on_random():
    for seed in range(40):
        D = gen_random(8, 0.3, 0.5, 0.3, seed=seed).digraph
        assert mu_exact(D).value == mu_component_max(D)


def test_mu_monotone_under_induced():
    for seed in range(15):
        D = gen_random(7, 0.4, 0.5, 0.3, seed=seed).digraph
        whole = mu_exact(D).value
        sub = mu_exact(D.induced({0, 2, 3, 5})).value
        assert sub <= whole


def test_greedy_upper_examples():
    assert mu_greedy_upper(digraph(4, [(0, 1), (1, 2)])).num_blocks == 1
    assert mu_greedy_upper(bio_clique(4)).num_blocks == 4


def test_greedy_upper_tournament_dominates_exact():
    import random
    rng = random.Random(5)
    for _ in range(8):
        arcs = []
        for u in range(7):
            for v in range(u + 1, 7):
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        D = digraph(7, arcs, z1=arcs)
        greedy = mu_greedy_upper(D)
        assert verify_partition(D, greedy)
        assert greedy.num_blocks >= mu_exact(D).value


def test_greedy_upper_always_valid_and_dominating():
    for seed in range(25):
        D = gen_random(8, 0.35, 0.5, 0.3, seed=seed).digraph
        greedy = mu_greedy_upper(D)
        assert verify_partition(D, greedy)
        assert greedy.num_blocks >= mu_exact(D).value


def test_exact_oracle_caches_and_answers():
    D = bio_clique(5)
    oracle = ExactMuOracle(D)
    assert oracle.mu({0, 1, 2}) == 3
    assert oracle.mu_at_least({0, 1, 2, 3}, 4)
    assert not oracle.mu_at_least({0, 1}, 3)
    assert oracle.mu(D.vertices) == 5
    with pytest.raises(ValueError):
        oracle.mu({99})


def test_exact_oracle_on_acyclic_subset():
    D = digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert ExactMuOracle(D).mu({0, 1, 2}) == 1


def test_analytic_oracle_clique():
    D = bio_clique(6)
    oracle = BiorientedCliqueOracle(D)
    assert oracle.mu({0, 2, 3, 4, 5}) == 5
    assert oracle.mu(set()) == 0
    with pytest.raises(ValueError):
        BiorientedCliqueOracle(digon())


def test_analytic_oracle_matches_exact_on_small_cliques():
    for n in range(1, 7):
        inst = gen_bioriented_clique(n)
        oracle = BiorientedCliqueOracle(inst.digraph)
        assert oracle.mu(inst.digraph.vertices) == mu_exact(inst.digraph).value == inst.mu_analytic


def test_hint_oracle_missing_key_signals():
    oracle = HintMuOracle({frozenset({0, 1}): 2})
    assert oracle.mu({0, 1}) == 2
    with pytest.raises(OracleUnavailable):
        oracle.mu({0, 1, 2})


def test_mu_exact_long_balanced_cycle_needs_no_recursion():
    # the search keeps its own stack: 1500 levels deep used to overflow
    n = 1500
    arcs = [(i, (i + 1) % n) for i in range(n)]
    D = digraph(n, arcs, z1=arcs[:3], z2=arcs[3:6])
    result = mu_exact(D)
    assert result.value == 1
    assert result.lower_bound_trace[0].attempts == ((1, n),)
    assert verify_partition(D, result.certificate)


ALL22 = frozenset(range(22))

# (p, seed) -> (value, certificate blocks, [(component, attempts, value)]),
# recorded from the copy-based solver that re-tested each touched part with
# has_unbalanced_cycle(D.induced(part)); the incremental search must visit
# the same nodes and return the same certificate.
PINNED_MU = {
    (.5, 0): (4, [[0, 1, 12, 14, 15, 18], [2, 5, 6, 7, 10, 20], [3, 4, 11, 13, 21],
                  [8, 9, 16, 17, 19]],
              [(ALL22, ((1, 3), (2, 39), (3, 1172), (4, 132)), 4)]),
    (.5, 1): (4, [[0, 1, 3, 11, 15], [2, 5, 6, 8, 19, 21], [4, 9, 10, 12, 14, 16, 18],
                  [7, 13, 17, 20]],
              [(ALL22, ((1, 3), (2, 29), (3, 635), (4, 51)), 4)]),
    (.5, 2): (4, [[0, 4, 10, 11, 13], [1, 2, 6, 12, 17, 19, 21], [3, 5, 7, 16],
                  [8, 9, 14, 15, 18, 20]],
              [(ALL22, ((1, 2), (2, 21), (3, 504), (4, 53)), 4)]),
    (.5, 3): (4, [[0, 8, 15], [1, 2, 6, 9, 12, 18], [3, 5, 7, 11, 13, 16, 20],
                  [4, 10, 14, 17, 19, 21]],
              [(ALL22, ((1, 2), (2, 13), (3, 1056), (4, 102)), 4)]),
    (.12, 0): (2, [[0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 18, 19, 21],
                   [3, 10, 14, 15, 20]],
               [({0}, ((1, 1),), 1), (ALL22 - {0, 8, 21}, ((1, 3), (2, 24)), 2),
                ({8}, ((1, 1),), 1), ({21}, ((1, 1),), 1)]),
    (.12, 2): (2, [[0, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 18, 19, 20, 21],
                   [1, 10, 11, 12, 14, 15]],
               [(ALL22 - {2, 19, 21}, ((1, 9), (2, 25)), 2), ({2}, ((1, 1),), 1),
                ({19}, ((1, 1),), 1), ({21}, ((1, 1),), 1)]),
}


@pytest.mark.parametrize("p,seed", sorted(PINNED_MU))
def test_mu_exact_pinned_certificates_and_traces(p, seed):
    value, blocks, traces = PINNED_MU[(p, seed)]
    result = mu_exact(gen_random(22, p, .5, .5, seed=seed).digraph)
    assert result.value == value
    assert [sorted(b) for b in result.certificate.blocks] == blocks
    assert [(t.component, t.attempts, t.value) for t in result.lower_bound_trace] == \
        [(frozenset(c), a, k) for c, a, k in traces]


@settings(max_examples=120, deadline=None)
@given(labeled_digraphs())
def test_mu_exact_matches_bruteforce_property(D):
    result = mu_exact(D)
    assert result.value == mu_brute(D)
    assert result.certificate.num_blocks == result.value
    assert verify_partition(D, result.certificate)
    assert mu_greedy_upper(D).num_blocks >= result.value


@settings(max_examples=80, deadline=None)
@given(labeled_digraphs(), st.data())
def test_exact_oracle_on_subsets_matches_bruteforce(D, data):
    subset = data.draw(st.sets(st.sampled_from(D.vertices)) if D.n else st.just(set()))
    bound = data.draw(st.integers(0, 4))
    oracle = ExactMuOracle(D)
    expected = mu_brute(D.induced(subset))
    assert oracle.mu_at_least(subset, bound) == (expected >= bound)
    assert oracle.mu(subset) == expected
