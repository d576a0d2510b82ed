import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce
from bruteforce import (TwoPathExactMuOracle, greedy_blocks_reference, list_adjacency,
                        list_search_k, mu_brute, mu_component_max, mu_search_reference)
from conftest import (bio_clique, digon, digraph, directed_cycle_graph, labeled_digraphs,
                      sparse_or_dense_digraphs)
from dichromate import (BiorientedCliqueOracle, ExactMuOracle, HintMuOracle, LabeledDigraph,
                        MuBoundExceeded, OracleUnavailable, VertexPartition,
                        disjoint_unbalanced_cycles, gen_bioriented_clique, gen_random, mu_exact,
                        mu_greedy_upper, strong_components, verify_lower_bound,
                        verify_partition)
from dichromate import cli as cli_module
from dichromate import mu as mu_module
from dichromate import oracles as oracles_module
from dichromate.digraph import _is_dense


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
    assert info.value.lower_bound == 5


def test_mu_exact_rejects_a_host_with_unknown_vertices():
    D = bio_clique(4)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[9\]"):
        mu_exact(D, host={0, 1, 9})
    assert mu_exact(D, host={0, 1}).value == 2


def test_mu_exact_rejects_a_negative_limit():
    for D in (digraph(0, []), bio_clique(5)):
        with pytest.raises(ValueError, match="limit must be nonnegative, got -1"):
            mu_exact(D, limit=-1)
    assert mu_exact(digraph(0, []), limit=0).value == 0
    with pytest.raises(MuBoundExceeded):
        mu_exact(bio_clique(5), limit=0)


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
    assert ks == [3]
    assert trace[0].clique == (0, 1, 2)
    # the clique covers the component, so no search runs
    assert trace[0].attempts == ((3, 0),)


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


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs())
def test_greedy_upper_is_the_first_fit_loop(D):
    """The exact search's first branch with one part per vertex gives the
    first-fit blocks, block for block, and they are balanced."""
    greedy = mu_greedy_upper(D)
    assert greedy.blocks == tuple(greedy_blocks_reference(D))
    assert verify_partition(D, greedy)


def test_exact_oracle_caches_and_answers():
    D = bio_clique(5)
    oracle = ExactMuOracle(D)
    assert oracle.mu({0, 1, 2}) == 3
    assert oracle.mu_at_least({0, 1, 2, 3}, 4)
    assert not oracle.mu_at_least({0, 1}, 3)
    assert oracle.mu(D.vertices) == 5
    with pytest.raises(ValueError):
        oracle.mu({99})


def test_threshold_query_checks_its_subset_first():
    """A bound that every value meets still refuses a subset outside D."""
    D = bio_clique(4)
    for oracle in (ExactMuOracle(D), BiorientedCliqueOracle(D)):
        for bound in (-1, 0, 2):
            with pytest.raises(ValueError, match="outside the oracle's digraph"):
                oracle.mu_at_least([99], bound)
        assert oracle.mu_at_least([0, 1], 0) and oracle.mu_at_least([], 0)


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


def test_analytic_oracle_refuses_a_clique_that_is_not_one_sided():
    arcs = bio_clique(5).arcs
    with pytest.raises(ValueError, match="one-sided"):
        BiorientedCliqueOracle(digraph(5, arcs, z1=arcs[1:]))
    with pytest.raises(ValueError, match="one-sided"):
        BiorientedCliqueOracle(digraph(5, arcs, z1=arcs, z2=arcs))
    assert BiorientedCliqueOracle(digraph(5, arcs, z2=arcs)).mu(range(5)) == 5


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


def test_search_tests_only_vertices_that_close_a_cycle(monkeypatch):
    """On a directed cycle placed in one part, only the last vertex has an
    out-neighbour in the part, so the kernel runs once; nodes still count
    every placement."""
    tested = []
    kernel = mu_module.unbalanced_through

    def counting(adj, part, v):
        tested.append(part)
        return kernel(adj, part, v)

    monkeypatch.setattr(mu_module, "unbalanced_through", counting)
    result = mu_exact(directed_cycle_graph(200))
    assert result.lower_bound_trace[0].attempts == ((1, 200),)
    assert len(tested) == 1


ALL22 = frozenset(range(22))

# (p, seed) -> (value, certificate blocks, [(component, attempts, value)]).
# Values and blocks were recorded from the copy-based solver that re-tested
# each touched part with has_unbalanced_cycle(D.induced(part)); the node
# counts are the backjumping search's, at most the chronological one's
# (which read 39/1172/132, 29/635/51, 504/53 and 13/1056/102 for p = .5).
# Depths below the size of the component's digon clique are not searched,
# and a component its clique covers (here the one-vertex ones) is not
# searched at all: its one attempt explored 0 nodes.
PINNED_MU = {
    (.5, 0): (4, [[0, 1, 12, 14, 15, 18], [2, 5, 6, 7, 10, 20], [3, 4, 11, 13, 21],
                  [8, 9, 16, 17, 19]],
              [(ALL22, ((2, 21), (3, 852), (4, 123)), 4)]),
    (.5, 1): (4, [[0, 1, 3, 11, 15], [2, 5, 6, 8, 19, 21], [4, 9, 10, 12, 14, 16, 18],
                  [7, 13, 17, 20]],
              [(ALL22, ((2, 29), (3, 427), (4, 51)), 4)]),
    (.5, 2): (4, [[0, 4, 10, 11, 13], [1, 2, 6, 12, 17, 19, 21], [3, 5, 7, 16],
                  [8, 9, 14, 15, 18, 20]],
              [(ALL22, ((3, 209), (4, 53)), 4)]),
    (.5, 3): (4, [[0, 8, 15], [1, 2, 6, 9, 12, 18], [3, 5, 7, 11, 13, 16, 20],
                  [4, 10, 14, 17, 19, 21]],
              [(ALL22, ((2, 13), (3, 840), (4, 102)), 4)]),
    (.12, 0): (2, [[0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 18, 19, 21],
                   [3, 10, 14, 15, 20]],
               [({0}, ((1, 0),), 1), (ALL22 - {0, 8, 21}, ((2, 24),), 2),
                ({8}, ((1, 0),), 1), ({21}, ((1, 0),), 1)]),
    (.12, 2): (2, [[0, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 18, 19, 20, 21],
                   [1, 10, 11, 12, 14, 15]],
               [(ALL22 - {2, 19, 21}, ((1, 9), (2, 25)), 2), ({2}, ((1, 0),), 1),
                ({19}, ((1, 0),), 1), ({21}, ((1, 0),), 1)]),
}


@pytest.mark.parametrize("p,seed", sorted(PINNED_MU))
def test_mu_exact_pinned_certificates_and_traces(p, seed):
    value, blocks, traces = PINNED_MU[(p, seed)]
    result = mu_exact(gen_random(22, p, .5, .5, seed=seed).digraph)
    assert result.value == value
    assert [sorted(b) for b in result.certificate.blocks] == blocks
    assert [(t.component, t.attempts, t.value) for t in result.lower_bound_trace] == \
        [(frozenset(c), a, k) for c, a, k in traces]


def _matches_the_chronological_search(result, traces, blocks):
    """Same components, cliques, part counts, values and blocks as the
    chronological reference, and at most its nodes at every part count:
    backjumping in the same order only skips subtrees that hold no
    partition."""
    assert [(t.component, t.clique, [k for k, _ in t.attempts], t.value)
            for t in result.lower_bound_trace] == \
        [(c, q, [k for k, _ in a], a[-1][0]) for c, a, q in traces]
    for t, (_, attempts, _) in zip(result.lower_bound_trace, traces):
        assert all(n <= ref for (_, n), (_, ref) in zip(t.attempts, attempts))
    assert result.value == max((a[-1][0] for _, a, _ in traces), default=0)
    assert list(result.certificate.blocks) == blocks


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=9))
def test_mask_search_matches_the_list_reference(D):
    """The search on dict adjacency, with one full balance test per node
    and chronological backtracking, gives the same certificate and trace."""
    traces, blocks = mu_search_reference(D)
    _matches_the_chronological_search(mu_exact(D), traces, blocks)


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs())
def test_greedy_upper_is_the_chronological_first_branch(D):
    """With one part per vertex the search never backtracks, so backjumping
    leaves the greedy blocks as the chronological search gives them."""
    out_w, inn = list_adjacency(D, D.vertices)
    blocks, _ = list_search_k(out_w, inn, list(D.vertices), D.n)
    assert mu_greedy_upper(D) == VertexPartition.from_blocks(blocks)


@st.composite
def dense_digraphs_of_components(draw):
    """Dense digraphs whose scattered vertex identifiers are dealt into two
    or three blocks of 6 to 9; inside a block each ordered pair is an arc
    with a high drawn probability, and between blocks arcs run only from an
    earlier block to a later one, so every block with a cycle is a strong
    component.  Each arc is in z1 only, z2 only, both classes, or neither."""
    sizes = draw(st.lists(st.integers(6, 9), min_size=2, max_size=3))
    ids = draw(st.sets(st.integers(0, 200), min_size=sum(sizes), max_size=sum(sizes)))
    ids = draw(st.permutations(sorted(ids)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    inside, across = draw(st.sampled_from(((0.85, 1.0), (1.0, 0.7), (0.95, 0.9))))
    block = {v: i for i, size in enumerate(sizes)
             for v in ids[sum(sizes[:i]):sum(sizes[:i + 1])]}
    arcs = [(u, v) for u in ids for v in ids if u != v
            and rng.random() < (inside if block[u] == block[v] else across * (block[u] < block[v]))]
    kinds = [rng.randrange(4) for _ in arcs]
    D = LabeledDigraph(ids, arcs, z1=[a for a, k in zip(arcs, kinds) if k in (1, 3)],
                       z2=[a for a, k in zip(arcs, kinds) if k in (2, 3)])
    assume(_is_dense(D) and sum(len(c) >= 2 for c in strong_components(D)) >= 2)
    return D


@settings(max_examples=100, deadline=None)
@given(dense_digraphs_of_components(), st.data())
def test_dense_host_reads_the_masks_of_all_of_d(D, data):
    """On a dense D every component and every packing host reads the masks
    of all of D; on a proper host they give the value, blocks, traces and
    cycles of the induced copy, which the reference search confirms."""
    dropped = data.draw(st.sets(st.sampled_from(D.vertices), min_size=1))
    S = set(D.vertices) - dropped
    sub = D.induced(S)
    on_host, on_copy = mu_exact(D, host=S), mu_exact(sub)
    traces, blocks = mu_search_reference(sub)
    for result in (on_host, on_copy):
        _matches_the_chronological_search(result, traces, blocks)
    assert on_host.lower_bound_trace == on_copy.lower_bound_trace
    assert on_host.value == on_copy.value
    assert disjoint_unbalanced_cycles(D, 2, host=S) == disjoint_unbalanced_cycles(sub, 2)


# n -> (blocks but the last, which holds the rest, and the component's
# attempts) of gen_random(n, 5 / n, .5, .5, seed=1), mu 2.  The
# chronological search took 344,214 nodes and about 2 s at n = 60, and did
# not finish at n = 80 in 20 s.
PINNED_SPARSE = {
    60: ([[0, 1, 3, 4, 5, 6, 13, 18, 22, 23, 24, 28, 29, 33, 34, 35, 40, 45, 48, 49, 51, 53,
           54, 55, 56, 58]], ((2, 12397),)),
    80: ([[0, 1, 2, 4, 5, 7, 9, 16, 18, 19, 21, 22, 23, 24, 25, 28, 29, 30, 32, 33, 35, 37,
           39, 42, 43, 45, 49, 52, 53, 55, 57, 64, 65, 66, 69, 70, 71, 73, 74, 76, 79]],
         ((2, 7101),)),
}


@pytest.mark.parametrize("n", sorted(PINNED_SPARSE))
def test_mu_exact_backjumps_through_the_sparse_tail(n):
    blocks, attempts = PINNED_SPARSE[n]
    D = gen_random(n, 5 / n, .5, .5, seed=1).digraph
    result = mu_exact(D)
    rest = sorted(set(D.vertices).difference(*blocks))
    assert result.value == 2
    assert [sorted(b) for b in result.certificate.blocks] == blocks + [rest]
    assert [t.attempts for t in result.lower_bound_trace if len(t.component) > 1] == [attempts]
    assert verify_partition(D, result.certificate)
    assert verify_lower_bound(D, result)


def test_search_memo_tests_each_part_once(monkeypatch):
    """Every node is counted, memo hits included, but the kernel runs once
    per distinct part mask, shared by every depth."""
    tested = []
    kernel = mu_module.unbalanced_through

    def counting(adj, part, v):
        tested.append(part)
        return kernel(adj, part, v)

    monkeypatch.setattr(mu_module, "unbalanced_through", counting)
    result = mu_exact(gen_random(22, .5, .5, .5, seed=0).digraph)
    (trace,) = result.lower_bound_trace
    assert trace.attempts == PINNED_MU[(.5, 0)][2][0][1]
    nodes = sum(n for _, n in trace.attempts)
    assert len(set(tested)) == len(tested) < nodes


def test_search_refutes_nonzero_digons_before_the_memo(monkeypatch):
    """A part in which the new vertex has a nonzero-digon partner is
    refuted by one AND: the kernel never sees one, read with ``D.has_arc``
    and ``D.weight``, and runs 169 times with the pinned attempts (195 in
    the chronological search, 433 when such parts went through the memo
    too)."""
    D = gen_random(22, .5, .5, .5, seed=0).digraph
    tested = []
    kernel = mu_module.unbalanced_through

    def counting(adj, part, v):
        tested.append((adj.vertices[v], adj.members(part)))
        return kernel(adj, part, v)

    monkeypatch.setattr(mu_module, "unbalanced_through", counting)
    (trace,) = mu_exact(D).lower_bound_trace
    assert trace.attempts == PINNED_MU[(.5, 0)][2][0][1]
    for u, part in tested:
        assert not any(D.has_arc(u, w) and D.has_arc(w, u) and D.weight((u, w)) + D.weight((w, u))
                       for w in part)
    assert len(tested) == 169


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
    lower = data.draw(st.integers(0, bound))
    oracle = ExactMuOracle(D)
    expected = mu_brute(D.induced(subset))
    # the same threshold twice, then a lower one, all before any value query
    for b in (bound, bound, lower):
        assert oracle.mu_at_least(subset, b) == (expected >= b)
    assert oracle.mu(subset) == expected


def _with_trace(result, i=0, **changes):
    traces = list(result.lower_bound_trace)
    traces[i] = replace(traces[i], **changes)
    return replace(result, lower_bound_trace=tuple(traces))


def test_verify_lower_bound_rejects_tampered_traces():
    # 0 <-> 1 is a z1 digon, 1 -> 2 -> 0 closes a triangle without a digon
    D = digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)], z1=[(0, 1), (1, 0), (1, 2), (2, 0)])
    result = mu_exact(D)
    assert result.lower_bound_trace[0].clique == (0, 1)
    assert verify_lower_bound(D, result)
    assert not verify_lower_bound(D, _with_trace(result, clique=(1, 2)))
    assert not verify_lower_bound(D, _with_trace(result, clique=(0, 0)))
    assert not verify_lower_bound(D, _with_trace(result, clique=(0, 1, 2)))
    assert not verify_lower_bound(D, replace(result, value=result.value + 1))

    # 1 <-> 2 is a digon of total weight 0
    D = digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)], z1=[(0, 1), (1, 0), (1, 2)], z2=[(2, 1)])
    result = mu_exact(D)
    assert verify_lower_bound(D, result)
    assert not verify_lower_bound(D, _with_trace(result, clique=(1, 2)))

    D = gen_random(22, .5, .5, .5, seed=0).digraph
    result = mu_exact(D)
    (k2, n2), _, (k4, n4) = result.lower_bound_trace[0].attempts
    assert verify_lower_bound(D, result)
    assert not verify_lower_bound(D, _with_trace(result, attempts=((k2, n2), (k4, n4))))
    assert not verify_lower_bound(D, _with_trace(result, attempts=((k2, 0), (3, 1), (k4, n4))))


@settings(max_examples=120, deadline=None)
@given(labeled_digraphs(max_n=7))
def test_digon_clique_lower_bound_property(D):
    result = mu_exact(D)
    expected = mu_brute(D)
    assert verify_lower_bound(D, result)
    assert all(len(t.clique) <= expected for t in result.lower_bound_trace)
    assert result.value == result.certificate.num_blocks == expected
    assert verify_partition(D, result.certificate)


def _hub_family(m=8, hub=3):
    """A z1 bioriented K_m plus a hub joined to it by unlabelled digons: the
    value of a strong component is the number of clique vertices in it."""
    clique = [v for v in range(m + 1) if v != hub]
    arcs = [(u, v) for u in clique for v in clique if u != v]
    digons = [(hub, v) for v in clique] + [(v, hub) for v in clique]
    return digraph(m + 1, arcs + digons, z1=arcs)


def test_exact_oracle_on_hub_family_searches_only_at_the_answer(monkeypatch):
    m, hub = 8, 3
    D = _hub_family(m, hub)
    searches = []
    search_k = mu_module._search_k

    def counting(adj, memo, order, k):
        searches.append((frozenset(order), k))
        return search_k(adj, memo, order, k)

    monkeypatch.setattr(mu_module, "_search_k", counting)
    oracle = ExactMuOracle(D)
    for size in range(m + 2):
        for subset in combinations(D.vertices, size):
            answer = max(len(set(subset) - {hub}), min(size, 1))
            for bound in range(size + 2):
                assert oracle.mu_at_least(subset, bound) == (answer >= bound)
            assert oracle.mu(subset) == answer
    assert searches
    assert all(k == max(1, len(comp - {hub})) for comp, k in searches)
    # every clique vertex but the hub is in the digon clique: only a
    # component with the hub and a clique vertex is left to search
    assert all(hub in comp and len(comp) > 1 for comp, _ in searches)


def _count_solver_calls(monkeypatch, oracle, queries):
    calls = []
    solve = oracles_module.mu_exact

    def counting(*args, **kwargs):
        calls.append(kwargs["host"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracles_module, "mu_exact", counting)
    answers = [oracle.mu(s) if b is None else oracle.mu_at_least(s, b) for s, b in queries]
    monkeypatch.setattr(oracles_module, "mu_exact", solve)
    return answers, len(calls)


def test_exact_oracle_bounds_cut_hub_family_solver_calls(monkeypatch):
    """The extraction's pattern: the value of the whole set, then threshold
    queries at fixed floors on ever smaller sets.  A set below one whose
    value is cached under the floor is refuted from that superset without
    the solver, and the first solve's digon clique and partition settle
    the rest; with the cache scan switched off, every uncached query
    solves (51 calls here, 2 with the scan)."""
    D = _hub_family()
    queries, level = [(frozenset(D.vertices), None)], [frozenset(D.vertices)]
    while level and len(level[0]) > 1:
        queries += [(s, floor) for s in level for floor in (8, 7)]
        level = sorted({s - {v} for s in level[:3] for v in s}, key=sorted)
    value = {s: max(len(s - {3}), min(len(s), 1)) for s, _ in queries}
    expected = [value[s] if b is None else value[s] >= b for s, b in queries]

    answers, with_bounds = _count_solver_calls(monkeypatch, ExactMuOracle(D), queries)
    assert answers == expected
    monkeypatch.setattr(ExactMuOracle, "_bounds", lambda self, key: (0, len(key) + 1))
    answers, without = _count_solver_calls(monkeypatch, ExactMuOracle(D), queries)
    assert answers == expected
    assert (with_bounds, without) == (2, 51)


def _subset_queries(n):
    """Query sequences on one vertex set range(n): each query takes a fresh
    set, or a subset or superset of the set asked just before, and asks
    its value or a threshold."""
    vertices = list(range(n))

    @st.composite
    def queries(draw):
        out, last = [], set()
        for _ in range(draw(st.integers(1, 12))):
            how = draw(st.sampled_from(["fresh", "shrink", "grow"]))
            if how == "fresh" or not vertices:
                last = draw(st.sets(st.sampled_from(vertices))) if vertices else set()
            elif how == "shrink":
                last = last - draw(st.sets(st.sampled_from(vertices), max_size=2))
            else:
                last = last | draw(st.sets(st.sampled_from(vertices), max_size=2))
            bound = draw(st.none() | st.integers(0, n + 1))
            out.append((frozenset(last), bound))
        return out
    return queries()


def _solver_hosts(oracle, queries, module=oracles_module):
    """The answers to ``queries`` and the hosts of the solver calls they
    make, counted through ``module.mu_exact``."""
    hosts = []
    solve = module.mu_exact

    def counting(*args, **kwargs):
        hosts.append(kwargs["host"])
        return solve(*args, **kwargs)

    with patch.object(module, "mu_exact", counting):
        answers = [oracle.mu(s) if b is None else oracle.mu_at_least(s, b) for s, b in queries]
    return answers, hosts


@settings(max_examples=60, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_exact_oracle_bounds_answer_like_bruteforce(D, data):
    """Nested and overlapping queries, so that cached subsets and supersets
    bound later ones; every answer equals the brute-force value, and the
    solver calls and the cache equal those of the two-path reference."""
    queries = data.draw(_subset_queries(D.n))
    brute = {s: mu_brute(D.induced(s)) for s in {s for s, _ in queries}}
    expected = [brute[s] if b is None else brute[s] >= b for s, b in queries]
    oracle, reference = ExactMuOracle(D), TwoPathExactMuOracle(D)
    answers, hosts = _solver_hosts(oracle, queries)
    assert answers == expected
    assert _solver_hosts(reference, queries, bruteforce) == (answers, hosts)
    assert oracle._values == reference._values


def _check_certificates(D, oracle):
    """Each kept certificate, checked without the oracle: its blocks
    partition its key into balanced blocks, as many as the key's value, and
    each clique's vertices are pairwise joined by arcs of nonzero summed
    weight."""
    assert oracle._certificates.keys() <= oracle._values.keys()
    for key, (blocks, cliques) in oracle._certificates.items():
        assert sum(len(b) for b in blocks) == len(key) and frozenset().union(*blocks) == key
        assert len(blocks) == oracle._values[key]
        assert verify_partition(D.induced(key), VertexPartition.from_blocks(blocks))
        for clique in cliques:
            assert len(clique) > 1 and clique <= key
            for u, v in combinations(sorted(clique), 2):
                assert D.has_arc(u, v) and D.has_arc(v, u)
                assert D.weight((u, v)) + D.weight((v, u)) != 0


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_exact_oracle_certificate_bounds_never_add_solves(D, data):
    """Every answer equals the brute-force value, the oracle never calls
    the solver more often than the value-only reference, and every
    certificate it keeps passes the independent checks."""
    queries = data.draw(_subset_queries(D.n))
    brute = {s: mu_brute(D.induced(s)) for s in {s for s, _ in queries}}
    expected = [brute[s] if b is None else brute[s] >= b for s, b in queries]
    oracle = ExactMuOracle(D)
    answers, hosts = _solver_hosts(oracle, queries)
    assert answers == expected
    _, value_only = _solver_hosts(TwoPathExactMuOracle(D, certificates=False), queries,
                                  bruteforce)
    assert len(hosts) <= len(value_only)
    _check_certificates(D, oracle)


@settings(max_examples=100, deadline=None)
@given(labeled_digraphs(max_n=8), st.data())
def test_exact_oracle_bounds_equal_the_two_scan_reference(D, data):
    """The bounds read from certificates alone equal those of the
    reference, which also scans the cached values: after every query, on
    every key asked so far and on the empty set."""
    oracle, reference = ExactMuOracle(D), TwoPathExactMuOracle(D)
    asked = {frozenset()}
    for s, b in data.draw(_subset_queries(D.n)):
        for o in (oracle, reference):
            if b is None:
                o.mu(s)
            else:
                o.mu_at_least(s, b)
        asked.add(s)
        for key in asked:
            assert oracle._bounds(key) == reference._bounds(key)


def test_exact_oracle_shared_by_threads_answers_like_serial():
    """Four threads query one oracle at once; each answer equals the one a
    fresh oracle gives when the queries are asked one at a time, and the
    shared oracle keeps one certificate per solved key, the one a serial
    solve keeps."""
    D = gen_random(10, .5, .5, .5, seed=3).digraph
    rng = random.Random(7)
    queries = [(frozenset(rng.sample(D.vertices, rng.randint(0, D.n))),
                rng.choice([None, 1, 2, 3, 4])) for _ in range(200)]

    def ask(oracle, subset, bound):
        return oracle.mu(subset) if bound is None else oracle.mu_at_least(subset, bound)

    alone = ExactMuOracle(D)
    serial = [ask(alone, s, b) for s, b in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache scan too
    try:
        for _ in range(3):
            shared = ExactMuOracle(D)
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(lambda q: ask(shared, *q), queries)) == serial
            assert len(shared._certificates) <= len({s for s, _ in queries})
            _check_certificates(D, shared)
            assert all(cert == alone._certificates[key]
                       for key, cert in shared._certificates.items()
                       if key in alone._certificates)
    finally:
        sys.setswitchinterval(interval)


def test_oracle_threshold_path_never_builds_the_greedy_bound(monkeypatch):
    """Neither threshold queries nor a limited solve build the greedy
    partition: MuBoundExceeded carries only its lower bound.  A greedy
    build, from whichever module, is a search with one part per vertex."""
    greedy = []
    search = mu_module._search_k

    def counting(adj, memo, ranks, k):
        if k == len(ranks):
            greedy.append(ranks)
        return search(adj, memo, ranks, k)

    monkeypatch.setattr(mu_module, "_search_k", counting)
    D = _hub_family()
    oracle = ExactMuOracle(D)
    assert oracle.mu_at_least(D.vertices, 3)
    assert oracle.mu_at_least(range(1, 8), 5)
    assert not greedy
    with pytest.raises(MuBoundExceeded):
        mu_exact(bio_clique(5), limit=3)
    assert not greedy
    assert cli_module.mu_greedy_upper(bio_clique(5)).num_blocks == 5
    assert len(greedy) == 1
