"""Pinned direct-finder outputs: the status, the witness file and the
expansion count of ``find_subdivision`` on seeded hosts from the
benchmark's direct pools, on a pattern whose arcs mix (a, b, q), and one
undirected search, all recorded from an earlier implementation.  A change
to the path search, its pruning or the arc order that moves a branch
vertex or a path shows up here, and so does one that takes a path step
more or fewer.  A change that prunes more, or less, restates the
expansion pins and says so in CHANGES.md; a change that only makes each
step cheaper keeps them."""

import hashlib

import pytest

from conftest import K4_TRANSITIVE, MIXED_RESIDUES
from dichromate import (ABSENT, FOUND, UndirectedPattern, UndirectedPatternEdge,
                        emit_witness, find_subdivision, find_subdivision_undirected,
                        gen_planted_undirected, gen_random)

# (n, arc probability, seed) -> (status, first 16 hex digits of the sha256
# of the emitted witness file, or None, expansions spent)
DIRECT_POOL = {
    (14, .25, 84): (FOUND, "ae4b8c64526ba3bb", 65),
    (14, .25, 283): (FOUND, "326504886a9fb299", 106),
    (14, .25, 198): (FOUND, "c083ed881c7da8e6", 91),
    (14, .25, 298): (FOUND, "784fbbca5f7ca412", 310),
    (14, .25, 188): (FOUND, "c80b7d4063594d2c", 404),
    (12, .18, 41): (FOUND, "244b0a76c15e01f9", 239),
    (12, .18, 73): (FOUND, "4cf33cbcdd8e6321", 344),
    (12, .18, 56): (FOUND, "79e97227f81f6d6f", 214),
    (12, .18, 91): (ABSENT, None, 40),
    (12, .18, 99): (ABSENT, None, 57),
    (12, .18, 17): (ABSENT, None, 35),
    (12, .18, 6): (ABSENT, None, 329),
    # left out of the benchmark's pool for its cost; it took 1,498,505
    # expansions when every branch map was filled in before any arc was
    # routed
    (14, .25, 44): (FOUND, "e23f348c4180b8be", 1_024_155),
}

MIXED_HOSTS = {
    (9, .3, 0): (ABSENT, None, 121),
    (9, .3, 2): (FOUND, "8e0e51bac98de710", 579),
    (10, .3, 7): (FOUND, "36c31732b254a73a", 343),
}


def _pin(outcome):
    if outcome.witness is None:
        return outcome.status, None, outcome.expansions
    text = emit_witness(outcome.witness)
    return outcome.status, hashlib.sha256(text.encode()).hexdigest()[:16], outcome.expansions


@pytest.mark.parametrize("n, p, seed", sorted(DIRECT_POOL))
def test_direct_pool_host(n, p, seed):
    D = gen_random(n, p, .5, .5, seed=seed).digraph
    assert _pin(find_subdivision(D, K4_TRANSITIVE)) == DIRECT_POOL[(n, p, seed)]


@pytest.mark.parametrize("n, p, seed", sorted(MIXED_HOSTS))
def test_mixed_residue_pattern(n, p, seed):
    D = gen_random(n, p, .5, .5, seed=seed).digraph
    assert _pin(find_subdivision(D, MIXED_RESIDUES)) == MIXED_HOSTS[(n, p, seed)]


def test_undirected_planted_triangle():
    pattern = UndirectedPattern(3, (UndirectedPatternEdge(0, 1, 1, 1, 1, 2),
                                    UndirectedPatternEdge(1, 2, 1, 2, 2, 3),
                                    UndirectedPatternEdge(0, 2, 1, 1, 0, 2)))
    G, _ = gen_planted_undirected(pattern, extra_vertices=4, extra_edges=20, seed=3)
    out = find_subdivision_undirected(G, pattern)
    assert out.status == FOUND
    assert out.witness.branch == (0, 1, 2)
    assert out.witness.paths == {(0, 1): (0, 3, 1), (0, 2): (0, 5, 6, 2),
                                 (1, 2): (1, 7, 8, 9, 10, 11, 12, 2)}
