"""Pinned pipeline outputs: connector-set X-paths, residue-universal
candidate walks and extract_subdivision witness files, recorded from an
earlier implementation.  A change to the level descents, the entry splice or
the stage hosts that moves any vertex shows up here."""

import hashlib
import random

import pytest

from conftest import bio_clique
from dichromate import (BiorientedCliqueOracle, ExactMuOracle, LabeledDigraph,
                        PatternArc, SubdivisionPattern, connector_set, emit_witness,
                        extract_subdivision, residue_universal_set)

FLOOR = 14


def _ring_of_blocks(k, m, seed):
    """k dense blocks of m vertices in a directed ring, sparse arcs from each
    block to the next; BFS levels run several blocks deep."""
    rng = random.Random(seed)
    arcs, z1, z2 = set(), set(), set()
    for c in range(k):
        block = range(c * m, (c + 1) * m)
        for u in block:
            for v in block:
                if u != v and rng.random() < 0.8:
                    arcs.add((u, v))
                    (z1 if rng.random() < 0.7 else z2).add((u, v))
        nxt = range(((c + 1) % k) * m, ((c + 1) % k + 1) * m)
        for u in block:
            for v in nxt:
                if rng.random() < 0.15:
                    arcs.add((u, v))
    return LabeledDigraph.on_range(k * m, sorted(arcs), sorted(z1), sorted(z2))


def _all_paths(cs):
    xs = sorted(cs.X)
    return {(x, y): cs.path(x, y).vertices for x in xs for y in xs if x != y}


@pytest.mark.parametrize("start, x0, x1", [(None, 0, 1), (3, 3, 0)])
def test_connector_paths_k16(start, x0, x1):
    D = bio_clique(16)
    cs = connector_set(D, BiorientedCliqueOracle(D), start=start)
    xs = [v for v in range(16) if v not in (x0, x1)]
    assert sorted(cs.X) == xs
    assert _all_paths(cs) == {(x, y): (x, x0, x1, y) for x in xs for y in xs if x != y}


RING_PATHS = {
    0: {(19, 20): (19, 4, 6, 13, 18, 20), (19, 21): (19, 4, 6, 13, 18, 21),
        (20, 19): (20, 1, 0, 4, 6, 13, 18, 19), (20, 21): (20, 1, 0, 4, 6, 13, 18, 21),
        (21, 19): (21, 5, 0, 4, 6, 13, 18, 19), (21, 20): (21, 5, 0, 4, 6, 13, 18, 20)},
    5: {(19, 20): (19, 1, 0, 4, 9, 13, 12, 22, 20), (19, 21): (19, 1, 0, 4, 9, 13, 12, 22, 21),
        (19, 23): (19, 1, 0, 4, 9, 13, 12, 22, 23), (20, 19): (20, 3, 0, 4, 9, 13, 12, 22, 19),
        (20, 21): (20, 3, 0, 4, 9, 13, 12, 22, 21), (20, 23): (20, 3, 0, 4, 9, 13, 12, 22, 23),
        (21, 19): (21, 18, 0, 4, 9, 13, 12, 22, 19), (21, 20): (21, 18, 0, 4, 9, 13, 12, 22, 20),
        (21, 23): (21, 18, 0, 4, 9, 13, 12, 22, 23), (23, 19): (23, 1, 0, 4, 9, 13, 12, 22, 19),
        (23, 20): (23, 1, 0, 4, 9, 13, 12, 22, 20), (23, 21): (23, 1, 0, 4, 9, 13, 12, 22, 21)},
}


@pytest.mark.parametrize("seed", sorted(RING_PATHS))
def test_connector_paths_ring_of_blocks(seed):
    D = _ring_of_blocks(4, 6, seed)
    assert _all_paths(connector_set(D, ExactMuOracle(D))) == RING_PATHS[seed]


# (n, q) -> (X, first candidate walk, sha256 of every candidate walk)
WALKS = {
    (30, 2): ([3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
              (3, 4, 1, (3, 0, 1, 26, 27, 18, 19, 25, 20, 21, 28, 29, 22, 23, 24, 16, 2, 4)),
              "6fbf9e09122bca6acc16fd8e12103acdd6d3d4c71397e0035e82b6b443c8b72f"),
    (52, 3): ([5, 6, 7, 8, 9],
              (5, 6, 1, (5, 0, 1, 48, 49, 40, 41, 47, 42, 43, 50, 51, 44, 45, 46, 38, 2,
                         34, 35, 26, 27, 33, 28, 29, 36, 37, 30, 31, 32, 24, 3, 20, 21, 12,
                         13, 19, 14, 15, 22, 23, 16, 17, 18, 10, 4, 6)),
              "8686d86f5829c3d3d407f6b59eb2a4fc7fc879318b98a0b65146e35c44ac68bf"),
}


@pytest.mark.parametrize("n, q", sorted(WALKS))
def test_residue_universal_candidate_walks(n, q):
    D = bio_clique(n)
    rus = residue_universal_set(D, q, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    walks = [(u, v, k, tuple(rus.assemble(u, v, k)))
             for u in xs for v in xs if u != v for k in range(1, q + 1)]
    want_x, want_first, want_digest = WALKS[(n, q)]
    assert xs == want_x
    assert walks[0] == want_first
    assert hashlib.sha256(repr(walks).encode()).hexdigest() == want_digest


def _pattern(k, arcs):
    return SubdivisionPattern(k, tuple(PatternArc(*a) for a in arcs))


# Witness files of extract_subdivision, recorded from an earlier
# implementation: the pipeline-analytic pattern shapes on K_60 from vertex 17,
# and the exact-oracle hub family at two hub ranks.
ANALYTIC_WITNESSES = {
    "arc-q3": (2, [(0, 1, 1, 1, 2, 3)],
               "witness 1\nbranch 0 4\nbranch 1 5\n"
               "path 0 1 4 17 0 47 56 57 48 49 55 50 51 58 59 52 53 54 46 1 33 42 43 34 35 41 36 "
               "37 44 45 38 39 40 32 2 28 29 20 21 27 22 23 30 31 24 25 26 18 3 5\n"),
    "digon-q2": (2, [(0, 1, 1, 1, 1, 2), (1, 0, 1, 1, 0, 2)],
                 "witness 1\nbranch 0 5\nbranch 1 6\n"
                 "path 0 1 5 17 0 56 57 48 49 55 50 51 58 59 52 53 54 46 1 6\n"
                 "path 1 0 6 2 3 33 42 43 34 35 41 36 37 44 45 38 39 40 32 4 5\n"),
    "triangle-q2": (3, [(0, 1, 1, 1, 1, 2), (1, 2, 1, 1, 0, 2), (2, 0, 1, 1, 1, 2)],
                    "witness 1\nbranch 0 8\nbranch 1 9\nbranch 2 10\n"
                    "path 0 1 8 17 0 56 57 48 49 55 50 51 58 59 52 53 54 46 1 9\n"
                    "path 1 2 9 2 3 33 42 43 34 35 41 36 37 44 45 38 39 40 32 4 10\n"
                    "path 2 0 10 5 6 28 29 20 21 27 22 23 30 31 24 25 26 18 7 8\n"),
}


@pytest.mark.parametrize("shape", sorted(ANALYTIC_WITNESSES))
def test_extract_subdivision_witness_analytic(shape):
    k, arcs, text = ANALYTIC_WITNESSES[shape]
    D = bio_clique(60)
    w = extract_subdivision(D, _pattern(k, arcs), BiorientedCliqueOracle(D),
                            floor=FLOOR, start=17)
    assert emit_witness(w) == text


def _hub_digraph(m, hub):
    """z1-labelled bioriented K_m plus an unlabelled hub at rank ``hub``,
    joined to every clique vertex by a digon."""
    clique = [v for v in range(m + 1) if v != hub]
    arcs = [(u, v) for u in clique for v in clique if u != v]
    digons = [(hub, v) for v in clique] + [(v, hub) for v in clique]
    return LabeledDigraph.on_range(m + 1, arcs + digons, z1=arcs)


HUB_WITNESSES = {
    (0, 0): "witness 1\nbranch 0 3\nbranch 1 4\n"
            "path 0 1 3 0 1 10 19 20 11 12 18 13 14 21 22 15 16 17 9 2 4\n",
    (12, 1): "witness 1\nbranch 0 3\nbranch 1 4\n"
             "path 0 1 3 0 1 19 20 10 11 18 13 14 21 22 15 16 17 8 2 4\n",
}


@pytest.mark.parametrize("hub, r", sorted(HUB_WITNESSES))
def test_extract_subdivision_witness_exact_hub(hub, r):
    D = _hub_digraph(22, hub)
    w = extract_subdivision(D, _pattern(2, [(0, 1, 1, 1, r, 2)]), ExactMuOracle(D),
                            floor=FLOOR)
    assert emit_witness(w) == HUB_WITNESSES[(hub, r)]
