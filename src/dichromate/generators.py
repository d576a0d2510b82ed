"""Instance generators: analytic families, random digraphs, and planted
subdivisions.

Every generator is deterministic given its seed, and every metadata claim it
emits is re-checkable: ``mu_analytic`` is only produced by families with a
written-down forcing argument, and planted witnesses are verified against
the finished instance before the instance is returned.
"""

from __future__ import annotations

import random

from .digraph import DirectedPath, LabeledDigraph, _IntPairs, _check_count
from .formats import Instance
from .search import (UndirectedLabeledGraph, UndirectedPattern,
                     UndirectedWitness, verify_undirected_witness)
from .subdivision import SubdivisionPattern, SubdivisionWitness, verify_witness

BIORIENTED_CLIQUE = "bioriented_clique"
PLANTED = "planted"
RANDOM = "random"


def gen_bioriented_clique(n: int) -> Instance:
    """Bioriented K_n with z1 = all arcs, z2 = none.  mu is exactly n: any
    two same-part vertices induce a digon of weight 2, so parts are
    singletons, and singletons are balanced."""
    _check_count(n, "n", 1)
    arcs = _IntPairs([(u, v) for u in range(n) for v in range(n) if u != v])
    D = LabeledDigraph.on_range(n, arcs, z1=arcs)
    return Instance(D, family=BIORIENTED_CLIQUE, mu_analytic=n)


def gen_random(n: int, arc_probability: float, z1_probability: float,
               z2_probability: float, seed: int = 0) -> Instance:
    """Each ordered pair independently becomes an arc; each arc's class flags
    are independent.  Deterministic given the seed."""
    _check_count(n, "n", 0)
    _check_probabilities(arc=arc_probability, z1=z1_probability, z2=z2_probability)
    rng = random.Random(seed)
    arcs = _IntPairs()
    z1: list[tuple[int, int]] = []
    z2: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if rng.random() < arc_probability:
                arcs.append((u, v))
                if rng.random() < z1_probability:
                    z1.append((u, v))
                if rng.random() < z2_probability:
                    z2.append((u, v))
    return Instance(LabeledDigraph.on_range(n, arcs, z1, z2), family=RANDOM)


def _check_probabilities(**named: float) -> None:
    """ValueError, before any work, for a probability outside [0, 1]."""
    for name, p in named.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} probability must lie in [0, 1], got {p}")


def _solve_counts(a: int, r: int, q: int, rng: random.Random) -> tuple[int, int]:
    """Label counts (c1, c2) with a*c1 + b*c2 == r (mod q) for every b: c2
    is a multiple of q, c1 solves a*c1 == r, each padded by a multiple."""
    c1 = (r * pow(a, -1, q)) % q
    return c1 + q * rng.randrange(0, 2), q * rng.randrange(0, 2)


def _plant(num_branch: int, edges, min_length: int, extra_vertices: int, extra_pairs: int,
           p1: float, p2: float, seed: int, pair):
    """The planting loop both generators share.  Per pattern edge, a
    fresh-interior path from ``e.key[0]`` to ``e.key[1]`` of at least
    ``min_length`` steps whose labeling meets the edge's congruence; then
    ``extra_pairs`` noise draws over all vertices, each new pair flagged into
    the two classes with probabilities p1 and p2.  ``pair(u, v)`` names the
    pair a step joins.  Returns the vertex count, the pairs, the pairs in
    each class, and each edge's vertex sequence.  ValueError, before any
    work, for a negative ``extra_vertices`` or ``extra_pairs``."""
    for noun, count in (("vertex", extra_vertices), ("arc or edge", extra_pairs)):
        _check_count(count, f"extra {noun} count", 0)
    rng = random.Random(seed)
    labels: dict[tuple[int, int], tuple[bool, bool]] = {}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    next_vertex = num_branch
    for e in edges:
        c1, c2 = _solve_counts(e.a, e.r, e.q, rng)
        length = max(c1, c2, min_length) + rng.randrange(0, 3)
        # class-1 and class-2 slots may overlap when the path is short
        slots = list(range(length))
        rng.shuffle(slots)
        z1_slots = set(slots[:c1])
        rng.shuffle(slots)
        z2_slots = set(slots[:c2])
        seq = (e.key[0], *range(next_vertex, next_vertex + length - 1), e.key[1])
        next_vertex += length - 1
        for i, (x, y) in enumerate(zip(seq, seq[1:])):
            labels[pair(x, y)] = (i in z1_slots, i in z2_slots)
        paths[e.key] = seq

    total = next_vertex + extra_vertices
    for _ in range(extra_pairs):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u == v or pair(u, v) in labels:
            continue
        labels[pair(u, v)] = (rng.random() < p1, rng.random() < p2)
    return (total, list(labels), [ab for ab, (f1, _) in labels.items() if f1],
            [ab for ab, (_, f2) in labels.items() if f2], paths)


def gen_planted(pattern: SubdivisionPattern, extra_vertices: int = 0,
                extra_arcs: int = 0, z1_probability: float = 0.3,
                z2_probability: float = 0.3, seed: int = 0) -> Instance:
    """An instance containing an explicit subdivision of ``pattern``.

    Branch vertices are 0..k-1; each pattern arc becomes a fresh-interior
    path whose labeling meets its congruence.  Noise only ever adds vertices
    and arcs, so the planted witness survives; it is stored in the metadata
    and verified before the instance is returned.
    """
    _check_probabilities(z1=z1_probability, z2=z2_probability)
    k = pattern.num_vertices
    total, arcs, z1, z2, paths = _plant(k, pattern.arcs, 1, extra_vertices, extra_arcs,
                                        z1_probability, z2_probability, seed,
                                        lambda u, v: (u, v))
    D = LabeledDigraph.on_range(total, _IntPairs(arcs), z1=z1, z2=z2)
    witness = SubdivisionWitness(range(k),
                                 {key: DirectedPath(seq) for key, seq in paths.items()})
    report = verify_witness(D, pattern, witness)
    if not report.ok:
        raise AssertionError(f"planted witness failed its self-check: {report.failure}")
    return Instance(D, family=PLANTED, planted_witness=witness)


def gen_planted_undirected(pattern: UndirectedPattern, extra_vertices: int = 0,
                           extra_edges: int = 0, b1_probability: float = 0.3,
                           b2_probability: float = 0.3,
                           seed: int = 0) -> tuple[UndirectedLabeledGraph, UndirectedWitness]:
    """An undirected graph containing, per pattern edge, a fresh-interior
    label-congruent path between the branch vertices.  Noise only adds
    vertices and edges; the witness is verified before return."""
    _check_probabilities(b1=b1_probability, b2=b2_probability)
    k = pattern.num_vertices
    total, edges, b1, b2, paths = _plant(k, pattern.edges, 2, extra_vertices, extra_edges,
                                         b1_probability, b2_probability, seed,
                                         lambda u, v: (u, v) if u < v else (v, u))
    G = UndirectedLabeledGraph(range(total), edges, b1=b1, b2=b2)
    witness = UndirectedWitness(range(k), paths)
    report = verify_undirected_witness(G, pattern, witness)
    if not report.ok:
        raise AssertionError(f"planted witness failed its self-check: {report.failure}")
    return G, witness
