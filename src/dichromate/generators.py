"""Instance generators: analytic families, random digraphs, and planted
subdivisions.

Every generator is deterministic given its seed, and every metadata claim it
emits is re-checkable: ``mu_analytic`` is only produced by families with a
written-down forcing argument, and planted witnesses are verified against
the finished instance before the instance is returned.
"""

from __future__ import annotations

import random

from .digraph import DirectedPath, LabeledDigraph
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    D = LabeledDigraph.on_range(n, arcs, z1=arcs)
    return Instance(D, family=BIORIENTED_CLIQUE, mu_analytic=n)


def gen_random(n: int, arc_probability: float, z1_probability: float,
               z2_probability: float, seed: int = 0) -> Instance:
    """Each ordered pair independently becomes an arc; each arc's class flags
    are independent.  Deterministic given the seed."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    for name, p in (("arc", arc_probability), ("z1", z1_probability),
                    ("z2", z2_probability)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
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


def _solve_counts(a: int, b: int, r: int, q: int, rng: random.Random) -> tuple[int, int]:
    """Label counts (c1, c2) with a*c1 + b*c2 == r (mod q): fix c2 as a
    multiple of q and solve for c1, then pad with further multiples."""
    c1 = (r * pow(a, -1, q)) % q
    return c1 + q * rng.randrange(0, 2), q * rng.randrange(0, 2)


def _labeled_path_arcs(length: int, c1: int, c2: int, rng: random.Random):
    """Assign z1 to c1 arc slots and z2 to c2 arc slots of a length-`length`
    path (slots may overlap when space is short)."""
    slots = list(range(length))
    rng.shuffle(slots)
    z1_slots = set(slots[:c1])
    rng.shuffle(slots)
    z2_slots = set(slots[:c2])
    return z1_slots, z2_slots


def gen_planted(pattern: SubdivisionPattern, extra_vertices: int = 0,
                extra_arcs: int = 0, z1_probability: float = 0.3,
                z2_probability: float = 0.3, seed: int = 0) -> Instance:
    """An instance containing an explicit subdivision of ``pattern``.

    Branch vertices are 0..k-1; each pattern arc becomes a fresh-interior
    path whose labeling meets its congruence.  Noise only ever adds vertices
    and arcs, so the planted witness survives; it is stored in the metadata
    and verified before the instance is returned.
    """
    rng = random.Random(seed)
    k = pattern.num_vertices
    arcs: dict[tuple[int, int], tuple[bool, bool]] = {}
    paths: dict[tuple[int, int], DirectedPath] = {}
    next_vertex = k
    for e in pattern.arcs:
        c1, c2 = _solve_counts(e.a, e.b, e.r, e.q, rng)
        length = max(c1, c2, 1) + rng.randrange(0, 3)
        z1_slots, z2_slots = _labeled_path_arcs(length, c1, c2, rng)
        interior = list(range(next_vertex, next_vertex + length - 1))
        next_vertex += length - 1
        seq = [e.tail] + interior + [e.head]
        for i, arc in enumerate(zip(seq, seq[1:])):
            arcs[arc] = (i in z1_slots, i in z2_slots)
        paths[e.key] = DirectedPath(tuple(seq))

    total = next_vertex + extra_vertices
    for _ in range(extra_arcs):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u == v or (u, v) in arcs:
            continue
        arcs[(u, v)] = (rng.random() < z1_probability, rng.random() < z2_probability)

    D = LabeledDigraph.on_range(
        total,
        arcs.keys(),
        z1=[a for a, (f1, _) in arcs.items() if f1],
        z2=[a for a, (_, f2) in arcs.items() if f2],
    )
    witness = SubdivisionWitness(tuple(range(k)), paths)
    report = verify_witness(D, pattern, witness)
    assert report.ok, f"planted witness failed its self-check: {report.failure}"
    return Instance(D, family=PLANTED, planted_witness=witness, planted_pattern=pattern)


def gen_planted_undirected(pattern: UndirectedPattern, extra_vertices: int = 0,
                           extra_edges: int = 0, b1_probability: float = 0.3,
                           b2_probability: float = 0.3,
                           seed: int = 0) -> tuple[UndirectedLabeledGraph, UndirectedWitness]:
    """An undirected graph containing, per pattern edge, a fresh-interior
    label-congruent path between the branch vertices.  Noise only adds
    vertices and edges; the witness is verified before return."""
    rng = random.Random(seed)
    k = pattern.num_vertices
    edges: dict[tuple[int, int], tuple[bool, bool]] = {}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    next_vertex = k

    def edge_key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    for e in pattern.edges:
        c1, c2 = _solve_counts(e.a, e.b, e.r, e.q, rng)
        length = max(c1, c2, 2) + rng.randrange(0, 3)
        z1_slots, z2_slots = _labeled_path_arcs(length, c1, c2, rng)
        interior = list(range(next_vertex, next_vertex + length - 1))
        next_vertex += length - 1
        seq = [e.u] + interior + [e.v]
        for i, (x, y) in enumerate(zip(seq, seq[1:])):
            edges[edge_key(x, y)] = (i in z1_slots, i in z2_slots)
        paths[e.key] = tuple(seq)

    total = next_vertex + extra_vertices
    for _ in range(extra_edges):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u == v or edge_key(u, v) in edges:
            continue
        edges[edge_key(u, v)] = (rng.random() < b1_probability,
                                 rng.random() < b2_probability)

    G = UndirectedLabeledGraph(
        range(total),
        edges.keys(),
        b1=[ed for ed, (f1, _) in edges.items() if f1],
        b2=[ed for ed, (_, f2) in edges.items() if f2],
    )
    witness = UndirectedWitness(tuple(range(k)), paths)
    report = verify_undirected_witness(G, pattern, witness)
    assert report.ok, f"planted witness failed its self-check: {report.failure}"
    return G, witness
