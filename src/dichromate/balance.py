"""Unbalanced cycles: detection, shortest such cycle, greedy disjoint packing.

A directed cycle is unbalanced when it meets z1 and z2 a different number of
times, i.e. when its total arc weight is nonzero.  Detection runs in linear
time via vertex potentials: inside one strong component fix a root, give each
vertex the accumulated weight of a spanning-tree path from the root, and
compare potential differences against arc weights.  Every cycle weight
vanishes exactly when every intra-component arc is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .digraph import Arc, LabeledDigraph, strong_components


@dataclass(frozen=True)
class DirectedCycle:
    """A simple directed cycle in canonical rotation (smallest vertex first).

    ``z1_count`` and ``z2_count`` are the label counts of its arcs in the
    host digraph it was built from; they are stable across induced subgraphs
    because labels restrict with the arcs.
    """

    vertices: tuple[int, ...]
    z1_count: int
    z2_count: int

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def weight(self) -> int:
        return self.z1_count - self.z2_count

    def arcs(self) -> Iterator[Arc]:
        return zip(self.vertices, self.vertices[1:] + self.vertices[:1])

    @classmethod
    def from_vertices(cls, D: LabeledDigraph, seq) -> "DirectedCycle":
        seq = tuple(int(v) for v in seq)
        if len(seq) < 2:
            raise ValueError("a directed cycle has length at least 2")
        if len(set(seq)) != len(seq):
            raise ValueError("cycle vertices must be pairwise distinct")
        arcs = list(zip(seq, seq[1:] + seq[:1]))
        for u, v in arcs:
            if not D.has_arc(u, v):
                raise ValueError(f"({u}, {v}) is not an arc of the digraph")
        k = seq.index(min(seq))
        c1, c2 = D.label_counts(arcs)
        return cls(seq[k:] + seq[:k], c1, c2)


def is_unbalanced(cycle: DirectedCycle) -> bool:
    """True iff the cycle meets z1 and z2 a different number of times."""
    return cycle.weight != 0


WeightedOut = dict[int, tuple[tuple[int, int], ...]]
InNeighbors = dict[int, tuple[int, ...]]


def weighted_adjacency(D: LabeledDigraph, vertices: Iterable[int]) -> tuple[WeightedOut, InNeighbors]:
    """Adjacency of D[vertices] read from D without building the copy:
    (out-neighbours with arc weights, in-neighbours) per vertex.  Built once
    and then shared by every ``unbalanced_through`` call on subsets."""
    vset = set(vertices)
    out_w = {u: tuple((w, D.weight((u, w))) for w in D.out_neighbors(u) if w in vset)
             for u in vset}
    inn = {u: tuple(w for w in D.in_neighbors(u) if w in vset) for u in vset}
    return out_w, inn


def has_unbalanced_cycle(D: LabeledDigraph) -> bool:
    """Linear-time decision via potential consistency per strong component."""
    out_w, inn = weighted_adjacency(D, D.vertices)
    return any(unbalanced_through(out_w, inn, comp, min(comp)) for comp in strong_components(D))


def unbalanced_through(out_w: WeightedOut, inn: InNeighbors, part: set[int], v: int) -> bool:
    """True iff the strong component of v inside ``part`` holds an
    unbalanced cycle; ``part`` contains v and lies inside the vertex set the
    adjacency was built on.

    This is the incremental balance test: when ``part - {v}`` is balanced,
    every unbalanced cycle of the part runs through v, so the answer equals
    ``has_unbalanced_cycle`` of D[part].  The component is the forward
    reach of v inside the backward reach; its potentials are assigned and
    checked in the same forward pass, each arc once.
    """
    back = {v}
    stack = [v]
    while stack:
        for w in inn[stack.pop()]:
            if w in part and w not in back:
                back.add(w)
                stack.append(w)
    pot = {v: 0}
    stack = [v]
    while stack:
        u = stack.pop()
        pu = pot[u]
        for w, wt in out_w[u]:
            if w in back:
                pw = pot.get(w)
                if pw is None:
                    pot[w] = pu + wt
                    stack.append(w)
                elif pw != pu + wt:
                    return True
    return False


def _shortest_through_root(out_w: WeightedOut, comp: frozenset[int], root: int,
                           max_len: int) -> tuple[int, ...] | None:
    """Shortest closed walk with nonzero total weight through ``root``,
    searched inside one strong component by BFS over (vertex, weight) states.
    Returns the walk's vertex sequence without the final root, or None if no
    such walk of length <= max_len exists."""
    if max_len < 2:
        return None
    start = (root, 0)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    frontier = [start]
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        nxt: list[tuple[int, int]] = []
        for state in frontier:
            v, w = state
            for z, wt in out_w[v]:
                w2 = w + wt
                if z == root:
                    if w2 != 0:
                        seq = [v]
                        cur = parent[state]
                        while cur is not None:
                            seq.append(cur[0])
                            cur = parent[cur]
                        seq.reverse()
                        return tuple(seq)
                    continue
                if z not in comp:
                    continue
                s2 = (z, w2)
                if s2 not in parent:
                    parent[s2] = state
                    nxt.append(s2)
        frontier = nxt
    return None


def shortest_unbalanced_cycle(D: LabeledDigraph) -> DirectedCycle | None:
    """A minimum-length unbalanced directed cycle, or None when D is balanced.

    Per root vertex, a BFS over (vertex, accumulated weight) states finds the
    shortest nonzero-weight closed walk through that root; the global minimum
    over roots is attained by a simple cycle, because a shorter decomposition
    of a non-simple walk would itself contain a nonzero-weight closed walk.
    Ties break towards the smallest root.
    """
    return _shortest_within(D, *weighted_adjacency(D, D.vertices), D.vertices)


def _shortest_within(D: LabeledDigraph, out_w: WeightedOut, inn: InNeighbors,
                     vertices: Iterable[int]) -> DirectedCycle | None:
    """``shortest_unbalanced_cycle`` of D[vertices], read from D and from an
    adjacency built on any superset of the vertices."""
    best: tuple[int, ...] | None = None
    for comp in strong_components(D, host=vertices):
        if not unbalanced_through(out_w, inn, comp, min(comp)):
            continue
        cap = len(comp)
        for root in sorted(comp):
            max_len = cap if best is None else min(cap, len(best) - 1)
            found = _shortest_through_root(out_w, comp, root, max_len)
            if found is not None and (best is None or len(found) < len(best)):
                best = found
                if len(best) == 2:
                    break
        if best is not None and len(best) == 2:
            break
    if best is None:
        return None
    return DirectedCycle.from_vertices(D, best)


@dataclass(frozen=True)
class CyclePacking:
    """Result of greedy disjoint-cycle extraction; may fall short of the
    requested count when the residual digraph becomes balanced."""

    requested: int
    cycles: tuple[DirectedCycle, ...]

    @property
    def complete(self) -> bool:
        return len(self.cycles) == self.requested

    @property
    def shortfall(self) -> int:
        return self.requested - len(self.cycles)


def disjoint_unbalanced_cycles(D: LabeledDigraph, t: int, *,
                               host: Iterable[int] | None = None) -> CyclePacking:
    """Up to ``t`` pairwise vertex-disjoint unbalanced cycles of D[host] (all
    of D when ``host`` is None), extracted by repeatedly taking a shortest
    unbalanced cycle and deleting its vertices: one adjacency, and a vertex
    set that shrinks by each cycle taken.  When mu >= 2t the packing is
    guaranteed complete."""
    if not isinstance(t, int) or isinstance(t, bool) or t <= 0:
        raise ValueError("t must be a positive integer")
    cycles: list[DirectedCycle] = []
    remaining = set(D.vertices if host is None else host)
    unknown = remaining.difference(D.vertices)
    if unknown:
        raise ValueError(f"unknown vertices in host: {sorted(unknown)}")
    out_w, inn = weighted_adjacency(D, remaining)
    while len(cycles) < t:
        c = _shortest_within(D, out_w, inn, remaining)
        if c is None:
            break
        cycles.append(c)
        remaining -= set(c.vertices)
    return CyclePacking(requested=t, cycles=tuple(cycles))
