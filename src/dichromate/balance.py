"""Unbalanced cycles: detection, shortest such cycle, greedy disjoint packing.

A directed cycle is unbalanced when it meets z1 and z2 a different number of
times, i.e. when its total arc weight is nonzero.  Detection runs in linear
time via vertex potentials: inside one strong component fix a root, give each
vertex the accumulated weight of a spanning-tree path from the root, and
compare potential differences against arc weights.  Every cycle weight
vanishes exactly when every intra-component arc is consistent.

Every test here reads a ``digraph.WeightedMasks``: per vertex rank an
out-, an in- and a +1 and a -1 out-mask, as Python ints.  Vertex sets are
masks over those ranks, so a reach step is one AND per vertex.  The one
balance kernel, ``unbalanced_through``, checks the strong component of one
vertex inside a part mask, and returns that component's mask when it is
unbalanced: the exact mu search keeps it as the reason the part refused
the vertex.  A directed cycle never leaves its strong
component, so ``_unbalanced_components`` answers "does D[S] hold an
unbalanced cycle?" for the decision, partition verification and the
shortest-cycle search: it tests each strong component of D[S] but single
vertices on the masks ``digraph._adjacency`` gives it (D's own on a dense
D), so on a sparse D no mask is wider than the component it tests.  The
shortest cycle and the packings keep those components in one heap by
shortest cycle, and a packing splits again only the component its last
cycle lay in.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from typing import Iterable, Iterator

from .digraph import (Arc, LabeledDigraph, WeightedMasks, _adjacency, _host_set, _ranks,
                      strong_components)


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


def has_unbalanced_cycle(D: LabeledDigraph) -> bool:
    """Decision via potential consistency, one strong component at a time."""
    return next(_unbalanced_components(D), None) is not None


def _unbalanced_components(D: LabeledDigraph, host: Iterable[int] | None = None
                           ) -> Iterator[tuple[WeightedMasks, int, frozenset[int]]]:
    """(masks, component mask, component) for each unbalanced strong
    component of D[host] (all of D when ``host`` is None), by smallest
    vertex.  The masks are those ``_adjacency`` gives the component, D's own
    on a dense D; a single vertex is skipped, since D has no loops."""
    for comp in strong_components(D, host=host):
        if len(comp) > 1:
            adj = _adjacency(D, comp)
            cmask = adj.mask(comp)
            if unbalanced_through(adj, cmask, adj.rank(min(comp))):
                yield adj, cmask, comp


def unbalanced_through(adj: WeightedMasks, part: int, v: int) -> int:
    """0 when the strong component of rank v inside the mask ``part`` is
    balanced, and otherwise that component's mask; ``part`` contains v.
    A caller that reads the answer as a bool asks "does it hold an
    unbalanced cycle?".

    This is the incremental balance test: when ``part`` without v is
    balanced, every unbalanced cycle of the part runs through v, so the
    answer is nonzero exactly when D[part] holds an unbalanced cycle, and
    depends on the mask alone.  The component is the forward reach of v
    inside its backward reach; one forward pass inside the backward reach
    assigns the potentials and stops at the first arc whose head already
    holds a different potential.  Only then is the forward reach taken in
    full, for the mask.  A v without out-neighbours in the part lies on no
    cycle there, which settles the test before any reach is taken.
    """
    out, pos, neg = adj.out, adj.pos, adj.neg
    if not out[v] & part:
        return 0
    inn = adj.inn
    back = todo = 1 << v
    while todo:
        low = todo & -todo
        todo ^= low
        new = inn[low.bit_length() - 1] & part & ~back
        back |= new
        todo |= new
    pot = {v: 0}
    stack = [v]
    while stack:
        u = stack.pop()
        pu = pot[u]
        down = neg[u]
        up = pos[u]
        heads = out[u] & back
        while heads:
            low = heads & -heads
            heads ^= low
            w = low.bit_length() - 1
            pw = pu + (up >> w & 1) - (down >> w & 1)
            held = pot.get(w)
            if held is None:
                pot[w] = pw
                stack.append(w)
            elif held != pw:
                # one bit at a time, as above: digraph._reach's frontier
                # steps cost more on the benchmark's mu-random pool
                comp = todo = 1 << v
                while todo:
                    low = todo & -todo
                    todo ^= low
                    new = out[low.bit_length() - 1] & back & ~comp
                    comp |= new
                    todo |= new
                return comp
    return 0


def _shortest_through_root(adj: WeightedMasks, comp: int, root: int,
                           max_len: int) -> tuple[int, ...] | None:
    """Shortest closed walk with nonzero total weight through rank ``root``,
    searched inside one strong component (a mask) by BFS over (vertex,
    weight) states, out-neighbours in ascending order.  Returns the walk's
    rank sequence without the final root, or None if no such walk of length
    <= max_len exists."""
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
            up, down = adj.pos[v], adj.neg[v]
            for z in _ranks(adj.out[v] & comp):
                w2 = w + (up >> z & 1) - (down >> z & 1)
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
    Ties break towards the strong component with the smallest vertex, and
    inside it towards the smallest root.
    """
    return next(_disjoint_shortest(D, None), None)


def _disjoint_shortest(D: LabeledDigraph, host: Iterable[int] | None) -> Iterator[DirectedCycle]:
    """Pairwise disjoint unbalanced cycles of D[host], each a shortest
    unbalanced cycle (with ``shortest_unbalanced_cycle``'s ties) of D[host]
    less the vertices of those before it, until that is balanced.

    Each unbalanced strong component is searched once, for the walk from
    the first root, in rank order, that attains its least length, and waits
    in a heap keyed by (that length, its smallest vertex).  Deleting a
    cycle changes only the component it lies in, so only that component is
    split and searched again."""
    heap: list[tuple[int, int, WeightedMasks, tuple[int, ...], frozenset[int]]] = []

    def split(vertices: Iterable[int]) -> None:
        for adj, cmask, comp in _unbalanced_components(D, vertices):
            found: tuple[int, ...] = ()
            max_len = cmask.bit_count()
            for root in _ranks(cmask):
                walk = _shortest_through_root(adj, cmask, root, max_len)
                if walk is not None:
                    found, max_len = walk, len(walk) - 1
                    if max_len == 1:  # a digon: no later root can do better
                        break
            heappush(heap, (len(found), min(comp), adj, found, comp))

    split(_host_set(D, host))
    while heap:
        _, _, adj, found, comp = heappop(heap)
        cycle = [adj.vertices[i] for i in found]
        yield DirectedCycle.from_vertices(D, cycle)
        split(comp.difference(cycle))


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
    unbalanced cycle and deleting its vertices from the set searched; only
    the strong component the cycle lay in is split and searched again.
    When mu >= 2t the packing is guaranteed complete."""
    if not isinstance(t, int) or isinstance(t, bool) or t <= 0:
        raise ValueError("t must be a positive integer")
    return CyclePacking(requested=t, cycles=tuple(islice(_disjoint_shortest(D, host), t)))
