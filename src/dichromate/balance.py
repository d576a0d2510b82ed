"""Unbalanced cycles: detection, shortest such cycle, greedy disjoint packing.

A directed cycle is unbalanced when it meets z1 and z2 a different number of
times, i.e. when its total arc weight is nonzero.  Detection runs in linear
time via vertex potentials: inside one strong component fix a root, give each
vertex the accumulated weight of a spanning-tree path from the root, and
compare potential differences against arc weights.  Every cycle weight
vanishes exactly when every intra-component arc is consistent.

Every test here reads a ``digraph.WeightedMasks``: per vertex rank an
out-, an in- and a +1 and a -1 out-mask, as Python ints.  Vertex sets are
masks over those ranks, so a reach step is one AND per vertex, and every
reach is ``digraph._reach``, the one the strong components take.  The one
balance kernel, ``unbalanced_through``, checks the strong component of one
vertex inside a part mask, and returns that component's mask when it is
unbalanced: the exact mu search keeps it as the reason the part refused
the vertex.  That search asks it only about a vertex with an out- and an
in-neighbour in the part (any other lies on no cycle there), and keeps
its answers in a bounded memo (see ``mu``).  A directed cycle never
leaves its strong component, so ``_unbalanced_components`` answers "does
D[S] hold an unbalanced cycle?" for the decision, partition verification
and the shortest-cycle search: it tests each strong component of D[S] on
the masks that ``digraph._component_masks``, the one component driver
of this module and of exact mu, gives it (D's own on a dense D), so on a
sparse D no mask is wider than the component it tests; a single vertex
gets no masks and is skipped.  The shortest cycle and the packings keep
those components in one heap by shortest cycle, and a packing splits
again only the component its last cycle lay in.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import Iterable, Iterator

from .digraph import (Arc, LabeledDigraph, WeightedMasks, _as_ids, _chain, _check_count,
                      _component_masks, _host_set, _ranks, _reach, _Record)


class DirectedCycle(_Record):
    """A simple directed cycle in canonical rotation (smallest vertex first).

    ``z1_count`` and ``z2_count`` are the label counts of its arcs in the
    host digraph it was built from; they are stable across induced subgraphs
    because labels restrict with the arcs.
    """

    __slots__ = ("vertices", "z1_count", "z2_count")

    def __init__(self, vertices: Iterable[int], z1_count: int, z2_count: int):
        _Record.__init__(self, tuple(vertices), z1_count, z2_count)

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
        seq = tuple(_as_ids(seq))
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
    vertex, from ``digraph._component_masks``; a single vertex comes
    without masks and is skipped."""
    for comp, adj, cmask in _component_masks(D, host):
        if adj is not None and unbalanced_through(adj, cmask, adj.rank(min(comp))):
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
    inside its backward reach (both ``_reach``); one forward pass inside
    the backward reach assigns the potentials and stops at the first arc
    whose head already holds a different potential.  Only then is the
    forward reach taken, for the mask.
    """
    out, pos, neg = adj.out, adj.pos, adj.neg
    back = _reach(adj.inn, 1 << v, part)
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
                return _reach(out, 1 << v, back)
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
                        return tuple(s[0] for s in reversed(_chain(parent, state)))
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


class CyclePacking(_Record):
    """Result of greedy disjoint-cycle extraction; may fall short of the
    requested count when the residual digraph becomes balanced."""

    __slots__ = ("requested", "cycles")

    def __init__(self, requested: int, cycles: tuple[DirectedCycle, ...]):
        _Record.__init__(self, requested, cycles)

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
    _check_count(t, "t", 1)
    return CyclePacking(requested=t, cycles=tuple(islice(_disjoint_shortest(D, host), t)))
