"""Digraph substrate: labeled digraphs, induced subgraphs, strong components,
BFS levelings and distance-preserving BFS trees.

Vertices are plain integers.  A fresh graph is normally built on the dense
range 0..n-1.  Strong components, levelings and BFS trees take a keyword
``host=``, a vertex set of the root digraph D, and work on D[host] read off
D without building the copy; a path found inside a host is checked against
the root digraph and that host set.  Every value here is immutable after
construction and safe to share between threads; "mutation" always means
building a new value.

All tie-breaking is by smallest vertex identifier, so the output of every
operation is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import PreconditionViolation

Arc = tuple[int, int]

OUT = "out"
IN = "in"


def _check_direction(direction: str) -> None:
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be {OUT!r} or {IN!r}, got {direction!r}")


class LabeledDigraph:
    """A loop-free digraph with two (possibly overlapping) arc classes z1, z2.

    Parallel arcs in the same direction and loops are rejected; the digon
    {(u,v), (v,u)} is allowed and counts as a directed cycle of length 2.
    An arc may belong to z1, z2, both, or neither.  The derived arc weight
    is ``[arc in z1] - [arc in z2]``, so an arc in both classes (or neither)
    weighs 0 and a directed cycle is unbalanced exactly when its total
    weight is nonzero.
    """

    __slots__ = ("vertices", "arcs", "z1", "z2", "_arcset", "_out", "_in")

    def __init__(self, vertices: Iterable[int], arcs: Iterable[Arc] = (),
                 z1: Iterable[Arc] = (), z2: Iterable[Arc] = ()):
        self.vertices: tuple[int, ...] = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(self.vertices)
        arclist = [(int(u), int(v)) for u, v in arcs]
        arcset = set(arclist)
        if len(arcset) != len(arclist):
            seen: set[Arc] = set()
            for a in arclist:
                if a in seen:
                    raise ValueError(f"duplicate arc {a}")
                seen.add(a)
        for u, v in arclist:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"arc ({u}, {v}) uses an unknown vertex")
        self.arcs: tuple[Arc, ...] = tuple(sorted(arcset))
        self._arcset = frozenset(arcset)
        self.z1 = frozenset((int(u), int(v)) for u, v in z1)
        self.z2 = frozenset((int(u), int(v)) for u, v in z2)
        if not self.z1 <= self._arcset:
            raise ValueError("z1 contains pairs that are not arcs")
        if not self.z2 <= self._arcset:
            raise ValueError("z2 contains pairs that are not arcs")
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        inn: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        self._out = {v: tuple(ws) for v, ws in out.items()}
        self._in = {v: tuple(sorted(ws)) for v, ws in inn.items()}

    @classmethod
    def on_range(cls, n: int, arcs: Iterable[Arc] = (), z1: Iterable[Arc] = (),
                 z2: Iterable[Arc] = ()) -> "LabeledDigraph":
        """Graph on the dense vertex range 0..n-1."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        return cls(range(n), arcs, z1, z2)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def has_vertex(self, v: int) -> bool:
        return v in self._out

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arcset

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self._out:
            raise ValueError(f"unknown vertex {v}")
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self._in:
            raise ValueError(f"unknown vertex {v}")
        return self._in[v]

    def weight(self, arc: Arc) -> int:
        """Arc weight in {-1, 0, +1}: [arc in z1] - [arc in z2]."""
        return (arc in self.z1) - (arc in self.z2)

    def label_counts(self, arcs: Iterable[Arc]) -> tuple[int, int]:
        """(number of given arcs in z1, number in z2)."""
        c1 = c2 = 0
        for a in arcs:
            if a in self.z1:
                c1 += 1
            if a in self.z2:
                c2 += 1
        return c1, c2

    def induced(self, subset: Iterable[int]) -> "LabeledDigraph":
        """Induced subdigraph; vertex identifiers are preserved."""
        s = set(int(v) for v in subset)
        unknown = s - set(self.vertices)
        if unknown:
            raise ValueError(f"unknown vertices in subset: {sorted(unknown)}")
        arcs = [a for a in self.arcs if a[0] in s and a[1] in s]
        kept = set(arcs)
        return LabeledDigraph(s, arcs, self.z1 & kept, self.z2 & kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        return (self.vertices == other.vertices and self.arcs == other.arcs
                and self.z1 == other.z1 and self.z2 == other.z2)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arcs, self.z1, self.z2))

    def __repr__(self) -> str:
        return (f"LabeledDigraph(n={self.n}, arcs={self.arc_count}, "
                f"|z1|={len(self.z1)}, |z2|={len(self.z2)})")


@dataclass(frozen=True)
class DirectedPath:
    """A simple directed path stored as its vertex sequence.

    A single vertex is a path of length 0.  Whether the consecutive arcs
    exist in a particular digraph is checked by ``valid_in``; a path built
    inside a host set is checked against the root digraph and, separately,
    for staying inside that host set.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("empty vertex sequence")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be pairwise distinct")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def arcs(self) -> Iterator[Arc]:
        return zip(self.vertices, self.vertices[1:])

    def valid_in(self, D: LabeledDigraph) -> bool:
        return all(D.has_arc(u, v) for u, v in self.arcs())


@dataclass(frozen=True)
class Leveling:
    """BFS strata from (direction "out") or towards (direction "in") a vertex.

    L_0 is the singleton {start} and the levels partition the vertex set of
    a strongly connected host.
    """

    start: int
    direction: str
    levels: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level_of(self) -> dict[int, int]:
        return {v: i for i, level in enumerate(self.levels) for v in level}


class BfsTree:
    """Spanning tree orientation preserving BFS distances from/to the root.

    ``leveling`` holds the BFS levels the tree was built from.  ``parent``
    maps every non-root vertex to ``(parent_vertex, arc)``; for an out-tree
    the arc is (parent, child), for an in-tree it is (child, parent).
    Treat instances as immutable.
    """

    __slots__ = ("root", "direction", "leveling", "parent")

    def __init__(self, leveling: Leveling, parent: dict[int, tuple[int, Arc]]):
        self.root = leveling.start
        self.direction = leveling.direction
        self.leveling = leveling
        self.parent = parent

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    def __repr__(self) -> str:
        return f"BfsTree(root={self.root}, direction={self.direction!r}, n={len(self.parent) + 1})"


def strong_components(D: LabeledDigraph, *,
                      host: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Vertex sets of the strong components of D[host] (all of D when
    ``host`` is None), ordered by smallest member.  Read from D itself
    without building the induced copy.

    Iterative Tarjan; maximality and disjointness come with the algorithm.
    """
    out = D._out
    if host is None:
        return _tarjan(D.vertices, out.__getitem__)
    vset = frozenset(host)
    if not out.keys() >= vset:
        raise ValueError(f"unknown vertices in host: {sorted(vset - out.keys())}")
    if len(vset) == len(out):
        return _tarjan(vset, out.__getitem__)
    return _tarjan(vset, lambda v: [w for w in out[v] if w in vset])


def _tarjan(roots: Iterable[int],
            successors: Callable[[int], Iterable[int]]) -> list[frozenset[int]]:
    """Iterative Tarjan over the vertices reachable from ``roots`` along
    ``successors(v)``; components ordered by smallest member."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[frozenset[int]] = []
    counter = 0

    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[int, Iterator[int]]] = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def is_strongly_connected(D: LabeledDigraph, *, host: Iterable[int] | None = None) -> bool:
    return len(strong_components(D, host=host)) == 1


def leveling(D: LabeledDigraph, start: int, direction: str, *,
             host: Iterable[int] | None = None) -> Leveling:
    """BFS strata of D[host] (all of D when ``host`` is None): L_j holds the
    vertices at distance j from ``start`` (out) or at distance j to ``start``
    (in).  Requires a strongly connected host so the levels partition it."""
    _check_direction(direction)
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if start not in host:
        raise ValueError(f"unknown start vertex {start}")
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("leveling requires a strongly connected digraph")
    adj = D._out if direction == OUT else D._in
    levels = [frozenset([start])]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen and w in host:
                    seen.add(w)
                    nxt.append(w)
        if nxt:
            nxt.sort()
            levels.append(frozenset(nxt))
        frontier = nxt
    return Leveling(start, direction, tuple(levels))


def bfs_tree(D: LabeledDigraph, root: int, direction: str, *,
             host: Iterable[int] | None = None) -> BfsTree:
    """Distance-preserving spanning tree of D[host] (all of D when ``host``
    is None); among candidate parents at the previous level, the smallest
    identifier wins."""
    lev = leveling(D, root, direction, host=host)
    level_of = lev.level_of()
    parent: dict[int, tuple[int, Arc]] = {}
    for v in sorted(level_of):
        i = level_of[v]
        if i == 0:
            continue
        if direction == OUT:
            p = min(u for u in D._in[v] if level_of.get(u) == i - 1)
            parent[v] = (p, (p, v))
        else:
            p = min(u for u in D._out[v] if level_of.get(u) == i - 1)
            parent[v] = (p, (v, p))
    return BfsTree(lev, parent)


def tree_path(T: BfsTree, v: int) -> DirectedPath:
    """The unique root-to-v path (out-tree) or v-to-root path (in-tree)."""
    if v != T.root and v not in T.parent:
        raise ValueError(f"unknown vertex {v}")
    chain = [v]
    while chain[-1] != T.root:
        chain.append(T.parent[chain[-1]][0])
    if T.direction == OUT:
        chain.reverse()
    return DirectedPath(tuple(chain))


def first_path_to_set(D: LabeledDigraph, sources: Iterable[int], targets: Iterable[int],
                      avoid: Iterable[int] = ()) -> DirectedPath | None:
    """Shortest directed (sources, targets)-path: starts in ``sources``, ends
    on first contact with ``targets``, internal vertices outside both sets
    and outside ``avoid``.  Deterministic (BFS, ascending identifiers)."""
    src = sorted(set(sources))
    tgt = set(targets)
    blocked = set(avoid)
    if not src or not tgt:
        return None
    if tgt & set(src):
        raise ValueError("sources and targets must be disjoint")
    parent: dict[int, int | None] = {s: None for s in src}
    frontier = list(src)
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in D.out_neighbors(v):
                if w in tgt:
                    seq = [w, v]
                    while parent[seq[-1]] is not None:
                        seq.append(parent[seq[-1]])
                    seq.reverse()
                    return DirectedPath(tuple(seq))
                if w not in parent and w not in blocked:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def shortest_path_via_arcs(arcs: Iterable[Arc], start: int, end: int) -> DirectedPath | None:
    """Shortest directed path from ``start`` to ``end`` using only the given
    arcs (typically the union of a few already-constructed paths)."""
    adj: dict[int, list[int]] = {}
    for u, v in set(arcs):
        adj.setdefault(u, []).append(v)
    for u in adj:
        adj[u].sort()
    if start == end:
        return DirectedPath((start,))
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w in parent:
                    continue
                parent[w] = v
                if w == end:
                    seq = [w]
                    while parent[seq[-1]] is not None:
                        seq.append(parent[seq[-1]])
                    seq.reverse()
                    return DirectedPath(tuple(seq))
                nxt.append(w)
        frontier = nxt
    return None
