"""Digraph substrate: labeled digraphs, induced subgraphs, strong components
and distance-preserving BFS trees with their levels.

Vertices are plain integers.  A fresh graph is normally built on the dense
range 0..n-1.  Strong components and BFS trees take a keyword ``host=``, a
vertex set of the root digraph D, and work on D[host] read off D without
building the copy; a path found inside a host is checked against the root
digraph and that host set.

The library's input rules live here, one site each: ids (``_as_ids``,
exact int conversion; ``_json_ids`` for a witness's JSON arrays, which
hold JSON integers only), arcs (``_checked_arcs``: one rule for digraph arcs,
graph edges, pattern arcs and pattern edges, naming the first fault in
list order and its index), hosts (``_host_set``) and counts
(``_check_count``: an int, not a bool, at least its floor).

How D[host] is read depends on D's density.  On a sparse D (fewer than
eight arcs per vertex) the kernels walk the adjacency lists and skip
neighbours outside the host; on a dense D, host or not, they work on
bitsets.  Each branch has its own BFS and one reach, ``_list_reach`` or
``_reach``, that serves the strong check and the strong components (on
lists after a depth-first pass, Kosaraju).  ``WeightedMasks``, the
library's one bitset adjacency, gives each vertex Python-int masks over
the vertex ranks in sorted order, so ``_reach`` reads one mask per vertex
it reaches instead of one entry per arc; it is also the reach of the
balance test (``balance.unbalanced_through``), and so of the exact ``mu``
search and ``verify_partition``.  A bioriented D, whose in-lists equal
its out-lists, keeps one dict for both, and its in-masks are the
out-mask list itself, built once.  On all of D a list that holds every
other vertex gives its full row without being read, so the masks of a
complete digraph cost one operation per row.  The mask BFS reads only
the frontier's rows: each frontier vertex, in ascending order, becomes
the parent of the host vertices of its row not yet claimed.  Both
branches give identical results.
Two sites choose between them.
``_host``, the one dispatch of the strong check, the strong components
and the BFS tree, gives D's masks and the host's mask on a dense D, None
and the host set on a sparse D.  ``_bfs`` hands back that choice with the
tree's levels in the same form, level masks on a dense D, so a level
split passes each level straight to ``_components`` without a second
dispatch.
``_adjacency`` picks the masks every other vertex set reads: a dense D
keeps those of all of D in a slot from first use on; a sparse D keeps
none, since whole-D masks grow with the square of the vertex count and
whole-D ranks slow down many small components.  ``_component_masks`` is
the one walk over strong components with their masks, for the balance
tests, exact ``mu`` and the greedy bound; it builds none for a
one-vertex component, which lies on no cycle.

Paths pass between the kernels as vertex tuples: ``_bfs_path``, the
search of ``first_path_to_set``, and ``_tree_walk``, the walk of
``tree_path``, return tuples, and the public functions wrap them in one
``DirectedPath`` each.  ``_chain`` is the one walk of a parent map, for
the tree paths, the path BFS and the balance kernel's state BFS; it
refuses a map whose chain cycles.

Every value here is immutable after construction and safe to share
between threads; "mutation" always means building a new value.  A class
z1 or z2 that holds every arc is the arc set itself, one frozenset.  Filling
the mask slot, or an entry of ``WeightedMasks.joined``, is idempotent: two
threads that race on it build equal masks, and either may win.

All tie-breaking is by smallest vertex identifier, so the output of every
operation is reproducible run to run.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from math import inf
from operator import attrgetter
from typing import Container, Iterable, Iterator, Sequence

from .errors import PreconditionViolation

Arc = tuple[int, int]

OUT = "out"
IN = "in"

# D counts as dense, and its host kernels run on bitsets, from this many
# arcs per vertex on.  On a long sparse chain the list kernels stay linear
# and the masks do not: whole-D masks grow with the square of n, the
# components take a forward reach down the rest of the chain from every
# vertex, and ``_mask_bfs`` decodes the full mask width at every level.
# On a 2,000-vertex directed path the mask components take 1.7 s, and on
# a directed cycle the mask BFS 0.18 s, against 2-4 ms on the lists.
_DENSE_ARCS_PER_VERTEX = 8


class LabeledDigraph:
    """A loop-free digraph with two (possibly overlapping) arc classes z1, z2.

    Parallel arcs in the same direction and loops are rejected; the digon
    {(u,v), (v,u)} is allowed and counts as a directed cycle of length 2.
    An arc may belong to z1, z2, both, or neither.  The derived arc weight
    is ``[arc in z1] - [arc in z2]``, so an arc in both classes (or neither)
    weighs 0 and a directed cycle is unbalanced exactly when its total
    weight is nonzero.  Out-neighbours along arcs of weight 0 and -1 are
    kept apart, per tail that has any; the other out-neighbours weigh +1.
    A class that holds every arc is stored as the arc set object itself (a
    subset as large as the set is the set), so it costs no table of its own.
    """

    __slots__ = ("vertices", "arcs", "z1", "z2", "_arcset", "_out", "_in", "_zero", "_neg",
                 "_masks")

    def __init__(self, vertices: Iterable[int], arcs: Iterable[Arc] = (),
                 z1: Iterable[Arc] = (), z2: Iterable[Arc] = ()):
        vset = set(_as_ids(vertices))
        self.vertices: tuple[int, ...] = tuple(sorted(vset))
        convert = type(arcs) is not _IntPairs
        arclist = _as_int_pairs(arcs) if convert else arcs
        self._arcset = _checked_arcs(vset, arclist)
        self.arcs: tuple[Arc, ...] = tuple(sorted(arclist))
        self.z1 = frozenset(_as_int_pairs(z1) if convert else z1)
        self.z2 = frozenset(_as_int_pairs(z2) if convert else z2)
        if not self.z1 <= self._arcset:
            raise ValueError("z1 contains pairs that are not arcs")
        if not self.z2 <= self._arcset:
            raise ValueError("z2 contains pairs that are not arcs")
        if len(self.z1) == len(self._arcset):
            self.z1 = self._arcset
        if len(self.z2) == len(self._arcset):
            self.z2 = self._arcset
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        inn: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        self._out = {v: tuple(ws) for v, ws in out.items()}
        self._in = {v: tuple(ws) for v, ws in inn.items()}
        if self._in == self._out:  # bioriented: compared here once, then shared
            self._in = self._out
        zero = (self._arcset - self.z1 - self.z2) | (self.z1 & self.z2)
        self._zero: dict[int, list[int]] = {}
        self._neg: dict[int, list[int]] = {}
        for heads, kept in ((self._zero, zero), (self._neg, self.z2 - self.z1)):
            for u, v in kept:
                heads.setdefault(u, []).append(v)
        self._masks: WeightedMasks | None = None

    @classmethod
    def on_range(cls, n: int, arcs: Iterable[Arc] = (), z1: Iterable[Arc] = (),
                 z2: Iterable[Arc] = ()) -> "LabeledDigraph":
        """Graph on the dense vertex range 0..n-1."""
        _check_count(n, "vertex count", 0)
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
        """Arc weight in {-1, 0, +1}: [arc in z1] - [arc in z2], nonzero iff in one class."""
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
        s = _host_set(self, subset)
        arcs = _IntPairs([a for a in self.arcs if a[0] in s and a[1] in s])
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


class _IntPairs(list):
    """Arcs as (int, int) tuples, built by library code.  Given as the
    ``arcs`` of a ``LabeledDigraph``, they and the class pairs given with
    them are taken as they are, without the ``_as_ids`` pass the
    constructor makes over other input; every check on them still runs."""

    __slots__ = ()


def _as_ids(values: Iterable) -> list[int]:
    """``int(v)`` for each of ``values``, checked once per distinct value:
    ValueError if it differs from a v that is not a str (1.5, not 1.0), or
    if that v has none (an infinity or a NaN, which ``int`` would refuse
    with OverflowError or its own message)."""
    values = list(values)
    ids = {v: int(v) if v == v and v not in (inf, -inf) else None for v in dict.fromkeys(values)}
    for v, i in ids.items():
        if i != v and not isinstance(v, str):
            raise ValueError(f"vertex id {v!r} is not an integer")
    return [ids[v] for v in values]


def _json_ids(values: list) -> tuple[int, ...]:
    """``_as_ids`` of one JSON array of vertex ids, as a tuple.  The writer
    emits JSON integers, so ValueError for anything but an array and for a
    string or a boolean in it, which ``_as_ids`` would take ("012" for
    (0, 1, 2), true for 1)."""
    if not isinstance(values, list) or any(isinstance(v, (str, bool)) for v in values):
        raise ValueError(f"expected an array of integer vertex ids, got {values!r}")
    return tuple(_as_ids(values))


def _as_int_pairs(pairs: Iterable[Arc]) -> list[Arc]:
    ends = _as_ids(x for u, v in pairs for x in (u, v))
    return list(zip(ends[::2], ends[1::2]))


def _checked_arcs(vertices: Container[int], arcs: list[Arc], _noun: str = "arc") -> frozenset[Arc]:
    """The set of ``arcs``: the library's one rule for a list of pairs.
    ValueError at the first item, in list order, that repeats an earlier
    one, is a loop, or has an end outside ``vertices`` (a set or a range);
    the error's ``index`` is that item's position in ``arcs``.  A list
    without a fault costs one frozenset and one pass."""
    arcset = frozenset(arcs)
    if len(arcset) == len(arcs):
        for u, v in arcs:
            if u == v or u not in vertices or v not in vertices:
                break
        else:
            return arcset
    seen: set[Arc] = set()
    for index, (u, v) in enumerate(arcs):
        if (u, v) in seen:
            fault = ValueError(f"duplicate {_noun} ({u}, {v})")
        elif u == v:
            fault = ValueError(f"loop at vertex {u}")
        elif u not in vertices or v not in vertices:
            fault = ValueError(f"{_noun} ({u}, {v}) uses an unknown vertex")
        else:
            seen.add((u, v))
            continue
        fault.index = index
        raise fault


def _check_count(value: int, name: str, least: int | None = None) -> None:
    """The library's one count rule: TypeError unless ``value`` is an int
    (a bool is no count), ValueError if it lies below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int")
    if least is not None and value < least:
        raise ValueError(f"{name} must be nonnegative, got {value}" if least == 0
                         else f"{name} must be at least {least}, got {value}")


class WeightedMasks:
    """Bitset adjacency of D[vertices], read from D without building the
    copy.  The vertices are ranked in sorted order: ``vertices[i]`` has
    rank i and ``bit[vertices[i]] == 1 << i``.  At index i, ``out`` and
    ``inn`` are the masks of the out- and in-neighbours of rank i, and
    ``pos`` and ``neg`` those of its out-neighbours along arcs of weight +1
    and -1; its weight-0 out-neighbours are ``out & ~(pos | neg)``.  On a
    bioriented D, which holds one dict for its in- and out-lists, ``inn``
    is ``out``: one mask list is built and shared, on any vertex set,
    without comparing D's lists again.  ``joined(i)`` is the mask of rank
    i's partners across digons of nonzero weight, kept from first use on
    (so a dense D computes it once for all its queries); the exact ``mu``
    search refutes a part that holds one with one AND before its memo,
    which then holds no such key.  Vertex sets are passed to the kernels as
    masks over these ranks.  Only D's own vertex tuple is taken for all of
    D; there, a row whose list holds every other vertex of D (D has no
    loops and no parallel arcs) is the full mask minus its own bit,
    without reading the list.  Any other set, one as large as D's with a
    vertex outside D included, is read list by list, and a neighbour
    outside it gets no bit."""

    __slots__ = ("vertices", "bit", "out", "inn", "pos", "neg", "_joined")

    def __init__(self, D: LabeledDigraph, vertices: Iterable[int]):
        self.vertices = verts = tuple(sorted(set(vertices)))
        self.bit = bit = {v: 1 << i for i, v in enumerate(verts)}
        if verts == D.vertices:  # all of D: no neighbour lacks a bit
            full, others = (1 << len(verts)) - 1, len(verts) - 1

            def masks(lists: dict[int, Sequence[int]]) -> Iterator[int]:
                return (full ^ bit[v] if len(ws) == others else sum(map(bit.__getitem__, ws))
                        for v, ws in zip(verts, map(lists.get, verts, repeat(()))))
        else:
            zeros = repeat(0)

            def masks(lists: dict[int, Sequence[int]]) -> Iterator[int]:
                return (sum(map(bit.get, lists.get(v, ()), zeros)) for v in verts)
        self.out = list(masks(D._out))
        self.inn = self.out if D._in is D._out else list(masks(D._in))
        self.neg = list(masks(D._neg))
        self.pos = [o ^ (z | n) for o, z, n in zip(self.out, masks(D._zero), self.neg)]
        self._joined: dict[int, int] = {}

    def rank(self, v: int) -> int:
        return self.bit[v].bit_length() - 1

    def mask(self, vertices: Iterable[int]) -> int:
        return sum(map(self.bit.__getitem__, vertices))

    def members(self, mask: int) -> frozenset[int]:
        return frozenset(compress(self.vertices, _bit_flags(mask)))

    def joined(self, i: int) -> int:
        """The mask of the ranks j such that i->j and j->i are both arcs
        and their weights sum to nonzero: a digon that is an unbalanced
        cycle, so i and j never share a balanced part."""
        mask = self._joined.get(i)
        if mask is None:
            pos, neg = self.pos, self.neg
            pi, ni = pos[i], neg[i]
            mask = 0
            digons = self.out[i] & self.inn[i]
            while digons:
                low = digons & -digons
                digons ^= low
                j = low.bit_length() - 1
                if (pi >> j & 1) - (ni >> j & 1) + (pos[j] >> i & 1) - (neg[j] >> i & 1):
                    mask |= low
            self._joined[i] = mask
        return mask


def _adjacency(D: LabeledDigraph, vertices: Iterable[int] | None = None) -> WeightedMasks:
    """Masks that hold D[vertices] (all of D when ``vertices`` is None): on a
    dense D those of all of D, kept in its slot; else those of the set."""
    if _is_dense(D):
        D._masks = D._masks or WeightedMasks(D, D.vertices)
        return D._masks
    return WeightedMasks(D, D.vertices if vertices is None else vertices)


def _component_masks(D: LabeledDigraph, host: Iterable[int] | None = None
                     ) -> Iterator[tuple[frozenset[int], WeightedMasks | None, int | None]]:
    """(component, masks, component mask) for each strong component of
    D[host] (all of D when ``host`` is None), by smallest vertex.  The masks
    are those ``_adjacency`` gives the component; a one-vertex component
    lies on no cycle, since D has no loops, and comes as (None, None)
    without any masks built."""
    for comp in strong_components(D, host=host):
        adj = _adjacency(D, comp) if len(comp) > 1 else None
        yield comp, adj, adj and adj.mask(comp)


class _Record:
    """Base of the library's immutable records.  A record lists its fields
    in ``__slots__``.  Its ``__init__`` only checks and normalises its
    arguments, then hands the field values in ``__slots__`` order to
    ``_Record.__init__``, which stores every field through its slot's own
    setter; assigning or deleting a field afterwards raises
    AttributeError.  Two records are equal, and hash alike, when they are
    of one class and their fields are equal; a class declared with
    ``eq=False`` compares by identity.  The repr is ``Name(field=value,
    ...)``, and ``copy``, ``deepcopy`` and ``pickle`` rebuild a record
    through its constructor, whose parameters are its fields in order.
    Written by hand because ``dataclasses`` generates and compiles each
    class's methods on every import."""

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class DirectedPath(_Record):
    """A simple directed path stored as its vertex sequence, a tuple.

    A single vertex is a path of length 0.  Whether the consecutive arcs
    exist in a particular digraph is checked by ``valid_in``; a path built
    inside a host set is checked against the root digraph and, separately,
    for staying inside that host set.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[int]):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("empty vertex sequence")
        if len(set(vertices)) != len(vertices):
            raise ValueError("path vertices must be pairwise distinct")
        _Record.__init__(self, vertices)

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


class BfsTree(_Record, eq=False):
    """Spanning tree orientation preserving BFS distances from (direction
    "out") or towards (direction "in") the root.

    ``levels`` are the BFS strata: L_0 is the singleton {root} and the
    levels partition the strongly connected host.  ``parent`` maps every
    non-root vertex to its parent vertex, one level nearer the root;
    ``tree_path`` gives the tree's paths and so its arcs, which point away
    from the root in an out-tree and towards it in an in-tree.  Equality
    is identity.
    """

    __slots__ = ("root", "direction", "levels", "parent")

    def __init__(self, root: int, direction: str, levels: tuple[frozenset[int], ...],
                 parent: dict[int, int]):
        _Record.__init__(self, root, direction, levels, parent)

    def __repr__(self) -> str:
        return f"BfsTree(root={self.root}, direction={self.direction!r}, n={len(self.parent) + 1})"


def strong_components(D: LabeledDigraph, *,
                      host: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Vertex sets of the strong components of D[host] (all of D when
    ``host`` is None), ordered by smallest member.  Read from D itself
    without building the induced copy.

    Mask reaches on a dense digraph, list reaches (Kosaraju) on a sparse one.
    """
    return _components(D, *_host(D, host))


def _components(D: LabeledDigraph, adj: WeightedMasks | None,
                inside: int | frozenset[int]) -> list[frozenset[int]]:
    """The strong components of ``_host``'s pair, on the lists or the masks."""
    return _list_components(D, inside) if adj is None else _mask_components(adj, inside)


def _host_set(D: LabeledDigraph, host: Iterable[int] | None) -> frozenset[int]:
    """The vertex set ``host`` (all of D when None); ValueError if not in D."""
    if host is None:
        return frozenset(D.vertices)
    vset = frozenset(host)
    if not D._out.keys() >= vset:
        raise ValueError(f"unknown vertices in host: {sorted(vset - D._out.keys())}")
    return vset


def _is_dense(D: LabeledDigraph) -> bool:
    return len(D.arcs) >= _DENSE_ARCS_PER_VERTEX * len(D.vertices)


def _host(D: LabeledDigraph, host: Iterable[int] | None
          ) -> tuple[WeightedMasks, int] | tuple[None, frozenset[int]]:
    """The host kernels' one dense-or-sparse choice: D's masks and the mask
    of ``_host_set(D, host)`` on a dense D, None and that set on a sparse D."""
    vset = _host_set(D, host)
    if _is_dense(D):
        adj = _adjacency(D)
        return adj, adj.mask(vset)
    return None, vset


# maps the digits of bin(mask) to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    """One 0/1 byte per rank of ``mask``, lowest rank first."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _ranks(mask: int) -> Iterator[int]:
    """The ranks of the set bits of ``mask``, ascending."""
    return compress(count(), _bit_flags(mask))


def _reach(adj: list[int], seed: int, allowed: int) -> int:
    """The bits reachable from ``seed`` along ``adj`` inside ``allowed``,
    which holds ``seed``.  One bit's mask is read at a time, and the
    search stops once it has seen all of ``allowed``."""
    seen = todo = seed
    while todo and seen != allowed:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & allowed & ~seen
        seen |= new
        todo |= new
    return seen


def _mask_components(adj: WeightedMasks, host: int) -> list[frozenset[int]]:
    """Strong components of the host mask: the component of the lowest
    remaining bit is its backward reach inside its forward reach, so the
    components come out ordered by smallest member."""
    out, inn = adj.out, adj.inn
    comps = []
    while host:
        low = host & -host
        comp = _reach(inn, low, _reach(out, low, host))
        comps.append(adj.members(comp))
        host &= ~comp
    return comps


def _list_reach(adj: dict[int, Sequence[int]], root: int, inside: Container[int],
                seen: set[int]) -> list[int]:
    """The vertices reachable from ``root``, itself not in ``seen``, along
    the lists ``adj`` inside ``inside`` and not in ``seen``; added to ``seen``."""
    seen.add(root)
    found = [root]
    for v in found:
        for w in adj[v]:
            if w not in seen and w in inside:
                seen.add(w)
                found.append(w)
    return found


def _list_components(D: LabeledDigraph, vset: frozenset[int]) -> list[frozenset[int]]:
    """Strong components of D[vset] (Kosaraju): a depth-first pass over the
    out-lists records the finishing order; then, latest finished first, each
    backward reach over the in-lists among unplaced vertices is one component."""
    out = D._out
    finished: list[int] = []
    unvisited = set(vset)
    while unvisited:
        root = unvisited.pop()
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w in unvisited:
                    unvisited.remove(w)
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    placed: set[int] = set()
    comps = [frozenset(_list_reach(D._in, v, vset, placed))
             for v in reversed(finished) if v not in placed]
    comps.sort(key=min)
    return comps


def is_strongly_connected(D: LabeledDigraph, *, host: Iterable[int] | None = None) -> bool:
    """Whether D[host] (all of D when ``host`` is None) is nonempty and
    strongly connected, by ``_strong``, the one strong test."""
    return _strong(D, *_host(D, host))


def _strong(D: LabeledDigraph, adj: WeightedMasks | None, inside: int | frozenset[int]) -> bool:
    """The strong test of ``_host``'s pair: the host is nonempty, and a
    forward and a backward reach from its smallest vertex each cover it."""
    if adj is None:
        return bool(inside) and all(len(_list_reach(lists, min(inside), inside, set()))
                                    == len(inside) for lists in (D._out, D._in))
    low = inside & -inside
    return bool(inside) and _reach(adj.out, low, inside) == inside == _reach(adj.inn, low, inside)


def bfs_tree(D: LabeledDigraph, root: int, direction: str, *,
             host: Iterable[int] | None = None) -> BfsTree:
    """Distance-preserving spanning tree of D[host] (all of D when ``host``
    is None) together with its BFS levels; requires a strongly connected
    host, checked here once.  A vertex's parent is its smallest neighbour
    on the previous level."""
    return _bfs(D, root, direction, host)[0]


def _bfs(D: LabeledDigraph, root: int, direction: str, host: Iterable[int] | None
         ) -> tuple[BfsTree, WeightedMasks | None, Sequence[int] | Sequence[frozenset[int]]]:
    """``bfs_tree``'s search.  With the tree it returns ``_host``'s choice
    and the levels in that form: D's masks and the level masks on a dense
    D, None and the tree's level sets on a sparse D."""
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be {OUT!r} or {IN!r}, got {direction!r}")
    adj, inside = _host(D, host)
    if not _strong(D, adj, inside):
        raise PreconditionViolation("bfs_tree requires a strongly connected digraph")
    if not (root in inside if adj is None else adj.bit.get(root, 0) & inside):
        raise ValueError(f"unknown start vertex {root}")
    if adj is None:
        tree = _list_bfs(D, root, direction, inside)
        return tree, None, tree.levels
    tree, masks = _mask_bfs(adj, root, direction, inside)
    return tree, adj, masks


def _list_bfs(D: LabeledDigraph, root: int, direction: str, vset: frozenset[int]) -> BfsTree:
    """Each level is scanned in ascending order, so a vertex's first
    discoverer, recorded as its parent, is its smallest neighbour on the
    previous level."""
    adj = D._out if direction == OUT else D._in
    levels = [frozenset([root])]
    parent: dict[int, int] = {}
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj[v]:
                if w not in parent and w != root and w in vset:
                    parent[w] = v
                    nxt.append(w)
        if nxt:
            nxt.sort()
            levels.append(frozenset(nxt))
        frontier = nxt
    return BfsTree(root, direction, tuple(levels), parent)


def _mask_bfs(adj: WeightedMasks, root: int, direction: str, host: int
              ) -> tuple[BfsTree, list[int]]:
    """The tree and the masks of its levels.  Only the frontier's rows
    ahead are read, in ascending rank: each frontier vertex takes the
    vertices of its row that are inside the host and not yet claimed as
    its children, so a vertex's parent is its smallest neighbour (towards
    the root) on the frontier.  The search stops once the strongly
    connected host is covered, without reading the remaining rows."""
    ahead = adj.out if direction == OUT else adj.inn
    verts = adj.vertices
    frontier = adj.bit[root]
    masks = [frontier]
    parent: dict[int, int] = {}
    left = host ^ frontier
    while left:
        level = left
        for f in _ranks(frontier):
            new = ahead[f] & left
            if new:
                parent.update(dict.fromkeys(compress(verts, _bit_flags(new)), verts[f]))
                left ^= new
                if not left:
                    break
        frontier = level ^ left
        masks.append(frontier)
    return BfsTree(root, direction, tuple(map(adj.members, masks)), parent), masks


def _chain(parent: dict, v) -> list:
    """The parent chain from v: v, its parent, that vertex's parent and so
    on, up to the first vertex that ``parent`` maps to None or not at all.
    The one walk of a parent map, shared by the tree paths, the path BFS
    and the balance kernel's state BFS.  ValueError once the chain is
    longer than ``parent`` has entries plus one: the map has a cycle."""
    chain = [v]
    while (v := parent.get(v)) is not None:
        chain.append(v)
        if len(chain) > len(parent) + 1:
            raise ValueError("the parent map has a cycle")
    return chain


def tree_path(T: BfsTree, v: int) -> DirectedPath:
    """The unique root-to-v path (out-tree) or v-to-root path (in-tree).
    ValueError for a vertex outside the tree, and for a parent map whose
    chain from v cycles or ends away from the root."""
    return DirectedPath(_tree_walk(T, v))


def _tree_walk(T: BfsTree, v: int) -> tuple[int, ...]:
    """The vertex tuple of ``tree_path(T, v)``."""
    chain = _chain(T.parent, v)
    if chain[-1] != T.root:
        raise ValueError(f"vertex {v} has no parent chain to the root {T.root}")
    return tuple(reversed(chain)) if T.direction == OUT else tuple(chain)


def first_path_to_set(D: LabeledDigraph, sources: Iterable[int], targets: Iterable[int], *,
                      host: Iterable[int] | None = None) -> DirectedPath | None:
    """Shortest directed (sources, targets)-path of D[host] (all of D when
    ``host`` is None): starts in ``sources``, ends on first contact with
    ``targets``, internal vertices outside both sets.  Deterministic (BFS,
    ascending identifiers); ``_bfs_path`` is the search, which
    ``entry_splice`` shares.  Every source and target must lie in the host."""
    src = sorted(set(sources))
    tgt = set(targets)
    inside = _host_set(D, host)
    if not inside >= tgt.union(src):
        raise ValueError(f"sources or targets outside the host: {sorted(tgt.union(src) - inside)}")
    if not src or not tgt:
        return None
    if tgt & set(src):
        raise ValueError("sources and targets must be disjoint")
    path = _bfs_path(src, tgt, D._out, inside)
    return None if path is None else DirectedPath(path)


def _bfs_path(sources: list[int], targets: set[int], successors: dict[int, Sequence[int]],
              inside: Container[int]) -> tuple[int, ...] | None:
    """Vertex tuple of the shortest path from ``sources`` (disjoint from
    ``targets``) to its first contact with ``targets``, along the ascending
    lists ``successors[v]`` and skipping vertices not in ``inside``; earlier
    sources and smaller identifiers win ties.  None when no target is
    reached."""
    parent: dict[int, int | None] = dict.fromkeys(sources)
    frontier = sources
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in successors[v]:
                if w not in inside:
                    continue
                if w in targets:
                    return (*reversed(_chain(parent, v)), w)
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None
