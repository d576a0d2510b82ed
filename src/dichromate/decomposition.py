"""Structural decompositions of digraphs with large mu.

Three constructions, each returning explicit, re-checkable witnesses:

* level split -- from one vertex, build the BFS tree and, among all (BFS
  level, strong component) pairs, pick the one of maximum oracle-mu; with
  an exact oracle its value is at least half of mu(D), because odd and even
  levels can be colored with separate palettes.  The split returns the tree
  it split, and a host's strong connectivity is checked once, when that
  tree is built.
* connector set -- a vertex set X with D[X] strongly connected, oracle-mu at
  least a quarter of mu(D), and an explicit X-path between every ordered
  pair of X-vertices (endpoints in X, interior outside X).  One builder
  makes these paths and the candidate walks of residue-universal sets.
* nested connector sequence -- iterated connector sets S_0 .. S_m with the
  locality property that S_m-paths recorded at iteration i stay inside
  S_m together with the shell S_{i-1} minus S_i.

Guarantees are always relative to the oracle actually used; degenerate
below-threshold outcomes are returned flagged, never silently certified.
"""

from __future__ import annotations

from typing import Iterable

from .digraph import (IN, OUT, BfsTree, DirectedPath, LabeledDigraph, _bfs, _bfs_path,
                      _check_count, _components, _host_set, _Record, _tree_walk,
                      first_path_to_set, is_strongly_connected)
from .errors import ConstructionFailed, OracleUnavailable, PreconditionViolation
from .oracles import MuOracle


class LevelSplitResult(_Record):
    __slots__ = ("level_index", "component", "mu_of_component", "provenance", "verified", "tree")

    def __init__(self, level_index: int, component: frozenset[int], mu_of_component: int | None,
                 provenance: str, verified: bool, tree: BfsTree):
        _Record.__init__(self, level_index, component, mu_of_component, provenance, verified, tree)


def level_split(D: LabeledDigraph, root: int, direction: str, oracle: MuOracle,
                min_level: int = 0, *,
                host: Iterable[int] | None = None) -> LevelSplitResult:
    """The (level, strong component) pair of maximum oracle-mu among the BFS
    levels of D[host] (all of D when ``host`` is None) from (``direction``
    "out") or towards ("in") ``root``, read from D without building the copy.
    The result carries the BFS tree it split; building that tree is the one
    check that the host is strongly connected.  The levels come from that
    BFS as it found them, as masks on a dense D, and go straight to the
    component kernels.

    Ties break towards the smaller level index, then the component with the
    smaller leading vertex.  Candidates the oracle cannot evaluate are
    skipped and the result is flagged unverified; if nothing is evaluable
    the largest candidate component is returned unverified.  Raises
    ConstructionFailed ("level-split") when no level has index ``min_level``
    or more, and ValueError for a negative ``min_level``.
    """
    _check_count(min_level, "min_level", 0)
    tree, adj, levels = _bfs(D, root, direction, host)
    candidates = [(i, comp) for i, level in enumerate(levels[min_level:], min_level)
                  for comp in _components(D, adj, level)]
    if not candidates:
        raise ConstructionFailed("level-split", f"no levels at index >= {min_level}")

    # the level and the leading vertex tell candidates apart, so min never
    # compares two components
    scored = []
    verified = True
    for i, comp in candidates:
        try:
            scored.append((-oracle.mu(comp), i, min(comp), comp))
        except OracleUnavailable:
            verified = False
    if not scored:
        i, comp = max(candidates, key=lambda c: (len(c[1]), -c[0], -min(c[1])))
        return LevelSplitResult(i, comp, None, oracle.name, False, tree)
    value, i, _, comp = min(scored)
    return LevelSplitResult(i, comp, -value, oracle.name, verified, tree)


def _x_path_faults(D: LabeledDigraph, host: frozenset[int], X: frozenset[int],
                  seq) -> tuple[str, ...]:
    """Why the vertex sequence ``seq`` is not an X-path of D[host]: "is not
    simple" alone, or any of "leaves the digraph" (an arc missing from D or
    a vertex outside the host) and "re-enters X" (an interior vertex in X)."""
    if len(set(seq)) != len(seq):
        return ("is not simple",)
    faults = []
    if not (all(v in host for v in seq) and all(map(D.has_arc, seq, seq[1:]))):
        faults.append("leaves the digraph")
    if any(v in X for v in seq[1:-1]):
        faults.append("re-enters X")
    return tuple(faults)


def entry_splice(in_tree: BfsTree, entry_path: DirectedPath, u: int) -> tuple[int, ...] | None:
    """Vertex tuple of the shortest path from u to the end of ``entry_path``
    over the arcs of u's in-tree path and the entry path; None if those arcs
    do not join them.  It runs ``first_path_to_set``'s BFS, ``_bfs_path``,
    over the ascending successor lists of that arc union, so where the two
    paths share a vertex besides the in-tree root the splice cuts across."""
    end = entry_path.last
    if u == end:
        return (u,)
    down = _tree_walk(in_tree, u)
    arcs = sorted(set(zip(down, down[1:])) | set(entry_path.arcs()))
    successors: dict[int, list[int]] = {h: [] for _, h in arcs}
    for t, h in arcs:
        successors.setdefault(t, []).append(h)
    return _bfs_path([u], {end}, successors, successors)


def _x_walk(stage: str, in_tree: BfsTree, entry_path: DirectedPath, u: int,
            pieces: Iterable[tuple[int, ...]], out_tree: BfsTree, v: int) -> list[int]:
    """Vertex sequence of the walk from u to v, joined from vertex tuples:
    u's entry splice, then each piece in turn, then the out-tree path down
    to v, each part starting where the walk so far ends.  No part is built
    as a ``DirectedPath``; the caller checks the whole walk once
    (``_checked_x_path``).  Raises ConstructionFailed (``stage``) when the
    splice finds no route from u."""
    towards = entry_splice(in_tree, entry_path, u)
    if towards is None:
        raise ConstructionFailed(stage, f"no route from {u} to {entry_path.last}")
    walk = list(towards)
    for piece in (*pieces, _tree_walk(out_tree, v)):
        assert piece[0] == walk[-1]
        walk.extend(piece[1:])
    return walk


def _checked_x_path(stage: str, owner, seq: list[int], name: str) -> DirectedPath:
    """The walk ``seq`` as a ``DirectedPath`` once ``_x_path_faults`` finds
    it an X-path of ``owner.D[owner.host]`` for ``owner.X``, ``owner`` being
    a connector set or a residue-universal set; otherwise ConstructionFailed
    (``stage``) naming ``name`` and the first fault."""
    if faults := _x_path_faults(owner.D, owner.host, owner.X, seq):
        raise ConstructionFailed(stage, f"{name} {faults[0]}")
    return DirectedPath(seq)


def _enter(D: LabeledDigraph, host: frozenset[int], start: int | None, oracle: MuOracle,
           min_level: int, flags: list[str]) -> tuple[LevelSplitResult, DirectedPath]:
    """The entry half of a connector or residue-universal set in D[host]
    from x0, ``start`` or by default the host's smallest vertex: the in-tree
    level split towards x0 from level ``min_level`` on, with its flags
    appended to ``flags``, and the first path from x0 into the chosen
    component (x0 alone when that component is level 0)."""
    x0 = min(host, default=None) if start is None else start
    split = level_split(D, x0, IN, oracle, min_level, host=host)
    if not split.verified:
        flags.append("unverified-entry-split")
    if split.level_index == 0:
        flags.append("degenerate-entry-level")
        return split, DirectedPath((x0,))
    entry = first_path_to_set(D, [x0], split.component, host=host)
    assert entry is not None  # strong connectivity guarantees a route
    return split, entry


class ConnectorSet(_Record, eq=False):
    """A connector set X of D[host] plus the machinery to realize X-paths on
    demand.  ``D`` is the root digraph and ``host`` the vertex set the
    construction ran in; every path stays inside the host.

    The construction keeps the in-tree towards the starting vertex, the entry
    path from it into the intermediate component X1, and the out-tree of
    D[X1] from the entry vertex x1.  The path for an ordered pair (x, y) is
    x's in-tree path spliced with the entry path, then the out-tree path
    from x1 down to y; it is verified each time it is built.
    """

    __slots__ = ("D", "host", "X", "x0", "x1", "entry_path", "in_tree", "X1", "out_tree",
                 "mu_value", "provenance", "flags")

    def __init__(self, D: LabeledDigraph, host: frozenset[int], X: frozenset[int], x0: int,
                 x1: int, entry_path: DirectedPath, in_tree: BfsTree, X1: frozenset[int],
                 out_tree: BfsTree, mu_value: int | None, provenance: str,
                 flags: tuple[str, ...]):
        _Record.__init__(self, D, host, X, x0, x1, entry_path, in_tree, X1, out_tree, mu_value,
                         provenance, flags)

    def path(self, x: int, y: int) -> DirectedPath:
        """A verified X-path from x to y."""
        if x == y:
            raise ValueError("an X-path joins two distinct vertices")
        if x not in self.X or y not in self.X:
            raise ValueError("endpoints must lie in the connector set")
        seq = _x_walk("connector-path", self.in_tree, self.entry_path, x, (), self.out_tree, y)
        return _checked_x_path("connector-path", self, seq, f"splice for ({x}, {y})")


def connector_set(D: LabeledDigraph, oracle: MuOracle, start: int | None = None, *,
                  host: Iterable[int] | None = None) -> ConnectorSet:
    """Connector set of D[host] (all of D when ``host`` is None) via a level
    split of the in-tree, entry path, and a second level split of the
    out-tree of the chosen component, read from D without building the
    copies.  ``start`` overrides the default starting vertex (the smallest
    identifier)."""
    host = _host_set(D, host)
    flags: list[str] = []
    split1, entry = _enter(D, host, start, oracle, 0, flags)

    split2 = level_split(D, entry.last, OUT, oracle, host=split1.component)
    if not split2.verified:
        flags.append("unverified-exit-split")
    if split2.level_index == 0:
        flags.append("degenerate-exit-level")
    return ConnectorSet(D, host, split2.component, entry.first, entry.last, entry, split1.tree,
                        split1.component, split2.tree, split2.mu_of_component, oracle.name,
                        tuple(flags))


class NestedSequence(_Record, eq=False):
    """Sets S_0 .. S_m from iterated connector extraction, with per-level
    path realization confined to per-level shells.  ``D`` is the root
    digraph and S_0 the host set the sequence was built in."""

    __slots__ = ("D", "sets", "connectors", "provenance", "flags")

    def __init__(self, D: LabeledDigraph, sets: tuple[frozenset[int], ...],
                 connectors: tuple[ConnectorSet, ...], provenance: str, flags: tuple[str, ...]):
        _Record.__init__(self, D, sets, connectors, provenance, flags)

    @property
    def m(self) -> int:
        return len(self.sets) - 1

    def shell(self, i: int) -> frozenset[int]:
        """S_{i-1} minus S_i, the region available to level-i paths."""
        if not 1 <= i <= self.m:
            raise ValueError(f"level index {i} out of range")
        return self.sets[i - 1] - self.sets[i]

    def path(self, x: int, y: int, i: int) -> DirectedPath:
        """An S_i-path from x to y living inside S_i plus the level-i shell.

        For x, y in the innermost set this realizes the locality property:
        the interior stays inside S_{i-1} minus S_i.
        """
        shell = self.shell(i)
        p = self.connectors[i - 1].path(x, y)
        if any(v not in shell for v in p.interior):
            raise ConstructionFailed("locality", f"level-{i} path leaves its shell")
        return p


def nested_connector_sequence(D: LabeledDigraph, m: int, oracle: MuOracle, *,
                              host: Iterable[int] | None = None) -> NestedSequence:
    """Iterate connector extraction m times in D[host] (all of D when
    ``host`` is None), each level from its set's smallest vertex; m = 0
    yields just S_0, the host.  For m >= 1 the first connector set checks
    the host's strong connectivity; for m = 0 it is checked here."""
    _check_count(m, "m", 0)
    host = _host_set(D, host)
    if m == 0 and not is_strongly_connected(D, host=host):
        raise PreconditionViolation("nested_connector_sequence requires a strongly "
                                    "connected digraph")
    sets = [host]
    connectors: list[ConnectorSet] = []
    flags: list[str] = []
    for i in range(m):
        cs = connector_set(D, oracle, host=sets[-1])
        connectors.append(cs)
        sets.append(cs.X)
        flags.extend(f"level-{i + 1}:{f}" for f in cs.flags)
    return NestedSequence(D, tuple(sets), tuple(connectors), oracle.name, tuple(flags))
