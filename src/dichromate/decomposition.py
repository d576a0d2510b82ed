"""Structural decompositions of digraphs with large mu.

Three constructions, each returning explicit, re-checkable witnesses:

* level split -- among all (BFS level, strong component) pairs, the one of
  maximum oracle-mu; with an exact oracle its value is at least half of
  mu(D), because odd and even levels can be colored with separate palettes.
* connector set -- a vertex set X with D[X] strongly connected, oracle-mu at
  least a quarter of mu(D), and an explicit X-path between every ordered
  pair of X-vertices (endpoints in X, interior outside X).
* nested connector sequence -- iterated connector sets S_0 .. S_m with the
  locality property that S_m-paths recorded at iteration i stay inside
  S_m together with the shell S_{i-1} minus S_i.

Guarantees are always relative to the oracle actually used; degenerate
below-threshold outcomes are returned flagged, never silently certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import (IN, OUT, BfsTree, DirectedPath, LabeledDigraph, Leveling, bfs_tree,
                      first_path_to_set, is_strongly_connected, shortest_path_via_arcs,
                      strong_components, tree_path)
from .errors import ConstructionFailed, OracleUnavailable, PreconditionViolation
from .oracles import MuOracle


@dataclass(frozen=True)
class LevelSplitResult:
    level_index: int
    component: frozenset[int]
    mu_of_component: int | None
    provenance: str
    verified: bool


def level_split(D: LabeledDigraph, lev: Leveling, oracle: MuOracle,
                min_level: int = 0, *,
                host: Iterable[int] | None = None) -> LevelSplitResult:
    """The (level, strong component) pair of maximum oracle-mu in D[host]
    (all of D when ``host`` is None), read from D without building the copy.

    Ties break towards the smaller level index, then the component with the
    smaller leading vertex.  Candidates the oracle cannot evaluate are
    skipped and the result is flagged unverified; if nothing is evaluable
    the largest candidate component is returned unverified.
    """
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("level_split requires a strongly connected digraph")
    covered = set()
    for level in lev.levels:
        covered |= level
    if covered != host:
        raise ValueError("leveling does not partition the digraph's vertices")

    candidates: list[tuple[int, frozenset[int]]] = []
    for i, level in enumerate(lev.levels):
        if i < min_level:
            continue
        for comp in strong_components(D, host=level):
            candidates.append((i, comp))
    if not candidates:
        raise ValueError(f"no levels at index >= {min_level}")

    best: tuple[int, int, int, frozenset[int]] | None = None
    verified = True
    for i, comp in candidates:
        try:
            value = oracle.mu(comp)
        except OracleUnavailable:
            verified = False
            continue
        key = (-value, i, min(comp))
        if best is None or key < (best[0], best[1], best[2]):
            best = (-value, i, min(comp), comp)
    if best is None:
        i, comp = max(candidates, key=lambda c: (len(c[1]), -c[0], -min(c[1])))
        return LevelSplitResult(i, comp, None, oracle.name, False)
    return LevelSplitResult(best[1], best[3], -best[0], oracle.name, verified)


def _x_path_faults(D: LabeledDigraph, host: frozenset[int], X: frozenset[int],
                  seq) -> tuple[str, ...]:
    """Why the vertex sequence ``seq`` is not an X-path of D[host]: "simple"
    alone when a vertex repeats, otherwise any of "digraph" (an arc missing
    from D or a vertex outside the host) and "X" (an interior vertex in X)."""
    if len(set(seq)) != len(seq):
        return ("simple",)
    faults = []
    if not (all(v in host for v in seq) and all(map(D.has_arc, seq, seq[1:]))):
        faults.append("digraph")
    if any(v in X for v in seq[1:-1]):
        faults.append("X")
    return tuple(faults)


def entry_splice(in_tree: BfsTree, entry_path: DirectedPath, u: int) -> DirectedPath | None:
    """Shortest path from u to the end of ``entry_path`` over the arcs of u's
    in-tree path and the entry path; None if those arcs do not join them."""
    arcs = set(tree_path(in_tree, u).arcs()) | set(entry_path.arcs())
    return shortest_path_via_arcs(arcs, u, entry_path.last)


class ConnectorSet:
    """A connector set X of D[host] plus the machinery to realize X-paths on
    demand.  ``D`` is the root digraph and ``host`` the vertex set the
    construction ran in; every path stays inside the host.

    The construction keeps the in-tree towards the starting vertex, the entry
    path from it into the intermediate component X1, and the out-tree of
    D[X1] from the entry vertex x1.  The path for an ordered pair (x, y) is
    x's in-tree path spliced with the entry path, then the out-tree path
    from x1 down to y; it is verified and cached.
    """

    def __init__(self, D: LabeledDigraph, host: frozenset[int], X: frozenset[int], x0: int,
                 x1: int, entry_path: DirectedPath, in_tree: BfsTree, X1: frozenset[int],
                 out_tree: BfsTree, mu_value: int | None, provenance: str,
                 flags: tuple[str, ...]):
        self.D = D
        self.host = host
        self.X = X
        self.x0 = x0
        self.x1 = x1
        self.entry_path = entry_path
        self.in_tree = in_tree
        self.X1 = X1
        self.out_tree = out_tree
        self.mu_value = mu_value
        self.provenance = provenance
        self.flags = flags
        self._table: dict[tuple[int, int], DirectedPath] = {}

    def path(self, x: int, y: int) -> DirectedPath:
        """A verified X-path from x to y (lazily built and cached)."""
        if x == y:
            raise ValueError("an X-path joins two distinct vertices")
        if x not in self.X or y not in self.X:
            raise ValueError("endpoints must lie in the connector set")
        key = (x, y)
        if key in self._table:
            return self._table[key]
        towards = entry_splice(self.in_tree, self.entry_path, x)
        if towards is None:
            raise ConstructionFailed("connector-path", f"no route from {x} to {self.x1}")
        down = tree_path(self.out_tree, y)
        seq = towards.vertices + down.vertices[1:]
        faults = _x_path_faults(self.D, self.host, self.X, seq)
        if faults:
            what = {"simple": "is not simple", "digraph": "leaves the digraph",
                    "X": "re-enters X"}[faults[0]]
            raise ConstructionFailed("connector-path", f"splice for ({x}, {y}) {what}")
        path = DirectedPath(seq)
        self._table[key] = path
        return path

    def known_paths(self) -> dict[tuple[int, int], DirectedPath]:
        return dict(self._table)


def connector_set(D: LabeledDigraph, oracle: MuOracle, start: int | None = None, *,
                  host: Iterable[int] | None = None) -> ConnectorSet:
    """Connector set of D[host] (all of D when ``host`` is None) via in-tree,
    level split, entry path, out-tree of the chosen component, and a second
    level split, read from D without building the copies.  ``start``
    overrides the default starting vertex (the smallest identifier)."""
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("connector_set requires a strongly connected digraph")
    x0 = min(host) if start is None else start
    if x0 not in host:
        raise ValueError(f"unknown start vertex {x0}")
    flags: list[str] = []

    in_tree = bfs_tree(D, x0, IN, host=host)
    split1 = level_split(D, in_tree.leveling, oracle, host=host)
    if not split1.verified:
        flags.append("unverified-entry-split")
    X1 = split1.component
    if split1.level_index == 0:
        flags.append("degenerate-entry-level")
        x1 = x0
        entry = DirectedPath((x0,))
    else:
        entry = first_path_to_set(D, [x0], X1, avoid=set(D.vertices) - host)
        assert entry is not None  # strong connectivity guarantees a route
        x1 = entry.last

    out_tree = bfs_tree(D, x1, OUT, host=X1)
    split2 = level_split(D, out_tree.leveling, oracle, host=X1)
    if not split2.verified:
        flags.append("unverified-exit-split")
    if split2.level_index == 0:
        flags.append("degenerate-exit-level")
    return ConnectorSet(D, host, split2.component, x0, x1, entry, in_tree, X1, out_tree,
                        split2.mu_of_component, oracle.name, tuple(flags))


class NestedSequence:
    """Sets S_0 .. S_m from iterated connector extraction, with per-level
    path realization confined to per-level shells.  ``D`` is the root
    digraph and S_0 the host set the sequence was built in."""

    def __init__(self, D: LabeledDigraph, sets: tuple[frozenset[int], ...],
                 connectors: tuple[ConnectorSet, ...], provenance: str,
                 flags: tuple[str, ...]):
        self.D = D
        self.sets = sets
        self.connectors = connectors
        self.provenance = provenance
        self.flags = flags

    @property
    def m(self) -> int:
        return len(self.sets) - 1

    @property
    def mu_values(self) -> tuple[int | None, ...]:
        return tuple(c.mu_value for c in self.connectors)

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
        if not 1 <= i <= self.m:
            raise ValueError(f"level index {i} out of range")
        p = self.connectors[i - 1].path(x, y)
        shell = self.shell(i)
        if any(v not in shell for v in p.interior):
            raise ConstructionFailed("locality", f"level-{i} path leaves its shell")
        return p


def nested_connector_sequence(D: LabeledDigraph, m: int, oracle: MuOracle,
                              start: int | None = None, *,
                              host: Iterable[int] | None = None) -> NestedSequence:
    """Iterate connector extraction m times in D[host] (all of D when
    ``host`` is None); m = 0 yields just S_0, the host."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("nested_connector_sequence requires a strongly "
                                    "connected digraph")
    sets = [host]
    connectors: list[ConnectorSet] = []
    flags: list[str] = []
    for i in range(m):
        cs = connector_set(D, oracle, start if i == 0 else None, host=sets[-1])
        connectors.append(cs)
        sets.append(cs.X)
        flags.extend(f"level-{i + 1}:{f}" for f in cs.flags)
    return NestedSequence(D, tuple(sets), tuple(connectors), oracle.name, tuple(flags))
