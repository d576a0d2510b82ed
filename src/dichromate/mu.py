"""Exact computation and certification of the unbalanced dichromatic number.

mu(D, z1, z2) is the least number of parts in a vertex partition of D such
that no part induces an unbalanced directed cycle.  With z1 = A(D) and
z2 = empty this is the ordinary dichromatic number.

The solver reduces to strong components (mu is the maximum over them, since
no directed cycle crosses components), then runs iterative deepening on the
part count k: a backtracking assignment in a fixed vertex order, with
symmetry breaking (a vertex may open part c only when parts 0..c-1 are
already open).  Each assignment of v to a part is tested incrementally: the
part was balanced before, so every new unbalanced cycle runs through v, and
only v's strong component inside the part is checked for consistent
potentials.  The test reads the root digraph's adjacency, with arc weights
computed once per component; no subgraph is built.  The exhausted search at
k-1 is the lower-bound certificate, recorded as a trace of explored node
counts; the returned partition is the upper-bound certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .balance import InNeighbors, WeightedOut, unbalanced_through, weighted_adjacency
from .digraph import LabeledDigraph, strong_components
from .errors import MuBoundExceeded


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty vertex blocks; callers check coverage against a digraph."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        total = 0
        union: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            total += len(b)
            union |= b
        if len(union) != total:
            raise ValueError("blocks must be pairwise disjoint")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        norm = sorted((frozenset(b) for b in blocks), key=lambda b: min(b) if b else -1)
        return cls(tuple(norm))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def covers(self, D: LabeledDigraph) -> bool:
        union: set[int] = set()
        for b in self.blocks:
            union |= b
        return union == set(D.vertices)


@dataclass(frozen=True)
class ComponentTrace:
    """Search record for one strong component: (k, nodes explored) per depth."""

    component: frozenset[int]
    attempts: tuple[tuple[int, int], ...]
    value: int


@dataclass(frozen=True)
class MuResult:
    value: int
    certificate: VertexPartition
    lower_bound_trace: tuple[ComponentTrace, ...]


def verify_partition(D: LabeledDigraph, partition: VertexPartition) -> bool:
    """True iff every block induces a balanced subdigraph.  The blocks must
    partition V(D) exactly."""
    if not partition.covers(D):
        raise ValueError("blocks do not partition the vertex set")
    out_w, inn = weighted_adjacency(D, D.vertices)
    return not any(unbalanced_through(out_w, inn, comp, min(comp))
                   for block in partition.blocks
                   for comp in strong_components(D, host=block))


def _search_k(out_w: WeightedOut, inn: InNeighbors, order: list[int],
              k: int) -> tuple[list[frozenset[int]] | None, int]:
    """Backtracking k-part assignment over an explicit stack; returns
    (blocks or None, nodes explored).  A node places order[idx] in part c;
    parts are tried in increasing order, and c may open at most one new part."""
    n = len(order)
    classes: list[set[int]] = [set() for _ in range(k)]
    chosen: list[int] = []          # part of order[i], for i < idx
    opened_before: list[int] = []   # open parts before order[i] was placed
    nodes = 0
    idx = opened = c = 0
    while idx < n:
        v = order[idx]
        top = min(opened + 1, k)
        while c < top:
            nodes += 1
            part = classes[c]
            part.add(v)
            if not unbalanced_through(out_w, inn, part, v):
                break
            part.remove(v)
            c += 1
        if c < top:
            chosen.append(c)
            opened_before.append(opened)
            opened = max(opened, c + 1)
            idx += 1
            c = 0
        elif idx == 0:
            return None, nodes
        else:
            idx -= 1
            c = chosen.pop()
            opened = opened_before.pop()
            classes[c].remove(order[idx])
            c += 1
    return [frozenset(p) for p in classes if p], nodes


def _solve_component(D: LabeledDigraph, comp: frozenset[int], limit: int | None):
    """Iterative deepening over the part count for one strong component."""
    out_w, inn = weighted_adjacency(D, comp)
    order = sorted(comp, key=lambda v: (-(len(out_w[v]) + len(inn[v])), v))
    attempts: list[tuple[int, int]] = []
    k = 1
    while True:
        if limit is not None and k > limit:
            return None, None, attempts
        blocks, nodes = _search_k(out_w, inn, order, k)
        attempts.append((k, nodes))
        if blocks is not None:
            return k, blocks, attempts
        k += 1


def mu_exact(D: LabeledDigraph, limit: int | None = None, *,
             host: Iterable[int] | None = None) -> MuResult:
    """Exact mu of D[host] (all of D when ``host`` is None) with an
    upper-bound certificate partition and a lower-bound search trace, read
    from D without building the copy.

    With ``limit`` set, the computation is abandoned as soon as the answer is
    provably greater than ``limit``, raising MuBoundExceeded with the best
    bounds known; this serves threshold queries without paying for the exact
    value.
    """
    vset = frozenset(D.vertices if host is None else host)
    comps = strong_components(D, host=vset)
    if not comps:
        return MuResult(0, VertexPartition(()), ())
    traces: list[ComponentTrace] = []
    comp_blocks: list[list[frozenset[int]]] = []
    value = 0
    for comp in comps:
        k, blocks, attempts = _solve_component(D, comp, limit)
        if k is None:
            assert limit is not None
            raise MuBoundExceeded(lower_bound=limit + 1,
                                  upper_bound=len(_greedy_blocks(D, sorted(vset))))
        traces.append(ComponentTrace(comp, tuple(attempts), k))
        comp_blocks.append(blocks)
        value = max(value, k)
    merged: list[frozenset[int]] = []
    for i in range(value):
        blk: set[int] = set()
        for blocks in comp_blocks:
            if i < len(blocks):
                blk |= blocks[i]
        merged.append(frozenset(blk))
    return MuResult(value, VertexPartition.from_blocks(merged), tuple(traces))


def mu_component_max(D: LabeledDigraph) -> int:
    """max over strong components H of mu(H).  Equals mu_exact(D).value; the
    two are computed independently so the reduction is testable."""
    comps = strong_components(D)
    if not comps:
        return 0
    return max(mu_exact(D, host=c).value for c in comps)


def mu_greedy_upper(D: LabeledDigraph) -> VertexPartition:
    """Fast valid partition: each vertex joins the first block whose induced
    subdigraph stays balanced.  Block count upper-bounds the exact value."""
    return VertexPartition.from_blocks(_greedy_blocks(D, D.vertices))


def _greedy_blocks(D: LabeledDigraph, vertices: Sequence[int]) -> list[set[int]]:
    """The greedy blocks of D[vertices], vertices taken in the given order."""
    out_w, inn = weighted_adjacency(D, vertices)
    blocks: list[set[int]] = []
    for v in vertices:
        for b in blocks:
            b.add(v)
            if not unbalanced_through(out_w, inn, b, v):
                break
            b.remove(v)
        else:
            blocks.append({v})
    return blocks
