"""Exact computation and certification of the unbalanced dichromatic number.

mu(D, z1, z2) is the least number of parts in a vertex partition of D such
that no part induces an unbalanced directed cycle.  With z1 = A(D) and
z2 = empty this is the ordinary dichromatic number.

The solver reduces to strong components (mu is the maximum over them, since
no directed cycle crosses components; block i of the certificate is the
union of the components' blocks i), and so does ``verify_partition``,
which tests each block through ``balance._unbalanced_components``.  One
driver, ``digraph._component_masks``, gives the components to both, and
to the greedy bound, with masks for a component of two or more vertices
only: a one-vertex component lies on no cycle, so it is its own clique
and its own block, with no masks built.  Each other component runs
iterative deepening on the part count k: a backjumping
assignment in a fixed vertex order, with symmetry breaking (a vertex may
open part c only when parts 0..c-1 are already open, so a vertex whose
removal empties its part had opened it).  Each component is a mask over the
ranks of the adjacency the driver gives it (D's own on a dense D); its
vertex order (by degree) and digon clique are read from the masks ANDed
with it, every part is an int mask, and each search reads a vertex's
bit, digon partners, out- and in-mask from one row per search index.
Each assignment of v to a part is tested incrementally: the part was
balanced before, so every new unbalanced cycle runs through v, and only
v's strong component inside the part is checked for consistent
potentials; a v with no out-neighbour or no in-neighbour in the part
lies on no cycle there and is placed without a test.  No subgraph is
built.

Each component's search memoises those tests in one dict from the mask of
the part with v to the answer, shared by every depth: 0, or the mask of
v's unbalanced strong component inside the part.  The memo is exact: since
every part is balanced before v joins it, the answer is nonzero exactly
when the part with v holds an unbalanced cycle, and the mask names v too
(v is the part's last vertex in the order), so the answer depends on the
mask alone.  A part that holds a partner of v across a digon of nonzero
weight (``WeightedMasks.joined``) holds that unbalanced digon, so it is
refuted by one AND before the memo, and the memo holds no such key.  The
memo is cleared before a write once it holds ``_MEMO_CAP`` keys: on a
sparse host keys rarely recur, and a cleared key costs only one more
test.  Node counts still count every placement, memo hits and digon
refutations included, and do not depend on the memo.  The greedy bound
is the search's first branch with one part per vertex, run on each
strong component's masks as the exact search is; ``_merged`` joins the
components' blocks for both.

The search backjumps (conflict-directed backjumping; Prosser 1993, "Hybrid
algorithms for the constraint satisfaction problem").  A refused part
names the vertices that refused v: the digon partners of v in it, or the
unbalanced component less v.  Each names a set that may not share one part
with v, whatever the parts are called.  Each search index keeps the union
of those as its conflict mask.  A vertex that runs out of parts jumps back
to the deepest vertex h of its mask, undoing the placements in between,
adds the rest of the mask to h's, and h tries its next part.  An empty
mask ends the search: no k parts exist.

Why symmetry breaking stays sound.  Claim: no partition into k balanced
parts puts the vertices of a conflict mask together and apart as the
current assignment does.  A vertex v that runs out of parts had all k
parts open (a new part always takes it), and each refused v for a set of
its vertices in the mask; any such partition spreads those k sets over
its k parts, and v joins one of them.
For h's mask, take such a partition and the part P that holds h.  If P
meets the mask at some vertex in part c, the partition agrees with the
assignment that had h in part c, which was refused or whose subtree
proved the claim for its own mask.  If P meets the mask nowhere, it agrees
with h in a new part, tried when fewer than k parts were open.  With all k
open, some part c took h and its subtree's mask held no other vertex of
c, so the partition agrees with h in c; otherwise every part holds a
vertex of the mask, and P meets it.  So every subtree skipped holds no
partition: the search visits a subset of chronological backtracking's
nodes in the same order, and finds the same first partition, the
certificate.

The deepening starts at the size of a greedy digon clique: vertices pairwise
joined by digons of nonzero weight, no two of which can share a part.  A
clique that covers its component settles it without a search: the
singletons are the partition, and the trace reads one attempt at the
component's size with 0 nodes.  The lower-bound certificate is that clique
together with the exhausted searches at the depths from its size up to the
value, recorded as a trace of explored node counts; the returned partition
is the upper-bound certificate.  Above a ``limit``, MuBoundExceeded carries
the lower bound that proved it, and no upper bound.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable

from .balance import _unbalanced_components, unbalanced_through
from .digraph import (LabeledDigraph, WeightedMasks, _check_count, _component_masks, _ranks,
                      _Record)
from .errors import MuBoundExceeded

# A component's memo is cleared before a write once it holds this many keys
# (see the module docstring); unbounded, it grows with every miss.
_MEMO_CAP = 65536


class VertexPartition(_Record):
    """Disjoint nonempty vertex blocks, kept as a tuple of frozensets;
    callers check coverage against a digraph."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = tuple(map(frozenset, blocks))
        total = 0
        union: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            total += len(b)
            union |= b
        if len(union) != total:
            raise ValueError("blocks must be pairwise disjoint")
        _Record.__init__(self, blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        norm = sorted((frozenset(b) for b in blocks), key=lambda b: min(b) if b else -1)
        return cls(norm)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def covers(self, D: LabeledDigraph) -> bool:
        return frozenset().union(*self.blocks) == set(D.vertices)


class ComponentTrace(_Record):
    """Search record for one strong component: (k, nodes explored) per depth,
    from max(1, len(clique)) up to the value.  ``clique`` is a set of
    component vertices pairwise joined by digons of nonzero weight, so the
    value is at least its size; each attempt below the value is a search
    that found no partition into k parts.  Node counts are the backjumping
    search's: at most, and often far below, chronological backtracking's
    in the same order."""

    __slots__ = ("component", "attempts", "value", "clique")

    def __init__(self, component: frozenset[int], attempts: tuple[tuple[int, int], ...],
                 value: int, clique: tuple[int, ...]):
        _Record.__init__(self, component, attempts, value, clique)


class MuResult(_Record):
    __slots__ = ("value", "certificate", "lower_bound_trace")

    def __init__(self, value: int, certificate: VertexPartition,
                 lower_bound_trace: tuple[ComponentTrace, ...]):
        _Record.__init__(self, value, certificate, lower_bound_trace)


def verify_partition(D: LabeledDigraph, partition: VertexPartition) -> bool:
    """True iff every block induces a balanced subdigraph.  The blocks must
    partition V(D) exactly."""
    if not partition.covers(D):
        raise ValueError("blocks do not partition the vertex set")
    return all(next(_unbalanced_components(D, block), None) is None
               for block in partition.blocks)


def verify_lower_bound(D: LabeledDigraph, result: MuResult) -> bool:
    """True iff every component trace of ``result`` certifies its value from
    below: the clique lies in the component and every pair of its vertices
    is a digon of D with nonzero total weight, the attempts run through
    every part count from max(1, len(clique)) to the value, and every
    attempt but the last explored at least one node; and the result's value
    is the largest component value.  Arcs are read with ``D.has_arc`` and
    ``D.weight`` only, independently of the solver."""
    for t in result.lower_bound_trace:
        clique = t.clique
        if len(set(clique)) != len(clique) or not set(clique) <= t.component:
            return False
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                if not (D.has_arc(u, v) and D.has_arc(v, u)) \
                        or D.weight((u, v)) + D.weight((v, u)) == 0:
                    return False
        if [k for k, _ in t.attempts] != list(range(max(1, len(clique)), t.value + 1)):
            return False
        if any(nodes < 1 for _, nodes in t.attempts[:-1]):
            return False
    return result.value == max((t.value for t in result.lower_bound_trace), default=0)


def _digon_clique(adj: WeightedMasks, ranks: list[int], cmask: int) -> tuple[int, ...]:
    """Greedy clique, in increasing vertex order, of the graph on the
    component ``cmask`` (with the given ranks) that joins u and v when u->v
    and v->u are both arcs and their weights sum to nonzero.  Vertices are
    taken by degree in that graph (descending, then by id), each one when
    it is joined to every vertex already taken."""
    joined = {i: adj.joined(i) & cmask for i in ranks}
    clique = 0
    for i in sorted(ranks, key=lambda i: (-joined[i].bit_count(), i)):
        if clique & ~joined[i] == 0:
            clique |= 1 << i
    return tuple(adj.vertices[i] for i in _ranks(clique))


def _search_k(adj: WeightedMasks, memo: dict[int, int], ranks: list[int],
              k: int) -> tuple[list[frozenset[int]] | None, int]:
    """Backjumping k-part assignment over an explicit stack; returns
    (blocks or None, nodes explored).  A node places rank ranks[idx] in part
    c; parts are tried in increasing order, and c may open at most one new
    part.  Parts are masks over the adjacency's ranks; a part that holds a
    nonzero-digon partner of the new vertex is refuted by one AND before
    the memo and stores no key; a vertex with no out- or no in-neighbour
    in the part lies on no cycle there and stores no key; ``memo`` maps the
    mask of any other part with its new vertex to ``unbalanced_through``'s
    answer (0, or the unbalanced component), and is cleared before a write
    once it holds ``_MEMO_CAP`` keys.  ``conflict[idx]`` is the union of the
    refusals of ranks[idx] and of what the vertices that jumped back to it
    left (see the module docstring); an empty one proves that no k parts
    exist."""
    n = len(ranks)
    rows = [(r, 1 << r, adj.joined(r), adj.out[r], adj.inn[r]) for r in ranks]
    parts = [0] * k
    chosen: list[int] = []  # part of ranks[i], for i < idx
    conflict = [0] * n  # for i <= idx; reset when a jump passes i
    nodes = 0
    idx = opened = c = 0
    while idx < n:
        r, bit, digons, out, inn = rows[idx]
        why = conflict[idx]
        top = opened + 1 if opened < k else k
        while c < top:
            nodes += 1
            grown = parts[c] | bit
            bad = digons & grown or out & grown and inn & grown and memo.get(grown)
            if bad is None:
                bad = unbalanced_through(adj, grown, r)
                if k < n:  # at k == n a new part is always free, so no mask recurs
                    if len(memo) >= _MEMO_CAP:
                        memo.clear()
                    memo[grown] = bad
            if not bad:
                parts[c] = grown
                break
            why |= bad
            c += 1
        if c < top:
            conflict[idx] = why
            chosen.append(c)
            if c == opened:
                opened += 1
            idx += 1
            c = 0
            continue
        # a new part always takes a vertex, so all k parts refused r
        why &= ~bit
        conflict[idx] = 0
        if not why:
            return None, nodes
        while True:
            idx -= 1
            c = chosen.pop()
            r = ranks[idx]
            parts[c] ^= 1 << r
            if not parts[c]:  # r opened part c
                opened -= 1
            if why >> r & 1:
                break
            conflict[idx] = 0
        conflict[idx] |= why
        c += 1
    return [adj.members(p) for p in parts if p], nodes


def _solve_component(comp: frozenset[int], adj: WeightedMasks | None, cmask: int | None,
                     limit: int | None) -> tuple[ComponentTrace, list[frozenset[int]]]:
    """Iterative deepening over the part count for one strong component
    with ``_component_masks``'s masks, from the size of its digon clique
    up; a clique that covers the component needs no search, and a
    one-vertex component (no masks) is its own clique.  Returns the trace
    and the blocks, or raises MuBoundExceeded when the value exceeds
    ``limit``."""
    if adj is None:
        clique = tuple(comp)
    else:
        ranks = list(_ranks(cmask))
        degree = {i: (adj.out[i] & cmask).bit_count() + (adj.inn[i] & cmask).bit_count()
                  for i in ranks}
        order = sorted(ranks, key=lambda i: (-degree[i], i))
        clique = _digon_clique(adj, ranks, cmask)
    if len(clique) == len(comp) and (limit is None or len(comp) <= limit):
        # no two vertices can share a part, and singletons are balanced
        blocks = [comp] if adj is None else [frozenset((adj.vertices[i],)) for i in order]
        return ComponentTrace(comp, ((len(comp), 0),), len(comp), clique), blocks
    memo: dict[int, int] = {}
    attempts: list[tuple[int, int]] = []
    k = max(1, len(clique))
    while limit is None or k <= limit:
        blocks, nodes = _search_k(adj, memo, order, k)
        attempts.append((k, nodes))
        if blocks is not None:
            return ComponentTrace(comp, tuple(attempts), k, clique), blocks
        k += 1
    raise MuBoundExceeded(k)  # the clique or the searches refute every count below k


def _merged(comp_blocks: list[list[frozenset[int]]]) -> VertexPartition:
    """The partition whose block i is the union of every strong component's
    block i.  No cycle leaves its component, so the blocks stay balanced."""
    return VertexPartition.from_blocks(
        frozenset().union(*blocks) for blocks in zip_longest(*comp_blocks, fillvalue=frozenset()))


def mu_exact(D: LabeledDigraph, limit: int | None = None, *,
             host: Iterable[int] | None = None) -> MuResult:
    """Exact mu of D[host] (all of D when ``host`` is None) with an
    upper-bound certificate partition and a lower-bound trace (a digon
    clique and exhausted searches per component), read from D without
    building the copy.

    With ``limit`` set, the computation is abandoned as soon as the answer is
    provably greater than ``limit``, raising MuBoundExceeded with the lower
    bound that proved it; this serves threshold queries without paying for
    the exact value.  A ``limit`` must be an int (TypeError) and nonnegative.
    """
    if limit is not None:
        _check_count(limit, "limit", 0)
    solved = [_solve_component(*component, limit) for component in _component_masks(D, host)]
    partition = _merged([blocks for _, blocks in solved])
    return MuResult(partition.num_blocks, partition, tuple(trace for trace, _ in solved))


def mu_greedy_upper(D: LabeledDigraph) -> VertexPartition:
    """Fast valid partition: the exact search's first branch with one part
    per vertex, which never backtracks, so each vertex, in increasing
    order, joins the first part that stays balanced.  Block count
    upper-bounds the exact value.

    Each strong component runs on its own masks, as in ``mu_exact``, and
    block i is the union of the components' blocks i.  That is the greedy
    of all of D, by induction over the order: part i stays balanced with v
    added exactly when its vertices in v's strong component stay balanced
    with v, since a cycle through v stays in that component and so do v's
    digon partners; those vertices are the component's own part i; and a
    part with none of them takes v, as the component's next new part
    does.  So v joins part i in both.  A component of one vertex lies on
    no cycle, so it joins part 0, without masks or a search."""
    return _merged([[comp] if adj is None else _search_k(adj, {}, list(_ranks(cmask)), len(comp))[0]
                    for comp, adj, cmask in _component_masks(D)])

