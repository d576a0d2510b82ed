"""Independent brute-force oracles used to check the library.

Everything here is deliberately naive and self-contained: cycle and path
enumeration by DFS, mu by full set-partition enumeration, strong components
by mutual reachability, a plain path-length subdivision finder, and the
undirected witness verifier written clause by clause on the graph itself.
None of it shares code with the implementations under test, except
``mu_component_max``, which composes the library's strong components and
per-host ``mu_exact`` so that the reduction to strong components is
testable, ``TwoPathExactMuOracle``, the exact oracle as it was written
with one solve site per query kind, which calls ``mu_exact`` through this
module's name for it so that its solver calls can be counted, and whose
certificate bounds can be switched off to give the value-only oracle, and
``disjoint_cycles_reference``, the cycle packing as it was written with one
whole search per round, which reuses the library's component test and
per-root BFS so that only the keeping of components between rounds is
under test.  ``parse_instance_reference`` is the instance reader as it
was written, one line and one ``split()`` at a time; it builds its digraph
through the public constructor, which also judges each prefix of the
records when it looks for a faulty one.  ``find_subdivision_reference`` is
the direct finder as it was written before it refuted branch-map prefixes:
it fills in the whole branch map before routing any arc, and reuses the
library's degree filter, so that only the enumeration of maps is under
test.  Its steps come from ``residue_steps_reference``, (neighbour rank,
k) pairs with the residue k its arc adds, its walk tables from
``flood_reference`` and its paths from ``residue_paths_reference``, the
flood and the path kernel as they were written before their steps
carried residue tables (and the path kernel before it became one flat
loop), so the reference computes residues from k and shares no step,
flood or path code with the finder under test.  ``routing_reference`` is
the finder's routing step as it was written before its arcs became legs
of one flat kernel, a stack of ``residue_paths_reference`` generators.
``subdivision_threshold_reference`` is the extraction threshold as it was
written, one call per peeled arc on a pattern rebuilt without it, over the
library's ``universal_threshold``.  ``greedy_blocks_reference``
is the greedy bound as it was written before it became the exact search's
first branch: its own first-fit loop over the library's masks and
incremental balance test.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from itertools import permutations

from dichromate import (CyclePacking, DirectedCycle, DirectedPath, Instance,
                        LabeledDigraph, MuBoundExceeded, MuOracle, ParseError,
                        SubdivisionPattern, SubdivisionWitness, VerificationReport, mu_exact,
                        strong_components, universal_threshold)
from dichromate.balance import _shortest_through_root, _unbalanced_components, unbalanced_through
from dichromate.digraph import _adjacency, _ranks
from dichromate.search import (ABSENT, FOUND, INDETERMINATE, BudgetExhausted,
                               SearchBudget, SearchOutcome, _feasible_images)


def reachable_set(D, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in D.out_neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def scc_mutual_reachability(D):
    """Strong components via pairwise mutual reachability."""
    reach = {v: reachable_set(D, v) for v in D.vertices}
    comps = []
    assigned = set()
    for v in D.vertices:
        if v in assigned:
            continue
        comp = {w for w in D.vertices if w in reach[v] and v in reach[w]}
        assigned |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def simple_cycles(D):
    """All simple directed cycles, canonicalized to start at their smallest
    vertex.  DFS restricted to vertices >= the start vertex."""
    for s in D.vertices:
        path = [s]
        on_path = {s}

        def dfs():
            v = path[-1]
            for w in D.out_neighbors(v):
                if w == s and len(path) >= 2:
                    yield tuple(path)
                elif w > s and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    yield from dfs()
                    on_path.discard(path.pop())

        yield from dfs()


def is_balanced_brute(D):
    for cyc in simple_cycles(D):
        c1, c2 = D.label_counts(zip(cyc, cyc[1:] + cyc[:1]))
        if c1 != c2:
            return False
    return True


def unbalanced_cycle_lengths(D):
    out = []
    for cyc in simple_cycles(D):
        c1, c2 = D.label_counts(zip(cyc, cyc[1:] + cyc[:1]))
        if c1 != c2:
            out.append(len(cyc))
    return out


def disjoint_cycles_reference(D, t, host=None):
    """``disjoint_unbalanced_cycles`` as one whole search per round: every
    unbalanced strong component of D[remaining] by smallest vertex, each
    root in increasing order, a later cycle taken only when strictly
    shorter; then the cycle's vertices leave the remaining set."""
    cycles = []
    remaining = set(D.vertices if host is None else host)
    while len(cycles) < t:
        best = None
        for adj, comp, _ in _unbalanced_components(D, remaining):
            cap = comp.bit_count()
            for root in _ranks(comp):
                found = _shortest_through_root(adj, comp, root,
                                               cap if best is None else min(cap, len(best) - 1))
                if found is not None:
                    best = tuple(adj.vertices[i] for i in found)
        if best is None:
            break
        cycles.append(DirectedCycle.from_vertices(D, best))
        remaining -= set(best)
    return CyclePacking(requested=t, cycles=tuple(cycles))


def iter_set_partitions(items):
    """All set partitions via restricted growth strings."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(i, top):
        if i == n:
            blocks = {}
            for x, c in zip(items, rgs):
                blocks.setdefault(c, []).append(x)
            yield [frozenset(b) for b in blocks.values()]
            return
        for c in range(top + 2):
            rgs[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def mu_brute(D, cache=None):
    """Minimum number of parts over all set partitions where every block's
    induced subdigraph has only balanced cycles."""
    if D.n == 0:
        return 0
    if cache is None:
        cache = {}

    def balanced(block):
        if block not in cache:
            cache[block] = is_balanced_brute(D.induced(block))
        return cache[block]

    best = D.n
    for partition in iter_set_partitions(D.vertices):
        if len(partition) >= best:
            continue
        if all(balanced(b) for b in partition):
            best = len(partition)
    return best


def mu_component_max(D):
    """max over strong components H of mu(H), each solved on its own host.
    Equals mu_exact(D).value."""
    return max((mu_exact(D, host=c).value for c in strong_components(D)), default=0)


def greedy_blocks_reference(D):
    """The greedy blocks of D: each vertex, in increasing order, joins the
    first block that stays balanced, or opens a new one."""
    adj = _adjacency(D)
    blocks = []
    for v in D.vertices:
        r = adj.rank(v)
        joined = adj.joined(r)
        for i, b in enumerate(blocks):
            if not joined & b and not unbalanced_through(adj, b | 1 << r, r):
                blocks[i] = b | 1 << r
                break
        else:
            blocks.append(1 << r)
    return [adj.members(b) for b in blocks]


def list_adjacency(D, vertices):
    """(out-neighbours with arc weights, in-neighbours) per vertex of
    D[vertices], as dicts of tuples in D's neighbour order."""
    vset = set(vertices)
    out_w = {u: tuple((w, D.weight((u, w))) for w in D.out_neighbors(u) if w in vset)
             for u in vset}
    inn = {u: tuple(w for w in D.in_neighbors(u) if w in vset) for u in vset}
    return out_w, inn


def weighted_masks_reference(D, vertices):
    """The bitset adjacency of D[vertices], built arc by arc with
    ``D.weight``: (sorted vertices, out-masks, in-masks, +1 out-masks, -1
    out-masks), indexed by rank in the sorted order."""
    verts = tuple(sorted(set(vertices)))
    rank = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    inn = [0] * size
    by_weight = {-1: [0] * size, 0: [0] * size, 1: [0] * size}
    for i, u in enumerate(verts):
        for w in D.out_neighbors(u):
            j = rank.get(w)
            if j is not None:
                by_weight[D.weight((u, w))][i] |= 1 << j
                inn[j] |= 1 << i
    out = [n | z | p for n, z, p in zip(by_weight[-1], by_weight[0], by_weight[1])]
    return verts, out, inn, by_weight[1], by_weight[-1]


def list_unbalanced_through(out_w, inn, part, v):
    """The list form of the incremental balance test: whether v's strong
    component inside the vertex set ``part`` has inconsistent potentials."""
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
        for w, wt in out_w[u]:
            if w in back:
                if w not in pot:
                    pot[w] = pot[u] + wt
                    stack.append(w)
                elif pot[w] != pot[u] + wt:
                    return True
    return False


def list_search_k(out_w, inn, order, k):
    """The list form of the exact solver's k-part search, backtracking
    chronologically: (blocks or None, nodes).  A node places order[idx] in
    part c; parts are tried in increasing order, and c may open at most one
    new part.  An exhausted vertex always returns to the one before it."""
    n = len(order)
    classes = [set() for _ in range(k)]
    chosen, opened_before = [], []
    nodes = 0
    idx = opened = c = 0
    while idx < n:
        v = order[idx]
        top = min(opened + 1, k)
        while c < top:
            nodes += 1
            classes[c].add(v)
            if not list_unbalanced_through(out_w, inn, classes[c], v):
                break
            classes[c].remove(v)
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


def mu_search_reference(D):
    """The exact solver's search redone on dict adjacency with chronological
    backtracking, one strong component at a time: vertices by degree inside
    the component (descending, then by id); a greedy clique of digons with
    nonzero weight (by degree in the digon graph, descending, then by id);
    deepening from the clique's size, and no search when the clique is the
    whole component (one attempt at its size with 0 nodes, singleton
    blocks).  Returns ([(component, attempts, clique)], blocks), the blocks
    merged across components by index and sorted by smallest member."""
    traces, comp_blocks = [], []
    for comp in scc_mutual_reachability(D):
        out_w, inn = list_adjacency(D, comp)
        order = sorted(comp, key=lambda v: (-(len(out_w[v]) + len(inn[v])), v))
        weight = {(u, w): wt for u, arcs in out_w.items() for w, wt in arcs}
        joined = {u: {w for w, wt in arcs if (w, u) in weight and wt + weight[w, u] != 0}
                  for u, arcs in out_w.items()}
        clique = []
        for v in sorted(joined, key=lambda v: (-len(joined[v]), v)):
            if all(u in joined[v] for u in clique):
                clique.append(v)
        attempts = []
        k = max(1, len(clique))
        while True:
            if len(clique) == len(comp):
                # a covering clique is the certificate: singletons, no search
                blocks, nodes = [frozenset((v,)) for v in order], 0
            else:
                blocks, nodes = list_search_k(out_w, inn, order, k)
            attempts.append((k, nodes))
            if blocks is not None:
                break
            k += 1
        traces.append((comp, tuple(attempts), tuple(sorted(clique))))
        comp_blocks.append(blocks)
    value = max((attempts[-1][0] for _, attempts, _ in traces), default=0)
    merged = [frozenset().union(*(b[i] for b in comp_blocks if i < len(b)))
              for i in range(value)]
    return traces, sorted(merged, key=min)


class TwoPathExactMuOracle(MuOracle):
    """The exact oracle with a solve site in each of ``mu`` and
    ``mu_at_least``: the reference for the solver calls and the cache of
    the one-path ``ExactMuOracle``.  Each solve site keeps the solve's
    partition and digon cliques, and the bounds read them too; with
    ``certificates=False`` the oracle keeps values only."""

    name = "exact"

    def __init__(self, D, certificates=True):
        self._D = D
        self._vset = set(D.vertices)
        self._values = {}
        self._certificates = {} if certificates else None

    def _key(self, subset):
        key = frozenset(subset)
        if not key <= self._vset:
            raise ValueError("subset outside the oracle's digraph")
        return key

    def _bounds(self, key):
        lo, hi = min(1, len(key)), len(key)
        for other, value in list(self._values.items()):
            if value > lo and other <= key:
                lo = value
            elif value < hi and other >= key:
                hi = value
        if self._certificates is None:
            return lo, hi
        for other, (blocks, cliques) in list(self._certificates.items()):
            # a clique keeps its pairwise digons on any subset of it
            lo = max([lo] + [len([v for v in clique if v in key]) for clique in cliques])
            # blocks that meet key restrict to a balanced partition of key
            if key <= other:
                hi = min(hi, len({i for i, block in enumerate(blocks)
                                  for v in key if v in block}))
        return lo, hi

    def _keep(self, key, result):
        if self._certificates is not None:
            self._certificates[key] = (result.certificate.blocks,
                                       tuple(t.clique for t in result.lower_bound_trace))
        return result.value

    def mu(self, subset):
        key = self._key(subset)
        value = self._values.get(key)
        if value is None:
            lo, hi = self._bounds(key)
            value = lo if lo == hi else self._keep(key, mu_exact(self._D, host=key))
            self._values[key] = value
        return value

    def mu_at_least(self, subset, bound):
        key = self._key(subset)
        if bound <= 0:
            return True
        value = self._values.get(key)
        if value is not None:
            return value >= bound
        lo, hi = self._bounds(key)
        if lo >= bound or hi < bound:
            return lo >= bound
        try:
            value = self._keep(key, mu_exact(self._D, bound - 1, host=key))
        except MuBoundExceeded:
            return True
        self._values[key] = value
        return value >= bound


def minimal_one_at_a_time(S, keeps):
    """The minimal-subset loop ``special_set`` ran twice before it had one
    helper: drop each vertex of S in increasing order when the rest is
    nonempty and ``keeps`` still accepts it."""
    core = set(S)
    for v in sorted(S):
        trial = core - {v}
        if trial and keeps(trial):
            core = trial
    return frozenset(core)


def bfs_over_arcs(arcs, start, end):
    """Shortest start-end vertex sequence using only the given arcs, by BFS
    over their ascending successor lists (the search ``entry_splice`` ran
    before it shared the path BFS); None when end is out of reach."""
    adj = {}
    for u, v in sorted(set(arcs)):
        adj.setdefault(u, []).append(v)
    parent = {start: None}
    frontier = [start]
    while frontier and end not in parent:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    if end not in parent:
        return None
    seq = [end]
    while parent[seq[-1]] is not None:
        seq.append(parent[seq[-1]])
    return tuple(reversed(seq))


def all_simple_paths(D, u, v, banned_interior=frozenset()):
    """All simple directed u-v paths whose interior avoids banned_interior."""
    if u == v:
        return
    path = [u]
    on_path = {u}

    def dfs():
        x = path[-1]
        for w in D.out_neighbors(x):
            if w == v:
                yield tuple(path) + (v,)
            elif w not in on_path and w not in banned_interior and w != v:
                path.append(w)
                on_path.add(w)
                yield from dfs()
                on_path.discard(path.pop())

    yield from dfs()


def path_count_pairs(D, u, v, banned_interior=frozenset()):
    """Set of (|z1 arcs|, |z2 arcs|) over all simple u-v paths."""
    pairs = set()
    for p in all_simple_paths(D, u, v, banned_interior):
        pairs.add(D.label_counts(zip(p, p[1:])))
    return pairs


def residue_reachable(D, u, v, a, b, q, target, banned_interior=frozenset()):
    return any((a * c1 + b * c2) % q == target % q
               for c1, c2 in path_count_pairs(D, u, v, banned_interior))


def walk_count_pairs(D, v, q, banned_interior=frozenset(), forbidden=frozenset()):
    """For each vertex w, the count pairs (c1 mod q, c2 mod q) of the w-v walks
    that start outside ``forbidden`` and whose later vertices avoid
    ``banned_interior`` and ``forbidden`` (v excepted): a plain breadth-first
    search over (vertex, c1, c2) states, backward from (v, 0, 0)."""
    seen = {(v, 0, 0)}
    queue = [(v, 0, 0)]
    for z, c1, c2 in queue:
        if z != v and (z in banned_interior or z in forbidden):
            continue
        for w in D.vertices:
            if w in forbidden or not D.has_arc(w, z):
                continue
            c1w, c2w = D.label_counts([(w, z)])
            state = (w, (c1 + c1w) % q, (c2 + c2w) % q)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    pairs = {}
    for w, c1, c2 in seen:
        pairs.setdefault(w, set()).add((c1, c2))
    return pairs


def pack_residues(pairs, a, b, q):
    """For each vertex, the residues a*c1 + b*c2 (mod q) of its count pairs,
    one bit per residue: the reference for ``walk_reach_masks``."""
    return {w: sum({1 << (a * c1 + b * c2) % q for c1, c2 in states})
            for w, states in pairs.items()}


def brute_find_subdivision(D, pattern):
    """Complete enumeration over injective branch maps and path tuples,
    constrained by the pattern's label congruences.  Returns a
    (branch, paths) pair or None."""
    arcs = sorted(pattern.arcs, key=lambda e: e.key)
    verts = sorted(D.vertices)

    for branch in permutations(verts, pattern.num_vertices):
        branch_set = set(branch)

        def route(i, used):
            if i == len(arcs):
                return {}
            e = arcs[i]
            u, v = branch[e.tail], branch[e.head]
            for p in all_simple_paths(D, u, v, banned_interior=branch_set | used):
                c1, c2 = D.label_counts(zip(p, p[1:]))
                if (e.a * c1 + e.b * c2) % e.q != e.r:
                    continue
                rest = route(i + 1, used | set(p[1:-1]))
                if rest is not None:
                    rest[e.key] = p
                    return rest
            return None

        paths = route(0, set())
        if paths is not None:
            return branch, paths
    return None


def brute_find_subdivision_by_length(D, pattern):
    """Plain path-length-residue subdivision finder: identical enumeration,
    but each branching path is constrained only by |arcs| mod q."""
    arcs = sorted(pattern.arcs, key=lambda e: e.key)
    verts = sorted(D.vertices)

    for branch in permutations(verts, pattern.num_vertices):
        branch_set = set(branch)

        def route(i, used):
            if i == len(arcs):
                return {}
            e = arcs[i]
            u, v = branch[e.tail], branch[e.head]
            for p in all_simple_paths(D, u, v, banned_interior=branch_set | used):
                if (len(p) - 1) % e.q != e.r:
                    continue
                rest = route(i + 1, used | set(p[1:-1]))
                if rest is not None:
                    rest[e.key] = p
                    return rest
            return None

        paths = route(0, set())
        if paths is not None:
            return branch, paths
    return None


def residue_steps_reference(D, a, b, q):
    """D's out- and in-lists for (a, b, q), indexed by rank, as
    (neighbour rank, k) pairs in the lists' order, k = a*[arc in z1] +
    b*[arc in z2] mod q the residue the arc adds: the steps the
    references below compute residues from, with no table."""
    rank = {v: i for i, v in enumerate(D.vertices)}

    def k(arc):
        return (a * (arc in D.z1) + b * (arc in D.z2)) % q
    out = [tuple((rank[w], k((u, w))) for w in D.out_neighbors(u)) for u in D.vertices]
    inn = [tuple((rank[w], k((w, z))) for w in D.in_neighbors(z)) for z in D.vertices]
    return out, inn


def flood_reference(in_steps, head, q, blocked):
    """``search._flood`` as it was written before its steps carried
    tables: over the (rank, k) in-steps, an arc rotates the residues it
    carries by k."""
    full = (1 << q) - 1
    masks = [0] * len(in_steps)
    masks[head] = 1
    work = [head]
    while work:
        z = work.pop()
        carried = masks[z]
        for w, k in in_steps[z]:
            old = masks[w]
            m = (carried << k & full) | carried >> q - k | old
            if m != old:
                masks[w] = m
                if w not in blocked:
                    work.append(w)
    return masks


def residue_paths_reference(out_steps, u, head, q, target, banned, reachable, budget):
    """``search._paths`` as it was written before it became one flat loop,
    over the (rank, k) out-steps of ``residue_steps_reference``: every
    step reopens the top frame of a stack of step iterators, reads
    the residue its path must still add from a parallel stack, and tests
    the drawn vertex against the head, ``banned`` and a set of the path's
    vertices.  Same arguments, paths, order and budget charging: a step to
    the head or to a vertex off ``banned`` and off the path is one
    expansion, written back to ``budget.spent`` before each yield, before
    ``BudgetExhausted`` and at the end, and read again at each
    resumption."""
    # with no budget, ``left`` starts below 0 and never reaches 0
    left = -1 if budget is None else budget.limit - budget.spent
    path = [u]
    on_path = {u}
    need = [target]
    stack = [iter(out_steps[u])]
    while stack:
        for w, k in stack[-1]:
            if w == head or (w not in banned and w not in on_path):
                break
        else:
            stack.pop()
            on_path.discard(path.pop())
            need.pop()
            continue
        if not left:
            budget.spent = budget.limit
            raise BudgetExhausted
        left -= 1
        r = (need[-1] - k) % q
        if w == head:
            if not r:
                if budget is not None:
                    budget.spent = budget.limit - left
                yield (*path, w)
                if budget is not None:
                    left = budget.limit - budget.spent
            continue
        if not reachable[w] >> r & 1:
            continue
        path.append(w)
        on_path.add(w)
        need.append(r)
        stack.append(iter(out_steps[w]))
    if budget is not None:
        budget.spent = budget.limit - left


def routing_reference(legs, banned, budget):
    """The finder's routing step as it was written before its arcs became
    the legs of one kernel: a stack of ``residue_paths_reference``
    generators, gens[i] drawing the i-th leg's paths off banned[i], the
    banned set and the interiors of the paths chosen before it; when a
    leg's paths run out, the leg before it draws its next path.  A leg is
    ``(out_steps, u, head, q, target, reachable)`` over (rank, k) steps.
    Returns the first family, a tuple of rank paths in leg order, or None
    once the first leg's paths run out; each step is charged to
    ``budget`` as the reference path search charges it."""
    gens, banned, chosen = [], [frozenset(banned)], []
    while len(chosen) < len(legs):
        if len(gens) == len(chosen):
            out_steps, u, head, q, target, reachable = legs[len(gens)]
            gens.append(residue_paths_reference(out_steps, u, head, q, target, banned[-1],
                                                reachable, budget))
        p = next(gens[-1], None)
        if p is not None:
            chosen.append(p)
            banned.append(banned[-1].union(p[1:-1]))
        elif len(gens) == 1:
            return None
        else:
            del gens[-1], chosen[-1], banned[-1]
    return tuple(chosen)


def find_subdivision_reference(D, pattern, budget=10 ** 7):
    """``find_subdivision`` with no prefix refutation: every feasible
    injective branch map is filled in, in lexicographic order, before any
    arc is routed; on a full map the arcs go in order of their walk tables'
    residue-state counts (ties by arc key).  Like the finder, it runs on
    vertex ranks and turns the witness into vertices once, when found.  Its
    steps, walk tables and paths compute residues from k, with the
    references above, so no table of the finder's takes part."""
    tracker = SearchBudget(budget)
    candidates = _feasible_images(D, pattern)
    arcs = list(pattern.arcs)
    steps = {t: residue_steps_reference(D, *t) for t in {(e.a, e.b, e.q) for e in arcs}}
    reach_cache = {}

    def reach(e, branch, ends):
        head = branch[e.head]
        key = (head, ends, e.a, e.b, e.q)
        got = reach_cache.get(key)
        if got is None:
            residues = flood_reference(steps[e.a, e.b, e.q][1], head, e.q, ends - {head})
            got = reach_cache[key] = (sum(map(int.bit_count, residues)), residues)
        return got

    def route(branch, idx, order, banned, paths):
        if idx == len(order):
            return tuple(branch), dict(paths)
        e, reachable = order[idx]
        for p in residue_paths_reference(steps[e.a, e.b, e.q][0], branch[e.tail],
                                         branch[e.head], e.q, e.r, banned, reachable, tracker):
            paths[e.key] = p
            got = route(branch, idx + 1, order, banned | set(p[1:-1]), paths)
            if got is not None:
                return got
            del paths[e.key]
        return None

    def assign(branch, used):
        p = len(branch)
        if p == pattern.num_vertices:
            ends = frozenset(branch)
            sized = []
            for e in arcs:
                states, reachable = reach(e, branch, ends)
                if not reachable[branch[e.tail]] >> e.r & 1:
                    return None
                sized.append((states, reachable, e))
            sized.sort(key=lambda t: (t[0], t[2].key))
            order = [(e, reachable) for _, reachable, e in sized]
            return route(branch, 0, order, ends, {})
        for v in candidates[p]:
            if v in used:
                continue
            tracker.charge()
            branch.append(v)
            used.add(v)
            got = assign(branch, used)
            if got is not None:
                return got
            used.discard(branch.pop())
        return None

    try:
        found = assign([], set())
    except BudgetExhausted:
        return SearchOutcome(INDETERMINATE, None, tracker.spent)
    if found is None:
        return SearchOutcome(ABSENT, None, tracker.spent)
    verts = D.vertices.__getitem__
    branch, paths = found
    return SearchOutcome(FOUND, SubdivisionWitness(
        tuple(map(verts, branch)),
        {key: DirectedPath(tuple(map(verts, p))) for key, p in paths.items()}), tracker.spent)


def without_arc(pattern, key):
    """``pattern`` without its arc ``key``, on the same vertices."""
    return SubdivisionPattern(pattern.num_vertices, tuple(e for e in pattern.arcs if e.key != key))


def subdivision_threshold_reference(pattern):
    """The threshold by recursion: peel the arc of largest modulus (ties by
    key) and apply ``universal_threshold`` to the rest's threshold."""
    if not pattern.arcs:
        return pattern.num_vertices
    f = sorted(pattern.arcs, key=lambda e: (-e.q, e.key))[0]
    inner = subdivision_threshold_reference(without_arc(pattern, f.key))
    return universal_threshold(f.q, max(inner, 2))


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def edge_label_counts(G, steps):
    """(number of the steps (u, v) along b1 edges of G, number along b2 edges)."""
    keys = [_edge(u, v) for u, v in steps]
    return sum(k in G.b1 for k in keys), sum(k in G.b2 for k in keys)


def undirected_simple_cycles(vertices, edges):
    """All simple cycles (length >= 3) of the undirected graph on
    ``vertices`` with the pairs ``edges``, canonical: smallest vertex first,
    second vertex smaller than last."""
    neighbors = {v: [] for v in vertices}
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    for s in sorted(vertices):
        path = [s]
        on_path = {s}

        def dfs():
            x = path[-1]
            for w in sorted(neighbors[x]):
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                elif w > s and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    yield from dfs()
                    on_path.discard(path.pop())

        yield from dfs()


def mu_star_brute(G):
    """Undirected analogue of mu by partition enumeration."""
    if not G.vertices:
        return 0
    cache = {}

    def balanced(block):
        if block not in cache:
            sub_edges = [e for e in G.edges if e[0] in block and e[1] in block]
            ok = True
            for cyc in undirected_simple_cycles(block, sub_edges):
                c1, c2 = edge_label_counts(G, zip(cyc, cyc[1:] + cyc[:1]))
                if c1 != c2:
                    ok = False
                    break
            cache[block] = ok
        return cache[block]

    best = len(G.vertices)
    for partition in iter_set_partitions(G.vertices):
        if len(partition) >= best:
            continue
        if all(balanced(b) for b in partition):
            best = len(partition)
    return best


def first_pair_fault(vertices, pairs, noun="arc"):
    """The arc rule by an in-order scan of ``pairs``: (index, message) of
    the first pair that repeats an earlier one, is a loop, or has an end
    outside ``vertices``, worded as ``LabeledDigraph`` words it with
    ``noun`` for "arc"; None when no pair is at fault."""
    for i, (u, v) in enumerate(pairs):
        if (u, v) in pairs[:i]:
            return i, f"duplicate {noun} ({u}, {v})"
        if u == v:
            return i, f"loop at vertex {u}"
        if u not in vertices or v not in vertices:
            return i, f"{noun} ({u}, {v}) uses an unknown vertex"
    return None


def first_record_fault(text):
    """Where ``parse_instance`` must report a fault in the records' values,
    found by the per-line checks the parser once made itself: a negative
    vertex count, then for each arc line in turn a loop, a vertex out of
    range and a repeated arc, worded as ``LabeledDigraph`` words them.
    Returns (line number, message), or None when no record is at fault;
    the tokens are assumed well formed."""
    n = None
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            n = int(parts[1])
            if n < 0:
                return line_no, f"vertex count must be nonnegative, got {n}"
        elif parts[0] == "a":
            u, v = int(parts[1]), int(parts[2])
            if u == v:
                return line_no, f"loop at vertex {u}"
            if not (0 <= u < n and 0 <= v < n):
                return line_no, f"arc ({u}, {v}) uses an unknown vertex"
            if (u, v) in seen:
                return line_no, f"duplicate arc ({u}, {v})"
            seen.add((u, v))
    return None


def parse_instance_reference(text):
    """The instance file reader line by line: every line stripped and split,
    every token converted by its own call; the records' values judged by
    ``LabeledDigraph`` on the whole file, and on a fault, on prefixes of
    the count and arc records, the shortest it rejects naming the line."""

    def integer(line_no, token, what):
        try:
            return int(token)
        except ValueError:
            raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None

    def flag(line_no, token, what):
        if token not in ("0", "1"):
            raise ParseError(line_no, f"{what} must be 0 or 1, got {token!r}")
        return token == "1"

    def ident(v):
        if (isinstance(v, float) and not math.isfinite(v)
                or int(v) != v and not isinstance(v, str)):
            raise ValueError(f"vertex id {v!r} is not an integer")
        return int(v)

    def json_ids(values):  # the writer emits arrays of JSON integers
        if not isinstance(values, list) or any(isinstance(v, (str, bool)) for v in values):
            raise ValueError(f"expected an array of integer vertex ids, got {values!r}")
        return tuple(ident(v) for v in values)

    def witness_of(line_no, blob):
        try:
            payload = json.loads(blob)
            branch = json_ids(payload["branch"])
            paths = {json_ids([t, h]): DirectedPath(json_ids(seq))
                     for t, h, seq in payload["paths"]}
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(line_no, f"malformed witness JSON: {exc}") from None
        return SubdivisionWitness(branch, paths)

    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1)
             if raw.strip() and not raw.strip().startswith("#")]
    if not lines:
        raise ParseError(0, "empty instance file")
    line_no, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "digraph":
        raise ParseError(line_no, f"expected header 'digraph' <version>, got {line!r}")
    version = integer(line_no, parts[1], "format version")
    if version != 1:
        raise ParseError(line_no, f"unsupported format version {version}")
    n = None
    arcs, record_lines, z1, z2 = [], [], [], []
    meta = {}
    for line_no, line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "n":
            if n is not None:
                raise ParseError(line_no, "duplicate vertex count")
            if len(parts) != 2:
                raise ParseError(line_no, "expected: n <count>")
            n = integer(line_no, parts[1], "vertex count")
            record_lines.append(line_no)
        elif kind == "a":
            if n is None:
                raise ParseError(line_no, "arc before vertex count")
            if len(parts) != 5:
                raise ParseError(line_no, "expected: a <tail> <head> <z1> <z2>")
            u = integer(line_no, parts[1], "tail")
            v = integer(line_no, parts[2], "head")
            arcs.append((u, v))
            record_lines.append(line_no)
            if flag(line_no, parts[3], "z1 flag"):
                z1.append((u, v))
            if flag(line_no, parts[4], "z2 flag"):
                z2.append((u, v))
        elif kind == "meta":
            if len(parts) < 3:
                raise ParseError(line_no, "expected: meta <key> <value>")
            key = parts[1]
            if key in meta:
                raise ParseError(line_no, f"duplicate metadata key {key!r}")
            value = line.split(None, 2)[2]
            if key == "family":
                meta[key] = value
            elif key == "mu_analytic":
                meta[key] = integer(line_no, value, "mu_analytic")
            elif key == "planted_witness":
                meta[key] = witness_of(line_no, value)
            else:
                raise ParseError(line_no, f"unknown metadata key {key!r}")
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if n is None:
        raise ParseError(lines[-1][0], "missing vertex count")
    try:
        D = LabeledDigraph.on_range(n, arcs, z1, z2)
    except ValueError:
        def prefix_fault(k):  # the fault of the count and the first k arcs
            try:
                LabeledDigraph.on_range(n, arcs[:k])
            except ValueError as exc:
                return str(exc)
            return None

        # a prefix holding a rejected one is rejected too
        k = bisect_left(range(len(record_lines)), True, key=lambda k: prefix_fault(k) is not None)
        raise ParseError(record_lines[k], prefix_fault(k)) from None
    return Instance(D, family=meta.get("family"), mu_analytic=meta.get("mu_analytic"),
                    planted_witness=meta.get("planted_witness"))


def verify_undirected_witness_reference(G, pattern, witness):
    """The undirected witness verifier written out clause by clause on G
    itself, without orienting anything."""
    branch = witness.branch
    if len(branch) != pattern.num_vertices or len(set(branch)) != len(branch):
        return VerificationReport(False, "branch-map", "not an injective full map")
    for v in branch:
        if v not in G.vertices:
            return VerificationReport(False, "branch-map", f"unknown graph vertex {v}")
    keys = {e.key for e in pattern.edges}
    if set(witness.paths) != keys:
        return VerificationReport(False, "paths-complete", "path set mismatch")
    branch_set = set(branch)
    used = {}
    for e in pattern.edges:
        seq = witness.paths[e.key]
        if len(seq) < 2 or len(set(seq)) != len(seq):
            return VerificationReport(False, f"path{e.key}", "not a simple path")
        if {seq[0], seq[-1]} != {branch[e.u], branch[e.v]}:
            return VerificationReport(False, f"path{e.key}", "endpoints do not match")
        for x, y in zip(seq, seq[1:]):
            if _edge(x, y) not in G.edges:
                return VerificationReport(False, f"path{e.key}", f"({x}, {y}) is not an edge")
        for v in seq[1:-1]:
            if v in branch_set:
                return VerificationReport(False, "disjointness",
                                          f"path {e.key} passes through branch vertex {v}")
            if v in used:
                return VerificationReport(False, "disjointness",
                                          f"paths {used[v]} and {e.key} share vertex {v}")
            used[v] = e.key
        c1, c2 = edge_label_counts(G, zip(seq, seq[1:]))
        if (e.a * c1 + e.b * c2) % e.q != e.r:
            return VerificationReport(False, f"congruence{e.key}",
                                      f"residue {(e.a * c1 + e.b * c2) % e.q} != {e.r}")
    return VerificationReport(True)
