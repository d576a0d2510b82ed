"""Complete-at-desk-scale search for congruence-constrained subdivisions.

``residue_path`` finds a simple directed u-v path whose label counts hit a
target residue, with interior vertices banned from a designated endpoint set
and from an arbitrary forbidden set.  The search is depth-first over simple
paths, pruned by a walk relaxation: a residue-state flood over
(vertex, a*z1-count + b*z2-count mod q) marks which states can still reach
the target as *walks*; a partial path whose frontier state cannot finish as
a walk certainly cannot finish as a path.  ``walk_reach_masks`` returns the
relaxation as one q-bit int per vertex, bit r saying whether the vertex's
walks to the target can add the residue r, so each pruning step reads one
bit.

Both jobs read residue steps: for one (a, b, q), each vertex's out- and
in-neighbours in D's list order, each paired with a residue table of the
residue k = a*[arc in z1] + b*[arc in z2] mod q its arc adds.  An arc adds
one of at most four residues (0, a, b, a + b), and each that occurs gets
two tables, built once per (a, b, q): ``rotate`` for the flood, rotate[c]
being the residue set c rotated by k, and ``less`` for the path search,
less[need] being need - k mod q, so the residue arithmetic in either
kernel's inner loop is one subscript.  A table is a list when it has at
most ``_LIST_CAP`` (256) entries, as a rotate table, with 2^q entries,
does up to q = 8; above the cap it is a dict that fills in each entry on
first read, so a large q costs only the entries a search reads.  Both
kinds are read by the same subscript, so each kernel has one loop.  One private kernel does each
job, the flood over in-steps and the path search over out-steps; the public
functions validate a query and pass it through one private step, which
ranks it, builds its steps and floods its walk table.  The kernels work on
vertex ranks, rank i being ``D.vertices[i]``: steps and walk tables are
lists indexed by rank, and paths are rank tuples, so no step reads a dict
keyed by vertex id.  Since ranks keep the order of the ids, every search
meets its candidates in the same order either way.  Ids are turned into
ranks, and back, only at the public functions and at the witness
``find_subdivision`` returns.  One path kernel, ``_routings``, draws whole
path families, one internally disjoint path per leg (a u-head path with
its target residue and walk table), in one flat loop: the step iterator
and residue of the current leg's top frame sit in locals, with a stack of
(iterator, residue) pairs below, and a leg that closes waits on a stack of
legs while the next opens at its tail.  One mutable set, shared by every
leg, holds every vertex a step may not enter (the banned set, every leg's
ends, and the paths of the current leg and the legs before it), so a step
that pushes nothing never leaves the loop over its frame's steps and
probes one set.  It takes the steps of a stack of plain depth-first
searches, one per leg, in the same order and charges each the same, so its
families, their order and its expansion counts are those of searches that
reopen the top frame at each step.  It counts its budget in a local and
writes it back to the shared budget at every yield, so generators that
share one budget charge it exactly, step by step.  The public path
functions run it on one leg.

``find_subdivision`` layers a branch-map enumeration on top: injective maps
of pattern vertices into the digraph (degree-feasibility pruned), then one
residue-constrained path per pattern arc, routed most-constrained first with
full backtracking across both path choices and maps.  The maps are filled in
one pattern vertex at a time, and a prefix that closes a pattern arc is
refuted early: if the arcs with both ends placed have no routing whose
interiors avoid the placed branch vertices, no completion of the prefix has
one either, since a routing of the whole pattern restricted to those arcs
would be such a routing.  The whole map is the last prefix: its arcs are
every pattern arc, so one routing step serves every prefix and the whole
map, which is routed even when it closes no arc.  A routing is one
``_routings`` run whose legs are the arcs, most-constrained first, and
whose blocked set starts as the branch set.  One solve builds the residue
steps once per distinct (a, b, q) of the pattern and each walk table once
until the cache is cleared: tables are built without the forbidden set (a
superset, so still a sound pruning) and cached, keyed by head vertex,
branch set (placed prefix or whole map) and the arc's (a, b, q), so every
branch map, prefix and candidate path reuses them; the cache is cleared
before a write once it holds ``_REACH_CAP`` masks, and a cleared table is
only a flood done again.  The finder, like the path kernel, keeps its
state in lists (a stack of candidate iterators places the map), so no
pattern meets a depth limit and no function refers to itself.  Exhausting
the space within budget proves non-existence; running out of budget is an
explicit third outcome, never conflated with absence.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator

from .digraph import (DirectedPath, LabeledDigraph, _as_ids, _as_int_pairs, _check_count,
                      _checked_arcs, _Record)
from .subdivision import (PatternArc, SubdivisionPattern, SubdivisionWitness,
                          VerificationReport, _check_congruence, _sort_keyed, verify_witness)

FOUND = "found"
ABSENT = "absent"
INDETERMINATE = "indeterminate"


class BudgetExhausted(Exception):
    pass


class SearchBudget:
    """Shared node-expansion counter; ``charge`` raises, without counting,
    for an expansion that would pass the limit, so ``spent`` never does.
    The limit is a positive ``int`` and a charge a nonnegative one (bools
    refused), so ``spent`` counts whole expansions and an exhausted budget
    has spent exactly its limit."""

    def __init__(self, limit: int):
        _check_count(limit, "budget", 1)
        self.limit = limit
        self.spent = 0

    def charge(self, amount: int = 1) -> None:
        _check_count(amount, "charge", 0)
        if self.spent + amount > self.limit:
            raise BudgetExhausted
        self.spent += amount


class ResidueQuery(_Record):
    """Find a simple directed path from u to v with
    a*|arcs in z1| + b*|arcs in z2| == target (mod q); interior vertices must
    avoid ``endpoints`` (u and v are added to it) and ``forbidden`` (which
    may not touch u or v), both kept as frozensets."""

    __slots__ = ("u", "v", "a", "b", "q", "target", "endpoints", "forbidden")

    def __init__(self, u: int, v: int, a: int, b: int, q: int, target: int,
                 endpoints: frozenset[int] = frozenset(), forbidden: frozenset[int] = frozenset()):
        _check_congruence(a, b, q)
        _check_count(target, "target")
        u, v = _as_ids((u, v))
        if u == v:
            raise ValueError("endpoints must be distinct")
        endpoints = frozenset(_as_ids(endpoints)).union((u, v))
        forbidden = frozenset(_as_ids(forbidden))
        if {u, v} & forbidden:
            raise ValueError("u and v may not be forbidden")
        _Record.__init__(self, u, v, a % q, b % q, q, target % q, endpoints, forbidden)


# A residue table is a list when it has at most this many entries, else a
# ``_Filling`` dict: a list reads fastest but is built whole by every solve
# that uses it, and a rotate table has 2^q entries, so lists serve q <= 8.
_LIST_CAP = 256


class _Filling(dict):
    """A table read by subscript, like a list, that computes each entry
    ``entry(x)`` on its first read and keeps it."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __missing__(self, x):
        value = self[x] = self.entry(x)
        return value


def _table(entry, size: int) -> list | _Filling:
    """``entry(x)`` for x in 0..size-1, read by subscript: a list when
    ``size`` is at most ``_LIST_CAP``, else a ``_Filling`` dict."""
    return list(map(entry, range(size))) if size <= _LIST_CAP else _Filling(entry)


def _residue_steps(D: LabeledDigraph, a: int, b: int,
                   q: int) -> tuple[list[tuple], list[tuple]]:
    """D's out- and in-lists for (a, b, q), indexed by rank, as
    (neighbour rank, table) pairs in the lists' order.  An arc adds the
    residue k = a*[arc in z1] + b*[arc in z2] mod q, one of 0, a, b and
    a + b, and each k that some arc adds gets two tables, built here once:
    an out-step carries ``less``, with less[need] = (need - k) mod q for a
    residue need, and an in-step carries ``rotate``, with rotate[c] the
    residue set c (a q-bit int, bit r for residue r) rotated by k, so that
    bit r of c becomes bit r + k mod q."""
    z1, z2 = D.z1, D.z2
    rank = {v: i for i, v in enumerate(D.vertices)}
    full = (1 << q) - 1
    less = _Filling(lambda k: _table(lambda need: (need - k) % q, q))
    rotate = _Filling(lambda k: _table(lambda c: (c << k & full) | c >> q - k, 1 << q))
    out = [tuple((rank[w], less[(a * ((u, w) in z1) + b * ((u, w) in z2)) % q]) for w in ws)
           for u, ws in D._out.items()]
    inn = [tuple((rank[w], rotate[(a * ((w, z) in z1) + b * ((w, z) in z2)) % q]) for w in ws)
           for z, ws in D._in.items()]
    return out, inn


def _flood(in_steps: list[tuple], head: int, blocked: frozenset[int]) -> list[int]:
    """Walk-reach masks toward the rank ``head`` over the in-steps, one per
    rank (0 for a rank with no walk): a rank in ``blocked`` gets a mask but
    passes nothing on.  A step's ``rotate`` table turns the residues its
    arc's head carries into those its tail gains, one subscript.  Every
    push follows a strict growth of a mask, and the least fixpoint does not
    depend on the order, so a rank may sit in the work list twice."""
    masks = [0] * len(in_steps)
    masks[head] = 1
    work = [head]
    while work:
        z = work.pop()
        carried = masks[z]
        for w, rotate in in_steps[z]:
            old = masks[w]
            m = rotate[carried] | old
            if m != old:
                masks[w] = m
                if w not in blocked:
                    work.append(w)
    return masks


def _routings(legs: list[tuple], blocked: set[int],
              budget: SearchBudget | None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Families of internally disjoint simple paths, one per leg, as
    tuples of rank tuples, in depth-first order over the legs' out-steps.
    A leg is ``(out_steps, u, head, target, reachable)``: its path runs
    from u to head adding ``target`` (reduced mod q), pruned by the
    walk-reach masks ``reachable`` toward head.  A step's ``less`` table
    gives the residue its path must still add once it is taken,
    ``less[need]``, one subscript; a step into the head closes a
    qualifying path when that is 0.  ``blocked`` is one mutable set that
    holds every vertex a step may not enter: the caller puts the banned
    set and every leg's ends in it, and the kernel adds each path vertex
    when pushed and removes it when popped, so a step meets the banned
    set, the ends, its own path and the paths of the legs before it in
    one probe.  The head is never pushed, so it is the one blocked vertex
    a step may reach, and it is compared with only a blocked vertex.

    One flat loop runs every leg.  The current leg's path, its frames'
    (iterator, need) stack, the top frame's step iterator ``it`` and the
    residue ``need`` its path must still add live in locals.  A step that
    pushes nothing (a blocked vertex, a pruned one, the head with the
    wrong residue, or a yield) stays inside the ``for`` over ``it``; the
    loop is left only to push a vertex, to close a leg before the last,
    or when ``it`` runs out.  A leg that closes before the last waits on
    ``routed`` with its locals, its path still blocked, and the next leg
    opens at its tail; a leg whose steps and frames run out is dropped,
    and the leg before it resumes at the step after its head.  When the
    last leg closes, the family is yielded.  A step is taken when it
    reaches the head or a vertex off ``blocked``, the filter of a
    depth-first search that reopens the top frame and its residue at each
    step, and each leg's paths are drawn in that search's order, off the
    paths before it, so the families come in the order of a stack of such
    searches, one per leg, and an empty ``legs`` gives one empty family.

    Each step taken is one expansion of ``budget``, counted in a local: it
    is written back to ``budget.spent`` before every yield, before
    ``BudgetExhausted`` is raised and when the families run out, and read
    again at every resumption.  A generator runs only between those
    points, so generators that share one budget charge it exactly as
    ``SearchBudget.charge`` would, one step at a time.  A budget spent to
    or past its limit (say, after a caller lowered ``limit``) refuses the
    first step, as ``charge`` would, and a write-back sets ``spent`` to
    the limit."""
    if not legs:
        yield ()
        return
    # with no budget, ``left`` starts below 0 and never reaches 0
    left = -1 if budget is None else max(budget.limit - budget.spent, 0)
    out_steps, u, head, need, reachable = legs[0]
    path, stack, routed, last = [u], [], [], len(legs) - 1
    it = iter(out_steps[u])
    # a frame resumes only with the path it was opened on, so filtering a
    # vertex as it is drawn sees the same path as filtering when opened
    while True:
        for w, less in it:
            if w in blocked:
                if w != head:
                    continue
                if not left:
                    budget.spent = budget.limit
                    raise BudgetExhausted
                left -= 1
                if not less[need]:
                    if len(routed) < last:
                        break
                    if budget is not None:
                        budget.spent = budget.limit - left
                    # a waiting leg's path is its locals' path and head
                    yield (*[(*leg[3], leg[1]) for leg in routed], (*path, w))
                    if budget is not None:
                        left = max(budget.limit - budget.spent, 0)
                continue
            if not left:
                budget.spent = budget.limit
                raise BudgetExhausted
            left -= 1
            r = less[need]
            if reachable[w] >> r & 1:
                break
        else:
            if stack:
                blocked.discard(path.pop())
                it, need = stack.pop()
            elif routed:
                out_steps, head, reachable, path, stack, it, need = routed.pop()
            else:
                break
            continue
        if w == head:
            # the leg closes and waits; the next opens at its tail, a leg end
            routed.append((out_steps, head, reachable, path, stack, it, need))
            out_steps, w, head, r, reachable = legs[len(routed)]
            path, stack = [], []
        else:
            blocked.add(w)
            stack.append((it, need))
        path.append(w)
        it = iter(out_steps[w])
        need = r
    if budget is not None:
        budget.spent = budget.limit - left


def _query_steps(D: LabeledDigraph,
                 query: ResidueQuery) -> tuple[int, int, frozenset[int], list[tuple], list[int]]:
    """The query's one step into the kernels: its u and v as ranks of D, the
    ranks of its banned interior set (endpoints and forbidden, members
    outside D dropped), D's out-steps for its (a, b, q), and the walk-reach
    masks toward v.  D's vertices are sorted, so a vertex's rank is its
    place among them."""
    if not D.has_vertex(query.u) or not D.has_vertex(query.v):
        raise ValueError("query endpoints are not vertices of the digraph")
    verts = D.vertices
    u, head = bisect_left(verts, query.u), bisect_left(verts, query.v)
    banned = frozenset(bisect_left(verts, w)
                       for w in query.endpoints | query.forbidden if D.has_vertex(w))
    out_steps, in_steps = _residue_steps(D, query.a, query.b, query.q)
    return u, head, banned, out_steps, _flood(in_steps, head, banned - {head})


def walk_reach_masks(D: LabeledDigraph, query: ResidueQuery) -> dict[int, int]:
    """For each vertex w, the residues a*c1 + b*c2 (mod q) of the label
    counts (c1, c2) of the walks from w to v, for the query's (a, b, q), as
    a q-bit int with bit r, where the walk's vertices after w avoid the
    endpoint and forbidden sets (v itself excepted); a vertex with no such
    walk is left out.  Computed by a reverse flood, one vertex at a time:
    an arc's tail gains the residues its head carries, rotated by the
    arc's a*[arc in z1] + b*[arc in z2] through its step's table."""
    *_, masks = _query_steps(D, query)
    # a forbidden vertex's mask passed nothing on; it is no walk's start
    return {v: m for v, m in zip(D.vertices, masks) if m and v not in query.forbidden}


def iter_residue_paths(D: LabeledDigraph, query: ResidueQuery,
                       budget: SearchBudget | None = None) -> Iterator[DirectedPath]:
    """All qualifying simple paths, in deterministic depth-first order.  The
    budget's type and the endpoints are checked, and the walk-reach masks
    built, at the call; each path step is charged to ``budget`` as the
    paths are drawn, and an exhausted budget raises ``BudgetExhausted``."""
    if budget is not None and not isinstance(budget, SearchBudget):
        raise TypeError("budget must be a SearchBudget or None")
    u, head, banned, out_steps, reachable = _query_steps(D, query)
    verts = D.vertices
    return (DirectedPath(map(verts.__getitem__, p)) for p, in _routings(
        [(out_steps, u, head, query.target, reachable)], {*banned, u, head}, budget))


def residue_path(D: LabeledDigraph, query: ResidueQuery,
                 budget: SearchBudget | None = None) -> DirectedPath | None:
    """First qualifying path in deterministic order, or None after a complete
    search proves there is none.  Each path step is charged to ``budget``;
    an exhausted budget raises ``BudgetExhausted``."""
    for p in iter_residue_paths(D, query, budget=budget):
        return p
    return None


class SearchOutcome(_Record):
    """Three-valued search result: found (with witness), proven absent, or
    indeterminate because the budget ran out."""

    __slots__ = ("status", "witness", "expansions")

    def __init__(self, status: str, witness: object | None = None, expansions: int = 0):
        _Record.__init__(self, status, witness, expansions)

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _feasible_images(D: LabeledDigraph, pattern: SubdivisionPattern) -> list[list[int]]:
    """For each pattern vertex, in rank order, the ranks of the vertices of
    D whose degrees can host it.  D's degrees are read once per rank, the
    pattern's counted in one pass over its arcs, and the vertices with one
    (out, in) demand share one list, which callers only iterate."""
    n = pattern.num_vertices
    need_out, need_in = [0] * n, [0] * n
    for e in pattern.arcs:
        need_out[e.tail] += 1
        need_in[e.head] += 1
    degrees = list(zip(map(len, D._out.values()), map(len, D._in.values())))
    images = _Filling(lambda need: [i for i, (o, d) in enumerate(degrees)
                                    if o >= need[0] and d >= need[1]])
    return [images[need] for need in zip(need_out, need_in)]


# The direct finder's walk-table cache is cleared before a write once it
# holds this many masks (tables times D's vertex count); unbounded, it keeps
# every table of the solve.  A cleared table is only a flood done again.
_REACH_CAP = 1 << 22


def find_subdivision(D: LabeledDigraph, pattern: SubdivisionPattern,
                     budget: int = 10 ** 7) -> SearchOutcome:
    """Complete search for a subdivision witness within a node-expansion
    budget, a positive ``int``.  Deterministic: the lexicographically
    smallest feasible branch map that admits a routing wins, and within a
    map the first path family in depth-first order, the arcs routed in
    order of the residue-state count of their walk tables (ties by arc
    key).  The residue steps are built once per distinct (a, b, q) of the
    pattern, and the tables and paths come from the same kernels the
    public residue functions wrap.  The search runs on vertex ranks, which
    keep the order of the vertices, so it meets the maps in the same
    order; the witness is turned back into vertices once, when found.

    A pattern with more vertices than D has no injective map: ABSENT,
    with no expansion spent and before any pattern vertex's images are
    sized, so a huge pattern costs no time.  A pattern with a vertex that
    no vertex of D can host by degree is ABSENT with no expansion spent
    too.  Each placed vertex and each path step is one expansion.  When
    the prefix branch[0..p-1] closes a pattern arc, or is the whole map
    (p = |V(F)|, whose arcs are all of F's), the arcs with both ends
    below p are routed, with interiors off the prefix, by one routing
    step: one table cache, kernels and arc order.  If a proper prefix's
    arcs have no routing, no completion of the prefix is tried: a
    routing of the whole pattern, restricted to those arcs, would be one,
    since its interiors avoid every branch vertex.  So only maps with no
    routing are skipped, and the map and path family returned are those
    the plain enumeration would return.  The prefix routes' path steps
    are charged to the budget, so expansion counts differ from the plain
    enumeration's, and with them the budget at which a search turns
    INDETERMINATE.  The placement and the routing keep their state in
    lists, so no pattern size meets a depth limit."""
    tracker = SearchBudget(budget)
    # no injective, degree-feasible branch map exists; the count is tested
    # first, as sizing the images costs time in the pattern's vertex count
    if pattern.num_vertices > D.n or not all(candidates := _feasible_images(D, pattern)):
        return SearchOutcome(ABSENT, None, 0)
    arcs = list(pattern.arcs)
    steps = {t: _residue_steps(D, *t) for t in {(e.a, e.b, e.q) for e in arcs}}
    # (state count, walk-reach masks) per (head, branch set, a, b, q),
    # cleared before a write once it holds ``_REACH_CAP`` masks
    reach_cache: dict[tuple, tuple[int, list[int]]] = {}
    room = _REACH_CAP // max(D.n, 1)

    def routing(branch: list[int], sub: list[PatternArc]) -> tuple | None:
        """The first routing of the arcs ``sub``, all with both ends placed,
        with interiors kept off the placed branch vertices: the branch map
        and the paths by arc key, in ranks.  Each arc is one leg of one
        ``_routings`` run, whose blocked set starts as the branch set."""
        ends = frozenset(branch)
        sized = []
        for e in sub:
            head = branch[e.head]
            key = (head, ends, e.a, e.b, e.q)
            got = reach_cache.get(key)
            if got is None:
                if len(reach_cache) >= room:
                    reach_cache.clear()
                residues = _flood(steps[e.a, e.b, e.q][1], head, ends - {head})
                got = reach_cache[key] = (sum(map(int.bit_count, residues)), residues)
            states, reachable = got
            tail = branch[e.tail]
            # a map or prefix on which some arc's residue is out of reach
            # even for walks from its tail cannot be routed
            if not reachable[tail] >> e.r & 1:
                return None
            sized.append((states, e.key, (steps[e.a, e.b, e.q][0], tail, head, e.r, reachable)))
        # ``sub`` is in key order and the sort is stable, so ties keep it
        sized.sort(key=itemgetter(0))
        family = next(_routings([t[2] for t in sized], set(ends), tracker), None)
        if family is None:
            return None
        return tuple(branch), {t[1]: p for t, p in zip(sized, family)}

    # placed[p]: the arcs with both ends among pattern vertices 0..p-1
    placed = [[e for e in arcs if e.tail < p and e.head < p]
              for p in range(pattern.num_vertices + 1)]

    def assign() -> tuple | None:
        """The first routable map; frames[p] draws pattern vertex p's images."""
        n = pattern.num_vertices
        if not n:
            return routing([], arcs)
        branch, used, frames = [], set(), [iter(candidates[0])]
        while frames:
            for v in frames[-1]:
                if v not in used:
                    break
            else:
                frames.pop()
                if branch:
                    used.discard(branch.pop())
                continue
            tracker.charge()
            branch.append(v)
            used.add(v)
            p = len(branch)
            # a prefix whose arcs have no routing has no routable completion;
            # the whole map is the last prefix, routed even if it closes no arc
            if p == n or len(placed[p]) > len(placed[p - 1]):
                got = routing(branch, placed[p])
                if got is None:
                    used.discard(branch.pop())
                    continue
                if p == n:
                    return got
            frames.append(iter(candidates[p]))
        return None

    try:
        found = assign()
    except BudgetExhausted:
        return SearchOutcome(INDETERMINATE, None, tracker.spent)
    if found is None:
        return SearchOutcome(ABSENT, None, tracker.spent)
    verts = D.vertices.__getitem__
    branch, paths = found
    witness = SubdivisionWitness(map(verts, branch),
                                 {key: DirectedPath(map(verts, p))
                                  for key, p in paths.items()})
    report = verify_witness(D, pattern, witness)
    if not report.ok:
        raise AssertionError(f"search produced an invalid witness: {report.failure}")
    return SearchOutcome(FOUND, witness, tracker.spent)


# ---------------------------------------------------------------------------
# Undirected graphs: biorientation and the projected subdivision search.

Edge = tuple[int, int]


def _edge_keys(pairs) -> list[Edge]:
    """Each pair as its edge key (u, v), u < v; a loop stays a loop, for
    the arc rule to name in order."""
    return [(u, v) if u < v else (v, u) for u, v in _as_int_pairs(pairs)]


class UndirectedLabeledGraph:
    """A simple undirected graph with two (possibly overlapping) edge classes.
    Each edge, in ``edges``, ``b1`` and ``b2``, is the pair (u, v) with u < v."""

    __slots__ = ("vertices", "edges", "b1", "b2")

    def __init__(self, vertices, edges, b1=(), b2=()):
        vset = set(_as_ids(vertices))
        self.vertices = tuple(sorted(vset))
        self.edges = _checked_arcs(vset, _edge_keys(edges), "edge")
        self.b1 = frozenset(_edge_keys(b1))
        self.b2 = frozenset(_edge_keys(b2))
        if not self.b1 <= self.edges or not self.b2 <= self.edges:
            raise ValueError("b1/b2 contain pairs that are not edges")


def biorient(G: UndirectedLabeledGraph) -> LabeledDigraph:
    """Each edge uv becomes the two arcs (u, v) and (v, u); edge classes lift
    to both orientations."""
    arcs: list[Edge] = []
    z1: list[Edge] = []
    z2: list[Edge] = []
    for u, v in sorted(G.edges):
        arcs.extend([(u, v), (v, u)])
        if (u, v) in G.b1:
            z1.extend([(u, v), (v, u)])
        if (u, v) in G.b2:
            z2.extend([(u, v), (v, u)])
    return LabeledDigraph(G.vertices, arcs, z1, z2)


class UndirectedPatternEdge(_Record):
    __slots__ = ("u", "v", "a", "b", "r", "q")

    def __init__(self, u: int, v: int, a: int, b: int, r: int, q: int):
        u, v = _as_ids((u, v))
        if u == v:
            raise ValueError("pattern edges may not be loops")
        _check_congruence(a, b, q)
        _check_count(r, "residue")
        if u > v:
            u, v = v, u
        _Record.__init__(self, u, v, a % q, b % q, r % q, q)

    @property
    def key(self) -> Edge:
        return (self.u, self.v)


class UndirectedPattern(_Record):
    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: Iterable[UndirectedPatternEdge]):
        _Record.__init__(self, num_vertices, _sort_keyed(num_vertices, edges, "pattern edge"))

    def bioriented(self) -> SubdivisionPattern:
        """One arc (u, v) per edge.  In a bioriented host an undirected u-v
        path is the same thing as a directed u->v path, so this pattern has
        a subdivision there exactly when the undirected pattern has one in
        the host graph."""
        return SubdivisionPattern(self.num_vertices, tuple(
            PatternArc(e.u, e.v, e.a, e.b, e.r, e.q) for e in self.edges))


class UndirectedWitness(_Record, eq=False):
    """branch[p] is the graph vertex standing for pattern vertex p, kept as
    a tuple; paths maps each pattern edge key to its path's vertex sequence
    (a new empty dict by default)."""

    __slots__ = ("branch", "paths")

    def __init__(self, branch: Iterable[int], paths: dict[Edge, tuple[int, ...]] | None = None):
        _Record.__init__(self, tuple(branch), {} if paths is None else paths)


def verify_undirected_witness(G: UndirectedLabeledGraph, pattern: UndirectedPattern,
                              witness: UndirectedWitness) -> VerificationReport:
    """Check an undirected witness as the directed one it projects to: each
    path, reversed when it starts at the branch vertex of its edge's larger
    end, is a directed path checked by ``verify_witness`` in ``biorient(G)``
    against ``pattern.bioriented()``.  Both orientations of an edge carry
    its classes, so the label counts carry over."""
    keys = {e.key for e in pattern.edges}
    if set(witness.paths) != keys:
        return VerificationReport(False, "paths-complete", "path set mismatch")
    branch = witness.branch
    paths: dict[Edge, DirectedPath] = {}
    for e in pattern.edges:
        seq = tuple(witness.paths[e.key])
        if len(branch) > e.v and seq[:1] == (branch[e.v],):
            seq = seq[::-1]
        try:
            paths[e.key] = DirectedPath(seq)
        except ValueError as exc:
            return VerificationReport(False, f"path{e.key}", str(exc))
    return verify_witness(biorient(G), pattern.bioriented(), SubdivisionWitness(branch, paths))


def find_subdivision_undirected(G: UndirectedLabeledGraph, pattern: UndirectedPattern,
                                budget: int = 10 ** 7) -> SearchOutcome:
    """Biorient G, orient each pattern edge u < v as the arc (u, v), search
    for a directed witness, then drop orientations.  Label counts are
    preserved because the classes lift to both arc orientations, so FOUND
    and ABSENT carry over to the undirected question.  The answer is
    checked once, by ``find_subdivision``: its projection runs each path
    from the branch vertex of its edge's smaller end, so
    ``verify_undirected_witness`` would check the same directed witness in
    the same digraph again."""
    outcome = find_subdivision(biorient(G), pattern.bioriented(), budget=budget)
    if outcome.status != FOUND:
        return outcome
    paths = {e.key: outcome.witness.paths[e.key].vertices for e in pattern.edges}
    return SearchOutcome(FOUND, UndirectedWitness(outcome.witness.branch, paths),
                         outcome.expansions)
