"""The constructive extraction pipeline.

Starting from a digraph of large mu, the pipeline produces, in order:

* a directed cycle carrying at least two arcs that lie in exactly one of
  z1, z2 (``two_arc_cycle``);
* a "special set" stage: nested sets U inside Y, plus a path P into U whose
  first arc lies in the symmetric difference and whose first two vertices
  are reachable from an anchor by paths of known label residues
  (``special_set``);
* 2q-3 iterated special-set stages, the gadgets (``gadget_sequences``),
  kept as a chain of stage records: each stage runs inside the previous
  stage's U from its exit vertex;
* a residue-universal set X: between any ordered pair of X-vertices and for
  any coprime target, an explicit X-path achieving the target residue
  (``residue_universal_set``);
* a full subdivision witness by induction on the pattern's arcs, run as
  one loop down their peel order, one residue-universal set per arc, each
  inside the previous one's X (``extract_subdivision``).

Each sufficiency threshold is exposed as a pure function, but the
constructions run best-effort on inputs of any size: the thresholds are
sufficient, not necessary.  No operation ever returns an unverified object;
each runs its own independent condition checker and raises
ConstructionFailed (naming the stage) rather than emitting a walk that
merely resembles the intended structure.  Each gadget stage is verified
once, by ``special_set``; ``check_gadget_sequences`` re-walks the whole
chain as the independent verifier.

The only tunable is ``floor``: the mu level to which a residue class is
shrunk before extracting the two-arc cycle.  The certified value is 1536;
desk-scale runs on generated families use something like 14, the smallest
value for which the two-arc stage can succeed on fully z1-labeled
bioriented cliques.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .balance import DirectedCycle, disjoint_unbalanced_cycles
from .decomposition import (_checked_x_path, _enter, _x_path_faults, _x_walk, level_split,
                            nested_connector_sequence)
from .digraph import (OUT, BfsTree, DirectedPath, LabeledDigraph, _check_count, _host_set,
                      _Record, first_path_to_set, is_strongly_connected, strong_components,
                      tree_path)
from .errors import ConstructionFailed, OracleUnavailable
from .oracles import MuOracle
from .subdivision import (PatternArc, SubdivisionPattern, SubdivisionWitness,
                          _check_congruence, path_residue, verify_witness)

CORE_FLOOR = 1536


def special_set_threshold(q: int) -> int:
    """mu level sufficient for the special-set stage at modulus q."""
    _check_inputs(q=q)
    return 3072 * q * q


def gadget_threshold(q: int) -> int:
    """mu level sufficient for the full 2q-3 gadget iteration."""
    _check_inputs(q=q)
    return 1536 * 2 ** (2 * q - 3) * (q * q + 1) - 3072


def universal_threshold(q: int, n_target: int) -> int:
    """mu level sufficient for a residue-universal set whose retained set
    still has mu at least ``n_target``."""
    _check_inputs(q=q)
    return 2 ** (2 * q - 2) * max(1536 * (q * q + 1), 2 * n_target + 3072) - 6144


def _peel_order(pattern: SubdivisionPattern) -> list[PatternArc]:
    """The extraction's order of the arcs: largest modulus first, ties by key."""
    return sorted(pattern.arcs, key=lambda e: (-e.q, e.key))


def subdivision_threshold(pattern: SubdivisionPattern) -> int:
    """Sufficiency threshold for extracting the full pattern, folded over
    the peel order from the innermost arc out."""
    value = pattern.num_vertices
    for f in reversed(_peel_order(pattern)):
        value = universal_threshold(f.q, max(value, 2))
    return value


def two_arc_cycle(D: LabeledDigraph, oracle: MuOracle, *,
                  host: Iterable[int] | None = None) -> DirectedCycle:
    """A directed cycle of D[host] (all of D when ``host`` is None) with at
    least two arcs in exactly one of z1, z2.

    Built from a depth-4 nested connector sequence: two pivot vertices and
    two disjoint unbalanced cycles inside the innermost set, joined by four
    locality paths whose interiors live in pairwise disjoint shells.
    """
    seq = nested_connector_sequence(D, 4, oracle, host=host)
    inner = seq.sets[4]
    if len(inner) < 2:
        raise ConstructionFailed("pivots", f"innermost set has {len(inner)} < 2 vertices")
    v1, v2 = sorted(inner)[:2]
    packing = disjoint_unbalanced_cycles(D, 2, host=inner - {v1, v2})
    if not packing.complete:
        raise ConstructionFailed("disjoint-cycles",
                                 f"found {len(packing.cycles)} of 2 disjoint unbalanced cycles")
    c1, c2 = packing.cycles
    e1 = next(a for a in c1.arcs() if D.weight(a))
    e2 = next(a for a in c2.arcs() if D.weight(a))
    p1 = seq.path(v1, e1[0], 1)
    p2 = seq.path(e1[1], v2, 2)
    p3 = seq.path(v2, e2[0], 3)
    p4 = seq.path(e2[1], v1, 4)
    ring = p1.vertices + p2.vertices + p3.vertices[1:] + p4.vertices[:-1]
    try:
        cycle = DirectedCycle.from_vertices(D, ring)
    except ValueError as exc:
        raise ConstructionFailed("splice", str(exc)) from exc
    if sum(D.weight(a) != 0 for a in cycle.arcs()) < 2:
        raise ConstructionFailed("splice", "fewer than two arcs in exactly one class")
    return cycle


class SpecialSetResult(_Record):
    """One special-set stage.  ``path`` runs inside D[Y], starts with an arc
    in exactly one of z1, z2, and meets U only at its last vertex ``w``; the
    witnesses are anchor-to-path routes whose z1/z2 counts are congruent to
    (r, s) mod q.  Residues are normalized to 0..q-1."""

    __slots__ = ("x", "q", "U", "Y", "w", "path", "r", "s", "witness_first", "witness_second",
                 "core", "provenance")

    def __init__(self, x: int, q: int, U: frozenset[int], Y: frozenset[int], w: int,
                 path: DirectedPath, r: int, s: int, witness_first: DirectedPath,
                 witness_second: DirectedPath, core: frozenset[int], provenance: str):
        _Record.__init__(self, x, q, U, Y, w, path, r, s, witness_first, witness_second, core,
                         provenance)


def _check_inputs(floor: int = 1, q: int = 2) -> None:
    """Before any work, the count rule on a modulus q >= 2, then a floor >= 1."""
    _check_count(q, "modulus", 2)
    _check_count(floor, "floor", 1)


def special_set(D: LabeledDigraph, x: int, q: int, oracle: MuOracle,
                floor: int = CORE_FLOOR, *,
                host: Iterable[int] | None = None) -> SpecialSetResult:
    """One stage of the gadget construction in D[host] (all of D when
    ``host`` is None), read from D without building the copies:
    level split of the BFS tree from x, residue-class refinement, minimal
    core, two-arc cycle inside the core, then a cut of cycle-plus-exit-path
    whose first arc distinguishes the classes."""
    _check_inputs(floor, q)
    host = _host_set(D, host)
    split = level_split(D, x, OUT, oracle, min_level=1, host=host)
    Y = split.component

    counts = _tree_label_counts(D, split.tree, split.level_index)
    classes: dict[tuple[int, int], set[int]] = {}
    for v in sorted(Y):
        k1, k2 = counts[v]
        classes.setdefault((k1 % q, k2 % q), set()).add(v)
    best_key = max(sorted(classes), key=lambda k: oracle.mu(classes[k]))
    r, s = best_key
    y_class = frozenset(classes[best_key])

    if not oracle.mu_at_least(y_class, floor):
        raise ConstructionFailed("core-floor",
                                 f"best residue class has mu below the floor {floor}")
    # mu(D[S]) <= |S|, so a set smaller than the value it must reach is
    # refused without a query
    core_set = _minimal(y_class, lambda S: len(S) >= floor and oracle.mu_at_least(S, floor))

    cycle = two_arc_cycle(D, oracle, host=core_set)

    residual = Y - core_set
    if not residual:
        raise ConstructionFailed("residual", "nothing remains outside the core")
    target = oracle.mu(residual)
    U_set = _minimal(residual, lambda S: len(S) >= target and oracle.mu(S) == target)

    exit_path = first_path_to_set(D, set(cycle.vertices), U_set, host=Y)
    assert exit_path is not None  # D[Y] is strongly connected
    z = exit_path.first
    e = next(a for a in cycle.arcs() if D.weight(a) and a[0] != z)
    i0 = cycle.vertices.index(e[0])
    ring = cycle.vertices[i0:] + cycle.vertices[:i0]
    path = DirectedPath(ring[:ring.index(z) + 1] + exit_path.vertices[1:])

    result = SpecialSetResult(
        x=x, q=q, U=U_set, Y=Y, w=path.last, path=path, r=r, s=s,
        witness_first=tree_path(split.tree, path.vertices[0]),
        witness_second=tree_path(split.tree, path.vertices[1]),
        core=core_set, provenance=oracle.name,
    )
    problems = check_special_set(D, x, q, result, oracle, floor, host=host)
    if problems:
        raise ConstructionFailed("self-check", problems[0])
    return result


def _tree_label_counts(D: LabeledDigraph, tree: BfsTree, depth: int) -> dict[int, tuple[int, int]]:
    """The (z1, z2) counts of ``tree_path(tree, v)`` for every vertex v of
    the out-tree's levels 0..``depth``, in one pass level by level: a
    vertex's counts are its parent's plus the labels of its parent arc."""
    counts = {tree.root: (0, 0)}
    for level in tree.levels[1:depth + 1]:
        for v in level:
            arc = (tree.parent[v], v)
            k1, k2 = counts[arc[0]]
            counts[v] = (k1 + (arc in D.z1), k2 + (arc in D.z2))
    return counts


def _minimal(S: frozenset[int], keeps: Callable[[set[int]], bool]) -> frozenset[int]:
    """A minimal subset of S that ``keeps`` accepts, for an upward-closed
    ``keeps`` that accepts S: the vertices of S are dropped in increasing
    order, each one when the rest is nonempty and still accepted.  ``keeps``
    is handed the one working set, which changes after it returns; a
    predicate that keeps its argument must copy it."""
    kept = set(S)
    for v in sorted(S):
        kept.discard(v)
        if not (kept and keeps(kept)):
            kept.add(v)
    return frozenset(kept)


def _strong_within(D: LabeledDigraph, part: frozenset[int]) -> bool:
    """Whether ``part`` is a set of D's vertices inducing a strong subdigraph."""
    return D._out.keys() >= frozenset(part) and is_strongly_connected(D, host=part)


def _check_stage(D: LabeledDigraph, host: frozenset[int], anchor: int, q: int,
                 stage: SpecialSetResult) -> list[str]:
    """Violations of one special-set stage record run inside the vertex set
    ``host`` from ``anchor``: U <= Y <= host minus the anchor, D[U] and D[Y]
    strongly connected, the path inside D[Y] starting with an arc in exactly
    one class and meeting U only at its last vertex w, and anchor-to-path
    witnesses outside Y whose z1/z2 counts are congruent to (r, s) mod q."""
    Y, U, path = stage.Y, stage.U, stage.path
    problems: list[str] = []
    if stage.x != anchor:
        problems.append(f"recorded anchor {stage.x} is not the stage's anchor {anchor}")
    if anchor not in host:
        problems.append("anchor outside its host set")
    if not (U <= Y <= host - {anchor}):
        problems.append("U, Y are not nested inside the host set minus the anchor")
    if not _strong_within(D, U):
        problems.append("D[U] is not strongly connected")
    if not _strong_within(D, Y):
        problems.append("D[Y] is not strongly connected")
    if not set(path.vertices) <= Y:
        problems.append("path leaves Y")
    if not path.valid_in(D):
        problems.append("path is not a directed path of the digraph")
    if set(path.vertices) & U != {stage.w} or path.last != stage.w:
        problems.append("path does not meet U exactly at its last vertex")
    if path.length < 1:
        problems.append("path has no arcs")
        return problems
    if not D.weight(path.vertices[:2]):
        problems.append("first arc of the path is not in exactly one class")
    for v, wit in zip(path.vertices[:2], (stage.witness_first, stage.witness_second)):
        if wit is None:
            problems.append(f"witness for {v} is missing")
            continue
        if wit.first != anchor or wit.last != v:
            problems.append(f"witness for {v} does not run from the anchor to {v}")
            continue
        if not wit.valid_in(D):
            problems.append(f"witness for {v} is not a directed path of the digraph")
        if not set(wit.vertices) <= (host - Y) | {v}:
            problems.append(f"witness for {v} leaves the host set or re-enters Y")
        k1, k2 = D.label_counts(wit.arcs())
        if k1 % q != stage.r or k2 % q != stage.s:
            problems.append(f"witness for {v} has residues ({k1 % q}, {k2 % q}), "
                            f"expected ({stage.r}, {stage.s})")
    return problems


def check_special_set(D: LabeledDigraph, x: int, q: int, res: SpecialSetResult,
                      oracle: MuOracle | None = None,
                      floor: int = CORE_FLOOR, *,
                      host: Iterable[int] | None = None) -> list[str]:
    """Independent verifier for the special-set conditions in D[host] (all of
    D when ``host`` is None); returns the list of violations (empty when
    everything holds).  The mu inequality is only checked when an oracle is
    supplied."""
    host = _host_set(D, host)
    problems = _check_stage(D, host, x, q, res)
    if oracle is not None:
        lo, hi = _maybe_mu(oracle, res.U), _maybe_mu(oracle, host)
        if lo is not None and hi is not None and lo < hi / 2 - floor:
            problems.append("mu(D[U]) fell below mu(D)/2 minus the floor")
    return problems


class GadgetSequences(_Record):
    """2q-3 iterated special-set stages, kept as a chain of stage records.

    Stage j (0-based) runs in ``host`` when j = 0, and otherwise in
    ``stages[j-1].U`` from ``stages[j-1].w``.  ``mu_trace`` records the
    oracle's value of each stage's host set and of the last U (None where
    unavailable), so the halving recurrence can be audited.
    """

    __slots__ = ("q", "host", "stages", "mu_trace", "provenance")

    def __init__(self, q: int, host: frozenset[int], stages: tuple[SpecialSetResult, ...],
                 mu_trace: tuple[int | None, ...], provenance: str):
        _Record.__init__(self, q, host, stages, mu_trace, provenance)

    @property
    def steps(self) -> int:
        return len(self.stages)


def _maybe_mu(oracle: MuOracle, subset) -> int | None:
    try:
        return oracle.mu(subset)
    except OracleUnavailable:
        return None


def gadget_sequences(D: LabeledDigraph, x: int, q: int, oracle: MuOracle,
                     floor: int = CORE_FLOOR, *,
                     host: Iterable[int] | None = None) -> GadgetSequences:
    """Iterate the special-set stage 2q-3 times in D[host] (all of D when
    ``host`` is None), each stage continuing inside the previous stage's U
    from the previous stage's exit vertex.  ``special_set`` verifies every
    stage, halving included, and the chain links hold by construction."""
    _check_inputs(floor, q)
    host = _host_set(D, host)
    stages: list[SpecialSetResult] = []
    stage_host, anchor = host, x
    for i in range(2 * q - 3):
        try:
            res = special_set(D, anchor, q, oracle, floor, host=stage_host)
        except ConstructionFailed as exc:
            exc.step = i + 1
            raise
        stages.append(res)
        stage_host, anchor = res.U, res.w
    hosts = [host] + [res.U for res in stages]
    return GadgetSequences(q=q, host=host, stages=tuple(stages),
                           mu_trace=tuple(_maybe_mu(oracle, h) for h in hosts),
                           provenance=oracle.name)


def check_gadget_sequences(D: LabeledDigraph, x: int, q: int, gs: GadgetSequences,
                           floor: int = CORE_FLOOR, *,
                           host: Iterable[int] | None = None) -> list[str]:
    """Independent verifier for the gadget-sequence conditions: stage 1 runs
    in the whole host set (all of D when ``host`` is None) from x, each stage
    satisfies the special-set conditions inside the previous stage's U from
    its exit vertex, and the recorded mu values obey the halving recurrence."""
    host = _host_set(D, host)
    steps = 2 * q - 3
    if len(gs.stages) != steps or len(gs.mu_trace) != steps + 1:
        return [f"expected {steps} stages and {steps + 1} mu values, the stage records "
                f"hold {len(gs.stages)} and {len(gs.mu_trace)}"]
    problems: list[str] = []
    if gs.host != host:
        problems.append("stage 1 does not start from the whole host set")
    if not _strong_within(D, host):
        problems.append("stage 1: host set not strongly connected")
    stage_host, anchor = host, x
    for i, stage in enumerate(gs.stages):
        stage_problems = _check_stage(D, stage_host, anchor, q, stage)
        problems.extend(f"stage {i + 1}: {p}" for p in stage_problems)
        lo, hi = gs.mu_trace[i + 1], gs.mu_trace[i]
        if lo is not None and hi is not None and lo < hi / 2 - floor:
            problems.append(f"stage {i + 1}: mu halving recurrence violated "
                            f"({lo} < {hi}/2 - {floor})")
        stage_host, anchor = stage.U, stage.w
    return problems


class ResidueUniversalSet(_Record, eq=False):
    """A vertex set X such that, between any ordered pair of X-vertices, an
    X-path achieving any coprime congruence target can be assembled from an
    entry route (the in-tree path towards the start spliced with the entry
    path), the gadget stages, and the path down the exit out-tree.  ``D`` is
    the root digraph and ``host`` the vertex set the construction ran in.
    ``universal_threshold(q, n_target)`` is the mu a host needs for X to keep
    mu at least n_target; the construction itself runs best-effort on any host.

    Every answered query is re-verified from the raw digraph (simple, inside
    the host, endpoints in X, interior outside X, correct residue) before it
    is returned.
    """

    __slots__ = ("D", "host", "q", "X", "x0", "entry_path", "in_tree", "gadgets", "exit_tree",
                 "chosen", "side", "provenance", "flags")

    def __init__(self, D: LabeledDigraph, host: frozenset[int], q: int, X: frozenset[int],
                 x0: int, entry_path: DirectedPath, in_tree: BfsTree, gadgets: GadgetSequences,
                 exit_tree: BfsTree, chosen: tuple[int, ...], side: str, provenance: str,
                 flags: tuple[str, ...]):
        _Record.__init__(self, D, host, q, X, x0, entry_path, in_tree, gadgets, exit_tree, chosen,
                         side, provenance, flags)

    def assemble(self, u: int, v: int, k: int) -> list[int]:
        """Vertex sequence of the k-th candidate walk from u to v: candidate
        k routes through the first k-1 chosen gadget arcs, entering each of
        those gadget paths at its first vertex instead of its second."""
        if not 1 <= k <= self.q:
            raise ValueError(f"candidate index {k} out of 1..{self.q}")
        include = set(self.chosen[:k - 1])
        pieces = []
        for j, stage in enumerate(self.gadgets.stages):
            if j in include:
                pieces += [stage.witness_first.vertices, stage.path.vertices]
            else:
                pieces += [stage.witness_second.vertices, stage.path.vertices[1:]]
        return _x_walk("assembly", self.in_tree, self.entry_path, u, pieces, self.exit_tree, v)

    def _walk_counts(self, walk: list[int]) -> tuple[int, int]:
        return self.D.label_counts(zip(walk, walk[1:]))

    def query(self, u: int, v: int, a: int, b: int, target: int) -> DirectedPath:
        """An X-path from u to v with a*|z1 arcs| + b*|z2 arcs| == target
        (mod q), verified before return."""
        if u == v or u not in self.X or v not in self.X:
            raise ValueError("endpoints must be distinct vertices of X")
        _check_congruence(a, b, self.q)
        q = self.q
        c1, c2 = self._walk_counts(self.assemble(u, v, 1))
        need = (target - a * c1 - b * c2) % q
        coeff = a if self.side == "z1" else b
        delta = (pow(coeff, -1, q) * need) % q
        k = delta + 1
        walk = self.assemble(u, v, k)
        path = _checked_x_path("assembly", self, walk, f"candidate {k} for ({u}, {v})")
        got = path_residue(self.D, path, a, b, q)
        if got != target % q:
            raise ConstructionFailed("assembly", f"candidate residue {got} != {target % q}")
        return path


def residue_universal_set(D: LabeledDigraph, q: int, oracle: MuOracle,
                          floor: int = CORE_FLOOR, start: int | None = None, *,
                          host: Iterable[int] | None = None) -> ResidueUniversalSet:
    """Entry split, gadgets, exit split in D[host] (all of D when ``host`` is
    None), read from D without building the copies; then classify the gadget
    first-arcs and keep q-1 of them on the majority side of the symmetric
    difference.  ``start`` overrides the default entry-leveling starting
    vertex.  It runs best-effort on any host: ``universal_threshold(q,
    n_target)`` is the mu sufficient for X to keep mu at least n_target."""
    _check_inputs(floor, q)
    host = _host_set(D, host)
    flags: list[str] = []
    try:
        split1, entry = _enter(D, host, start, oracle, 1, flags)
    except ConstructionFailed as exc:
        raise ConstructionFailed("entry-split", "no levels beyond the start") from exc

    gadgets = gadget_sequences(D, entry.last, q, oracle, floor, host=split1.component)

    last = gadgets.stages[-1]
    try:
        split2 = level_split(D, last.w, OUT, oracle, min_level=1, host=last.U)
    except ConstructionFailed as exc:
        raise ConstructionFailed("exit-split", "no levels beyond the last anchor") from exc
    if not split2.verified:
        flags.append("unverified-exit-split")
    X = split2.component
    if len(X) < 2:
        raise ConstructionFailed("exit-split", "universal set needs at least two vertices")

    # special_set's self-check put every first arc in exactly one class
    z1_side = [j for j, st in enumerate(gadgets.stages) if st.path.vertices[:2] in D.z1]
    z2_side = [j for j in range(gadgets.steps) if j not in z1_side]
    side = "z1" if len(z1_side) >= q - 1 else "z2"
    chosen = tuple((z1_side if side == "z1" else z2_side)[:q - 1])
    assert len(chosen) == q - 1  # one side always holds q-1 of the 2q-3 arcs

    rus = ResidueUniversalSet(D, host, q, X, entry.first, entry, split1.tree, gadgets,
                              split2.tree, chosen, side, oracle.name, tuple(flags))
    problems = check_residue_universal_set(D, rus)
    if problems:
        raise ConstructionFailed("assembly", problems[0])
    return rus


def check_residue_universal_set(D: LabeledDigraph, rus: ResidueUniversalSet) -> list[str]:
    """Independent verifier: for both orders of the two smallest X vertices,
    the q candidate walks must be simple X-paths whose residues on the chosen
    side step through all q values while the other side stays constant.
    Candidates must stay inside ``rus.host``."""
    problems: list[str] = []
    if not _strong_within(D, rus.X):
        problems.append("D[X] is not strongly connected")
    xs = sorted(rus.X)
    if len(xs) < 2:
        return problems + ["X has fewer than two vertices"]
    q = rus.q
    for u, v in [(xs[0], xs[1]), (xs[1], xs[0])]:
        main: list[int] = []
        other: list[int] = []
        for k in range(1, q + 1):
            walk = rus.assemble(u, v, k)
            name = f"candidate {k} for ({u}, {v})"
            if walk[0] != u or walk[-1] != v:
                problems.append(f"{name} has wrong endpoints")
            faults = _x_path_faults(D, rus.host, rus.X, walk)
            problems.extend(f"{name} {fault}" for fault in faults)
            if "is not simple" in faults:
                continue
            k1, k2 = rus._walk_counts(walk)
            on, off = (k1, k2) if rus.side == "z1" else (k2, k1)
            main.append(on % q)
            other.append(off % q)
        if len(main) == q:
            if sorted(main) != list(range(q)):
                problems.append(f"({u}, {v}): chosen-side residues {main} do not cover 0..q-1")
            if len(set(other)) != 1:
                problems.append(f"({u}, {v}): other-side residues {other} are not constant")
    return problems


def extract_subdivision(D: LabeledDigraph, pattern: SubdivisionPattern,
                        oracle: MuOracle, floor: int = CORE_FLOOR,
                        start: int | None = None) -> SubdivisionWitness:
    """Induction on the pattern's arcs, as one loop down the peel order: a
    residue-universal set per arc, each inside the previous one's X, then
    branch vertices seated in the last X and the arcs routed by residue
    queries, innermost first; a failure's ``depth`` is its arc's index in
    that order (the arc count for the base).  The final witness is verified
    against the original digraph before it is returned.  ``floor`` must be
    at least 1 (ValueError otherwise).  ``start`` overrides the outermost
    entry-leveling starting vertex; it must be a vertex of D (ValueError
    otherwise), and one outside the strong component of D where the
    extraction starts falls back to the default.  That component is the one
    of largest oracle mu: components whose mu the oracle cannot give go
    last, and ties go to the one with the smallest vertex."""
    _check_inputs(floor)
    if start is not None and not D.has_vertex(start):
        raise ValueError(f"unknown start vertex {start}")

    def rank(comp: frozenset[int]) -> tuple[int, int]:
        value = _maybe_mu(oracle, comp)
        return (-(value if value is not None else -1), min(comp))

    # an arc-less pattern seats its branch vertices anywhere in D; otherwise
    # the peeling starts in the strong component of largest mu, and every
    # deeper host is an exit-split component, strongly connected already
    host = frozenset(D.vertices)
    comps = strong_components(D) if pattern.arcs else []
    if len(comps) > 1:
        host = min(comps, key=rank)
    order = _peel_order(pattern)
    sets, paths = [], {}
    try:
        for depth, f in enumerate(order):
            if not host:
                # only an empty D leaves the first stage no vertex, as a
                # one-vertex D leaves it no level beyond the start
                raise ConstructionFailed("entry-split", "an empty digraph has no start vertex")
            entry = start if not depth and start in host else None
            sets.append(residue_universal_set(D, f.q, oracle, floor, entry, host=host))
            host = sets[-1].X
        depth = len(order)
        if len(host) < pattern.num_vertices:
            raise ConstructionFailed("base", f"{len(host)} vertices cannot seat "
                                             f"{pattern.num_vertices} branch vertices")
        branch = tuple(sorted(host)[:pattern.num_vertices])
        for depth in reversed(range(len(order))):
            f = order[depth]
            paths[f.key] = sets[depth].query(branch[f.tail], branch[f.head], f.a, f.b, f.r)
    except ConstructionFailed as exc:
        exc.depth = depth
        raise
    witness = SubdivisionWitness(branch, paths)
    report = verify_witness(D, pattern, witness)
    if not report.ok:
        raise ConstructionFailed("verify", f"{report.failure}: {report.detail}")
    return witness
