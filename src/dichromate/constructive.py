"""The constructive extraction pipeline.

Starting from a digraph of large mu, the pipeline produces, in order:

* a directed cycle carrying at least two arcs that lie in exactly one of
  z1, z2 (``two_arc_cycle``);
* a "special set" stage: nested sets U inside Y, plus a path P into U whose
  first arc lies in the symmetric difference and whose first two vertices
  are reachable from an anchor by paths of known label residues
  (``special_set``);
* 2q-3 iterated special-set stages, the gadgets (``gadget_sequences``);
* a residue-universal set X: between any ordered pair of X-vertices and for
  any coprime target, an explicit X-path achieving the target residue
  (``residue_universal_set``);
* a full subdivision witness by induction on the pattern's arcs
  (``extract_subdivision``).

Each sufficiency threshold is exposed as a pure function, but the
constructions run best-effort on inputs of any size: the thresholds are
sufficient, not necessary.  No operation ever returns an unverified object;
each runs its own independent condition checker and raises
ConstructionFailed (naming the stage) rather than emitting a walk that
merely resembles the intended structure.

The only tunable is ``floor``: the mu level to which a residue class is
shrunk before extracting the two-arc cycle.  The certified value is 1536;
desk-scale runs on generated families use something like 14, the smallest
value for which the two-arc stage can succeed on fully z1-labeled
bioriented cliques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .balance import DirectedCycle, disjoint_unbalanced_cycles
from .decomposition import _x_path_faults, entry_splice, level_split, nested_connector_sequence
from .digraph import (IN, OUT, BfsTree, DirectedPath, LabeledDigraph, bfs_tree,
                      first_path_to_set, is_strongly_connected, strong_components, tree_path)
from .errors import ConstructionFailed, OracleUnavailable, PreconditionViolation
from .oracles import MuOracle
from .subdivision import SubdivisionPattern, SubdivisionWitness, verify_witness

TWO_ARC_MU_THRESHOLD = 1536
CORE_FLOOR = 1536


def special_set_threshold(q: int) -> int:
    """mu level sufficient for the special-set stage at modulus q."""
    return 3072 * q * q


def gadget_threshold(q: int) -> int:
    """mu level sufficient for the full 2q-3 gadget iteration."""
    return 1536 * 2 ** (2 * q - 3) * (q * q + 1) - 3072


def universal_threshold(q: int, n_target: int) -> int:
    """mu level sufficient for a residue-universal set whose retained set
    still has mu at least ``n_target``."""
    return 2 ** (2 * q - 2) * max(1536 * (q * q + 1), 2 * n_target + 3072) - 6144


def subdivision_threshold(pattern: SubdivisionPattern) -> int:
    """Recursive sufficiency threshold for extracting the full pattern."""
    if not pattern.arcs:
        return pattern.num_vertices
    f = sorted(pattern.arcs, key=lambda e: (-e.q, e.key))[0]
    inner = subdivision_threshold(pattern.without_arc(f.key))
    return universal_threshold(f.q, max(inner, 2))


def _delta_arcs(D: LabeledDigraph, arcs) -> list:
    return [a for a in arcs if (a in D.z1) != (a in D.z2)]


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
    e1 = _delta_arcs(D, c1.arcs())[0]
    e2 = _delta_arcs(D, c2.arcs())[0]
    p1 = seq.path(v1, e1[0], 1)
    p2 = seq.path(e1[1], v2, 2)
    p3 = seq.path(v2, e2[0], 3)
    p4 = seq.path(e2[1], v1, 4)
    ring = p1.vertices + p2.vertices + p3.vertices[1:] + p4.vertices[:-1]
    try:
        cycle = DirectedCycle.from_vertices(D, ring)
    except ValueError as exc:
        raise ConstructionFailed("splice", str(exc)) from exc
    if len(_delta_arcs(D, cycle.arcs())) < 2:
        raise ConstructionFailed("splice", "fewer than two arcs in exactly one class")
    return cycle


@dataclass(frozen=True)
class SpecialSetResult:
    """One special-set stage.  ``path`` runs inside D[Y], starts with an arc
    in exactly one of z1, z2, and meets U only at its last vertex ``w``; the
    witnesses are anchor-to-path routes whose z1/z2 counts are congruent to
    (r, s) mod q.  Residues are normalized to 0..q-1."""

    x: int
    q: int
    U: frozenset[int]
    Y: frozenset[int]
    w: int
    path: DirectedPath
    r: int
    s: int
    witness_first: DirectedPath
    witness_second: DirectedPath
    cycle: DirectedCycle
    y_class: frozenset[int]
    core: frozenset[int]
    provenance: str


def special_set(D: LabeledDigraph, x: int, q: int, oracle: MuOracle,
                floor: int = CORE_FLOOR, *,
                host: Iterable[int] | None = None) -> SpecialSetResult:
    """One stage of the gadget construction in D[host] (all of D when
    ``host`` is None), read from D without building the copies:
    BFS tree from x, level split, residue-class refinement, minimal core,
    two-arc cycle inside the core, then a cut of cycle-plus-exit-path whose
    first arc distinguishes the classes."""
    if q < 2:
        raise ValueError("modulus must be at least 2")
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if x not in host:
        raise ValueError(f"unknown vertex {x}")
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("special_set requires a strongly connected digraph")

    tree = bfs_tree(D, x, OUT, host=host)
    if len(tree.leveling.levels) < 2:
        raise ConstructionFailed("level-split", "no levels beyond the root")
    split = level_split(D, tree.leveling, oracle, min_level=1, host=host)
    Y = split.component

    tpaths = {v: tree_path(tree, v) for v in sorted(Y)}
    classes: dict[tuple[int, int], set[int]] = {}
    for v, p in tpaths.items():
        k1, k2 = D.label_counts(p.arcs())
        classes.setdefault((k1 % q, k2 % q), set()).add(v)
    best_key: tuple[int, int] | None = None
    best_val = -1
    for key in sorted(classes):
        val = oracle.mu(classes[key])
        if val > best_val:
            best_key, best_val = key, val
    assert best_key is not None
    r, s = best_key
    y_class = frozenset(classes[best_key])

    if not oracle.mu_at_least(y_class, floor):
        raise ConstructionFailed("core-floor",
                                 f"best residue class has mu below the floor {floor}")
    core = set(y_class)
    for v in sorted(y_class):
        trial = core - {v}
        if trial and oracle.mu_at_least(trial, floor):
            core = trial
    core_set = frozenset(core)

    cycle = two_arc_cycle(D, oracle, host=core_set)

    residual = Y - core_set
    if not residual:
        raise ConstructionFailed("residual", "nothing remains outside the core")
    target = oracle.mu(residual)
    U = set(residual)
    for v in sorted(residual):
        trial = U - {v}
        if trial and oracle.mu(trial) == target:
            U = trial
    U_set = frozenset(U)

    exit_path = first_path_to_set(D, set(cycle.vertices), U_set, avoid=set(D.vertices) - Y)
    assert exit_path is not None  # D[Y] is strongly connected
    z = exit_path.first
    e = next(a for a in _delta_arcs(D, cycle.arcs()) if a[0] != z)
    ring = cycle.vertices
    i0 = ring.index(e[0])
    seg = []
    for j in range(len(ring)):
        v = ring[(i0 + j) % len(ring)]
        seg.append(v)
        if v == z:
            break
    path = DirectedPath(tuple(seg) + exit_path.vertices[1:])

    result = SpecialSetResult(
        x=x, q=q, U=U_set, Y=Y, w=path.last, path=path, r=r, s=s,
        witness_first=tpaths[path.vertices[0]],
        witness_second=tpaths[path.vertices[1]],
        cycle=cycle, y_class=y_class, core=core_set, provenance=oracle.name,
    )
    problems = check_special_set(D, x, q, result, oracle, floor, host=host)
    if problems:
        raise ConstructionFailed("self-check", problems[0])
    return result


def _strong_within(D: LabeledDigraph, part: frozenset[int]) -> bool:
    """Whether ``part`` is a set of D's vertices inducing a strong subdigraph."""
    return (all(D.has_vertex(v) for v in part)
            and is_strongly_connected(D, host=part))


def _check_stage(D: LabeledDigraph, host: frozenset[int], anchor: int,
                 Y: frozenset[int], U: frozenset[int], w: int, path: DirectedPath,
                 witnesses: tuple[DirectedPath, DirectedPath], r: int, s: int,
                 q: int) -> list[str]:
    """Violations of one special-set stage run inside the vertex set ``host``
    from ``anchor``: U <= Y <= host minus the anchor, D[U] and D[Y] strongly
    connected, ``path`` inside D[Y] starting with an arc in exactly one class
    and meeting U only at its last vertex w, and anchor-to-path witnesses
    outside Y whose z1/z2 counts are congruent to (r, s) mod q."""
    problems: list[str] = []
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
    if set(path.vertices) & U != {w} or path.last != w:
        problems.append("path does not meet U exactly at its last vertex")
    if path.length < 1:
        problems.append("path has no arcs")
        return problems
    first_arc = path.vertices[:2]
    if (first_arc in D.z1) == (first_arc in D.z2):
        problems.append("first arc of the path is not in exactly one class")
    for v, wit in zip(path.vertices[:2], witnesses):
        if wit.first != anchor or wit.last != v:
            problems.append(f"witness for {v} does not run from the anchor to {v}")
            continue
        if not wit.valid_in(D):
            problems.append(f"witness for {v} is not a directed path of the digraph")
        if not set(wit.vertices) <= (host - Y) | {v}:
            problems.append(f"witness for {v} leaves the host set or re-enters Y")
        k1, k2 = D.label_counts(wit.arcs())
        if k1 % q != r or k2 % q != s:
            problems.append(f"witness for {v} has residues ({k1 % q}, {k2 % q}), "
                            f"expected ({r}, {s})")
    return problems


def check_special_set(D: LabeledDigraph, x: int, q: int, res: SpecialSetResult,
                      oracle: MuOracle | None = None,
                      floor: int = CORE_FLOOR, *,
                      host: Iterable[int] | None = None) -> list[str]:
    """Independent verifier for the special-set conditions in D[host] (all of
    D when ``host`` is None); returns the list of violations (empty when
    everything holds).  The mu inequality is only checked when an oracle is
    supplied."""
    host = frozenset(D.vertices) if host is None else frozenset(host)
    problems = _check_stage(D, host, x, res.Y, res.U, res.w, res.path,
                            (res.witness_first, res.witness_second), res.r, res.s, q)
    if oracle is not None:
        try:
            if oracle.mu(res.U) < oracle.mu(host) / 2 - floor:
                problems.append("mu(D[U]) fell below mu(D)/2 minus the floor")
        except OracleUnavailable:
            pass
    return problems


@dataclass(frozen=True)
class GadgetSequences:
    """2q-3 iterated special-set stages.

    Index j (0-based) is stage j+1: ``x_sets[j]`` is the stage's host set,
    ``anchors[j]`` its anchor, and ``paths[j]`` the gadget path whose first
    arc lies in exactly one class.  ``witnesses[j]`` holds the two
    anchor-to-path routes backing the residue pair (r[j], s[j]); ``mu_trace``
    records the oracle's value of each host set (None where unavailable) so
    the halving recurrence can be audited.
    """

    q: int
    x_sets: tuple[frozenset[int], ...]
    y_sets: tuple[frozenset[int], ...]
    anchors: tuple[int, ...]
    paths: tuple[DirectedPath, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    witnesses: tuple[tuple[DirectedPath, DirectedPath], ...]
    mu_trace: tuple[int | None, ...]
    provenance: str

    @property
    def steps(self) -> int:
        return len(self.paths)


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
    from the previous stage's exit vertex."""
    if q < 2:
        raise ValueError("modulus must be at least 2")
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if x not in host:
        raise ValueError(f"unknown vertex {x}")
    steps = 2 * q - 3
    x_sets = [host]
    anchors = [x]
    y_sets: list[frozenset[int]] = []
    paths: list[DirectedPath] = []
    rs: list[int] = []
    ss: list[int] = []
    witnesses: list[tuple[DirectedPath, DirectedPath]] = []
    for i in range(steps):
        try:
            res = special_set(D, anchors[i], q, oracle, floor, host=x_sets[i])
        except ConstructionFailed as exc:
            raise ConstructionFailed(exc.stage, str(exc), step=i + 1) from exc
        y_sets.append(res.Y)
        x_sets.append(res.U)
        anchors.append(res.w)
        paths.append(res.path)
        rs.append(res.r)
        ss.append(res.s)
        witnesses.append((res.witness_first, res.witness_second))
    gs = GadgetSequences(q=q, x_sets=tuple(x_sets), y_sets=tuple(y_sets),
                         anchors=tuple(anchors), paths=tuple(paths),
                         r=tuple(rs), s=tuple(ss), witnesses=tuple(witnesses),
                         mu_trace=tuple(_maybe_mu(oracle, xs) for xs in x_sets),
                         provenance=oracle.name)
    problems = check_gadget_sequences(D, x, q, gs, floor, host=host)
    if problems:
        raise ConstructionFailed("self-check", problems[0])
    return gs


def check_gadget_sequences(D: LabeledDigraph, x: int, q: int, gs: GadgetSequences,
                           floor: int = CORE_FLOOR, *,
                           host: Iterable[int] | None = None) -> list[str]:
    """Independent verifier for the gadget-sequence conditions: stage 1 runs
    in the whole host set (all of D when ``host`` is None) from x, each stage
    satisfies the special-set conditions inside the previous stage's U from
    its exit vertex, and the recorded mu values obey the halving recurrence."""
    host = frozenset(D.vertices) if host is None else frozenset(host)
    steps = 2 * q - 3
    counts = {len(gs.paths), len(gs.y_sets), len(gs.r), len(gs.s), len(gs.witnesses),
              len(gs.x_sets) - 1, len(gs.anchors) - 1, len(gs.mu_trace) - 1}
    if counts != {steps}:
        return [f"expected {steps} stages, the stage records hold {sorted(counts)}"]
    if any(len(pair) != 2 for pair in gs.witnesses):
        return ["every stage needs two witnesses"]
    problems: list[str] = []
    if gs.x_sets[0] != host or gs.anchors[0] != x:
        problems.append("stage 1 does not start from the whole digraph and its anchor")
    if not _strong_within(D, gs.x_sets[0]):
        problems.append("stage 1: host set not strongly connected")
    for i in range(steps):
        stage = _check_stage(D, gs.x_sets[i], gs.anchors[i], gs.y_sets[i], gs.x_sets[i + 1],
                             gs.anchors[i + 1], gs.paths[i], gs.witnesses[i], gs.r[i],
                             gs.s[i], q)
        problems.extend(f"stage {i + 1}: {p}" for p in stage)
        lo, hi = gs.mu_trace[i + 1], gs.mu_trace[i]
        if lo is not None and hi is not None and lo < hi / 2 - floor:
            problems.append(f"stage {i + 1}: mu halving recurrence violated "
                            f"({lo} < {hi}/2 - {floor})")
    return problems


class ResidueUniversalSet:
    """A vertex set X such that, between any ordered pair of X-vertices, an
    X-path achieving any coprime congruence target can be assembled from an
    entry route (the in-tree path towards the start spliced with the entry
    path), the gadget stages, and the path down the exit out-tree.  ``D`` is
    the root digraph and ``host`` the vertex set the construction ran in.

    Every answered query is re-verified from the raw digraph (simple, inside
    the host, endpoints in X, interior outside X, correct residue) before it
    is returned.
    """

    def __init__(self, D: LabeledDigraph, host: frozenset[int], q: int, n_target: int,
                 X: frozenset[int], x0: int, entry_path: DirectedPath, in_tree: BfsTree,
                 x_star: frozenset[int], gadgets: GadgetSequences,
                 exit_tree: BfsTree, chosen: tuple[int, ...], side: str,
                 mu_of_x: int | None, provenance: str, flags: tuple[str, ...]):
        self.D = D
        self.host = host
        self.q = q
        self.n_target = n_target
        self.X = X
        self.x0 = x0
        self.entry_path = entry_path
        self.in_tree = in_tree
        self.x_star = x_star
        self.gadgets = gadgets
        self.exit_tree = exit_tree
        self.chosen = chosen
        self.side = side
        self.mu_of_x = mu_of_x
        self.provenance = provenance
        self.flags = flags

    @property
    def x_entry(self) -> int:
        return self.gadgets.anchors[0]

    @property
    def x_exit(self) -> int:
        return self.gadgets.anchors[-1]

    def assemble(self, u: int, v: int, k: int) -> list[int]:
        """Vertex sequence of the k-th candidate walk from u to v: candidate
        k routes through the first k-1 chosen gadget arcs, entering each of
        those gadget paths at its first vertex instead of its second."""
        if not 1 <= k <= self.q:
            raise ValueError(f"candidate index {k} out of 1..{self.q}")
        include = set(self.chosen[:k - 1])
        entry = entry_splice(self.in_tree, self.entry_path, u)
        if entry is None:
            raise ConstructionFailed("assembly", f"no entry route from {u}")
        walk = list(entry.vertices)
        for j in range(self.gadgets.steps):
            first_wit, second_wit = self.gadgets.witnesses[j]
            if j in include:
                pieces = (first_wit.vertices, self.gadgets.paths[j].vertices)
            else:
                pieces = (second_wit.vertices, self.gadgets.paths[j].vertices[1:])
            for piece in pieces:
                assert piece[0] == walk[-1]
                walk.extend(piece[1:])
        exitp = tree_path(self.exit_tree, v).vertices
        assert exitp[0] == walk[-1]
        walk.extend(exitp[1:])
        return walk

    def _walk_counts(self, walk: list[int]) -> tuple[int, int]:
        return self.D.label_counts(zip(walk, walk[1:]))

    def query(self, u: int, v: int, a: int, b: int, target: int) -> DirectedPath:
        """An X-path from u to v with a*|z1 arcs| + b*|z2 arcs| == target
        (mod q), verified before return."""
        import math
        if u == v or u not in self.X or v not in self.X:
            raise ValueError("endpoints must be distinct vertices of X")
        if math.gcd(a, self.q) != 1 or math.gcd(b, self.q) != 1:
            raise ValueError("a and b must be coprime to the modulus")
        q = self.q
        c1, c2 = self._walk_counts(self.assemble(u, v, 1))
        need = (target - a * c1 - b * c2) % q
        coeff = a if self.side == "z1" else b
        delta = (pow(coeff, -1, q) * need) % q
        k = delta + 1
        walk = self.assemble(u, v, k)
        faults = _x_path_faults(self.D, self.host, self.X, walk)
        if faults:
            raise ConstructionFailed("assembly", {
                "simple": f"candidate {k} for ({u}, {v}) is not a simple path",
                "digraph": "candidate leaves the digraph",
                "X": "candidate re-enters X"}[faults[0]])
        path = DirectedPath(tuple(walk))
        g1, g2 = self.D.label_counts(path.arcs())
        if (a * g1 + b * g2) % q != target % q:
            raise ConstructionFailed("assembly",
                                     f"candidate residue {(a * g1 + b * g2) % q} != {target % q}")
        return path


def residue_universal_set(D: LabeledDigraph, q: int, n_target: int, oracle: MuOracle,
                          floor: int = CORE_FLOOR, start: int | None = None, *,
                          host: Iterable[int] | None = None) -> ResidueUniversalSet:
    """Entry split, gadgets, exit split in D[host] (all of D when ``host`` is
    None), read from D without building the copies; then classify the gadget
    first-arcs and keep q-1 of them on the majority side of the symmetric
    difference.  ``start`` overrides the default entry-leveling starting
    vertex."""
    if q < 2:
        raise ValueError("modulus must be at least 2")
    host = frozenset(D.vertices) if host is None else frozenset(host)
    if not is_strongly_connected(D, host=host):
        raise PreconditionViolation("residue_universal_set requires a strongly "
                                    "connected digraph")
    flags: list[str] = []
    x0 = min(host) if start is None else start
    if x0 not in host:
        raise ValueError(f"unknown start vertex {x0}")
    in_tree = bfs_tree(D, x0, IN, host=host)
    if len(in_tree.leveling.levels) < 2:
        raise ConstructionFailed("entry-split", "no levels beyond the start")
    split1 = level_split(D, in_tree.leveling, oracle, min_level=1, host=host)
    if not split1.verified:
        flags.append("unverified-entry-split")
    x_star = split1.component
    entry = first_path_to_set(D, [x0], x_star, avoid=set(D.vertices) - host)
    assert entry is not None
    x1 = entry.last

    gadgets = gadget_sequences(D, x1, q, oracle, floor, host=x_star)

    exit_host = gadgets.x_sets[-1]
    exit_tree = bfs_tree(D, gadgets.anchors[-1], OUT, host=exit_host)
    if len(exit_tree.leveling.levels) < 2:
        raise ConstructionFailed("exit-split", "no levels beyond the last anchor")
    split2 = level_split(D, exit_tree.leveling, oracle, min_level=1, host=exit_host)
    if not split2.verified:
        flags.append("unverified-exit-split")
    X = split2.component
    if len(X) < 2:
        raise ConstructionFailed("exit-split", "universal set needs at least two vertices")

    # the gadgets' self-check put every first arc in exactly one class
    z1_side = [j for j, p in enumerate(gadgets.paths) if p.vertices[:2] in D.z1]
    z2_side = [j for j in range(gadgets.steps) if j not in z1_side]
    side = "z1" if len(z1_side) >= q - 1 else "z2"
    chosen = tuple((z1_side if side == "z1" else z2_side)[:q - 1])
    assert len(chosen) == q - 1  # one side always holds q-1 of the 2q-3 arcs

    rus = ResidueUniversalSet(D, host, q, n_target, X, x0, entry, in_tree, x_star,
                              gadgets, exit_tree, chosen, side,
                              split2.mu_of_component, oracle.name, tuple(flags))
    problems = check_residue_universal_set(D, rus)
    if problems:
        raise ConstructionFailed("assembly", problems[0])
    return rus


def check_residue_universal_set(D: LabeledDigraph, rus: ResidueUniversalSet,
                                pairs=None) -> list[str]:
    """Independent verifier: for sample ordered pairs, the q candidate walks
    must be simple X-paths whose residues on the chosen side step through all
    q values while the other side stays constant.  Candidates must stay
    inside ``rus.host``."""
    problems: list[str] = []
    if not _strong_within(D, rus.X):
        problems.append("D[X] is not strongly connected")
    if pairs is None:
        xs = sorted(rus.X)
        if len(xs) < 2:
            return problems + ["X has fewer than two vertices"]
        pairs = [(xs[0], xs[1]), (xs[1], xs[0])]
    q = rus.q
    for u, v in pairs:
        main: list[int] = []
        other: list[int] = []
        for k in range(1, q + 1):
            walk = rus.assemble(u, v, k)
            faults = _x_path_faults(D, rus.host, rus.X, walk)
            if "simple" in faults:
                problems.append(f"candidate {k} for ({u}, {v}) is not simple")
                continue
            path = DirectedPath(tuple(walk))
            if "digraph" in faults:
                problems.append(f"candidate {k} for ({u}, {v}) leaves the digraph")
            if path.first != u or path.last != v:
                problems.append(f"candidate {k} for ({u}, {v}) has wrong endpoints")
            if "X" in faults:
                problems.append(f"candidate {k} for ({u}, {v}) re-enters X")
            k1, k2 = D.label_counts(path.arcs())
            if rus.side == "z1":
                main.append(k1 % q)
                other.append(k2 % q)
            else:
                main.append(k2 % q)
                other.append(k1 % q)
        if len(main) == q:
            if sorted(main) != list(range(q)):
                problems.append(f"({u}, {v}): chosen-side residues {main} do not cover 0..q-1")
            if len(set(other)) != 1:
                problems.append(f"({u}, {v}): other-side residues {other} are not constant")
    return problems


def extract_subdivision(D: LabeledDigraph, pattern: SubdivisionPattern,
                        oracle: MuOracle, floor: int = CORE_FLOOR,
                        start: int | None = None) -> SubdivisionWitness:
    """Induction on the pattern's arcs: peel the arc with the largest
    modulus, build a residue-universal set, recurse inside it, then route
    the peeled arc with a residue query.  The final witness is verified
    against the original digraph before it is returned.  ``start`` overrides
    the outermost entry-leveling starting vertex."""

    def biggest_component(host: frozenset[int]) -> frozenset[int]:
        comps = strong_components(D, host=host)
        if len(comps) <= 1:
            return host
        best = None
        for comp in comps:
            value = _maybe_mu(oracle, comp)
            key = (-(value if value is not None else -1), min(comp))
            if best is None or key < best[0]:
                best = (key, comp)
        return best[1]

    def rec(host: frozenset[int], pat: SubdivisionPattern, depth: int) -> SubdivisionWitness:
        if not pat.arcs:
            k = pat.num_vertices
            if len(host) < k:
                raise ConstructionFailed("base", f"{len(host)} vertices cannot seat {k} "
                                                 "branch vertices", depth=depth)
            return SubdivisionWitness(tuple(sorted(host)[:k]), {})
        f = sorted(pat.arcs, key=lambda e: (-e.q, e.key))[0]
        rest = pat.without_arc(f.key)
        target = max(subdivision_threshold(rest), 2)
        host = biggest_component(host)
        entry = None
        if depth == 0 and start is not None and start in host:
            entry = start
        try:
            rus = residue_universal_set(D, f.q, target, oracle, floor, entry, host=host)
        except ConstructionFailed as exc:
            raise ConstructionFailed(exc.stage, str(exc), depth=depth) from exc
        inner = rec(rus.X, rest, depth + 1)
        u = inner.branch[f.tail]
        v = inner.branch[f.head]
        try:
            route = rus.query(u, v, f.a, f.b, f.r)
        except ConstructionFailed as exc:
            raise ConstructionFailed(exc.stage, str(exc), depth=depth) from exc
        paths = dict(inner.paths)
        paths[f.key] = route
        return SubdivisionWitness(inner.branch, paths)

    witness = rec(frozenset(D.vertices), pattern, 0)
    report = verify_witness(D, pattern, witness)
    if not report.ok:
        raise ConstructionFailed("verify", f"{report.failure}: {report.detail}")
    return witness
