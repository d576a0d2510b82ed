"""Subdivision patterns, witnesses, and the independent witness verifier.

A pattern is a digraph F whose every arc e carries a tuple (a, b, r, q) with
q >= 2 and a, b coprime to q.  A witness embeds a subdivision of F into a
labeled digraph D: an injective branch-vertex map plus one branching path
per pattern arc, the paths pairwise internally disjoint and internally
disjoint from all branch vertices, and each path P satisfying

    a * |A(P) & z1| + b * |A(P) & z2|  ==  r   (mod q).

Residues are normalized to 0..q-1 on construction (inputs using q itself as
the representative of zero are accepted and mapped).  Verification is
deliberately independent of every construction and search routine in this
package; it recounts everything from the raw digraph.
"""

from __future__ import annotations

import math
from typing import Iterable

from .digraph import DirectedPath, LabeledDigraph, _as_ids, _check_count, _checked_arcs, _Record


def _check_congruence(a: int, b: int, q: int) -> None:
    """Raise TypeError unless q, a and b are ints (by the count rule), and
    ValueError unless q >= 2 and a, b are coprime to q."""
    _check_count(q, "modulus", 2)
    _check_count(a, "a")
    _check_count(b, "b")
    if math.gcd(a, q) != 1 or math.gcd(b, q) != 1:
        raise ValueError("a and b must be coprime to the modulus")


def _sort_keyed(n: int, items: Iterable, noun: str) -> tuple:
    """A pattern's ``items`` as a tuple sorted by key; ValueError for a
    negative vertex count n, then by the arc rule ``_checked_arcs`` on the
    keys: at the first item, in order, whose key repeats an earlier one or
    has an end outside 0..n-1."""
    _check_count(n, "vertex count", 0)
    items = tuple(items)
    _checked_arcs(range(n), [e.key for e in items], noun)
    return tuple(sorted(items, key=lambda e: e.key))


class PatternArc(_Record):
    __slots__ = ("tail", "head", "a", "b", "r", "q")

    def __init__(self, tail: int, head: int, a: int, b: int, r: int, q: int):
        tail, head = _as_ids((tail, head))
        if tail == head:
            raise ValueError("pattern arcs may not be loops")
        _check_congruence(a, b, q)
        _check_count(r, "residue")
        _Record.__init__(self, tail, head, a % q, b % q, r % q, q)

    @property
    def key(self) -> tuple[int, int]:
        return (self.tail, self.head)


class SubdivisionPattern(_Record):
    """Pattern digraph on dense vertices 0..num_vertices-1 with per-arc
    congruence tuples.  No loops, no repeated (tail, head) pairs; digons
    (both orientations of a pair) are fine."""

    __slots__ = ("num_vertices", "arcs")

    def __init__(self, num_vertices: int, arcs: Iterable[PatternArc]):
        _Record.__init__(self, num_vertices, _sort_keyed(num_vertices, arcs, "pattern arc"))

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self.arcs if e.tail == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for e in self.arcs if e.head == v)


class SubdivisionWitness(_Record):
    """branch[p] is the digraph vertex standing for pattern vertex p, kept
    as a tuple; paths maps each pattern arc key to its branching path (a
    new empty dict by default)."""

    __slots__ = ("branch", "paths")

    def __init__(self, branch: Iterable[int],
                 paths: dict[tuple[int, int], DirectedPath] | None = None):
        _Record.__init__(self, tuple(branch), {} if paths is None else paths)


class VerificationReport(_Record):
    __slots__ = ("ok", "failure", "detail")

    def __init__(self, ok: bool, failure: str | None = None, detail: str = ""):
        _Record.__init__(self, ok, failure, detail)

    def __bool__(self) -> bool:
        return self.ok


def path_residue(D: LabeledDigraph, path: DirectedPath, a: int, b: int, q: int) -> int:
    c1, c2 = D.label_counts(path.arcs())
    return (a * c1 + b * c2) % q


def verify_witness(D: LabeledDigraph, pattern: SubdivisionPattern,
                   witness: SubdivisionWitness) -> VerificationReport:
    """Check a claimed subdivision witness clause by clause; the report names
    the first violated clause."""
    branch = witness.branch
    if len(branch) != pattern.num_vertices:
        return VerificationReport(False, "branch-map",
                                  f"expected {pattern.num_vertices} branch vertices, "
                                  f"got {len(branch)}")
    if len(set(branch)) != len(branch):
        return VerificationReport(False, "branch-map", "branch map is not injective")
    for v in branch:
        if not D.has_vertex(v):
            return VerificationReport(False, "branch-map", f"unknown digraph vertex {v}")

    keys = {e.key for e in pattern.arcs}
    if set(witness.paths) != keys:
        missing = sorted(keys - set(witness.paths))
        extra = sorted(set(witness.paths) - keys)
        return VerificationReport(False, "paths-complete",
                                  f"missing {missing}, unexpected {extra}")

    for e in pattern.arcs:
        p = witness.paths[e.key]
        if p.length < 1:
            return VerificationReport(False, f"path{e.key}", "branching path has no arcs")
        if not p.valid_in(D):
            return VerificationReport(False, f"path{e.key}", "not a directed path of the digraph")
        if p.first != branch[e.tail] or p.last != branch[e.head]:
            return VerificationReport(False, f"path{e.key}",
                                      f"endpoints {p.first}->{p.last} do not match "
                                      f"branch vertices {branch[e.tail]}->{branch[e.head]}")

    branch_set = set(branch)
    used: dict[int, tuple[int, int]] = {}
    for e in pattern.arcs:
        for v in witness.paths[e.key].interior:
            if v in branch_set:
                return VerificationReport(False, "disjointness",
                                          f"path {e.key} passes through branch vertex {v}")
            if v in used:
                return VerificationReport(False, "disjointness",
                                          f"paths {used[v]} and {e.key} share interior vertex {v}")
            used[v] = e.key

    for e in pattern.arcs:
        got = path_residue(D, witness.paths[e.key], e.a, e.b, e.q)
        if got != e.r:
            return VerificationReport(False, f"congruence{e.key}",
                                      f"residue {got} != required {e.r} (mod {e.q})")
    return VerificationReport(True)
