"""Pluggable evaluators of mu over induced subsets of one root digraph.

The decomposition and extraction pipelines interrogate mu only through this
interface, so the exponential exact solver can be swapped for a closed-form
evaluator on generated families, or for a caller-provided hint table.  Every
result that depends on an oracle records which one answered, so best-effort
outputs cannot be mistaken for certified ones.

Oracles are safe for concurrent queries: the exact oracle's one cache is
only ever extended with certificates that are functions of the key (the
exact solver is deterministic), one entry per key.  It answers every query
from them, a key solved before by its own certificate.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .digraph import LabeledDigraph, _check_count
from .errors import MuBoundExceeded, OracleUnavailable
from .mu import mu_exact


class MuOracle:
    """Answers mu(D[S]) for vertex subsets S of one fixed digraph D.

    Every answer lies in [min(1, |S|), |S|]: a nonempty set needs a part,
    and singleton parts are balanced.  ``special_set`` relies on the upper
    bound to refuse, without a query, a set smaller than the value it must
    reach.  ``HintMuOracle`` returns its table as given; the command line
    rejects a hints file that breaks the contract.

    A query's subset may be the caller's working set, which changes after
    the call returns (the special-set stage's minimal-core loop passes its
    own), so an oracle that keeps a subset must copy it; the exact and hint
    oracles key by a ``frozenset`` of it."""

    name = "abstract"

    def mu(self, subset: Iterable[int]) -> int:
        raise NotImplementedError

    def mu_at_least(self, subset: Iterable[int], bound: int) -> bool:
        """Threshold query on an int ``bound`` (TypeError for any other,
        as for every count); subclasses may answer cheaper than ``mu``.  A
        query with ``bound <= 0`` still checks its subset."""
        _check_count(bound, "bound")
        return self.mu(subset) >= bound


class ExactMuOracle(MuOracle):
    """Backed by the exact solver, with one cache: the certificates its
    solves returned, each solved key's partition blocks and its digon
    cliques of two or more vertices.  They bound a query before it solves
    (``_bounds``).  A solved key answers itself: its certificate is that of
    a solved subset and of a solved superset whose blocks partition it, so
    both bounds equal its block count, its value.  Both query kinds share
    one solve path.  A query the bounds settle needs no solver; otherwise
    one solver call, limited to the threshold minus one for a threshold
    query, and one cache write.  That limit steps over whole values, so a
    threshold must be an int (TypeError).  A threshold query that comes out
    true stops the solver at its limit, before any search when a component's
    digon clique already exceeds it, and caches nothing.  The scan reads a
    snapshot of the certificates, so concurrent queries stay safe."""

    name = "exact"

    def __init__(self, D: LabeledDigraph):
        self._D = D
        self._vset = set(D.vertices)
        # solved key -> (its partition's blocks, largest first; its digon
        # cliques of two or more vertices)
        self._certificates: dict[frozenset[int], tuple[tuple[frozenset[int], ...],
                                                        tuple[frozenset[int], ...]]] = {}

    def _key(self, subset: Iterable[int]) -> frozenset[int]:
        key = frozenset(subset)
        if not key <= self._vset:
            raise ValueError("subset outside the oracle's digraph")
        return key

    def _bounds(self, key: frozenset[int]) -> tuple[int, int]:
        """(lo, hi) with lo <= mu(D[key]) <= hi, from the cached
        certificates alone.  From below: 1 when ``key`` is nonempty, the
        block count of a solved subset (mu is monotone under induced
        subsets), and |C & key| for a cached clique C (no two of its
        vertices share a part).  From above: |key|, and the number of a
        solved superset's blocks that meet ``key`` (a balanced block stays
        balanced on an induced subset)."""
        lo, hi = min(1, len(key)), len(key)
        # a snapshot: other threads may insert while this one scans
        for other, (blocks, cliques) in list(self._certificates.items()):
            if len(blocks) > lo and other <= key:
                lo = len(blocks)
            for clique in cliques:
                if len(clique) > lo:
                    lo = max(lo, len(clique & key))
            if other >= key:
                # each block that meets key holds its share of key in one
                # part, |key & block| - 1 parts fewer than singletons; the
                # blocks are kept largest first, so the scan stops at the
                # first singleton
                merged = 0
                for block in blocks:
                    if len(block) < 2:
                        break
                    merged += max(0, len(block & key) - 1)
                hi = min(hi, len(key) - merged)
        return lo, hi

    def mu(self, subset: Iterable[int]) -> int:
        return self._answer(subset, None)

    def mu_at_least(self, subset: Iterable[int], bound: int) -> bool:
        _check_count(bound, "bound")
        return self._answer(subset, bound) >= bound

    def _answer(self, subset: Iterable[int], bound: int | None) -> int:
        """mu(D[subset]) for a value query (``bound`` None); for a threshold
        query, a number on the same side of ``bound`` as mu(D[subset])."""
        key = self._key(subset)
        lo, hi = self._bounds(key)
        if lo == hi or bound is not None and (lo >= bound or hi < bound):
            return lo
        try:
            result = mu_exact(self._D, None if bound is None else bound - 1, host=key)
        except MuBoundExceeded:
            return bound
        blocks = sorted(result.certificate.blocks, key=len, reverse=True)
        cliques = [frozenset(t.clique) for t in result.lower_bound_trace if len(t.clique) > 1]
        self._certificates[key] = (tuple(blocks), tuple(cliques))
        return result.value


class BiorientedCliqueOracle(MuOracle):
    """Closed form for one-sided-labeled bioriented cliques: mu(D[S]) = |S|.

    With every arc in exactly one class, any two same-part vertices induce a
    digon of weight +/-2, forcing singleton parts, and singletons are
    balanced; the same argument applies to every induced subset.  The
    constructor verifies the family shape rather than trusting a tag.
    """

    name = "bioriented-clique"

    def __init__(self, D: LabeledDigraph):
        n = D.n
        arcs = len(D.arcs)
        # z1 and z2 are subsets of the arcs, so a class is all of them
        # exactly when it is as large
        one_sided = (len(D.z1) == arcs and not D.z2) or (len(D.z2) == arcs and not D.z1)
        if arcs != n * (n - 1) or not one_sided:
            raise ValueError("not a one-sided-labeled bioriented clique")
        self._vset = set(D.vertices)

    def mu(self, subset: Iterable[int]) -> int:
        s = subset if isinstance(subset, (set, frozenset)) else set(subset)
        if not s <= self._vset:
            raise ValueError("subset outside the oracle's digraph")
        return len(s)


class HintMuOracle(MuOracle):
    """Caller-provided table of subset values, each an int (TypeError);
    missing keys raise OracleUnavailable so callers can degrade to
    best-effort mode."""

    name = "hints"

    def __init__(self, table: Mapping[Iterable[int], int]):
        for v in table.values():
            _check_count(v, "hint")
        self._table = {frozenset(k): v for k, v in table.items()}

    def mu(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        if key not in self._table:
            raise OracleUnavailable(key, self.name)
        return self._table[key]
