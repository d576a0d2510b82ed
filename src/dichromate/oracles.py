"""Pluggable evaluators of mu over induced subsets of one root digraph.

The decomposition and extraction pipelines interrogate mu only through this
interface, so the exponential exact solver can be swapped for a closed-form
evaluator on generated families, or for a caller-provided hint table.  Every
result that depends on an oracle records which one answered, so best-effort
outputs cannot be mistaken for certified ones.

Oracles are safe for concurrent queries: caches are only ever extended with
values that are functions of the key.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .digraph import LabeledDigraph
from .errors import MuBoundExceeded, OracleUnavailable
from .mu import mu_exact


class MuOracle:
    """Answers mu(D[S]) for vertex subsets S of one fixed digraph D."""

    name = "abstract"

    def mu(self, subset: Iterable[int]) -> int:
        raise NotImplementedError

    def mu_at_least(self, subset: Iterable[int], bound: int) -> bool:
        """Threshold query; subclasses may answer cheaper than ``mu``."""
        if bound <= 0:
            return True
        return self.mu(subset) >= bound


class ExactMuOracle(MuOracle):
    """Backed by the exact solver, with value and lower-bound caches."""

    name = "exact"

    def __init__(self, D: LabeledDigraph):
        self._D = D
        self._vset = set(D.vertices)
        self._values: dict[frozenset[int], int] = {}
        self._lower: dict[frozenset[int], int] = {}

    def _key(self, subset: Iterable[int]) -> frozenset[int]:
        key = frozenset(subset)
        if not key <= self._vset:
            raise ValueError("subset outside the oracle's digraph")
        return key

    def mu(self, subset: Iterable[int]) -> int:
        key = self._key(subset)
        if key not in self._values:
            self._values[key] = mu_exact(self._D, host=key).value
        return self._values[key]

    def mu_at_least(self, subset: Iterable[int], bound: int) -> bool:
        if bound <= 0:
            return True
        key = self._key(subset)
        if key in self._values:
            return self._values[key] >= bound
        if self._lower.get(key, 0) >= bound:
            return True
        try:
            value = mu_exact(self._D, bound - 1, host=key).value
        except MuBoundExceeded:
            self._lower[key] = max(self._lower.get(key, 0), bound)
            return True
        self._values[key] = value
        return value >= bound


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
        all_arcs = frozenset(D.arcs)
        one_sided = (D.z1 == all_arcs and not D.z2) or (D.z2 == all_arcs and not D.z1)
        if len(D.arcs) != n * (n - 1) or not one_sided:
            raise ValueError("not a one-sided-labeled bioriented clique")
        self._vset = set(D.vertices)

    def mu(self, subset: Iterable[int]) -> int:
        s = set(subset)
        if not s <= self._vset:
            raise ValueError("subset outside the oracle's digraph")
        return len(s)


class HintMuOracle(MuOracle):
    """Caller-provided table of subset values; missing keys raise
    OracleUnavailable so callers can degrade to best-effort mode."""

    name = "hints"

    def __init__(self, table: Mapping[Iterable[int], int]):
        self._table = {frozenset(k): int(v) for k, v in table.items()}

    def mu(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        if key not in self._table:
            raise OracleUnavailable(key, self.name)
        return self._table[key]
