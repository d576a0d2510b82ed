"""Shared builders for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import strategies as st

import dichromate
import dichromate.digraph as digraph_module
from dichromate import (LabeledDigraph, PatternArc, SubdivisionPattern,
                        gen_bioriented_clique)

# the source tree under test, whose parent directory subprocesses get as
# PYTHONPATH: a run with PYTHONPATH=<other tree>/src tests that tree throughout
SRC = Path(dichromate.__file__).resolve().parent.parent

# the direct benchmark's pattern: transitive K4, every arc (1, 1, 1, 5)
K4_TRANSITIVE = SubdivisionPattern(4, tuple(
    PatternArc(i, j, 1, 1, 1, 5) for i in range(4) for j in range(i + 1, 4)))

# arcs with mixed (a, b, q); two share head 2 and q = 3 with different (a, b)
MIXED_RESIDUES = SubdivisionPattern(3, tuple(PatternArc(*a) for a in [
    (0, 1, 1, 1, 1, 2), (0, 2, 1, 2, 1, 3), (1, 2, 2, 1, 0, 3), (2, 0, 3, 4, 2, 5)]))


def replace(record, **changes):
    """A copy of ``record`` with ``changes``: its fields, read from
    ``__slots__``, rebuilt through its constructor, as ``dataclasses.replace``
    rebuilds a dataclass."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def digraph(n, arcs, z1=(), z2=()):
    return LabeledDigraph.on_range(n, arcs, z1, z2)


def record_path_builds(monkeypatch):
    """The vertex tuples, in call order, of every ``DirectedPath`` built
    while the patch holds: a kernel passes vertex tuples, and a record is
    built only where it is kept or returned."""
    built = []

    def init(self, vertices, _real=dichromate.DirectedPath.__init__):
        _real(self, vertices)
        built.append(self.vertices)

    monkeypatch.setattr(dichromate.DirectedPath, "__init__", init)
    return built


def record_strong_checks(monkeypatch):
    """The vertex sets, in call order, whose strong connectivity or strong
    components the bitset kernels of a dense digraph compute: every
    ``strong_components``, ``is_strongly_connected`` and ``bfs_tree`` call
    on a dense digraph, from whichever module it is made."""
    checked = []

    def strong(D, adj, inside, _real=digraph_module._strong):
        if adj is not None:
            checked.append(adj.members(inside))
        return _real(D, adj, inside)

    def components(adj, host, _real=digraph_module._mask_components):
        checked.append(adj.members(host))
        return _real(adj, host)

    monkeypatch.setattr(digraph_module, "_strong", strong)
    monkeypatch.setattr(digraph_module, "_mask_components", components)
    return checked


def directed_cycle_graph(n, z1_indices=(), z2_indices=()):
    """Directed n-cycle 0 -> 1 -> ... -> 0; class membership given by arc
    indices (arc i is (i, (i+1) % n))."""
    arcs = [(i, (i + 1) % n) for i in range(n)]
    return LabeledDigraph.on_range(n, arcs,
                                   z1=[arcs[i] for i in z1_indices],
                                   z2=[arcs[i] for i in z2_indices])


def bio_clique(n):
    return gen_bioriented_clique(n).digraph


def digon(z1=(), z2=()):
    return LabeledDigraph.on_range(2, [(0, 1), (1, 0)], z1, z2)


@st.composite
def labeled_digraphs(draw, max_n=6):
    """Digraphs on 0..n-1, n <= max_n; each ordered pair is absent, or an
    arc in z1 only, z2 only, both classes, or neither."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    kinds = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    arcs = [a for a, k in zip(pairs, kinds) if k]
    return digraph(n, arcs, z1=[a for a, k in zip(pairs, kinds) if k in (1, 3)],
                   z2=[a for a, k in zip(pairs, kinds) if k in (2, 3)])


@st.composite
def sparse_or_dense_digraphs(draw):
    """Digraphs on up to 24 scattered vertex identifiers (so ranks differ
    from identifiers); every ordered pair is an arc with one drawn
    probability, from a long-chain sparsity to near-complete.  Each arc is
    in z1 only, z2 only, both classes, or neither."""
    ids = sorted(draw(st.sets(st.integers(0, 300), max_size=24)))
    p = draw(st.sampled_from((0.03, 0.1, 0.3, 0.6, 0.95)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arcs = [(u, v) for u in ids for v in ids if u != v and rng.random() < p]
    kinds = [rng.randrange(4) for _ in arcs]
    return LabeledDigraph(ids, arcs, z1=[a for a, k in zip(arcs, kinds) if k in (1, 3)],
                          z2=[a for a, k in zip(arcs, kinds) if k in (2, 3)])
