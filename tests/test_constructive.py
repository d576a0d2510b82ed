import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dichromate
import dichromate.constructive as constructive
import dichromate.digraph as digraph_module
import dichromate.oracles as oracles_module
from bruteforce import (minimal_one_at_a_time, mu_brute, subdivision_threshold_reference,
                        without_arc)
from conftest import (bio_clique, digon, digraph, directed_cycle_graph, labeled_digraphs,
                      record_path_builds, record_strong_checks, replace, sparse_or_dense_digraphs)
from dichromate import (OUT, BiorientedCliqueOracle, ConstructionFailed,
                        DirectedPath, ExactMuOracle, HintMuOracle,
                        LabeledDigraph, MuOracle, PatternArc, PreconditionViolation,
                        SubdivisionPattern, bfs_tree, check_gadget_sequences,
                        check_residue_universal_set, check_special_set,
                        connector_set, disjoint_unbalanced_cycles,
                        extract_subdivision, gen_random,
                        gadget_sequences, gadget_threshold, level_split,
                        residue_universal_set, special_set,
                        special_set_threshold, strong_components, subdivision_threshold,
                        tree_path, two_arc_cycle, universal_threshold, verify_witness)

FLOOR = 14  # smallest core floor for which the two-arc stage succeeds on cliques


def test_threshold_spot_values():
    assert special_set_threshold(2) == 12288
    assert universal_threshold(2, 2) == 24576
    assert gadget_threshold(2) == 1536 * 2 * 5 - 3072
    assert universal_threshold(2, 2) == 4 * max(7680, 3076) - 6144


@pytest.mark.parametrize("threshold", [special_set_threshold, gadget_threshold,
                                       lambda q: universal_threshold(q, 5)])
@pytest.mark.parametrize("q", [1, 0, -3])
def test_thresholds_reject_a_modulus_below_2(threshold, q):
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        threshold(q)


def test_subdivision_threshold_recursion():
    empty = SubdivisionPattern(3, ())
    assert subdivision_threshold(empty) == 3
    one = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    assert subdivision_threshold(one) == universal_threshold(2, 2)
    two = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                 PatternArc(1, 2, 1, 1, 1, 3)))
    # largest modulus is peeled first
    assert subdivision_threshold(two) == universal_threshold(
        3, max(universal_threshold(2, 2), 2))


@st.composite
def peel_patterns(draw):
    """Patterns on up to 5 vertices with up to 6 arcs, moduli 2..6, so that
    equal moduli are common and the tie by arc key is exercised."""
    n = draw(st.integers(0, 5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    return SubdivisionPattern(n, tuple(PatternArc(u, v, 1, 1, 0, draw(st.integers(2, 6)))
                                       for u, v in keys))


@given(peel_patterns())
@settings(max_examples=60, deadline=None)
def test_subdivision_threshold_matches_the_recursive_reference(pattern):
    assert subdivision_threshold(pattern) == subdivision_threshold_reference(pattern)


def test_subdivision_threshold_of_a_path_pattern_past_the_recursion_limit():
    arcs = 1099
    assert arcs > sys.getrecursionlimit()
    pattern = SubdivisionPattern(arcs + 1, tuple(PatternArc(i, i + 1, 1, 1, 0, 2)
                                                 for i in range(arcs)))
    value = subdivision_threshold(pattern)
    assert len(str(value)) == 996
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3 * arcs)
    try:
        assert value == subdivision_threshold_reference(pattern)
    finally:
        sys.setrecursionlimit(limit)


def test_two_arc_cycle_on_clique():
    D = bio_clique(16)
    cyc = two_arc_cycle(D, BiorientedCliqueOracle(D))
    delta = [a for a in cyc.arcs() if ((a in D.z1) != (a in D.z2))]
    assert len(delta) >= 2
    assert all(D.has_arc(u, v) for u, v in cyc.arcs())


def test_two_arc_cycle_balanced_fails():
    D = directed_cycle_graph(6, z1_indices=[0, 2], z2_indices=[1, 3])
    with pytest.raises(ConstructionFailed):
        two_arc_cycle(D, ExactMuOracle(D))


def test_two_arc_cycle_single_digon_fails():
    D = digon(z1=[(0, 1)])
    with pytest.raises(ConstructionFailed):
        two_arc_cycle(D, ExactMuOracle(D))


def test_special_set_on_clique_passes_checker():
    D = bio_clique(24)
    oracle = BiorientedCliqueOracle(D)
    res = special_set(D, 0, 2, oracle, floor=FLOOR)
    assert not check_special_set(D, 0, 2, res, oracle=oracle, floor=FLOOR)
    assert res.U <= res.Y <= set(D.vertices) - {0}
    assert res.path.last == res.w
    first_arc = (res.path.vertices[0], res.path.vertices[1])
    assert (first_arc in D.z1) != (first_arc in D.z2)


def test_special_set_unknown_anchor():
    D = bio_clique(20)
    with pytest.raises(ValueError):
        special_set(D, 99, 2, BiorientedCliqueOracle(D), floor=FLOOR)


def test_special_set_balanced_input_fails():
    D = directed_cycle_graph(8, z1_indices=[0, 2], z2_indices=[4, 6])
    with pytest.raises(ConstructionFailed):
        special_set(D, 0, 2, ExactMuOracle(D), floor=FLOOR)


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense_digraphs(), st.data())
def test_tree_label_counts_match_the_tree_paths(D, data):
    """On strongly connected hosts, dense and sparse, with arcs in z1, z2,
    both or neither, the one-pass counts are the label counts of each
    vertex's out-tree path, for every vertex of the levels the pass covers."""
    if not D.n:
        return
    S = data.draw(st.sampled_from(sorted(strong_components(D), key=len, reverse=True)))
    T = bfs_tree(D, data.draw(st.sampled_from(sorted(S))), OUT, host=S)
    depth = data.draw(st.integers(0, len(T.levels)))
    counts = constructive._tree_label_counts(D, T, depth)
    assert set(counts) == set().union(*T.levels[:depth + 1])
    for v, got in counts.items():
        assert got == D.label_counts(tree_path(T, v).arcs())


def test_special_set_core_has_floor_mu_exactly():
    D = bio_clique(24)
    oracle = BiorientedCliqueOracle(D)
    res = special_set(D, 0, 2, oracle, floor=FLOOR)
    assert oracle.mu(res.core) == FLOOR  # minimality pins the core exactly
    assert oracle.mu(res.U) == len(res.Y) - FLOOR


def test_gadget_sequences_q2_is_single_step():
    D = bio_clique(24)
    oracle = BiorientedCliqueOracle(D)
    gs = gadget_sequences(D, 0, 2, oracle, floor=FLOOR)
    assert gs.steps == 1
    assert not check_gadget_sequences(D, 0, 2, gs, floor=FLOOR)


def test_gadget_sequences_q3_three_steps():
    D = bio_clique(52)
    oracle = BiorientedCliqueOracle(D)
    gs = gadget_sequences(D, 0, 3, oracle, floor=FLOOR)
    assert gs.steps == 3
    assert not check_gadget_sequences(D, 0, 3, gs, floor=FLOOR)
    # audit the halving recurrence on the recorded trace
    for lo, hi in zip(gs.mu_trace[1:], gs.mu_trace):
        assert lo >= hi / 2 - FLOOR
    # each stage runs in the previous stage's U from its exit vertex
    for prev, stage in zip(gs.stages, gs.stages[1:]):
        assert stage.x == prev.w and stage.Y <= prev.U
    swapped = replace(gs, stages=(gs.stages[0], gs.stages[2], gs.stages[1]))
    assert check_gadget_sequences(D, 0, 3, swapped, floor=FLOOR)


def test_gadget_sequences_checks_each_stage_once(monkeypatch):
    """special_set verifies every stage; the chain is not verified again."""
    calls = []
    real = constructive._check_stage

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(constructive, "_check_stage", counted)
    D = bio_clique(52)
    gadget_sequences(D, 0, 3, BiorientedCliqueOracle(D), floor=FLOOR)
    assert len(calls) == 2 * 3 - 3


def test_gadget_sequences_failure_names_step():
    D = directed_cycle_graph(8, z1_indices=[0, 2], z2_indices=[4, 6])
    with pytest.raises(ConstructionFailed) as info:
        gadget_sequences(D, 0, 2, ExactMuOracle(D), floor=FLOOR)
    assert info.value.step == 1


def test_residue_universal_set_answers_all_residues_q2():
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    assert not check_residue_universal_set(D, rus)
    xs = sorted(rus.X)
    seen = set()
    for ell in (0, 1):
        p = rus.query(xs[0], xs[1], 1, 1, ell)
        c1, c2 = D.label_counts(p.arcs())
        assert (c1 + c2) % 2 == ell
        seen.add(ell)
    assert seen == {0, 1}


def test_residue_universal_set_default_candidate_round_trip():
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    walk1 = rus.assemble(xs[0], xs[1], 1)
    c1, c2 = D.label_counts(zip(walk1, walk1[1:]))
    ell0 = (c1 + c2) % 2
    p = rus.query(xs[0], xs[1], 1, 1, ell0)
    assert p.vertices == tuple(walk1)


@pytest.mark.parametrize("target", [0, 1])
def test_a_query_builds_one_directed_path(monkeypatch, target):
    """Both candidate walks a query assembles, and every part of them, pass
    as vertex tuples; the one record built is the path returned."""
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    built = record_path_builds(monkeypatch)
    p = rus.query(xs[0], xs[1], 1, 1, target)
    assert built == [p.vertices]


def test_the_readme_extraction_builds_only_the_paths_it_keeps(monkeypatch):
    """README's quick-start extraction on K_26 builds 14 ``DirectedPath``
    records: the entry paths of the residue-universal set and of the two-arc
    cycle's four connector sets, the four locality paths that cycle joins
    (public ``NestedSequence.path`` returns), the one gadget stage's exit
    path, path and two witnesses, and the witness's one path.  The parts of
    every candidate walk and splice are vertex tuples, built as no record."""
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    D = bio_clique(26)
    built = record_path_builds(monkeypatch)
    witness = extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert len(built) == 14
    assert built[-1] == witness.paths[(0, 1)].vertices


def test_residue_universal_set_gcd_violation():
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    with pytest.raises(ValueError):
        rus.query(xs[0], xs[1], 2, 1, 0)


def test_residue_universal_set_pigeonhole_side():
    D = bio_clique(52)
    rus = residue_universal_set(D, 3, BiorientedCliqueOracle(D), floor=FLOOR)
    assert len(rus.chosen) == 2  # q - 1 gadgets on one side
    for j in rus.chosen:
        arc = rus.gadgets.stages[j].path.vertices[:2]
        if rus.side == "z1":
            assert arc in D.z1 and arc not in D.z2
        else:
            assert arc in D.z2 and arc not in D.z1


def test_extract_base_case_no_arcs():
    D = bio_clique(6)
    pattern = SubdivisionPattern(4, ())
    w = extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert w.branch == (0, 1, 2, 3)
    assert not w.paths
    assert verify_witness(D, pattern, w).ok


@pytest.mark.parametrize("floor", [0, -3])
def test_extract_rejects_a_floor_below_1(floor):
    D = bio_clique(6)
    with pytest.raises(ValueError, match=f"floor must be at least 1, got {floor}"):
        extract_subdivision(D, SubdivisionPattern(4, ()), BiorientedCliqueOracle(D), floor=floor)


@pytest.mark.parametrize("floor", [0, -3])
@pytest.mark.parametrize("stage", [
    lambda D, oracle, floor: special_set(D, 0, 2, oracle, floor),
    lambda D, oracle, floor: gadget_sequences(D, 0, 2, oracle, floor),
    lambda D, oracle, floor: residue_universal_set(D, 2, oracle, floor),
], ids=["special_set", "gadget_sequences", "residue_universal_set"])
def test_stages_reject_a_floor_below_1(stage, floor):
    """Before any work: an oracle with no values is never asked."""
    D = bio_clique(26)
    with pytest.raises(ValueError, match=f"floor must be at least 1, got {floor}"):
        stage(D, HintMuOracle({}), floor)


def test_extract_single_arc_both_residues():
    D = bio_clique(26)
    oracle = BiorientedCliqueOracle(D)
    for r in (0, 1):
        pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, r, 2),))
        w = extract_subdivision(D, pattern, oracle, floor=FLOOR)
        report = verify_witness(D, pattern, w)
        assert report.ok, report
        c1, c2 = D.label_counts(w.paths[(0, 1)].arcs())
        assert (c1 + c2) % 2 == r


def test_extract_balanced_digraph_fails():
    D = directed_cycle_graph(8, z1_indices=[0, 2], z2_indices=[4, 6])
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    with pytest.raises(ConstructionFailed):
        extract_subdivision(D, pattern, ExactMuOracle(D), floor=FLOOR)


def test_extract_two_arc_pattern():
    D = bio_clique(46)
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                     PatternArc(1, 2, 1, 1, 0, 2)))
    w = extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert verify_witness(D, pattern, w).ok


def test_residue_universal_set_start_override():
    D = bio_clique(26)
    oracle = BiorientedCliqueOracle(D)
    rus = residue_universal_set(D, 2, oracle, floor=FLOOR, start=7)
    assert rus.x0 == 7
    assert not check_residue_universal_set(D, rus)
    with pytest.raises(ValueError):
        residue_universal_set(D, 2, oracle, floor=FLOOR, start=99)


def test_extract_start_override():
    D = bio_clique(26)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    w = extract_subdivision(D, pattern, BiorientedCliqueOracle(D),
                            floor=FLOOR, start=5)
    assert verify_witness(D, pattern, w).ok


def test_extract_start_must_be_a_vertex():
    D = bio_clique(26)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    with pytest.raises(ValueError, match="unknown start vertex 999"):
        extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR, start=999)
    # a vertex of D outside the largest strong component falls back to the default
    arcs = list(D.arcs) + [(26, 0)]
    tailed = LabeledDigraph.on_range(27, arcs, z1=arcs)

    class SizeOracle(MuOracle):
        """|S|: exact on the clique's subsets and on {26}, the sets asked here."""
        name = "size"

        def mu(self, subset):
            return len(set(subset))

    oracle = SizeOracle()
    assert (extract_subdivision(tailed, pattern, oracle, floor=FLOOR, start=26)
            == extract_subdivision(tailed, pattern, oracle, floor=FLOOR))


def test_extract_base_failure_reports_depth():
    D = bio_clique(3)
    pattern = SubdivisionPattern(5, ())
    with pytest.raises(ConstructionFailed) as info:
        extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert info.value.stage == "base"


@pytest.mark.parametrize("n, message", [(0, "an empty digraph has no start vertex"),
                                         (1, "no levels beyond the start"),
                                         (5, "no levels beyond the start")],
                         ids=["empty", "one", "five"])
def test_extract_on_an_arcless_host_fails_at_the_entry_split(n, message):
    """An empty digraph fails as one with 1 or 5 isolated vertices does, at
    the entry split of depth 0, not with a BFS precondition."""
    D = LabeledDigraph.on_range(n)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 0, 2),))
    with pytest.raises(ConstructionFailed) as info:
        extract_subdivision(D, pattern, ExactMuOracle(D), floor=FLOOR)
    exc = info.value
    assert (exc.stage, exc.depth, exc.message) == ("entry-split", 0, message)


def test_extract_failure_keeps_its_stage_step_and_depth():
    D = bio_clique(30)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 3),))
    with pytest.raises(ConstructionFailed) as info:
        extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    exc = info.value
    assert (exc.stage, exc.step, exc.depth) == ("core-floor", 2, 0)
    assert str(exc) == ("core-floor (step 2) (depth 0): "
                        "best residue class has mu below the floor 14")
    assert str(exc).count("core-floor") == 1


def _count_component_passes(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("host"))
        return digraph_module.strong_components(*args, **kwargs)
    monkeypatch.setattr(constructive, "strong_components", counted)
    return calls


def test_extract_picks_its_component_once(monkeypatch):
    """The extraction computes D's strong components once, at depth 0; the
    deeper hosts are exit-split components, strongly connected already."""
    D = bio_clique(46)
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                     PatternArc(1, 2, 1, 1, 0, 2)))
    calls = _count_component_passes(monkeypatch)
    w = extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert verify_witness(D, pattern, w).ok
    assert calls == [None]


def test_extract_arc_less_pattern_seats_from_all_of_the_digraph(monkeypatch):
    """With no arcs to route, the branch vertices are the smallest vertices
    of D, though no strong component of this D is big enough to seat them."""
    D = digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3)])
    calls = _count_component_passes(monkeypatch)
    pattern = SubdivisionPattern(4, ())
    w = extract_subdivision(D, pattern, ExactMuOracle(D), floor=FLOOR)
    assert w.branch == (0, 1, 2, 3) and not w.paths
    assert verify_witness(D, pattern, w).ok
    assert calls == []


def _z2_clique(n):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return LabeledDigraph.on_range(n, arcs, z2=arcs)


def test_residue_universal_set_z2_majority_side():
    D = _z2_clique(26)
    oracle = BiorientedCliqueOracle(D)
    rus = residue_universal_set(D, 2, oracle, floor=FLOOR)
    assert rus.side == "z2"
    assert not check_residue_universal_set(D, rus)
    xs = sorted(rus.X)
    for ell in (0, 1):
        p = rus.query(xs[0], xs[1], 1, 1, ell)
        c1, c2 = D.label_counts(p.arcs())
        assert c1 == 0 and (c1 + c2) % 2 == ell
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    w = extract_subdivision(D, pattern, oracle, floor=FLOOR)
    assert verify_witness(D, pattern, w).ok


def _clique_with_hub(m):
    """Fully z1-labeled bioriented K_m plus a hub joined to everyone by
    unlabeled digons; mu = m, and the hub keeps the family off the pure
    clique shape so the exact oracle drives the pipeline."""
    arcs = [(u, v) for u in range(m) for v in range(m) if u != v]
    z1 = list(arcs)
    for v in range(m):
        arcs += [(m, v), (v, m)]
    return LabeledDigraph.on_range(m + 1, arcs, z1=z1)


def test_pipeline_with_exact_oracle_on_hub_family():
    D = _clique_with_hub(20)
    oracle = ExactMuOracle(D)
    res = special_set(D, 20, 2, oracle, floor=FLOOR)
    assert not check_special_set(D, 20, 2, res, oracle=oracle, floor=FLOOR)
    rus = residue_universal_set(D, 2, oracle, floor=FLOOR)
    assert not check_residue_universal_set(D, rus)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    w = extract_subdivision(D, pattern, oracle, floor=FLOOR)
    assert verify_witness(D, pattern, w).ok


class _CountingCliqueOracle(BiorientedCliqueOracle):
    """The closed-form oracle, counting its ``mu`` calls (threshold queries
    included: the base class answers them through ``mu``)."""

    def __init__(self, D):
        super().__init__(D)
        self.calls = 0

    def mu(self, subset):
        self.calls += 1
        return super().mu(subset)


def test_special_set_asks_no_query_that_the_set_size_settles():
    """mu(D[S]) <= |S|, so the minimal-set loops refuse a set smaller than
    the floor or the target without a query.  The record is the one the
    loops gave when they asked every set; the oracle then took 86 calls."""
    D = bio_clique(40)
    oracle = _CountingCliqueOracle(D)
    res = special_set(D, 0, 2, oracle, floor=FLOOR)
    assert oracle.calls == 47
    assert (res.U, res.core, res.w, res.r, res.s) == (
        frozenset(range(1, 26)), frozenset(range(26, 40)), 1, 1, 0)
    assert res.path.vertices == (27, 36, 37, 28, 29, 35, 30, 31, 38, 39, 32, 33, 34, 26, 1)
    assert res.Y == frozenset(range(1, 40))


def test_special_set_on_the_hub_family_keeps_its_solver_calls(monkeypatch):
    """With the exact oracle the size test drops only queries the bounds
    settled without a solve: the stage still solves the same two hosts
    and builds the same record."""
    solved = []

    def counting(D, limit=None, *, host=None, _real=oracles_module.mu_exact):
        solved.append((len(host), limit))
        return _real(D, limit, host=host)
    monkeypatch.setattr(oracles_module, "mu_exact", counting)
    D = _clique_with_hub(20)
    res = special_set(D, 20, 2, ExactMuOracle(D), floor=FLOOR)
    assert solved == [(20, None), (21, None)]
    assert (res.U, res.core) == (frozenset(range(6)), frozenset(range(6, 20)))
    assert res.path.vertices == (7, 16, 17, 8, 9, 15, 10, 11, 18, 19, 12, 13, 14, 6, 0)


def test_check_residue_universal_set_reports_a_one_vertex_x():
    D = bio_clique(40)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    with pytest.raises(AttributeError):
        rus.X = frozenset({min(rus.X)})
    rus = replace(rus, X=frozenset({min(rus.X)}))
    assert check_residue_universal_set(D, rus) == ["X has fewer than two vertices"]


def test_check_residue_universal_set_reports_an_x_that_is_not_strong():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    bad = replace(rus, X=rus.X | {999})
    assert check_residue_universal_set(D, bad) == ["D[X] is not strongly connected"]


class _HeadlessSet(constructive.ResidueUniversalSet):
    """A residue-universal set whose candidate walks lose their first vertex."""

    def assemble(self, u, v, k):
        return super().assemble(u, v, k)[1:]


def test_check_residue_universal_set_reports_wrong_endpoints():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    bad = _HeadlessSet(**{f: getattr(rus, f) for f in rus.__slots__})
    u, v = sorted(rus.X)[:2]
    assert f"candidate 1 for ({u}, {v}) has wrong endpoints" in check_residue_universal_set(D, bad)


class _RepeatingSet(constructive.ResidueUniversalSet):
    """A residue-universal set whose candidate walks visit their second
    vertex twice."""

    def assemble(self, u, v, k):
        walk = super().assemble(u, v, k)
        return walk[:2] + walk[1:]


def test_check_residue_universal_set_reads_no_residue_off_a_walk_that_is_not_simple():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    bad = _RepeatingSet(**{f: getattr(rus, f) for f in rus.__slots__})
    u, v = sorted(rus.X)[:2]
    assert check_residue_universal_set(D, bad) == [
        f"candidate {k} for {pair} is not simple" for pair in ((u, v), (v, u)) for k in (1, 2)]


def test_check_residue_universal_set_reports_residues_that_do_not_step():
    """With no gadget arc chosen every candidate is the same walk, so the
    chosen side's residues cover one value; read on the wrong side, the
    residues that step are the other side's, which must stay constant."""
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    assert rus.side == "z1"
    u, v = sorted(rus.X)[:2]
    cover = f"({u}, {v}): chosen-side residues"
    constant = f"({u}, {v}): other-side residues"
    problems = check_residue_universal_set(D, replace(rus, chosen=()))
    assert any(p.startswith(cover) for p in problems)
    assert not any(p.startswith(constant) for p in problems)
    problems = check_residue_universal_set(D, replace(rus, side="z2"))
    assert any(p.startswith(constant) for p in problems)


def test_residue_universal_candidates_must_stay_in_the_host():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    u, v = sorted(rus.X)[:2]
    assert rus.x0 in rus.assemble(u, v, 1)
    rus = replace(rus, host=rus.host - {rus.x0})
    # target 0 is reached by candidate 2
    with pytest.raises(ConstructionFailed,
                       match=rf"^assembly: candidate 2 for \({u}, {v}\) leaves the digraph$") as exc:
        rus.query(u, v, 1, 1, 0)
    assert exc.value.stage == "assembly"
    assert f"candidate 1 for ({u}, {v}) leaves the digraph" in check_residue_universal_set(D, rus)


def test_residue_universal_queries_check_their_arguments():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    u, v = sorted(rus.X)[:2]
    for k in (0, 3):
        with pytest.raises(ValueError, match=rf"^candidate index {k} out of 1\.\.2$"):
            rus.assemble(u, v, k)
    outside = min(set(D.vertices) - rus.X)
    for ends in ((u, u), (u, outside), (outside, v)):
        with pytest.raises(ValueError, match="^endpoints must be distinct vertices of X$"):
            rus.query(*ends, 1, 1, 0)


@pytest.mark.parametrize("run", ["analytic", "exact", "cycles"])
def test_pipeline_builds_no_subgraph_copies(monkeypatch, run):
    """The pipeline and the cycle packing work on the root digraph and
    vertex sets; LabeledDigraph.induced is never called."""
    calls = []
    real = LabeledDigraph.induced
    monkeypatch.setattr(LabeledDigraph, "induced",
                        lambda self, subset: calls.append(1) or real(self, subset))
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2), PatternArc(1, 0, 1, 1, 0, 2)))
    if run == "analytic":
        D = bio_clique(40)
        extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR, start=7)
    elif run == "exact":
        D = _clique_with_hub(20)
        extract_subdivision(D, without_arc(pattern, (1, 0)), ExactMuOracle(D), floor=FLOOR)
    else:
        assert disjoint_unbalanced_cycles(gen_random(30, .15, .5, .5, seed=3).digraph, 6).complete
    assert calls == []


def test_stages_call_the_public_layer_functions(monkeypatch):
    """Every stage reaches level_split and mu_exact through the public module
    attributes, so a wrapper installed on those names sees each call."""
    calls = []
    for real in (dichromate.level_split, dichromate.mu_exact):
        def counted(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "dichromate":
                for attr, obj in list(vars(mod).items()):
                    if obj is real:
                        monkeypatch.setattr(mod, attr, counted)
    D = _clique_with_hub(20)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    extract_subdivision(D, pattern, ExactMuOracle(D), floor=FLOOR)
    assert {"level_split", "mu_exact"} <= set(calls)


# -- tampered results: each break of one stage condition must be reported --

def _tamper_base():
    D = bio_clique(22)
    oracle = BiorientedCliqueOracle(D)
    res = special_set(D, 0, 2, oracle, floor=FLOOR)
    gs = gadget_sequences(D, 0, 2, oracle, floor=FLOOR)
    assert not check_special_set(D, 0, 2, res, oracle=oracle, floor=FLOOR)
    assert not check_gadget_sequences(D, 0, 2, gs, floor=FLOOR)
    return D, oracle, res, gs


def _stage_breaks(res):
    """Changed stage fields (U, Y, first witness or r), each breaking one
    condition; in the clique every vertex set stays strongly connected."""
    p = res.path
    off_path = sorted(res.Y - set(p.vertices) - set(res.witness_first.vertices))
    u_off = min(res.U - set(p.vertices))
    # two interior vertices keep the witness's residues mod 2 unchanged
    detour = DirectedPath((res.x, off_path[0], off_path[1], p.vertices[0]))
    return {
        "U outside Y": dict(Y=res.Y - {u_off}),
        "anchor inside Y": dict(Y=res.Y | {res.x}),
        "path leaves Y": dict(Y=res.Y - {p.vertices[0]}),
        "path meets U early": dict(U=res.U | {p.vertices[0]}),
        "wrong residue": dict(r=(res.r + 1) % res.q),
        "witness re-enters Y": dict(witness_first=detour),
    }


def _balanced_first_arc(D, res):
    """D with the path's first arc also put into z2, so it lies in both classes."""
    first_arc = (res.path.vertices[0], res.path.vertices[1])
    return LabeledDigraph(D.vertices, D.arcs, D.z1, D.z2 | {first_arc})


def test_check_special_set_reports_each_tampered_condition():
    D, oracle, res, _ = _tamper_base()
    for name, change in _stage_breaks(res).items():
        bad = replace(res, **change)
        assert check_special_set(D, 0, 2, bad, oracle=oracle, floor=FLOOR), name
    assert check_special_set(_balanced_first_arc(D, res), 0, 2, res,
                             oracle=oracle, floor=FLOOR)
    # the halving chain: an oracle claiming mu(D) = 1000 puts mu(U) far below half
    liar = HintMuOracle({frozenset(D.vertices): 1000, res.U: len(res.U)})
    assert check_special_set(D, 0, 2, res, oracle=liar, floor=FLOOR)


def test_check_gadget_sequences_reports_each_tampered_condition():
    D, _, res, gs = _tamper_base()
    assert gs.stages == (res,)
    for name, change in _stage_breaks(res).items():
        bad = replace(gs, stages=(replace(res, **change),))
        assert check_gadget_sequences(D, 0, 2, bad, floor=FLOOR), name
    assert check_gadget_sequences(_balanced_first_arc(D, res), 0, 2, gs, floor=FLOOR)
    bad = replace(gs, mu_trace=(1000, gs.mu_trace[1]))
    assert check_gadget_sequences(D, 0, 2, bad, floor=FLOOR)


# -- malformed results are reported, never raised on --

def test_check_special_set_reports_zero_length_path():
    D, oracle, res, _ = _tamper_base()
    bad = replace(res, path=DirectedPath((res.w,)))
    assert "path has no arcs" in check_special_set(D, 0, 2, bad, oracle=oracle, floor=FLOOR)


def test_checkers_report_a_stage_off_the_chained_anchor():
    D, oracle, res, gs = _tamper_base()
    moved = replace(res, x=res.w)
    assert "recorded anchor" in check_special_set(D, 0, 2, moved, oracle=oracle,
                                                  floor=FLOOR)[0]
    problems = check_gadget_sequences(D, 0, 2, replace(gs, stages=(moved,)), floor=FLOOR)
    assert "stage 1: recorded anchor" in problems[0]
    elsewhere = replace(gs, host=res.U)
    assert check_gadget_sequences(D, 0, 2, elsewhere, floor=FLOOR)


def test_check_gadget_sequences_reports_zero_length_path():
    D, _, res, gs = _tamper_base()
    bad = replace(gs, stages=(replace(res, path=DirectedPath((res.w,))),))
    assert "stage 1: path has no arcs" in check_gadget_sequences(D, 0, 2, bad, floor=FLOOR)


@pytest.mark.parametrize("field", ["stages", "mu_trace"])
def test_check_gadget_sequences_reports_short_records(field):
    D, _, _, gs = _tamper_base()
    bad = replace(gs, **{field: getattr(gs, field)[:-1]})
    problems = check_gadget_sequences(D, 0, 2, bad, floor=FLOOR)
    assert problems and "stage records" in problems[0]


def test_check_special_set_reports_unknown_vertex():
    D, oracle, res, _ = _tamper_base()
    bad = replace(res, U=res.U | {99})
    assert "D[U] is not strongly connected" in check_special_set(
        D, 0, 2, bad, oracle=None, floor=FLOOR)


def _without(D, arc):
    """D with ``arc`` taken out of its arcs and classes."""
    return LabeledDigraph(D.vertices, [a for a in D.arcs if a != arc], D.z1 - {arc}, D.z2 - {arc})


def test_check_special_set_reports_an_anchor_outside_its_host():
    D, _, res, _ = _tamper_base()
    host = frozenset(D.vertices) - {0}
    assert "anchor outside its host set" in check_special_set(D, 0, 2, res, host=host)


def test_check_special_set_reports_a_y_that_is_not_strong():
    D, _, res, _ = _tamper_base()
    bad = replace(res, Y=res.Y | {99})
    assert "D[Y] is not strongly connected" in check_special_set(D, 0, 2, bad, floor=FLOOR)


def test_check_special_set_reports_a_path_off_the_digraph():
    D, _, res, _ = _tamper_base()
    cut = _without(D, res.path.vertices[-2:])
    assert "path is not a directed path of the digraph" in check_special_set(cut, 0, 2, res)


def test_check_special_set_reports_a_witness_off_the_digraph():
    D, _, res, _ = _tamper_base()
    v = res.path.vertices[0]
    cut = _without(D, res.witness_first.vertices[-2:])
    assert (f"witness for {v} is not a directed path of the digraph"
            in check_special_set(cut, 0, 2, res))


def test_check_special_set_skips_the_halving_without_both_values():
    """An oracle that cannot give mu(D[U]) or mu(D[host]) leaves the
    halving unchecked rather than raising."""
    D, _, res, _ = _tamper_base()
    for known in ({}, {res.U: len(res.U)}, {frozenset(D.vertices): 1000}):
        assert check_special_set(D, 0, 2, res, oracle=HintMuOracle(known), floor=FLOOR) == []


def test_check_gadget_sequences_reports_a_host_that_is_not_strong():
    D, _, _, gs = _tamper_base()
    apart = LabeledDigraph((*D.vertices, 99), D.arcs, D.z1, D.z2)
    assert "stage 1: host set not strongly connected" in check_gadget_sequences(
        apart, 0, 2, gs, floor=FLOOR)


def test_checkers_reject_a_host_naming_a_vertex_outside_d():
    D, oracle, res, gs = _tamper_base()
    host = frozenset(D.vertices) | {999}
    with pytest.raises(ValueError, match=r"^unknown vertices in host: \[999\]$"):
        check_special_set(D, 0, 2, res, None, FLOOR, host=host)
    with pytest.raises(ValueError, match=r"^unknown vertices in host: \[999\]$"):
        check_gadget_sequences(D, 0, 2, gs, FLOOR, host=host)


def test_check_gadget_sequences_reports_missing_witness():
    D, oracle, res, gs = _tamper_base()
    bad = replace(res, witness_second=None)
    missing = f"witness for {res.path.vertices[1]} is missing"
    assert check_special_set(D, 0, 2, bad, oracle=oracle, floor=FLOOR) == [missing]
    assert check_gadget_sequences(D, 0, 2, replace(gs, stages=(bad,)), floor=FLOOR) == [
        f"stage 1: {missing}"]


# -- one level split per stage host: checks and error contracts --

STAGES = {
    "level_split": lambda D, oracle, v, host: level_split(D, v, OUT, oracle, min_level=1,
                                                          host=host),
    "connector_set": lambda D, oracle, v, host: connector_set(D, oracle, v, host=host),
    "special_set": lambda D, oracle, v, host: special_set(D, v, 2, oracle, floor=FLOOR,
                                                          host=host),
    "gadget_sequences": lambda D, oracle, v, host: gadget_sequences(D, v, 2, oracle, floor=FLOOR,
                                                                    host=host),
    "residue_universal_set": lambda D, oracle, v, host: residue_universal_set(
        D, 2, oracle, floor=FLOOR, start=v, host=host),
}


@pytest.mark.parametrize("name", ["connector_set", "special_set", "residue_universal_set"])
def test_each_stage_checks_its_host_once(monkeypatch, name):
    """A stage checks its host's strong connectivity once, when its level
    split builds the BFS tree.  Counted at the bitset kernels, which
    ``strong_components``, ``is_strongly_connected`` and ``bfs_tree`` call
    on a dense digraph, from whichever module they are called."""
    checked = record_strong_checks(monkeypatch)
    D = bio_clique(40)
    host = frozenset(D.vertices)
    STAGES[name](D, BiorientedCliqueOracle(D), 0, host)
    assert checked.count(host) == 1


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_refuses_a_host_that_is_not_strongly_connected(name):
    D = digraph(3, [(0, 1), (1, 2), (2, 1)])
    with pytest.raises(PreconditionViolation):
        STAGES[name](D, ExactMuOracle(D), 0, None)
    with pytest.raises(PreconditionViolation):
        STAGES[name](D, ExactMuOracle(D), None, set())


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_rejects_unknown_host_and_start_vertices(name):
    D = bio_clique(6)
    oracle = BiorientedCliqueOracle(D)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[40\]"):
        STAGES[name](D, oracle, 0, {0, 1, 40})
    with pytest.raises(ValueError, match="unknown start vertex 9"):
        STAGES[name](D, oracle, 9, {0, 1, 2})


@pytest.mark.parametrize("name, stage", [("level_split", "level-split"),
                                         ("special_set", "level-split"),
                                         ("gadget_sequences", "level-split"),
                                         ("residue_universal_set", "entry-split")])
def test_stage_fails_on_a_one_vertex_host(name, stage):
    D = bio_clique(6)
    with pytest.raises(ConstructionFailed) as info:
        STAGES[name](D, BiorientedCliqueOracle(D), 2, {2})
    assert info.value.stage == stage


def test_one_vertex_host_splits_at_level_zero():
    D = bio_clique(6)
    oracle = BiorientedCliqueOracle(D)
    split = level_split(D, 2, OUT, oracle, host={2})
    assert (split.level_index, split.component, split.tree.parent) == (0, {2}, {})
    cs = connector_set(D, oracle, host={2})
    assert cs.X == {2}
    assert cs.flags == ("degenerate-entry-level", "degenerate-exit-level")


def test_residue_universal_set_exit_split_on_a_one_vertex_host(monkeypatch):
    real = constructive.gadget_sequences

    def one_vertex_exit(*args, **kwargs):
        gs = real(*args, **kwargs)
        last = gs.stages[-1]
        return replace(gs, stages=gs.stages[:-1] + (replace(last, U=frozenset({last.w})),))
    monkeypatch.setattr(constructive, "gadget_sequences", one_vertex_exit)
    D = bio_clique(30)
    with pytest.raises(ConstructionFailed) as info:
        residue_universal_set(D, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    assert info.value.stage == "exit-split"


def _check_minimal(S, keeps):
    """``_minimal`` asks ``keeps`` the sets the one-at-a-time loop asks, in
    the same order, and returns an accepted set that loses acceptance
    without any one of its vertices."""
    asked, asked_by_loop = [], []

    def recorded(log):
        def keeps_and_logs(T):
            log.append(frozenset(T))
            return keeps(T)
        return keeps_and_logs

    M = constructive._minimal(frozenset(S), recorded(asked))
    assert M == minimal_one_at_a_time(S, recorded(asked_by_loop))
    assert asked == asked_by_loop
    assert M and M <= S and keeps(set(M))
    assert len(M) == 1 or not any(keeps(M - {v}) for v in M)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 11), min_size=1), st.sets(st.integers(0, 11)), st.data())
def test_minimal_matches_the_loop_on_counting_predicates(S, A, data):
    t = data.draw(st.integers(0, len(S & A)))
    _check_minimal(S, lambda T: len(T & A) >= t)


@settings(max_examples=150, deadline=None)
@given(labeled_digraphs(max_n=6), st.data())
def test_minimal_matches_the_loop_on_mu_predicates(D, data):
    S = set(D.vertices)
    if not S:
        return
    top = mu_brute(D)
    t = data.draw(st.integers(0, top))
    _check_minimal(S, lambda T: mu_brute(D.induced(T)) >= t)
    _check_minimal(S, lambda T: mu_brute(D.induced(T)) == top)
