import sys
from dataclasses import replace

import pytest

import dichromate
from conftest import bio_clique, digon, digraph, directed_cycle_graph
from dichromate import (BiorientedCliqueOracle, ConstructionFailed,
                        DirectedPath, ExactMuOracle, HintMuOracle,
                        LabeledDigraph, PatternArc, SubdivisionPattern,
                        check_gadget_sequences, check_residue_universal_set,
                        check_special_set, disjoint_unbalanced_cycles,
                        extract_subdivision, gen_random,
                        gadget_sequences, gadget_threshold,
                        residue_universal_set, special_set,
                        special_set_threshold, subdivision_threshold,
                        two_arc_cycle, universal_threshold, verify_witness)

FLOOR = 14  # smallest core floor for which the two-arc stage succeeds on cliques


def test_threshold_spot_values():
    assert special_set_threshold(2) == 12288
    assert universal_threshold(2, 2) == 24576
    assert gadget_threshold(2) == 1536 * 2 * 5 - 3072
    assert universal_threshold(2, 2) == 4 * max(7680, 3076) - 6144


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


def test_gadget_sequences_failure_names_step():
    D = directed_cycle_graph(8, z1_indices=[0, 2], z2_indices=[4, 6])
    with pytest.raises(ConstructionFailed) as info:
        gadget_sequences(D, 0, 2, ExactMuOracle(D), floor=FLOOR)
    assert info.value.step == 1


def test_residue_universal_set_answers_all_residues_q2():
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, 2, BiorientedCliqueOracle(D), floor=FLOOR)
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
    rus = residue_universal_set(D, 2, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    walk1 = rus.assemble(xs[0], xs[1], 1)
    c1, c2 = D.label_counts(zip(walk1, walk1[1:]))
    ell0 = (c1 + c2) % 2
    p = rus.query(xs[0], xs[1], 1, 1, ell0)
    assert p.vertices == tuple(walk1)


def test_residue_universal_set_gcd_violation():
    D = bio_clique(26)
    rus = residue_universal_set(D, 2, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    xs = sorted(rus.X)
    with pytest.raises(ValueError):
        rus.query(xs[0], xs[1], 2, 1, 0)


def test_residue_universal_set_pigeonhole_side():
    D = bio_clique(52)
    rus = residue_universal_set(D, 3, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    assert len(rus.chosen) == 2  # q - 1 gadgets on one side
    for j in rus.chosen:
        arc = (rus.gadgets.paths[j].vertices[0], rus.gadgets.paths[j].vertices[1])
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
    rus = residue_universal_set(D, 2, 2, oracle, floor=FLOOR, start=7)
    assert rus.x0 == 7
    assert not check_residue_universal_set(D, rus)
    with pytest.raises(ValueError):
        residue_universal_set(D, 2, 2, oracle, floor=FLOOR, start=99)


def test_extract_start_override():
    D = bio_clique(26)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    w = extract_subdivision(D, pattern, BiorientedCliqueOracle(D),
                            floor=FLOOR, start=5)
    assert verify_witness(D, pattern, w).ok


def test_extract_base_failure_reports_depth():
    D = bio_clique(3)
    pattern = SubdivisionPattern(5, ())
    with pytest.raises(ConstructionFailed) as info:
        extract_subdivision(D, pattern, BiorientedCliqueOracle(D), floor=FLOOR)
    assert info.value.stage == "base"


def _z2_clique(n):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return LabeledDigraph.on_range(n, arcs, z2=arcs)


def test_residue_universal_set_z2_majority_side():
    D = _z2_clique(26)
    oracle = BiorientedCliqueOracle(D)
    rus = residue_universal_set(D, 2, 2, oracle, floor=FLOOR)
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
    rus = residue_universal_set(D, 2, 2, oracle, floor=FLOOR)
    assert not check_residue_universal_set(D, rus)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    w = extract_subdivision(D, pattern, oracle, floor=FLOOR)
    assert verify_witness(D, pattern, w).ok


def test_check_residue_universal_set_reports_a_one_vertex_x():
    D = bio_clique(40)
    rus = residue_universal_set(D, 2, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    rus.X = frozenset({min(rus.X)})
    assert check_residue_universal_set(D, rus) == ["X has fewer than two vertices"]


def test_residue_universal_candidates_must_stay_in_the_host():
    D = bio_clique(30)
    rus = residue_universal_set(D, 2, 2, BiorientedCliqueOracle(D), floor=FLOOR)
    u, v = sorted(rus.X)[:2]
    assert rus.x0 in rus.assemble(u, v, 1)
    rus.host = rus.host - {rus.x0}
    with pytest.raises(ConstructionFailed, match="candidate leaves the digraph") as exc:
        rus.query(u, v, 1, 1, 0)
    assert exc.value.stage == "assembly"
    assert f"candidate 1 for ({u}, {v}) leaves the digraph" in check_residue_universal_set(D, rus)


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
        extract_subdivision(D, pattern.without_arc((1, 0)), ExactMuOracle(D), floor=FLOOR)
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
    assert gs.paths[0] == res.path and gs.y_sets[0] == res.Y
    for name, change in _stage_breaks(res).items():
        fields = {}
        if "U" in change:
            fields["x_sets"] = (gs.x_sets[0], change["U"])
        if "Y" in change:
            fields["y_sets"] = (change["Y"],)
        if "r" in change:
            fields["r"] = (change["r"],)
        if "witness_first" in change:
            fields["witnesses"] = ((change["witness_first"], gs.witnesses[0][1]),)
        bad = replace(gs, **fields)
        assert check_gadget_sequences(D, 0, 2, bad, floor=FLOOR), name
    assert check_gadget_sequences(_balanced_first_arc(D, res), 0, 2, gs, floor=FLOOR)
    bad = replace(gs, mu_trace=(1000, gs.mu_trace[1]))
    assert check_gadget_sequences(D, 0, 2, bad, floor=FLOOR)


# -- malformed results are reported, never raised on --

def test_check_special_set_reports_zero_length_path():
    D, oracle, res, _ = _tamper_base()
    bad = replace(res, path=DirectedPath((res.w,)))
    assert "path has no arcs" in check_special_set(D, 0, 2, bad, oracle=oracle, floor=FLOOR)


def test_check_gadget_sequences_reports_zero_length_path():
    D, _, _, gs = _tamper_base()
    bad = replace(gs, paths=(DirectedPath((gs.anchors[1],)),))
    assert "stage 1: path has no arcs" in check_gadget_sequences(D, 0, 2, bad, floor=FLOOR)


@pytest.mark.parametrize("field", ["y_sets", "mu_trace"])
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


def test_check_gadget_sequences_reports_missing_witness():
    D, _, _, gs = _tamper_base()
    bad = replace(gs, witnesses=(gs.witnesses[0][:1],))
    assert check_gadget_sequences(D, 0, 2, bad, floor=FLOOR) == [
        "every stage needs two witnesses"]
