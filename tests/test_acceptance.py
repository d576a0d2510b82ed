"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output on failure) and asserts the criterion at
its stated tolerance.  Constructive-pipeline success *rates* are reported,
not asserted, because generated desk-scale inputs sit far below the
sufficiency thresholds; what is asserted is that no unverified success is
ever emitted.
"""

import math
import random
import time

from bruteforce import (brute_find_subdivision, brute_find_subdivision_by_length,
                        is_balanced_brute, mu_component_max, mu_star_brute,
                        path_count_pairs, unbalanced_cycle_lengths)
from dichromate import (ABSENT, FOUND, OUT, BiorientedCliqueOracle,
                        ConstructionFailed, ExactMuOracle, PatternArc,
                        ResidueQuery, SubdivisionPattern, UndirectedPattern,
                        UndirectedPatternEdge, biorient,
                        check_gadget_sequences, check_residue_universal_set,
                        check_special_set, connector_set,
                        disjoint_unbalanced_cycles, extract_subdivision,
                        find_subdivision, find_subdivision_undirected,
                        gadget_sequences, gen_bioriented_clique, gen_planted,
                        gen_planted_undirected, gen_random,
                        has_unbalanced_cycle, is_strongly_connected,
                        level_split, mu_exact, nested_connector_sequence,
                        residue_path, residue_universal_set,
                        shortest_unbalanced_cycle,
                        special_set, special_set_threshold, two_arc_cycle,
                        universal_threshold, verify_undirected_witness,
                        verify_witness)

FLOOR = 14


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mu_exact_on_cliques():
    t0 = time.perf_counter()
    values = [mu_exact(gen_bioriented_clique(n).digraph).value for n in range(1, 7)]
    elapsed = time.perf_counter() - t0
    ok = values == [1, 2, 3, 4, 5, 6] and elapsed < 60.0
    _report(1, "mu exactness on bioriented cliques n=1..6", ok,
            f"values {values}, {elapsed:.2f}s")


def test_criterion_02_strong_component_reduction():
    checked = 0
    for seed in range(200):
        n = 4 + seed % 5
        p = 0.15 + 0.05 * (seed % 7)
        z1p = 0.3 + 0.1 * (seed % 5)
        z2p = 0.1 * (seed % 4)
        D = gen_random(n, p, z1p, z2p, seed=seed).digraph
        assert mu_exact(D).value == mu_component_max(D)
        checked += 1
    _report(2, "mu equals the strong-component maximum", checked >= 200,
            f"{checked} digraphs, zero tolerance")


def test_criterion_03_balance_decision():
    checked = 0
    for seed in range(500):
        n = 3 + seed % 6
        p = 0.15 + 0.05 * (seed % 6)
        D = gen_random(n, p, 0.5, 0.1 * (seed % 4), seed=seed).digraph
        assert has_unbalanced_cycle(D) == (not is_balanced_brute(D))
        checked += 1
    _report(3, "balance decision agrees with cycle enumeration", checked >= 500,
            f"{checked} digraphs, zero tolerance")


def test_criterion_04_shortest_cycle_split_property():
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        n = 4 + seed % 6
        p = 0.18 + 0.04 * (seed % 5)
        D = gen_random(n, p, 0.5, 0.1 * (seed % 3), seed=seed).digraph
        cyc = shortest_unbalanced_cycle(D)
        if cyc is None:
            continue
        checked += 1
        assert cyc.length == min(unbalanced_cycle_lengths(D))
        for v in cyc.vertices:
            rest = set(cyc.vertices) - {v}
            if rest:
                assert not has_unbalanced_cycle(D.induced(rest))
    _report(4, "shortest-cycle split property and minimality", checked >= 200,
            f"{checked} unbalanced digraphs")


def test_criterion_05_disjoint_cycle_packing():
    for t in range(1, 6):
        D = gen_bioriented_clique(2 * t).digraph
        packing = disjoint_unbalanced_cycles(D, t)
        assert packing.complete, f"t={t} shortfall {packing.shortfall}"
        seen = set()
        for cyc in packing.cycles:
            assert cyc.weight != 0
            assert not (set(cyc.vertices) & seen)
            seen |= set(cyc.vertices)
    _report(5, "disjoint unbalanced cycles on cliques K_{2t}, t=1..5", True)


def test_criterion_06_level_split_bound():
    checked = 0
    seed = 0
    while checked < 100 and seed < 3000:
        seed += 1
        n = 4 + seed % 6
        p = 0.3 + 0.06 * (seed % 5)
        D = gen_random(n, p, 0.6, 0.1 * (seed % 3), seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        mu = mu_exact(D).value
        if not 2 <= mu <= 6:
            continue
        checked += 1
        oracle = ExactMuOracle(D)
        res = level_split(D, min(D.vertices), OUT, oracle)
        assert res.verified
        assert res.mu_of_component >= -(-mu // 2), (seed, mu, res)
    _report(6, "level-split component meets ceil(mu/2)", checked >= 100,
            f"{checked} strongly connected digraphs with mu in [2,6]")


def test_criterion_07_connector_sets_on_cliques():
    for n in range(8, 17):
        D = gen_bioriented_clique(n).digraph
        t0 = time.perf_counter()
        cs = connector_set(D, BiorientedCliqueOracle(D))
        assert len(cs.X) >= n / 4
        assert is_strongly_connected(D.induced(cs.X))
        for x in sorted(cs.X):
            for y in sorted(cs.X):
                if x == y:
                    continue
                p = cs.path(x, y)
                assert p.first == x and p.last == y and p.valid_in(D)
                assert not (set(p.interior) & cs.X)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"n={n} took {elapsed:.1f}s"
    _report(7, "connector sets on cliques n=8..16 with verified X-paths", True)


def test_criterion_08_nested_sequence_k32():
    D = gen_bioriented_clique(32).digraph
    oracle = BiorientedCliqueOracle(D)
    seq = nested_connector_sequence(D, 2, oracle)
    for i in (1, 2):
        assert oracle.mu(seq.sets[i]) >= 32 / 4 ** i
    inner = sorted(seq.sets[2])
    paths = 0
    for i in (1, 2):
        allowed = seq.sets[2] | (seq.sets[i - 1] - seq.sets[i])
        for x in inner:
            for y in inner:
                if x == y:
                    continue
                p = seq.path(x, y, i)
                assert set(p.vertices) <= allowed
                paths += 1
    _report(8, "nested connector sequence on K32, m=2", True,
            f"{paths} locality-checked paths")


_COPRIME = {2: [(1, 1)], 3: [(1, 1), (1, 2), (2, 1), (2, 2)],
            4: [(1, 1), (1, 3), (3, 1), (3, 3)]}


def test_criterion_09_residue_path_completeness():
    digraphs = 0
    queries = 0
    for seed in range(300):
        n = 4 + seed % 6
        p = 0.2 + 0.04 * (seed % 4)
        D = gen_random(n, p, 0.5, 0.25, seed=seed).digraph
        verts = D.vertices
        u, v = verts[0], verts[-1]
        pairs = path_count_pairs(D, u, v)
        for q in (2, 3, 4):
            for a, b in _COPRIME[q]:
                for target in range(q):
                    expected = any((a * c1 + b * c2) % q == target
                                   for c1, c2 in pairs)
                    got = residue_path(D, ResidueQuery(u=u, v=v, a=a, b=b, q=q,
                                                       target=target))
                    assert (got is not None) == expected, (seed, q, a, b, target)
                    if got is not None:
                        c1, c2 = D.label_counts(got.arcs())
                        assert (a * c1 + b * c2) % q == target
                    queries += 1
        digraphs += 1
    _report(9, "residue-path completeness vs exhaustive enumeration",
            digraphs >= 300, f"{digraphs} digraphs, {queries} queries, zero tolerance")


def _random_pattern(rng, max_vertices=4, max_q=5):
    k = rng.randint(2, max_vertices)
    pairs = [(t, h) for t in range(k) for h in range(k) if t != h]
    rng.shuffle(pairs)
    count = rng.randint(1, min(4, len(pairs)))
    arcs = []
    for t, h in pairs[:count]:
        q = rng.randint(2, max_q)
        units = [x for x in range(1, q) if math.gcd(x, q) == 1]
        arcs.append(PatternArc(t, h, rng.choice(units), rng.choice(units),
                               rng.randrange(q), q))
    return SubdivisionPattern(k, tuple(arcs))


def test_criterion_10_direct_finder_end_to_end():
    rng = random.Random(2026)
    t_max = 0.0
    for i in range(100):
        pattern = _random_pattern(rng)
        planted_size = pattern.num_vertices + sum(1 for _ in pattern.arcs) * 6
        inst = gen_planted(pattern,
                           extra_vertices=rng.randint(0, 2 * planted_size),
                           extra_arcs=rng.randint(0, 2 * planted_size),
                           seed=rng.randrange(10 ** 6))
        t0 = time.perf_counter()
        out = find_subdivision(inst.digraph, pattern, budget=10 ** 7)
        t_max = max(t_max, time.perf_counter() - t0)
        assert out.status == FOUND, f"planted instance {i} not found"
        assert verify_witness(inst.digraph, pattern, out.witness).ok
        assert t_max < 300.0
    absents = 0
    seed = 0
    while absents < 50 and seed < 4000:
        seed += 1
        n = 3 + seed % 5
        D = gen_random(n, 0.25, 0.5, 0.3, seed=seed).digraph
        pattern = _random_pattern(random.Random(seed), max_vertices=3, max_q=5)
        if brute_find_subdivision(D, pattern) is not None:
            continue
        out = find_subdivision(D, pattern, budget=10 ** 7)
        assert out.status == ABSENT, (seed, out.status)
        absents += 1
    _report(10, "direct finder: planted found, certified non-instances absent",
            absents >= 50, f"100 planted (max {t_max:.2f}s), {absents} absents")


def test_criterion_11_constructive_certification():
    attempts = 0
    successes = 0

    def attempt(fn, checker):
        nonlocal attempts, successes
        attempts += 1
        try:
            result = fn()
        except ConstructionFailed:
            return
        problems = checker(result)
        assert not problems, problems
        successes += 1

    for n in (13, 14, 16, 20):
        D = gen_bioriented_clique(n).digraph
        oracle = BiorientedCliqueOracle(D)
        attempt(lambda D=D, o=oracle: two_arc_cycle(D, o),
                lambda cyc, D=D: [] if sum(
                    1 for a in cyc.arcs() if (a in D.z1) != (a in D.z2)) >= 2
                else ["fewer than two distinguishing arcs"])
    for n in (20, 22, 26):
        D = gen_bioriented_clique(n).digraph
        oracle = BiorientedCliqueOracle(D)
        attempt(lambda D=D, o=oracle: special_set(D, 0, 2, o, floor=FLOOR),
                lambda res, D=D, o=oracle: check_special_set(D, 0, 2, res,
                                                             oracle=o, floor=FLOOR))
    for n, q in ((24, 2), (30, 2), (52, 3)):
        D = gen_bioriented_clique(n).digraph
        oracle = BiorientedCliqueOracle(D)
        attempt(lambda D=D, o=oracle, q=q: gadget_sequences(D, 0, q, o, floor=FLOOR),
                lambda gs, D=D, q=q: check_gadget_sequences(D, 0, q, gs, floor=FLOOR))
    for n, q in ((24, 2), (26, 2), (52, 3)):
        D = gen_bioriented_clique(n).digraph
        oracle = BiorientedCliqueOracle(D)
        attempt(lambda D=D, o=oracle, q=q: residue_universal_set(D, q, o, floor=FLOOR),
                lambda rus, D=D: check_residue_universal_set(D, rus))
    single = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    double = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                    PatternArc(1, 2, 1, 1, 0, 2)))
    for n, pat in ((26, single), (30, single), (46, double)):
        D = gen_bioriented_clique(n).digraph
        oracle = BiorientedCliqueOracle(D)
        attempt(lambda D=D, o=oracle, pat=pat: extract_subdivision(D, pat, o, floor=FLOOR),
                lambda w, D=D, pat=pat: [] if verify_witness(D, pat, w).ok
                else ["witness verification failed"])
    # a z2-labeled clique exercises the other majority side of the solve
    from dichromate import LabeledDigraph
    arcs_z2 = [(u, v) for u in range(26) for v in range(26) if u != v]
    z2_clique = LabeledDigraph.on_range(26, arcs_z2, z2=arcs_z2)
    z2_oracle = BiorientedCliqueOracle(z2_clique)
    attempt(lambda: residue_universal_set(z2_clique, 2, z2_oracle, floor=FLOOR),
            lambda rus: check_residue_universal_set(z2_clique, rus))
    # a non-clique family driven end to end by the exact oracle
    hub_arcs = [(u, v) for u in range(18) for v in range(18) if u != v]
    hub_z1 = list(hub_arcs)
    for v in range(18):
        hub_arcs += [(18, v), (v, 18)]
    hub = LabeledDigraph.on_range(19, hub_arcs, z1=hub_z1)
    hub_oracle = ExactMuOracle(hub)
    attempt(lambda: special_set(hub, 18, 2, hub_oracle, floor=FLOOR),
            lambda res: check_special_set(hub, 18, 2, res, oracle=hub_oracle,
                                          floor=FLOOR))
    # below-threshold inputs where failure is the expected outcome
    for seed in range(4):
        D = gen_random(8, 0.5, 0.6, 0.2, seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        oracle = ExactMuOracle(D)
        attempt(lambda D=D, o=oracle: two_arc_cycle(D, o),
                lambda cyc, D=D: [] if sum(
                    1 for a in cyc.arcs() if (a in D.z1) != (a in D.z2)) >= 2
                else ["fewer than two distinguishing arcs"])
    rate = successes / attempts if attempts else 0.0
    print(f"constructive sweep: {successes}/{attempts} successes "
          f"({rate:.0%}); every success re-verified")
    _report(11, "constructive outputs always pass their condition verifiers", True,
            f"{successes}/{attempts} succeeded, zero unverified")


def test_criterion_12_plain_length_special_case():
    pattern1 = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pattern2 = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 3),
                                      PatternArc(1, 2, 1, 1, 2, 2)))
    checked = 0
    for seed in range(50):
        for pattern in (pattern1, pattern2):
            n = 4 + seed % 4
            D = gen_random(n, 0.3 + 0.05 * (seed % 3), 1.0, 0.0, seed=seed).digraph
            assert D.z1 == frozenset(D.arcs) and not D.z2
            out = find_subdivision(D, pattern)
            brute = brute_find_subdivision_by_length(D, pattern)
            assert (out.status == FOUND) == (brute is not None), (seed, pattern)
            if out.status == FOUND:
                w = out.witness
                for e in pattern.arcs:
                    assert w.paths[e.key].length % e.q == e.r
            checked += 1
    _report(12, "all-z1 congruences coincide with plain length residues",
            checked >= 100, f"{checked} instances")


def test_criterion_13_undirected_reduction():
    rng = random.Random(77)
    found = 0
    for i in range(50):
        k = rng.randint(2, 3)
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        rng.shuffle(pairs)
        edges = []
        for u, v in pairs[:rng.randint(1, len(pairs))]:
            q = rng.randint(2, 4)
            units = [x for x in range(1, q) if math.gcd(x, q) == 1]
            edges.append(UndirectedPatternEdge(u, v, rng.choice(units),
                                               rng.choice(units), rng.randrange(q), q))
        pattern = UndirectedPattern(k, tuple(edges))
        G, witness = gen_planted_undirected(pattern, extra_vertices=rng.randint(0, 4),
                                            extra_edges=rng.randint(0, 8),
                                            seed=rng.randrange(10 ** 6))
        assert verify_undirected_witness(G, pattern, witness).ok
        out = find_subdivision_undirected(G, pattern, budget=10 ** 7)
        assert out.status == FOUND, f"undirected planted instance {i} not found"
        assert verify_undirected_witness(G, pattern, out.witness).ok
        found += 1
    relation = 0
    rng = random.Random(13)
    for i in range(12):
        n = 7 if i >= 9 else rng.randint(4, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.55]
        from dichromate import UndirectedLabeledGraph
        G = UndirectedLabeledGraph(range(n), edges,
                                   b1=[e for e in edges if rng.random() < 0.5],
                                   b2=[e for e in edges if rng.random() < 0.4])
        assert mu_exact(biorient(G)).value >= mu_star_brute(G)
        relation += 1
    _report(13, "undirected planted witnesses and biorientation mu relation",
            found >= 50 and relation >= 12, f"{found} planted, {relation} mu checks")


def test_criterion_14_threshold_formulas():
    ok = special_set_threshold(2) == 12288 and universal_threshold(2, 2) == 24576
    ok = ok and universal_threshold(2, 2) == 4 * max(1536 * 5, 2 * 2 + 3072) - 6144
    _report(14, "threshold formulas match independent arithmetic", ok,
            "special_set_threshold(2)=12288, universal(2,2)=24576")
