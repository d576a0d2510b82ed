import pytest

from conftest import bio_clique, digon, digraph, directed_cycle_graph
from dichromate import (IN, OUT, BiorientedCliqueOracle, ConstructionFailed, ExactMuOracle,
                        HintMuOracle, PreconditionViolation, connector_set,
                        gen_random, is_strongly_connected, level_split,
                        leveling, mu_exact, nested_connector_sequence,
                        tree_path)


def test_level_split_clique_picks_big_level():
    D = bio_clique(5)
    res = level_split(D, leveling(D, 0, OUT), BiorientedCliqueOracle(D))
    assert res.level_index == 1
    assert res.component == frozenset({1, 2, 3, 4})
    assert res.mu_of_component == 4
    assert res.verified and res.provenance == "bioriented-clique"
    assert res.mu_of_component >= -(-5 // 2)  # ceil(mu(D)/2)


def test_level_split_singleton_levels_meet_bound():
    D = directed_cycle_graph(4, z1_indices=[0])
    oracle = ExactMuOracle(D)
    res = level_split(D, leveling(D, 0, OUT), oracle)
    # every level is a singleton with mu 1; the bound ceil(2/2) = 1 is met
    assert res.mu_of_component == 1
    assert mu_exact(D).value == 2
    assert res.mu_of_component >= -(-mu_exact(D).value // 2)


def test_level_split_requires_strong_connectivity():
    D = digraph(3, [(0, 1), (1, 2)])
    lev_holder = directed_cycle_graph(3)
    with pytest.raises(PreconditionViolation):
        level_split(D, leveling(lev_holder, 0, OUT), ExactMuOracle(D))


def test_level_split_exact_bound_on_random_digraphs():
    checked = 0
    for seed in range(60):
        D = gen_random(7, 0.35, 0.6, 0.2, seed=seed).digraph
        if not is_strongly_connected(D):
            continue
        mu = mu_exact(D).value
        if mu < 2:
            continue
        checked += 1
        oracle = ExactMuOracle(D)
        for direction in (OUT, IN):
            res = level_split(D, leveling(D, min(D.vertices), direction), oracle)
            assert res.verified
            assert res.mu_of_component >= -(-mu // 2)
    assert checked >= 8


def test_level_split_hint_oracle_flags_unverified():
    D = bio_clique(4)
    lev = leveling(D, 0, OUT)
    oracle = HintMuOracle({frozenset({1, 2, 3}): 3})  # level-0 component missing
    res = level_split(D, lev, oracle)
    assert res.component == frozenset({1, 2, 3})
    assert not res.verified


def test_connector_set_k12_all_pairs():
    D = bio_clique(12)
    cs = connector_set(D, BiorientedCliqueOracle(D))
    assert len(cs.X) >= 3  # mu(D)/4
    assert is_strongly_connected(D.induced(cs.X))
    for x in sorted(cs.X):
        for y in sorted(cs.X):
            if x == y:
                continue
            p = cs.path(x, y)
            assert p.first == x and p.last == y
            assert p.valid_in(D)
            assert not (set(p.interior) & cs.X)


def test_connector_set_k8():
    D = bio_clique(8)
    cs = connector_set(D, BiorientedCliqueOracle(D))
    assert len(cs.X) >= 2
    xs = sorted(cs.X)
    for x, y in ((xs[0], xs[1]), (xs[1], xs[0])):
        p = cs.path(x, y)
        assert p.first == x and p.last == y and not (set(p.interior) & cs.X)


def test_connector_paths_must_stay_in_the_host():
    D = bio_clique(16)
    cs = connector_set(D, BiorientedCliqueOracle(D))
    assert cs.host == frozenset(D.vertices)
    x, y = sorted(cs.X)[:2]
    assert cs.x0 in connector_set(D, BiorientedCliqueOracle(D)).path(x, y).vertices
    cs.host = cs.host - {cs.x0}
    with pytest.raises(ConstructionFailed, match=rf"splice for \({x}, {y}\) leaves the digraph") as exc:
        cs.path(x, y)
    assert exc.value.stage == "connector-path"


def test_connector_set_below_threshold_is_flagged_or_degenerate():
    D = digon(z1=[(0, 1), (1, 0)])
    cs = connector_set(D, ExactMuOracle(D))
    # mu(D) = 2 < 8: the construction degenerates into a flagged result
    assert cs.flags
    assert len(cs.X) <= 2


def test_connector_set_requires_strong_connectivity():
    with pytest.raises(PreconditionViolation):
        connector_set(digraph(3, [(0, 1), (1, 2)]), ExactMuOracle(digraph(3, [(0, 1), (1, 2)])))


def test_connector_set_rejects_a_host_with_unknown_vertices():
    D = bio_clique(6)
    with pytest.raises(ValueError, match=r"unknown vertices in host: \[-1, 40\]"):
        connector_set(D, BiorientedCliqueOracle(D), host={0, 1, 2, 40, -1})


def test_connector_proof_shape_invariants():
    D = bio_clique(10)
    cs = connector_set(D, BiorientedCliqueOracle(D))
    for u in sorted(cs.X1):
        esc = tree_path(cs.in_tree, u)
        assert esc.first == u and esc.last == cs.x0
        assert set(esc.vertices) & cs.X1 == {u}
        assert esc.valid_in(D)
    for u in sorted(cs.X):
        down = tree_path(cs.out_tree, u)
        assert down.first == cs.x1 and down.last == u
        assert set(down.vertices) & cs.X == {u}
        assert down.valid_in(D)
    # the entry path meets X1 exactly at its final vertex
    assert set(cs.entry_path.vertices) & cs.X1 == {cs.x1}


def test_connector_start_override():
    D = bio_clique(9)
    cs = connector_set(D, BiorientedCliqueOracle(D), start=4)
    assert cs.x0 == 4
    assert 4 not in cs.X


def test_nested_sequence_m0():
    D = bio_clique(5)
    seq = nested_connector_sequence(D, 0, BiorientedCliqueOracle(D))
    assert seq.sets == (frozenset(D.vertices),)
    assert seq.m == 0


def test_nested_sequence_rejects_negative():
    D = bio_clique(5)
    with pytest.raises(ValueError):
        nested_connector_sequence(D, -1, BiorientedCliqueOracle(D))


def test_nested_sequence_k16_locality():
    D = bio_clique(16)
    oracle = BiorientedCliqueOracle(D)
    seq = nested_connector_sequence(D, 2, oracle)
    assert seq.sets[0] >= seq.sets[1] >= seq.sets[2]
    for i in (1, 2):
        assert is_strongly_connected(D.induced(seq.sets[i]))
        assert oracle.mu(seq.sets[i]) >= 16 / 4 ** i
    inner = sorted(seq.sets[2])
    for i in (1, 2):
        shell = seq.sets[i - 1] - seq.sets[i]
        for x, y in ((inner[0], inner[1]), (inner[2], inner[0])):
            p = seq.path(x, y, i)
            assert p.first == x and p.last == y
            assert set(p.interior) <= shell
            assert not (set(p.interior) & seq.sets[2])


def test_nested_sequence_below_threshold_flags():
    D = bio_clique(3)  # mu = 3 < 2^(2*2+1)
    seq = nested_connector_sequence(D, 2, BiorientedCliqueOracle(D))
    assert len(seq.sets) == 3
    # sets shrink to nothing useful but the call still reports flags/sets
    assert seq.sets[2] <= seq.sets[1] <= seq.sets[0]
